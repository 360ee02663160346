// The in-network cache service (Sections 3.4, 6.3): object GETs are
// activated with the Listing-1 query program; hits RTS back from the
// switch with the value, misses continue to the authoritative server.
// The client populates buckets with the write program (RTS-acked, with
// per-capsule retransmission via client::ReliabilityTracker) and
// re-populates after the allocator moves its memory.
#pragma once

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "apps/kv.hpp"
#include "client/service.hpp"

namespace artmt::apps {

class CacheService : public client::Service {
 public:
  CacheService(std::string name, packet::MacAddr server_mac);

  // --- application API ---
  // Issues an object request activated with the query program; the result
  // arrives via on_result (hit) or handle_server_reply (miss).
  void get(u64 key);

  // Writes the given items into their buckets; calls `done` once every
  // write is acknowledged (or given up on after the tracker's retry
  // budget). Unacked writes back off and retransmit per capsule.
  void populate(std::vector<std::pair<u64, u32>> items,
                std::function<void()> done = nullptr);

  // The populate write-back retransmit loop (stats, schedule tuning).
  [[nodiscard]] client::ReliabilityTracker& populate_reliability() {
    return populate_retry_;
  }

  // Wire this to the client node's passive path for server replies.
  void handle_server_reply(const KvMessage& reply);

  // --- callbacks ---
  // (request_id, key, value, served_by_cache)
  std::function<void(u32, u64, u32, bool)> on_result;
  std::function<void()> on_ready;       // first allocation applied
  std::function<void()> on_relocated;   // allocation moved (buckets zeroed)

  // --- introspection ---
  [[nodiscard]] u32 bucket_count() const;
  [[nodiscard]] u32 bucket_for(u64 key) const;
  struct CacheStats {
    u64 hits = 0;
    u64 misses = 0;
    u64 populate_acks = 0;
    u64 populate_sent = 0;
  };
  [[nodiscard]] const CacheStats& cache_stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::pair<u64, u32>>& hot_set() const {
    return hot_set_;
  }

 protected:
  // One allocation covers both the query and populate programs; the
  // composite request carries the binding constraints of the pair.
  [[nodiscard]] alloc::AllocationRequest allocation_request() const override;
  void on_operational() override;
  void on_moved() override;
  void on_returned(const packet::ArgumentHeader& args,
                   std::span<const u8> payload) override;

 private:
  void send_query(u64 key, u32 request_id);
  void send_populate(u64 key, u32 value, u32 request_id);
  void populate_resolved(u32 request_id);
  void resynthesize_populate();

  packet::MacAddr server_mac_;
  client::SynthesizedProgram populate_synth_;
  CacheStats stats_;
  u32 next_request_ = 1;
  std::unordered_map<u32, std::pair<u64, u32>> outstanding_populates_;
  client::ReliabilityTracker populate_retry_;
  std::function<void()> populate_done_;
  std::vector<std::pair<u64, u32>> hot_set_;  // last populated items
};

}  // namespace artmt::apps
