// Application server: the authoritative key-value store object requests
// fall through to on a cache miss, and the backend pool member of the
// load-balancer experiments (echoes Cheetah cookies so clients can route
// subsequent packets statelessly).
//
// The store is one open-addressing table: a power-of-two array of 12-byte
// slots {key_hi, key_lo, value}, probed linearly from a Fibonacci hash of
// the key and doubled before an insert would fill it past 3/4 (key 0 marks
// an empty slot, so a stored key 0 lives beside the array). A lookup reads
// consecutive slots instead of chasing a heap node per key, an insert
// allocates only when the array doubles, and 12-byte slots at <= 3/4 load
// keep the resident set below a node map's.
//
// Requests arrive as passive frames or inside active capsules. A program
// capsule is read in place (ProgramView, through the server's own program
// cache), so serving one copies and allocates nothing; only control
// capsules are materialized.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "active/program_cache.hpp"
#include "apps/kv.hpp"
#include "netsim/network.hpp"
#include "packet/active_packet.hpp"

namespace artmt::apps {

class ServerNode : public netsim::Node {
 public:
  ServerNode(std::string name, packet::MacAddr mac);

  // Authoritative store management: put inserts or overwrites.
  void put(u64 key, u32 value);
  [[nodiscard]] std::optional<u32> get(u64 key) const;

  void on_frame(netsim::Frame frame, u32 port) override;

  struct Stats {
    u64 gets_served = 0;
    u64 syns_answered = 0;
    u64 data_packets = 0;
    u64 ignored = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] packet::MacAddr mac() const { return mac_; }

 private:
  struct Slot {
    u32 key_hi = 0;
    u32 key_lo = 0;
    u32 value = 0;
    [[nodiscard]] u64 key() const { return u64{key_hi} << 32 | key_lo; }
  };

  // The slot holding `key` (nonzero), or the empty slot its probe ends at.
  [[nodiscard]] std::size_t find(u64 key) const;
  void grow();
  // Answers the request in `payload`; `cookie` is the capsule's args[3],
  // which the load balancer's select program stamps.
  void serve(packet::MacAddr requester, std::span<const u8> payload,
             std::optional<Word> cookie);
  void reply(packet::MacAddr dst, const KvMessage& msg);

  packet::MacAddr mac_;
  std::vector<Slot> slots_ = std::vector<Slot>(16);  // <= 3/4 used
  std::size_t used_ = 0;                              // slots holding a key
  u32 shift_ = 60;  // 64 - log2(slots_.size()), for the Fibonacci hash
  std::optional<u32> zero_value_;  // the value stored under key 0
  active::ProgramCache program_cache_;
  Stats stats_;
};

}  // namespace artmt::apps
