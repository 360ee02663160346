// The frequent-item (heavy-hitter) monitor service (Section 6.3, Appendix
// B.1): object requests are activated with the CMS + threshold program;
// the client later extracts the per-bucket (key, threshold) tables with
// memory-sync capsules to learn the popular items.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "apps/kv.hpp"
#include "client/memsync.hpp"
#include "client/service.hpp"

namespace artmt::apps {

class FrequentItemService : public client::Service {
 public:
  FrequentItemService(std::string name, packet::MacAddr server_mac,
                      u32 cms_blocks = 16, u32 table_blocks = 2);

  // Activates an object request with the monitor program (the GET itself
  // is served by the server; the switch only observes).
  void observe(u64 key);

  // Reads back the key/threshold tables over the data plane and reports
  // every bucket whose threshold exceeds `min_count`. Lost capsules back
  // off and retransmit per read (client::ReliabilityTracker); a read that
  // exhausts its retry budget reports as empty so extraction always
  // terminates.
  using ItemsFn =
      std::function<void(std::vector<std::pair<u64, u32>> items)>;
  void extract(ItemsFn done, u32 min_count = 1, bool management = false);

  std::function<void()> on_ready;

  [[nodiscard]] u32 table_words() const;

  // The extraction read retransmit loop (stats, schedule tuning).
  [[nodiscard]] client::ReliabilityTracker& extract_reliability() {
    return extract_retry_;
  }

 protected:
  void on_operational() override {
    if (on_ready) on_ready();
  }
  void on_returned(const packet::ArgumentHeader& args,
                   std::span<const u8> payload) override;

 private:
  struct Extraction {
    ItemsFn done;
    u32 min_count = 1;
    bool management = false;
    std::vector<Word> thresholds;
    std::vector<Word> key0;
    std::vector<Word> key1;
    std::vector<bool> have_keys;
    std::vector<bool> have_threshold;
    u32 remaining = 0;
  };

  // Array tags inside memsync correlation payloads.
  static constexpr u32 kTagKeys = 1;
  static constexpr u32 kTagThreshold = 2;

  // Tracker ids: one per table word per array (keys, threshold).
  static constexpr u32 key_read_id(u32 index) { return 2 * index; }
  static constexpr u32 threshold_read_id(u32 index) { return 2 * index + 1; }

  void send_key_read(u32 index);
  void send_threshold_read(u32 index);
  void read_given_up(u32 id);
  void maybe_finish();
  [[nodiscard]] client::MemRef ref_for_access(u32 access, u32 index) const;

  packet::MacAddr server_mac_;
  u32 next_request_ = 1;
  client::ReliabilityTracker extract_retry_;
  std::optional<Extraction> extraction_;
};

}  // namespace artmt::apps
