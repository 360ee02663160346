#include "apps/hh_service.hpp"

#include <algorithm>

#include "apps/programs.hpp"
#include "client/client_node.hpp"
#include "common/logging.hpp"

namespace artmt::apps {

namespace {
// Access indices within the monitor program's access list.
constexpr u32 kAccessThreshold = 2;
constexpr u32 kAccessKey0 = 3;
constexpr u32 kAccessKey1 = 4;

client::ReliabilityTracker::Options extract_retry_options() {
  client::ReliabilityTracker::Options opts;
  opts.rto = 5 * kMillisecond;  // the former fixed sweep interval
  return opts;
}
}  // namespace

FrequentItemService::FrequentItemService(std::string name,
                                         packet::MacAddr server_mac,
                                         u32 cms_blocks, u32 table_blocks)
    : client::Service(std::move(name),
                      hh_service_spec(cms_blocks, table_blocks)),
      server_mac_(server_mac),
      extract_retry_(
          "extract", [this]() -> netsim::Simulator& { return node().sim(); },
          extract_retry_options()) {
  extract_retry_.on_give_up = [this](u32 id) { read_given_up(id); };
}

u32 FrequentItemService::table_words() const {
  const auto* synth = synthesized();
  if (synth == nullptr) return 0;
  return std::min({synth->access_words[kAccessThreshold],
                   synth->access_words[kAccessKey0],
                   synth->access_words[kAccessKey1]});
}

void FrequentItemService::observe(u64 key) {
  if (!operational()) return;  // transmissions paused while negotiating
  const auto* synth = synthesized();
  packet::ArgumentHeader args;
  args.args[0] = key_half0(key);
  args.args[1] = key_half1(key);
  KvMessage msg;
  msg.type = KvMessage::Type::kGet;
  msg.request_id = next_request_++;
  msg.key = key;
  send_program(*synth, args, msg.serialize(), false, server_mac_);
}

client::MemRef FrequentItemService::ref_for_access(u32 access,
                                                   u32 index) const {
  const auto* synth = synthesized();
  const u32 stages = node().logical_stages();
  client::MemRef ref;
  ref.stage = (*mutant())[access] % stages;
  ref.address = synth->access_base[access] + index;
  return ref;
}

void FrequentItemService::send_key_read(u32 index) {
  const client::MemRef ref0 = ref_for_access(kAccessKey0, index);
  const client::MemRef ref1 = ref_for_access(kAccessKey1, index);
  KvMessage tag;
  tag.type = KvMessage::Type::kMemSync;
  tag.request_id = index;
  tag.key = kTagKeys;
  if (ref0.stage < ref1.stage) {
    tag.value = 2;  // pair read: both halves in one capsule
    send_program(client::make_read_pair_program(ref0, ref1),
                 client::read_pair_args(ref0, ref1), tag.serialize(),
                 extraction_->management);
  } else {
    // Mutant wrapped the stages out of order: two single reads, key0
    // first (tag distinguishes them by array).
    KvMessage tag0 = tag;
    tag0.key = kTagKeys;
    tag0.value = 0;
    send_program(client::make_read_program(ref0), client::read_args(ref0),
                 tag0.serialize(), extraction_->management);
    KvMessage tag1 = tag;
    tag1.key = kTagKeys;
    tag1.value = 1;
    send_program(client::make_read_program(ref1), client::read_args(ref1),
                 tag1.serialize(), extraction_->management);
  }
}

void FrequentItemService::send_threshold_read(u32 index) {
  const client::MemRef ref = ref_for_access(kAccessThreshold, index);
  KvMessage tag;
  tag.type = KvMessage::Type::kMemSync;
  tag.request_id = index;
  tag.key = kTagThreshold;
  send_program(client::make_read_program(ref), client::read_args(ref),
               tag.serialize(), extraction_->management);
}

void FrequentItemService::extract(ItemsFn done, u32 min_count,
                                  bool management) {
  if (synthesized() == nullptr) {
    throw UsageError("FrequentItemService: no allocation to extract");
  }
  const u32 words = table_words();
  Extraction ex;
  ex.done = std::move(done);
  ex.min_count = min_count;
  ex.management = management;
  ex.thresholds.assign(words, 0);
  ex.key0.assign(words, 0);
  ex.key1.assign(words, 0);
  ex.have_keys.assign(words, false);
  ex.have_threshold.assign(words, false);
  ex.remaining = 2 * words;
  extraction_ = std::move(ex);

  for (u32 i = 0; i < words; ++i) {
    send_key_read(i);
    extract_retry_.track(key_read_id(i), [this](u32 id, u32) {
      if (extraction_) send_key_read(id / 2);
    });
    send_threshold_read(i);
    extract_retry_.track(threshold_read_id(i), [this](u32 id, u32) {
      if (extraction_) send_threshold_read(id / 2);
    });
  }
}

void FrequentItemService::read_given_up(u32 id) {
  // A read that exhausted its budget reports as an empty bucket so the
  // extraction still terminates (give-ups are visible in the tracker's
  // stats and the exported reliability metrics).
  if (!extraction_) return;
  auto& ex = *extraction_;
  const u32 index = id / 2;
  if (index >= ex.have_keys.size()) return;
  if (id == key_read_id(index) && !ex.have_keys[index]) {
    ex.have_keys[index] = true;
    --ex.remaining;
  } else if (id == threshold_read_id(index) && !ex.have_threshold[index]) {
    ex.have_threshold[index] = true;
    --ex.remaining;
  }
  maybe_finish();
}

void FrequentItemService::on_returned(const packet::ArgumentHeader& args,
                                      std::span<const u8> payload) {
  const auto msg = KvMessage::parse(payload);
  if (!msg || !extraction_) return;
  if (msg->type != KvMessage::Type::kMemSync) return;
  const u32 index = msg->request_id;
  auto& ex = *extraction_;
  if (index >= ex.have_keys.size()) return;
  if (msg->key == kTagKeys) {
    if (ex.have_keys[index]) return;
    // The tag's value says how the halves travelled: 2 = pair capsule
    // (values in args[1]/args[3]), 0/1 = split single reads.
    if (msg->value == 2) {
      ex.key0[index] = args.args[1];
      ex.key1[index] = args.args[3];
      ex.have_keys[index] = true;
    } else if (msg->value == 0) {
      ex.key0[index] = args.args[1];
    } else {
      ex.key1[index] = args.args[1];
      ex.have_keys[index] = true;  // simplification: halves arrive in order
    }
    if (ex.have_keys[index]) {
      --ex.remaining;
      extract_retry_.ack(key_read_id(index));
    }
  } else if (msg->key == kTagThreshold) {
    if (ex.have_threshold[index]) return;
    ex.thresholds[index] = args.args[1];
    ex.have_threshold[index] = true;
    --ex.remaining;
    extract_retry_.ack(threshold_read_id(index));
  }
  maybe_finish();
}

void FrequentItemService::maybe_finish() {
  if (!extraction_ || extraction_->remaining != 0) return;
  auto& ex = *extraction_;
  std::vector<std::pair<u64, u32>> items;
  for (u32 i = 0; i < ex.thresholds.size(); ++i) {
    if (ex.thresholds[i] >= ex.min_count &&
        (ex.key0[i] != 0 || ex.key1[i] != 0)) {
      items.emplace_back(join_key(ex.key0[i], ex.key1[i]), ex.thresholds[i]);
    }
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  auto done = std::move(ex.done);
  extraction_.reset();
  extract_retry_.cancel_all();
  if (done) done(std::move(items));
}

}  // namespace artmt::apps
