#include "rmt/stage.hpp"

#include "common/error.hpp"

namespace artmt::rmt {

Word translation_mask(u32 start_word, u32 limit_word) {
  if (limit_word <= start_word) return 0;
  const u32 size = limit_word - start_word;
  Word mask = 0;
  while (((mask << 1) | 1) < size) mask = (mask << 1) | 1;
  return mask;
}

Stage::Stage(u32 words, u32 tcam_capacity)
    : memory_(words), tcam_capacity_(tcam_capacity) {}

std::size_t Stage::lower_bound(Fid fid) const {
  // Branch-free: capsules arrive in no FID order a branch predictor could
  // learn, and a mispredicted step costs more than the whole search.
  if (fids_.empty()) return 0;
  const Fid* first = fids_.data();
  for (std::size_t len = fids_.size(); len > 1;) {
    const std::size_t half = len / 2;
    first = first[half] < fid ? first + half : first;
    len -= half;
  }
  return static_cast<std::size_t>(first - fids_.data()) + (*first < fid);
}

bool Stage::install(Fid fid, u32 start_word, u32 limit_word, i32 advance) {
  if (limit_word < start_word || limit_word > memory_.size()) {
    throw UsageError("Stage::install: region out of bounds");
  }
  const std::size_t i = lower_bound(fid);
  const bool replacing = i < fids_.size() && fids_[i] == fid;
  if (!replacing && fids_.size() >= tcam_capacity_) return false;
  FidEntry entry;
  entry.start_word = start_word;
  entry.limit_word = limit_word;
  entry.mask = translation_mask(start_word, limit_word);
  entry.offset = start_word;
  entry.advance = advance;
  if (replacing) {
    entries_[i] = entry;
  } else {
    fids_.insert(fids_.begin() + i, fid);
    entries_.insert(entries_.begin() + i, entry);
  }
  return true;
}

void Stage::remove(Fid fid) {
  const std::size_t i = lower_bound(fid);
  if (i < fids_.size() && fids_[i] == fid) {
    fids_.erase(fids_.begin() + i);
    entries_.erase(entries_.begin() + i);
  }
}

const FidEntry* Stage::lookup(Fid fid) const {
  const std::size_t i = lower_bound(fid);
  return i < fids_.size() && fids_[i] == fid ? &entries_[i] : nullptr;
}

}  // namespace artmt::rmt
