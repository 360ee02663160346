// One logical match-action stage: the stage-local register array plus the
// per-FID match-table state the control plane installs at allocation time.
// Each installed entry consumes one TCAM range entry (memory protection is
// range matching on MAR, Section 3.1); TCAM capacity is the admission
// bottleneck the paper calls out. The installed FIDs are one sorted vector
// (at most the TCAM capacity, 512 by default) beside their entries, so a
// lookup is a binary search over at most 1 KiB of consecutive memory.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "rmt/register_array.hpp"

namespace artmt::rmt {

// Match-table entry for one application in one stage: the protected word
// range, the translation pair (mask/offset) used by ADDR_MASK /
// ADDR_OFFSET for runtime address translation of hash results, and the
// MAR advance applied after a memory access (action data that re-targets
// MAR at the application's region in its *next* memory stage, enabling
// Listing 1's single-MAR_LOAD bucket walk when per-stage offsets differ).
struct FidEntry {
  u32 start_word = 0;
  u32 limit_word = 0;  // half-open
  Word mask = 0;       // largest 2^k - 1 <= region size
  Word offset = 0;     // == start_word
  i32 advance = 0;     // start(next mem stage) - start(this stage)

  [[nodiscard]] u32 words() const { return limit_word - start_word; }
  [[nodiscard]] bool covers(u32 word_index) const {
    return word_index >= start_word && word_index < limit_word;
  }
};

class Stage {
 public:
  Stage(u32 words, u32 tcam_capacity);

  // Installs (or replaces) the entry for `fid`; computes mask/offset from
  // the region. Returns false if TCAM capacity would be exceeded (the
  // controller turns that into an admission failure).
  bool install(Fid fid, u32 start_word, u32 limit_word, i32 advance = 0);

  // Removes the entry; no-op if absent.
  void remove(Fid fid);

  [[nodiscard]] const FidEntry* lookup(Fid fid) const;

  [[nodiscard]] u32 tcam_used() const {
    return static_cast<u32>(fids_.size());
  }
  [[nodiscard]] u32 tcam_capacity() const { return tcam_capacity_; }

  [[nodiscard]] RegisterArray& memory() { return memory_; }
  [[nodiscard]] const RegisterArray& memory() const { return memory_; }

 private:
  // The lower bound of `fid` in fids_: the index of the first FID not
  // below it, or fids_.size().
  [[nodiscard]] std::size_t lower_bound(Fid fid) const;

  RegisterArray memory_;
  u32 tcam_capacity_;
  std::vector<Fid> fids_;          // sorted
  std::vector<FidEntry> entries_;  // entries_[i] is fids_[i]'s
};

// Largest mask of the form 2^k - 1 that keeps start + mask < limit (i.e.
// hash & mask + offset always lands inside the region). Zero-size regions
// get mask 0.
Word translation_mask(u32 start_word, u32 limit_word);

}  // namespace artmt::rmt
