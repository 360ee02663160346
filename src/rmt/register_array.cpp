#include "rmt/register_array.hpp"

#include <bit>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace artmt::rmt {

namespace {

u32 ceil_div(u32 n, u32 d) {
  return static_cast<u32>((u64{n} + d - 1) / d);
}

}  // namespace

RegisterArray::RegisterArray(u32 size)
    : size_(size),
      slots_(ceil_div(size, kLineWords), 0),
      lines_(1),
      stored_(ceil_div(size, kChunkWords), 0) {}

void RegisterArray::out_of_range(u32 index) const {
  throw UsageError("RegisterArray: index " + std::to_string(index) +
                   " out of range (size " + std::to_string(size_) + ")");
}

u32 RegisterArray::attach(u32 line) {
  u32 slot = free_head_;
  if (slot != 0) {
    free_head_ = lines_[slot].words[0];
    lines_[slot] = Line{};
  } else {
    // Double the store, but never past one slot per line plus the zero
    // line: a fully written array costs what the dense one did.
    if (lines_.size() == lines_.capacity()) {
      lines_.reserve(std::min<std::size_t>(2 * lines_.capacity(),
                                           slots_.size() + 1));
    }
    slot = static_cast<u32>(lines_.size());
    lines_.emplace_back();
  }
  slots_[line] = slot;
  stored_[line / kLinesPerChunk] |= u16(1u << (line % kLinesPerChunk));
  return slot;
}

void RegisterArray::release(u32 line) {
  const u32 slot = slots_[line];
  slots_[line] = 0;
  stored_[line / kLinesPerChunk] &= u16(~(1u << (line % kLinesPerChunk)));
  lines_[slot].words[0] = free_head_;
  free_head_ = slot;
}

std::vector<Word> RegisterArray::dump(u32 start, u32 count) const {
  if (start > size_ || count > size_ - start) {
    throw UsageError("RegisterArray::dump: range out of bounds");
  }
  std::vector<Word> out(count);
  for (u32 done = 0; done < count;) {
    const u32 index = start + done;
    const u32 offset = index % kLineWords;
    const u32 n = std::min(kLineWords - offset, count - done);
    const Line& line = lines_[slots_[index / kLineWords]];
    std::copy_n(line.words.begin() + offset, n, out.begin() + done);
    done += n;
  }
  return out;
}

void RegisterArray::fill(u32 start, u32 count, Word value) {
  if (start > size_ || count > size_ - start) {
    throw UsageError("RegisterArray::fill: range out of bounds");
  }
  if (count == 0) return;
  const u32 end = start + count;
  // The part of `line` inside [start, end), as word offsets in the line
  // (lo >= hi when the line lies outside the range).
  const auto covered = [&](u32 line) {
    const u32 begin = line * kLineWords;
    return std::pair{std::clamp(start, begin, begin + kLineWords) - begin,
                     std::clamp(end, begin, begin + kLineWords) - begin};
  };
  if (value != 0) {
    for (u32 line = start / kLineWords; line <= (end - 1) / kLineWords;
         ++line) {
      u32 slot = slots_[line];
      if (slot == 0) slot = attach(line);
      const auto [lo, hi] = covered(line);
      std::fill(lines_[slot].words.begin() + lo,
                lines_[slot].words.begin() + hi, value);
    }
    return;
  }
  // Zero fill: lines without storage already read as zeros. A stored line
  // the range covers whole gives its storage back; one it covers in part
  // is zeroed there and keeps it (its other words may be non-zero). Words
  // past size() are never written, so the range covers the final line
  // whole once it reaches size().
  for (u32 chunk = start / kChunkWords; chunk <= (end - 1) / kChunkWords;
       ++chunk) {
    for (u32 bits = stored_[chunk]; bits != 0; bits &= bits - 1) {
      const u32 line =
          chunk * kLinesPerChunk + static_cast<u32>(std::countr_zero(bits));
      const auto [lo, hi] = covered(line);
      if (lo >= hi) continue;  // the line lies outside the range
      const u32 line_words = std::min(kLineWords, size_ - line * kLineWords);
      if (lo == 0 && hi >= line_words) {
        release(line);
      } else {
        Line& stored = lines_[slots_[line]];
        std::fill(stored.words.begin() + lo, stored.words.begin() + hi, 0);
      }
    }
  }
}

}  // namespace artmt::rmt
