#include "rmt/register_array.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace artmt::rmt {

RegisterArray::RegisterArray(u32 size)
    : cells_(size, 0), dirty_((size + kChunkWords - 1) / kChunkWords, 0) {}

void RegisterArray::check(u32 index) const {
  if (index >= cells_.size()) {
    throw UsageError("RegisterArray: index " + std::to_string(index) +
                     " out of range (size " + std::to_string(cells_.size()) +
                     ")");
  }
}

Word RegisterArray::read(u32 index) const {
  check(index);
  return cells_[index];
}

void RegisterArray::write(u32 index, Word value) {
  check(index);
  cells_[index] = value;
  dirty_[index / kChunkWords] = 1;
}

Word RegisterArray::increment(u32 index, Word inc) {
  check(index);
  cells_[index] += inc;  // u32 wrap-around, as on hardware
  dirty_[index / kChunkWords] = 1;
  return cells_[index];
}

Word RegisterArray::min_read(u32 index, Word operand) const {
  check(index);
  return std::min(cells_[index], operand);
}

std::vector<Word> RegisterArray::dump(u32 start, u32 count) const {
  if (start > cells_.size() || count > cells_.size() - start) {
    throw UsageError("RegisterArray::dump: range out of bounds");
  }
  return {cells_.begin() + start, cells_.begin() + start + count};
}

void RegisterArray::fill(u32 start, u32 count, Word value) {
  if (start > cells_.size() || count > cells_.size() - start) {
    throw UsageError("RegisterArray::fill: range out of bounds");
  }
  if (count == 0) return;
  const u32 end = start + count;
  const u32 first = start / kChunkWords;
  const u32 last = (end - 1) / kChunkWords;
  if (value != 0) {
    std::fill(cells_.begin() + start, cells_.begin() + end, value);
    std::fill(dirty_.begin() + first, dirty_.begin() + last + 1, u8{1});
    return;
  }
  // Zero fill: clean chunks already hold only zeros. A dirty chunk is
  // zeroed where the range covers it, and turns clean only when the range
  // covers all of it (its other words may still be non-zero).
  for (u32 chunk = first; chunk <= last; ++chunk) {
    if (dirty_[chunk] == 0) continue;
    const u32 chunk_begin = chunk * kChunkWords;
    const u32 chunk_end =
        chunk_begin + std::min(kChunkWords, size() - chunk_begin);
    const u32 lo = std::max(start, chunk_begin);
    const u32 hi = std::min(end, chunk_end);
    std::fill(cells_.begin() + lo, cells_.begin() + hi, 0);
    if (lo == chunk_begin && hi == chunk_end) dirty_[chunk] = 0;
  }
}

}  // namespace artmt::rmt
