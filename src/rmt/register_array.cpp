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

// The slot table of every unwritten array: all lines at the zero line.
const u16 kZeroSlots[RegisterArray::kMaxWords / RegisterArray::kLineWords] =
    {};

}  // namespace

RegisterArray::RegisterArray(u32 size) : size_(size) {
  if (size > kMaxWords) {
    throw UsageError("RegisterArray: " + std::to_string(size) +
                     " words is above the " + std::to_string(kMaxWords) +
                     "-word limit of u16 line slots");
  }
  repoint();
}

RegisterArray::RegisterArray(RegisterArray&& other) noexcept : size_(0) {
  *this = std::move(other);
}

RegisterArray& RegisterArray::operator=(RegisterArray&& other) noexcept {
  if (this == &other) return *this;
  size_ = other.size_;
  owned_slots_ = std::exchange(other.owned_slots_, {});
  store_ = std::exchange(other.store_, {});
  stored_ = std::exchange(other.stored_, {});
  free_head_ = std::exchange(other.free_head_, 0);
  repoint();
  other.repoint();
  return *this;
}

void RegisterArray::repoint() {
  static constexpr Line kZeroLine{};
  slots_ = owned_slots_.empty() ? kZeroSlots : owned_slots_.data();
  lines_ = store_.empty() ? &kZeroLine : store_.data();
}

void RegisterArray::out_of_range(u32 index) const {
  throw UsageError("RegisterArray: index " + std::to_string(index) +
                   " out of range (size " + std::to_string(size_) + ")");
}

u32 RegisterArray::attach(u32 line) {
  if (owned_slots_.empty()) {
    owned_slots_.assign(ceil_div(size_, kLineWords), 0);
    stored_.assign(ceil_div(size_, kChunkWords), 0);
    store_.emplace_back();  // the zero line
  }
  u32 slot = free_head_;
  if (slot != 0) {
    free_head_ = store_[slot].words[0];
    store_[slot] = Line{};
  } else {
    // Double the store, but never past one slot per line plus the zero
    // line: a fully written array costs what the dense one did.
    if (store_.size() == store_.capacity()) {
      store_.reserve(std::min<std::size_t>(2 * store_.capacity(),
                                           owned_slots_.size() + 1));
    }
    slot = static_cast<u32>(store_.size());
    store_.emplace_back();
  }
  owned_slots_[line] = static_cast<u16>(slot);
  stored_[line / kLinesPerChunk] |= u16(1u << (line % kLinesPerChunk));
  repoint();
  return slot;
}

void RegisterArray::release(u32 line) {
  const u32 slot = owned_slots_[line];
  owned_slots_[line] = 0;
  stored_[line / kLinesPerChunk] &= u16(~(1u << (line % kLinesPerChunk)));
  store_[slot].words[0] = free_head_;
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
      std::fill(store_[slot].words.begin() + lo,
                store_[slot].words.begin() + hi, value);
    }
    return;
  }
  // Zero fill: lines without storage already read as zeros (an unwritten
  // array has no mask to walk). A stored line the range covers whole gives
  // its storage back; one it covers in part is zeroed there and keeps it
  // (its other words may be non-zero). Words past size() are never
  // written, so the range covers the final line whole once it reaches
  // size().
  if (stored_.empty()) return;
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
        Line& stored = store_[owned_slots_[line]];
        std::fill(stored.words.begin() + lo, stored.words.begin() + hi, 0);
      }
    }
  }
}

}  // namespace artmt::rmt
