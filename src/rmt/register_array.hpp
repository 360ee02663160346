// One stage's stateful register array with the four register-ALU actions of
// Section 3.2. On a Tofino each register has a stateful ALU whose
// micro-program is selected per packet; here each action is a method. All
// arithmetic is 32-bit wrap-around, as on the hardware.
//
// Storage follows the lines tenants write. The array is split into
// kLineWords-word lines, one 64-byte cache line each. A line gets storage on
// its first write and reads as zeros until then. `slots_` maps each line to
// its storage in `lines_`, whose slot 0 is a line of zeros that no mutator
// writes, so a read is a bounds check and two loads, with no branch on
// whether the line is stored and no allocation. An array nobody has written
// owns nothing: both pointers aim at one shared, read-only table of zero
// slots and its zero line, and a zero fill returns at once. The first write
// gives the array its own table of u16 slots (so a stage holds at most
// 65,535 lines), a store of lines and a per-chunk mask of stored lines. A
// zero fill zeroes the covered words of stored lines and releases each line
// it covers whole to a free list, which first writes reuse before the store
// grows; it skips every kChunkWords-word chunk with no stored line. So a
// stage holds what its tenants wrote (a 94,208-word stage nobody writes
// costs no heap, where a dense one costs 368 KiB of zeros), and the
// controller's region clears cost what tenants wrote, not the size of the
// regions that changed hands. The type is move-only; a moved-from array
// reads as zeros.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "common/types.hpp"

namespace artmt::rmt {

class RegisterArray {
 public:
  static constexpr u32 kLineWords = 16;  // one 64-byte line
  static constexpr u32 kChunkWords = 256;
  // Slots are u16 and slot 0 is the zero line.
  static constexpr u32 kMaxWords = 65'535 * kLineWords;

  // Throws UsageError when `size` is above kMaxWords.
  explicit RegisterArray(u32 size);

  RegisterArray(RegisterArray&& other) noexcept;
  RegisterArray& operator=(RegisterArray&& other) noexcept;

  // Plain read/write.
  [[nodiscard]] Word read(u32 index) const {
    check(index);
    return lines_[slots_[index / kLineWords]].words[index % kLineWords];
  }
  void write(u32 index, Word value) { cell(index) = value; }

  // mem[index] += inc; returns the post-increment value.
  Word increment(u32 index, Word inc) {
    Word& word = cell(index);
    word += inc;  // u32 wrap-around, as on hardware
    return word;
  }

  // Returns min(mem[index], operand) without modifying memory.
  [[nodiscard]] Word min_read(u32 index, Word operand) const {
    return std::min(read(index), operand);
  }

  [[nodiscard]] u32 size() const { return size_; }

  // Bulk access for memory digests and controller-driven clears.
  [[nodiscard]] std::vector<Word> dump(u32 start, u32 count) const;
  void fill(u32 start, u32 count, Word value);

 private:
  static constexpr u32 kLinesPerChunk = kChunkWords / kLineWords;
  static_assert(kLinesPerChunk == 16, "one u16 bit per line of a chunk");

  struct alignas(64) Line {
    std::array<Word, kLineWords> words{};
  };

  void check(u32 index) const {
    if (index >= size_) [[unlikely]] out_of_range(index);
  }
  [[noreturn]] void out_of_range(u32 index) const;

  // The word at `index`, giving its line storage first if it has none.
  Word& cell(u32 index) {
    check(index);
    u32 slot = slots_[index / kLineWords];
    if (slot == 0) [[unlikely]] slot = attach(index / kLineWords);
    return store_[slot].words[index % kLineWords];
  }
  u32 attach(u32 line);  // stores `line` (which has no storage); its slot
  void release(u32 line);
  // Aims slots_ and lines_ at the owned table and store, or at the shared
  // zeros when the array owns none.
  void repoint();

  u32 size_;
  const u16* slots_ = nullptr;   // per line; 0 = no storage, reads as zeros
  const Line* lines_ = nullptr;  // [0] is zeros; the others by first write
  std::vector<u16> owned_slots_;  // empty until the first write
  std::vector<Line> store_;       // lines_ once written
  std::vector<u16> stored_;  // per chunk: bit j set = line j has storage
  u32 free_head_ = 0;  // released slots, linked through their words[0]
};

}  // namespace artmt::rmt
