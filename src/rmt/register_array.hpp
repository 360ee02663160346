// One stage's stateful register array with the four register-ALU actions of
// Section 3.2. On a Tofino each register has a stateful ALU whose
// micro-program is selected per packet; here each action is a method. All
// arithmetic is 32-bit wrap-around, as on the hardware.
//
// The array keeps one dirty byte per kChunkWords-word chunk, set by every
// mutator. A clean chunk holds only zeros, so a zero fill skips it: the
// controller's region clears then cost what tenants actually wrote, not the
// size of the regions that changed hands.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace artmt::rmt {

class RegisterArray {
 public:
  static constexpr u32 kChunkWords = 256;

  explicit RegisterArray(u32 size);

  // Plain read/write.
  [[nodiscard]] Word read(u32 index) const;
  void write(u32 index, Word value);

  // mem[index] += inc; returns the post-increment value.
  Word increment(u32 index, Word inc);

  // Returns min(mem[index], operand) without modifying memory.
  [[nodiscard]] Word min_read(u32 index, Word operand) const;

  // mem[index] += inc; returns the post-increment value (the caller combines
  // it with the PHV min, per the MEM_MINREADINC semantics).
  Word min_read_increment(u32 index, Word inc) { return increment(index, inc); }

  [[nodiscard]] u32 size() const { return static_cast<u32>(cells_.size()); }

  // Bulk access for memory digests and controller-driven clears.
  [[nodiscard]] std::vector<Word> dump(u32 start, u32 count) const;
  void fill(u32 start, u32 count, Word value);

 private:
  void check(u32 index) const;

  std::vector<Word> cells_;
  std::vector<u8> dirty_;  // per chunk; 0 means every word is zero
};

}  // namespace artmt::rmt
