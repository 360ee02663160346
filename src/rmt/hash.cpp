#include "rmt/hash.hpp"

#include <array>

namespace artmt::rmt {

namespace {

std::array<u32, 256> make_crc32c_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<u32, 256>& crc32c_table() {
  static const std::array<u32, 256> table = make_crc32c_table();
  return table;
}

}  // namespace

u32 crc32c(std::span<const u8> data) {
  const auto& table = crc32c_table();
  u32 crc = 0xffffffffu;
  for (u8 byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

u32 hash_words(std::span<const Word> words, u32 engine) {
  // The CRC of the big-endian bytes of a seed word and then each word, fed
  // one byte at a time with no buffer. Engine selection is modeled as a
  // distinct seed word; real hardware uses differently configured CRC units.
  const auto& table = crc32c_table();
  u32 crc = 0xffffffffu;
  const auto feed = [&](Word w) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      crc = (crc >> 8) ^ table[(crc ^ (w >> shift)) & 0xffu];
    }
  };
  feed(0x9e3779b9u * (engine + 1));
  for (Word w : words) feed(w);
  return crc ^ 0xffffffffu;
}

}  // namespace artmt::rmt
