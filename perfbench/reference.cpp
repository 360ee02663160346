#include "reference.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "scenario.hpp"

namespace perfbench {

namespace {

u64 next(u64& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 16;
}

// Keeps results of the kernel observable so it cannot be optimized away.
volatile u64 g_sink = 0;

}  // namespace

double reference_kernel_s() {
  // Built once, outside the timing: a store the size of the workloads'
  // origin servers and a frame-sized source buffer.
  static const std::unordered_map<u64, u32> store = [] {
    std::unordered_map<u64, u32> m;
    u64 x = 1;
    for (u32 i = 0; i < (1u << 17); ++i) m.emplace(next(x), i);
    return m;
  }();
  static const std::vector<u64> keys = [] {
    std::vector<u64> k;
    u64 x = 1;
    for (u32 i = 0; i < (1u << 17); ++i) k.push_back(next(x));
    return k;
  }();
  static const std::vector<u8> source(1500, 0x5a);

  constexpr u32 kOps = 60'000;
  u64 x = 0x9e3779b97f4a7c15ull;
  u64 acc = 0;
  std::vector<u64> heap;
  heap.reserve(1024);
  const u64 t0 = now_ns();
  for (u32 i = 0; i < kOps; ++i) {
    // Origin lookup, a heap-allocated frame copy, an event-queue push/pop:
    // the simulator's per-capsule mix of hashing, allocation and memcpy.
    const auto it = store.find(keys[next(x) & (keys.size() - 1)]);
    acc += it == store.end() ? 0 : it->second;
    const std::size_t len = (next(x) & 1) != 0 ? 1400 : 64;
    std::vector<u8> frame(source.begin(),
                          source.begin() + static_cast<std::ptrdiff_t>(len));
    acc += frame[len / 2];
    heap.push_back(next(x));
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 512) {
      std::pop_heap(heap.begin(), heap.end());
      acc ^= heap.back();
      heap.pop_back();
    }
  }
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  g_sink = acc;
  return s;
}

}  // namespace perfbench
