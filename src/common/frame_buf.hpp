// Pooled, ref-counted byte buffers for the frame datapath. A FrameBuf is a
// [offset, offset+len) window into a fixed-capacity slab; copies share the
// slab (shallow, ref-counted), and when the last reference drops the slab
// returns to its FramePool's freelist instead of the heap. Slabs carry
// headroom in front of the frame bytes so a reply can be synthesized in
// place ahead of an untouched payload (the packet-shrink fast path) by
// sliding the window forward.
//
// Ownership rules:
//  - A FrameBuf may outlive its FramePool: slabs hold a weak reference to
//    the pool state, so releases after pool destruction free the slab
//    instead of recycling it (simulator event queues routinely drain after
//    the network -- and its pool -- are gone).
//  - Mutation requires unique(); shared views alias the same bytes.
//  - Not thread-safe: refcounts and freelists are plain (non-atomic).
//    The simulator is single-threaded, so a pool and its frames never
//    leave the thread that drives it.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace artmt {

class FramePool;

namespace detail {

struct FramePoolState;

// Header placed in front of the byte storage; allocated as one block.
struct FrameSlab {
  std::weak_ptr<FramePoolState> pool;  // empty: standalone, freed on release
  u32 refs = 1;
  u32 capacity = 0;

  [[nodiscard]] u8* bytes() { return reinterpret_cast<u8*>(this + 1); }
  [[nodiscard]] const u8* bytes() const {
    return reinterpret_cast<const u8*>(this + 1);
  }
};

FrameSlab* new_slab(std::size_t capacity);
void free_slab(FrameSlab* slab);
void release_slab(FrameSlab* slab);  // decref; recycle or free at zero

}  // namespace detail

class FrameBuf {
 public:
  // Headroom reserved by FramePool::acquire so in-place replies can only
  // ever need to slide the window forward, never backward.
  static constexpr std::size_t kDefaultHeadroom = 64;

  FrameBuf() = default;

  // Standalone (non-pooled) buffers; the slab is freed on last release.
  explicit FrameBuf(std::size_t size, u8 fill = 0);
  FrameBuf(std::vector<u8> bytes);  // NOLINT(google-explicit-constructor)
  explicit FrameBuf(std::span<const u8> bytes);

  FrameBuf(const FrameBuf& other) noexcept;
  FrameBuf& operator=(const FrameBuf& other) noexcept;
  FrameBuf(FrameBuf&& other) noexcept;
  FrameBuf& operator=(FrameBuf&& other) noexcept;
  ~FrameBuf() { reset(); }

  void reset() noexcept;

  [[nodiscard]] u8* data() { return slab_ ? slab_->bytes() + off_ : nullptr; }
  [[nodiscard]] const u8* data() const {
    return slab_ ? slab_->bytes() + off_ : nullptr;
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] u8& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const u8& operator[](std::size_t i) const {
    return data()[i];
  }
  [[nodiscard]] u8* begin() { return data(); }
  [[nodiscard]] u8* end() { return data() + len_; }
  [[nodiscard]] const u8* begin() const { return data(); }
  [[nodiscard]] const u8* end() const { return data() + len_; }

  [[nodiscard]] std::span<u8> span() { return {data(), len_}; }
  [[nodiscard]] std::span<const u8> cspan() const { return {data(), len_}; }
  operator std::span<const u8>() const {  // NOLINT: mirrors vector->span
    return cspan();
  }

  // True when this is the only reference to the slab (in-place mutation
  // and window adjustments are safe).
  [[nodiscard]] bool unique() const { return slab_ != nullptr && slab_->refs == 1; }
  [[nodiscard]] bool pooled() const {
    return slab_ != nullptr && !slab_->pool.expired();
  }

  // Bytes available in front of / behind the current window.
  [[nodiscard]] std::size_t headroom() const { return off_; }
  [[nodiscard]] std::size_t tailroom() const {
    return slab_ ? slab_->capacity - off_ - len_ : 0;
  }
  [[nodiscard]] std::size_t capacity() const {
    return slab_ ? slab_->capacity : 0;
  }

  // Window adjustments (require unique(); throw UsageError otherwise).
  void drop_front(std::size_t n);  // shrink from the front; headroom grows
  void grow_front(std::size_t n);  // extend into headroom
  void resize(std::size_t n);      // adjust tail within capacity

  [[nodiscard]] std::vector<u8> to_vector() const {
    return {begin(), end()};
  }

  friend bool operator==(const FrameBuf& a, const FrameBuf& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }

 private:
  friend class FramePool;
  FrameBuf(detail::FrameSlab* slab, u32 off, u32 len)
      : slab_(slab), off_(off), len_(len) {}

  void require_unique(const char* op) const;

  detail::FrameSlab* slab_ = nullptr;
  u32 off_ = 0;
  u32 len_ = 0;
};

// Recycling arena for FrameBufs, with two slab sizes and one LIFO freelist
// each. A frame whose size plus headroom fits kSmallSlabBytes takes a small
// slab; any other frame up to kLargeSlabBytes takes a large one (frame sizes
// are bimodal: ~100-byte capsules and replies, 1-2 KiB data). So a burst of
// small frames leaves small slabs behind, not 2 KiB ones. acquire() pops a
// slab of its size off that size's freelist (allocating only when it is
// empty), and the last FrameBuf release pushes it back onto the same list,
// so a warm pool serves the steady-state datapath with zero heap traffic.
// Requests larger than kLargeSlabBytes get an exact-size standalone slab
// that is freed, not recycled (counted in stats().oversize).
class FramePool {
 public:
  static constexpr std::size_t kSmallSlabBytes = 256;
  static constexpr std::size_t kLargeSlabBytes = 2048;

  FramePool();

  // An uninitialized buffer of `size` bytes with at least `headroom`
  // bytes of front slack. The caller fills it.
  FrameBuf acquire(std::size_t size,
                   std::size_t headroom = FrameBuf::kDefaultHeadroom);

  // Copies `bytes` into a pooled buffer (the common ingress case).
  FrameBuf copy(std::span<const u8> bytes,
                std::size_t headroom = FrameBuf::kDefaultHeadroom);

  // Deep-copies `src` into this pool, preserving its headroom so in-place
  // reply synthesis still works on the clone. Used wherever a shared
  // frame must be mutated or delivered twice (fault-injected corruption
  // and duplicates) without touching the other references' bytes.
  FrameBuf clone(const FrameBuf& src);

  struct Stats {
    u64 acquired = 0;       // total acquire()/copy() calls
    u64 slabs_created = 0;  // freelist misses (heap allocations)
    u64 recycled = 0;       // slabs returned to the freelist
    u64 oversize = 0;       // requests that exceeded kLargeSlabBytes
  };

  [[nodiscard]] const Stats& stats() const;
  [[nodiscard]] std::size_t free_slabs() const;  // both sizes

  // Pre-populates the large freelist to `slabs` slabs.
  void reserve(std::size_t slabs);

 private:
  std::shared_ptr<detail::FramePoolState> state_;
};

}  // namespace artmt
