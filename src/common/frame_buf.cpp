#include "common/frame_buf.hpp"

#include <new>
#include <utility>

namespace artmt {

namespace detail {

// Shared between the pool handle and every slab it minted. Slabs keep a
// weak reference: releases that outlive the pool free the slab instead of
// touching a destroyed freelist.
struct FramePoolState {
  // One slab size and its LIFO freelist.
  struct SlabClass {
    std::size_t bytes;
    std::vector<FrameSlab*> freelist;
  };

  FramePoolState() = default;
  ~FramePoolState() {
    for (FrameSlab* slab : small.freelist) free_slab(slab);
    for (FrameSlab* slab : large.freelist) free_slab(slab);
  }
  FramePoolState(const FramePoolState&) = delete;
  FramePoolState& operator=(const FramePoolState&) = delete;

  // The class for a frame of `need` bytes with headroom: the small one
  // when it fits there, else the large one (which the caller checks for
  // oversize).
  SlabClass& class_for(std::size_t need) {
    return need <= small.bytes ? small : large;
  }
  // The class whose slabs have `capacity` bytes, or nullptr (oversize).
  SlabClass* class_of(std::size_t capacity) {
    if (capacity == small.bytes) return &small;
    if (capacity == large.bytes) return &large;
    return nullptr;
  }

  SlabClass small{FramePool::kSmallSlabBytes, {}};
  SlabClass large{FramePool::kLargeSlabBytes, {}};
  FramePool::Stats stats;
};

FrameSlab* new_slab(std::size_t capacity) {
  void* mem = ::operator new(sizeof(FrameSlab) + capacity);
  auto* slab = ::new (mem) FrameSlab();
  slab->capacity = static_cast<u32>(capacity);
  return slab;
}

void free_slab(FrameSlab* slab) {
  slab->~FrameSlab();
  ::operator delete(slab);
}

void release_slab(FrameSlab* slab) {
  if (--slab->refs != 0) return;
  if (auto pool = slab->pool.lock()) {
    if (auto* cls = pool->class_of(slab->capacity)) {
      slab->refs = 1;  // primed for the next acquire
      cls->freelist.push_back(slab);
      ++pool->stats.recycled;
      return;
    }
  }
  free_slab(slab);
}

}  // namespace detail

// --- FrameBuf -------------------------------------------------------------

FrameBuf::FrameBuf(std::size_t size, u8 fill) {
  slab_ = detail::new_slab(size);
  len_ = static_cast<u32>(size);
  if (size != 0) std::memset(slab_->bytes(), fill, size);
}

FrameBuf::FrameBuf(std::vector<u8> bytes) : FrameBuf(std::span<const u8>(bytes)) {}

FrameBuf::FrameBuf(std::span<const u8> bytes) {
  slab_ = detail::new_slab(bytes.size());
  len_ = static_cast<u32>(bytes.size());
  if (!bytes.empty()) std::memcpy(slab_->bytes(), bytes.data(), bytes.size());
}

FrameBuf::FrameBuf(const FrameBuf& other) noexcept
    : slab_(other.slab_), off_(other.off_), len_(other.len_) {
  if (slab_ != nullptr) ++slab_->refs;
}

FrameBuf& FrameBuf::operator=(const FrameBuf& other) noexcept {
  if (this == &other) return *this;
  if (other.slab_ != nullptr) ++other.slab_->refs;
  reset();
  slab_ = other.slab_;
  off_ = other.off_;
  len_ = other.len_;
  return *this;
}

FrameBuf::FrameBuf(FrameBuf&& other) noexcept
    : slab_(other.slab_), off_(other.off_), len_(other.len_) {
  other.slab_ = nullptr;
  other.off_ = 0;
  other.len_ = 0;
}

FrameBuf& FrameBuf::operator=(FrameBuf&& other) noexcept {
  if (this == &other) return *this;
  reset();
  slab_ = other.slab_;
  off_ = other.off_;
  len_ = other.len_;
  other.slab_ = nullptr;
  other.off_ = 0;
  other.len_ = 0;
  return *this;
}

void FrameBuf::reset() noexcept {
  if (slab_ != nullptr) detail::release_slab(slab_);
  slab_ = nullptr;
  off_ = 0;
  len_ = 0;
}

void FrameBuf::require_unique(const char* op) const {
  if (!unique()) {
    throw UsageError(std::string("FrameBuf::") + op +
                     ": buffer is shared (or empty)");
  }
}

void FrameBuf::drop_front(std::size_t n) {
  require_unique("drop_front");
  if (n > len_) throw UsageError("FrameBuf::drop_front: beyond frame end");
  off_ += static_cast<u32>(n);
  len_ -= static_cast<u32>(n);
}

void FrameBuf::grow_front(std::size_t n) {
  require_unique("grow_front");
  if (n > off_) throw UsageError("FrameBuf::grow_front: no headroom");
  off_ -= static_cast<u32>(n);
  len_ += static_cast<u32>(n);
}

void FrameBuf::resize(std::size_t n) {
  require_unique("resize");
  if (off_ + n > slab_->capacity) {
    throw UsageError("FrameBuf::resize: beyond slab capacity");
  }
  len_ = static_cast<u32>(n);
}

// --- FramePool ------------------------------------------------------------

FramePool::FramePool() : state_(std::make_shared<detail::FramePoolState>()) {}

FrameBuf FramePool::acquire(std::size_t size, std::size_t headroom) {
  ++state_->stats.acquired;
  const std::size_t need = size + headroom;
  detail::FramePoolState::SlabClass& cls = state_->class_for(need);
  if (need > cls.bytes) {
    // Oversize: exact standalone-capacity slab, pool-linked only so the
    // release path can tell it apart (capacity mismatch -> freed).
    ++state_->stats.oversize;
    detail::FrameSlab* slab = detail::new_slab(need);
    slab->pool = state_;
    return FrameBuf(slab, static_cast<u32>(headroom), static_cast<u32>(size));
  }
  detail::FrameSlab* slab;
  if (!cls.freelist.empty()) {
    slab = cls.freelist.back();
    cls.freelist.pop_back();
  } else {
    slab = detail::new_slab(cls.bytes);
    slab->pool = state_;
    ++state_->stats.slabs_created;
  }
  return FrameBuf(slab, static_cast<u32>(headroom), static_cast<u32>(size));
}

FrameBuf FramePool::copy(std::span<const u8> bytes, std::size_t headroom) {
  FrameBuf buf = acquire(bytes.size(), headroom);
  if (!bytes.empty()) std::memcpy(buf.data(), bytes.data(), bytes.size());
  return buf;
}

FrameBuf FramePool::clone(const FrameBuf& src) {
  return copy(src.cspan(), src.headroom());
}

const FramePool::Stats& FramePool::stats() const { return state_->stats; }

std::size_t FramePool::free_slabs() const {
  return state_->small.freelist.size() + state_->large.freelist.size();
}

void FramePool::reserve(std::size_t slabs) {
  std::vector<detail::FrameSlab*>& freelist = state_->large.freelist;
  while (freelist.size() < slabs) {
    detail::FrameSlab* slab = detail::new_slab(kLargeSlabBytes);
    slab->pool = state_;
    ++state_->stats.slabs_created;
    freelist.push_back(slab);
  }
}

}  // namespace artmt
