// FrameBuf/FramePool: the pooled, ref-counted buffers under the zero-copy
// frame datapath. Covers the ownership rules the fast path depends on --
// shallow sharing, unique()-gated mutation, headroom window slides, slab
// recycling by size, and buffers outliving their pool.
#include <gtest/gtest.h>

#include <numeric>

#include "alloc_counter.hpp"
#include "common/bytes.hpp"
#include "common/frame_buf.hpp"

namespace artmt {
namespace {

std::vector<u8> iota_bytes(std::size_t n) {
  std::vector<u8> v(n);
  std::iota(v.begin(), v.end(), static_cast<u8>(0));
  return v;
}

TEST(FrameBuf, DefaultIsEmpty) {
  FrameBuf buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_FALSE(buf.unique());
  EXPECT_FALSE(buf.pooled());
}

TEST(FrameBuf, VectorConstructorCopiesBytes) {
  const auto bytes = iota_bytes(32);
  FrameBuf buf(bytes);
  ASSERT_EQ(buf.size(), 32u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), bytes.begin()));
  EXPECT_TRUE(buf.unique());
  EXPECT_FALSE(buf.pooled());
  EXPECT_EQ(buf.to_vector(), bytes);
}

TEST(FrameBuf, FillConstructor) {
  FrameBuf buf(16, 0xab);
  ASSERT_EQ(buf.size(), 16u);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0xab);
}

TEST(FrameBuf, CopySharesBytesAndDropsUniqueness) {
  FrameBuf a(iota_bytes(8));
  FrameBuf b = a;
  EXPECT_EQ(a.data(), b.data());  // shallow: same slab window
  EXPECT_FALSE(a.unique());
  EXPECT_FALSE(b.unique());
  EXPECT_EQ(a, b);
  b.reset();
  EXPECT_TRUE(a.unique());
}

TEST(FrameBuf, MoveTransfersOwnership) {
  FrameBuf a(iota_bytes(8));
  const u8* bytes = a.data();
  FrameBuf b = std::move(a);
  EXPECT_EQ(b.data(), bytes);
  EXPECT_TRUE(b.unique());
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented reset
}

TEST(FrameBuf, EqualityIsBytewise) {
  FrameBuf a(iota_bytes(8));
  FrameBuf b(iota_bytes(8));
  EXPECT_NE(a.data(), b.data());  // distinct slabs...
  EXPECT_EQ(a, b);                // ...same bytes
  b[3] ^= 0xff;
  EXPECT_FALSE(a == b);
}

TEST(FrameBuf, WindowOpsRequireUniqueness) {
  FramePool pool;
  FrameBuf a = pool.copy(iota_bytes(16));
  FrameBuf shared = a;
  EXPECT_THROW(a.drop_front(2), UsageError);
  EXPECT_THROW(a.grow_front(2), UsageError);
  EXPECT_THROW(a.resize(8), UsageError);
  shared.reset();
  EXPECT_NO_THROW(a.drop_front(2));
  EXPECT_EQ(a.size(), 14u);
  EXPECT_EQ(a[0], 2);  // window slid forward over the first two bytes
}

TEST(FrameBuf, HeadroomWindowSlides) {
  FramePool pool;
  FrameBuf buf = pool.copy(iota_bytes(16), /*headroom=*/8);
  EXPECT_EQ(buf.headroom(), 8u);
  buf.drop_front(4);
  EXPECT_EQ(buf.headroom(), 12u);
  EXPECT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf[0], 4);
  buf.grow_front(12);  // reclaim the full front slack
  EXPECT_EQ(buf.headroom(), 0u);
  EXPECT_EQ(buf.size(), 24u);
  EXPECT_THROW(buf.grow_front(1), UsageError);  // no headroom left
}

TEST(FrameBuf, ResizeBoundedByCapacity) {
  FramePool pool;
  FrameBuf buf = pool.acquire(16, /*headroom=*/8);  // a 256-byte slab
  EXPECT_EQ(buf.capacity(), FramePool::kSmallSlabBytes);
  buf.resize(248);  // 8 + 248 == capacity
  EXPECT_EQ(buf.size(), 248u);
  EXPECT_EQ(buf.tailroom(), 0u);
  EXPECT_THROW(buf.resize(249), UsageError);
}

TEST(FramePool, RecyclesSlabs) {
  FramePool pool;
  {
    FrameBuf buf = pool.acquire(64);
    EXPECT_TRUE(buf.pooled());
    EXPECT_EQ(pool.stats().slabs_created, 1u);
  }
  EXPECT_EQ(pool.free_slabs(), 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);
  // A warm pool serves from the freelist: no new slab.
  FrameBuf again = pool.acquire(128);
  EXPECT_EQ(pool.stats().slabs_created, 1u);
  EXPECT_EQ(pool.free_slabs(), 0u);
  EXPECT_TRUE(again.unique());
}

TEST(FramePool, SharedReleaseRecyclesOnceOnLastDrop) {
  FramePool pool;
  FrameBuf a = pool.acquire(64);
  FrameBuf b = a;
  a.reset();
  EXPECT_EQ(pool.free_slabs(), 0u);  // b still holds the slab
  b.reset();
  EXPECT_EQ(pool.free_slabs(), 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);
}

TEST(FramePool, ReserveWarmsFreelist) {
  FramePool pool;
  pool.reserve(4);
  EXPECT_EQ(pool.free_slabs(), 4u);
  EXPECT_EQ(pool.stats().slabs_created, 4u);
  // reserve() warms the large slabs.
  FrameBuf buf = pool.acquire(1'400);
  EXPECT_EQ(buf.capacity(), FramePool::kLargeSlabBytes);
  EXPECT_EQ(pool.stats().slabs_created, 4u);  // served warm
}

TEST(FramePool, OversizeRequestsAreExactAndNotRecycled) {
  FramePool pool;
  const std::size_t big = 4096;  // above kLargeSlabBytes
  {
    FrameBuf buf = pool.acquire(big, /*headroom=*/0);
    EXPECT_EQ(buf.size(), big);
    EXPECT_EQ(buf.capacity(), big);
    EXPECT_EQ(pool.stats().oversize, 1u);
  }
  EXPECT_EQ(pool.free_slabs(), 0u);  // freed, not pushed to the freelist
}

TEST(FramePool, CopyPreservesBytesAndHeadroom) {
  FramePool pool;
  const auto bytes = iota_bytes(48);
  FrameBuf buf = pool.copy(bytes);
  EXPECT_EQ(buf.to_vector(), bytes);
  EXPECT_GE(buf.headroom(), FrameBuf::kDefaultHeadroom);
}

TEST(FramePool, BuffersSafelyOutliveThePool) {
  // Simulator event queues drain after the Network (and its pool) are
  // destroyed; a late release must free the slab, not touch a dead pool.
  FrameBuf survivor;
  {
    FramePool pool;
    survivor = pool.copy(iota_bytes(24));
    EXPECT_TRUE(survivor.pooled());
  }
  EXPECT_FALSE(survivor.pooled());
  EXPECT_EQ(survivor.size(), 24u);
  EXPECT_EQ(survivor[5], 5);
  survivor.reset();  // frees; must not crash or leak (ASan-checked)
}

TEST(FramePool, AcquireAfterHeavyChurnStaysWarm) {
  FramePool pool;
  pool.reserve(2);
  pool.acquire(100).reset();  // one small slab: 100 + headroom fits 256
  const auto created = pool.stats().slabs_created;
  for (int i = 0; i < 1000; ++i) {
    FrameBuf a = pool.acquire(100);
    FrameBuf b = pool.acquire(200);
    (void)a;
    (void)b;
  }
  EXPECT_EQ(pool.stats().slabs_created, created);  // zero allocs in the loop
  EXPECT_EQ(pool.stats().acquired, 2001u);
}

// Small frames take small slabs: 2,000 in-flight 100-byte frames (with the
// default 64-byte headroom) cost 2,000 256-byte slabs, not 4 MiB of 2 KiB
// ones.
TEST(FramePool, SmallFramesTakeSmallSlabs) {
  FramePool pool;
  std::vector<FrameBuf> frames;
  frames.reserve(2'000);
  const unsigned long long before = g_alloc_bytes;
  for (int i = 0; i < 2'000; ++i) frames.push_back(pool.acquire(100));
  EXPECT_LT(g_alloc_bytes - before, 1u << 20);
  EXPECT_EQ(frames.back().capacity(), FramePool::kSmallSlabBytes);
  // Exactly 256 bytes with headroom is still small; one more is not.
  EXPECT_EQ(pool.acquire(192).capacity(), FramePool::kSmallSlabBytes);
  EXPECT_EQ(pool.acquire(193).capacity(), FramePool::kLargeSlabBytes);
}

// A 1,400-byte frame takes a large slab. A released slab goes back to
// the freelist of its own size and serves only frames of that size.
TEST(FramePool, ReleasedSlabServesOnlyItsOwnSize) {
  FramePool pool;
  EXPECT_EQ(pool.acquire(1'400).capacity(), FramePool::kLargeSlabBytes);
  EXPECT_EQ(pool.free_slabs(), 1u);
  EXPECT_EQ(pool.stats().slabs_created, 1u);
  FrameBuf small = pool.acquire(100);  // the free slab is large
  EXPECT_EQ(small.capacity(), FramePool::kSmallSlabBytes);
  EXPECT_EQ(pool.stats().slabs_created, 2u);
  EXPECT_EQ(pool.free_slabs(), 1u);
  small.reset();
  EXPECT_EQ(pool.free_slabs(), 2u);
  FrameBuf large = pool.acquire(1'000);
  FrameBuf small_again = pool.acquire(50);
  EXPECT_EQ(large.capacity(), FramePool::kLargeSlabBytes);
  EXPECT_EQ(small_again.capacity(), FramePool::kSmallSlabBytes);
  EXPECT_EQ(pool.stats().slabs_created, 2u);  // both served warm
  EXPECT_EQ(pool.free_slabs(), 0u);
  FrameBuf another_large = pool.acquire(1'000);  // no small slab stands in
  EXPECT_EQ(another_large.capacity(), FramePool::kLargeSlabBytes);
  EXPECT_EQ(pool.stats().slabs_created, 3u);
}

TEST(SpanWriter, WritesNetworkOrderAndRejectsOverrun) {
  FramePool pool;
  FrameBuf buf = pool.acquire(7);
  SpanWriter out(buf.span());
  out.put_u8(0x01);
  out.put_u16(0x0203);
  out.put_u32(0x04050607);
  EXPECT_EQ(out.remaining(), 0u);
  EXPECT_THROW(out.put_u8(0xff), UsageError);
  const std::vector<u8> expect = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(buf.to_vector(), expect);
}

}  // namespace
}  // namespace artmt
