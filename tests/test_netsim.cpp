// Tests for the discrete-event engine and the frame-level network model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::netsim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, FifoAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterOffsetsFromNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), UsageError);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), UsageError);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(30);  // events exactly at the boundary run
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilBoundaryIsInclusive) {
  // An event exactly at `until` runs; anything later stays queued and the
  // clock still lands exactly on the boundary.
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_at(100, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(101, [&] { fired.push_back(sim.now()); });
  sim.run_until(100);
  EXPECT_EQ(fired, (std::vector<SimTime>{100}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{100, 101}));
}

TEST(Simulator, SmallCapturesStayInline) {
  // The event loop's allocation-free claim rests on closures of the
  // delivery path fitting InlineAction's inline buffer.
  Simulator sim;
  int hits = 0;
  Frame frame(64, 0xaa);  // a FrameBuf capture: pointer-sized members only
  sim.schedule_at(1, [&hits, f = std::move(frame)] { hits += f[0] == 0xaa; });
  sim.schedule_at(2, [&hits] { ++hits; });
  sim.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.actions_spilled(), 0u);
}

TEST(Simulator, OversizedCapturesSpillToHeap) {
  Simulator sim;
  std::array<u64, 32> big{};  // 256 bytes: larger than the inline buffer
  big[0] = 7;
  u64 seen = 0;
  sim.schedule_at(1, [big, &seen] { seen = big[0]; });
  sim.run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(sim.actions_spilled(), 1u);
}

TEST(Simulator, NestedSchedulingWithinRun) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 4);
}

// A capture that counts how often it is moved: InlineAction moves its
// captures through their move constructors, so this reads how often the
// queue relocated a pending closure.
struct MoveCounter {
  explicit MoveCounter(u64* moves) : moves(moves) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  u64* moves;
};

// Moves per event of `events` closures scheduled at seeded pseudo-random
// times on a fresh simulator and then run.
double moves_per_event(int events) {
  Simulator sim;
  Rng rng(0x5eed'0000 + static_cast<u64>(events));
  u64 moves = 0;
  int ran = 0;
  for (int i = 0; i < events; ++i) {
    sim.schedule_at(static_cast<SimTime>(rng.uniform(1'000'000)),
                    [c = MoveCounter(&moves), &ran] { ++ran; });
  }
  sim.run();
  EXPECT_EQ(ran, events);
  EXPECT_EQ(sim.actions_spilled(), 0u);
  return static_cast<double>(moves) / events;
}

// Sifting reorders the heap, not the closures: a pending action costs a
// fixed handful of moves (into the queue, out to run, amortized slot-array
// growth) whatever the queue depth, instead of one per heap level.
TEST(Simulator, PendingActionsAreNotMovedBySifting) {
  const double shallow = moves_per_event(16);
  const double deep = moves_per_event(4096);
  EXPECT_LE(deep, 6.0);
  EXPECT_NEAR(deep, shallow, 0.5);
}

// Every dispatch is the smallest pending (at, tie, src_index, tx_seq, seq)
// tuple, checked against a reference set rather than against the queue's
// own structure. Plain events carry tie = the clock when scheduled,
// src_index = 0xffffffff and tx_seq = 0; deliveries carry their send time
// and transmission identity. Times, send times and sources are drawn from
// small ranges so most comparisons go deep into the tie-break chain, and a
// third of the events are scheduled from inside running actions.
TEST(Simulator, DispatchOrderMatchesCanonicalKey) {
  using CanonicalKey = std::tuple<SimTime, SimTime, u32, u64, u64>;
  struct Harness {
    Simulator sim;
    Rng rng{0x0d15'7a7c};
    std::set<CanonicalKey> pending;
    u64 next_seq = 0;
    u64 dispatched = 0;
    int nested_left = 500;

    void schedule() {
      const SimTime now = sim.now();
      const SimTime at = now + static_cast<SimTime>(rng.uniform(3)) * 10;
      const u64 kind = rng.uniform(3);  // schedule_at, _after, _delivery
      CanonicalKey key{at, now, 0xffff'ffffu, 0, next_seq++};
      if (kind == 2) {
        std::get<1>(key) =
            std::max<SimTime>(0, now - static_cast<SimTime>(rng.uniform(2)) * 10);
        std::get<2>(key) = static_cast<u32>(rng.uniform(3));
        std::get<3>(key) = rng.uniform(4);
      }
      pending.insert(key);
      const auto run = [this, key] { dispatch(key); };
      if (kind == 0) {
        sim.schedule_at(at, run);
      } else if (kind == 1) {
        sim.schedule_after(at - now, run);
      } else {
        sim.schedule_delivery(at, std::get<1>(key), std::get<2>(key),
                              std::get<3>(key), run);
      }
    }

    void dispatch(const CanonicalKey& key) {
      ASSERT_FALSE(pending.empty());
      EXPECT_EQ(*pending.begin(), key) << "dispatch " << dispatched;
      EXPECT_EQ(sim.now(), std::get<0>(key));
      pending.erase(key);
      ++dispatched;
      if (nested_left > 0 && rng.uniform(3) != 0) {
        --nested_left;
        schedule();
      }
    }
  };

  Harness h;
  for (int i = 0; i < 1000; ++i) h.schedule();
  h.sim.run();
  EXPECT_EQ(h.nested_left, 0);
  EXPECT_EQ(h.dispatched, 1500u);
  EXPECT_TRUE(h.pending.empty());
}

// An action that grows the queue far past its capacity from inside itself
// still reads intact captures afterwards: the queue must not run an action
// where later scheduling can move or free it.
TEST(Simulator, ActionSchedulingPastCapacityKeepsItsCaptures) {
  Simulator sim;
  Frame frame(64, 0xab);
  std::string label(48, 'q');  // longer than the small-string buffer
  int ran = 0;
  bool intact = false;
  sim.schedule_at(1, [&sim, &ran, &intact, f = std::move(frame),
                      s = std::move(label)] {
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_after(i, [&ran] { ++ran; });
    }
    intact = f.size() == 64 && f[0] == 0xab && f[63] == 0xab &&
             s == std::string(48, 'q');
  });
  EXPECT_EQ(sim.actions_spilled(), 0u);  // the captures live in the queue
  sim.run();
  EXPECT_TRUE(intact);
  EXPECT_EQ(ran, 10'000);
}

// Single-stepping callers read counts between events: an export after
// any step() reports the live dispatch count and queue depth, not those
// of the previous drain.
TEST(Simulator, StepFlushesMetrics) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  sim.schedule_at(30, [] {});
  const auto exported = [&sim] {
    telemetry::MetricsRegistry metrics;
    sim.export_metrics(metrics);
    return std::pair(metrics.counter_value("netsim", "events_dispatched"),
                     metrics.gauge_value("netsim", "queue_depth"));
  };

  ASSERT_TRUE(sim.step());
  EXPECT_EQ(exported(), std::pair(u64{1}, i64{2}));
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(exported(), std::pair(u64{2}, i64{1}));
  sim.run();
  EXPECT_EQ(exported(), std::pair(u64{3}, i64{0}));
  EXPECT_FALSE(sim.step());  // empty queue: nothing dispatched
  EXPECT_EQ(exported(), std::pair(u64{3}, i64{0}));
}

// ---------- network ----------

class Recorder : public Node {
 public:
  explicit Recorder(std::string name) : Node(std::move(name)) {}
  void on_frame(Frame frame, u32 port) override {
    frames.push_back({std::move(frame), port, network().simulator().now()});
  }
  struct Rx {
    Frame frame;
    u32 port;
    SimTime at;
  };
  std::vector<Rx> frames;
};

TEST(Network, DeliversWithLatencyAndSerialization) {
  Simulator sim;
  Network net(sim);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  LinkSpec spec;
  spec.latency = 1000;  // 1 us
  spec.gbps = 8.0;      // 1 byte per ns
  net.connect(*a, 0, *b, 0, spec);

  net.transmit(*a, 0, Frame(100, 0x55));
  sim.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].at, 1000 + 100);  // latency + serialization
  EXPECT_EQ(b->frames[0].frame.size(), 100u);
}

TEST(Network, Bidirectional) {
  Simulator sim;
  Network net(sim);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 3);
  net.transmit(*b, 3, Frame(10));
  sim.run();
  ASSERT_EQ(a->frames.size(), 1u);
  EXPECT_EQ(a->frames[0].port, 0u);
}

TEST(Network, UnpluggedPortDropsSilently) {
  Simulator sim;
  Network net(sim);
  auto a = std::make_shared<Recorder>("a");
  net.attach(a);
  net.transmit(*a, 9, Frame(10));
  sim.run();
  EXPECT_EQ(net.frames_delivered(), 0u);
  EXPECT_EQ(net.frames_dropped(), 1u);
}

TEST(Network, CountsDropsPerUnpluggedTransmit) {
  Simulator sim;
  Network net(sim);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 0);
  net.connect(*a, 2, *b, 3);
  net.transmit(*a, 0, Frame(10));  // delivered
  net.transmit(*a, 1, Frame(10));  // hole between connected ports 0 and 2
  net.transmit(*b, 7, Frame(10));  // past b's highest connected port
  net.transmit(*a, 0xffffffffu, Frame(10));  // SET_DST can name any u32
  net.transmit(*a, 2, Frame(10));  // delivered on b's port 3
  sim.run();
  EXPECT_EQ(net.frames_delivered(), 2u);
  EXPECT_EQ(net.frames_dropped(), 3u);
  ASSERT_EQ(b->frames.size(), 2u);
  EXPECT_EQ(b->frames[1].port, 3u);
}

TEST(Network, PooledFramesRoundTrip) {
  // A frame acquired from the network's pool survives transit and its
  // slab is recycled once the receiver lets go of it.
  Simulator sim;
  Network net(sim);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 0);
  Frame frame = net.pool().copy(std::vector<u8>{1, 2, 3, 4});
  net.transmit(*a, 0, std::move(frame));
  sim.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].frame.to_vector(), (std::vector<u8>{1, 2, 3, 4}));
  EXPECT_TRUE(b->frames[0].frame.pooled());
  b->frames.clear();
  EXPECT_EQ(net.pool().free_slabs(), 1u);
}

TEST(Network, DoubleConnectThrows) {
  Simulator sim;
  Network net(sim);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  auto c = std::make_shared<Recorder>("c");
  net.attach(a);
  net.attach(b);
  net.attach(c);
  net.connect(*a, 0, *b, 0);
  EXPECT_THROW(net.connect(*a, 0, *c, 0), UsageError);
  EXPECT_THROW(net.connect(*c, 0, *b, 0), UsageError);  // only b's end
  // A refused connect leaves both ends as they were: c's port 0 is still
  // free, and a's port 0 still reaches b.
  net.connect(*c, 0, *a, 1);
  net.transmit(*a, 0, Frame(10));
  sim.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].port, 0u);
}

TEST(Network, DoubleAttachThrows) {
  Simulator sim;
  Network net(sim);
  auto a = std::make_shared<Recorder>("a");
  net.attach(a);
  EXPECT_THROW(net.attach(a), UsageError);
}

TEST(Network, CountsDeliveries) {
  Simulator sim;
  Network net(sim);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 0);
  net.transmit(*a, 0, Frame(64));
  net.transmit(*a, 0, Frame(64));
  sim.run();
  EXPECT_EQ(net.frames_delivered(), 2u);
  EXPECT_EQ(net.bytes_delivered(), 128u);
}

}  // namespace
}  // namespace artmt::netsim
