// Tests for the discrete-event engine and the frame-level network model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <tuple>

#include "alloc_counter.hpp"
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

// The radix heap re-links keys, not closures: a pending action costs a
// fixed handful of moves (into the queue, out to run, amortized slot-array
// growth) whatever the queue depth or however often its key falls to a
// lower bucket.
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

// The same reference-set check with delays across forty powers of two, so
// keys reach the radix heap's high buckets and fall through the low ones.
// Delays are log-uniform from 0 to 2^40 ns, and each time is rounded up to
// a grid that coarsens with the delay, so many events share an `at`.
// Deliveries carry send times before now, actions schedule zero-delay
// events, and run_until stops at random bounds; after each stop, events
// land between the bound and the next pending `at`, both included.
TEST(Simulator, DispatchOrderMatchesCanonicalKeyAcrossTimeScales) {
  using CanonicalKey = std::tuple<SimTime, SimTime, u32, u64, u64>;
  struct Harness {
    Simulator sim;
    Rng rng{0x7153'ca1e};
    std::set<CanonicalKey> pending;
    u64 next_seq = 0;
    u64 dispatched = 0;
    int nested_left = 2000;

    SimTime delay() {
      const u64 bits = rng.uniform(41);
      return bits == 0 ? 0 : static_cast<SimTime>(rng.uniform(u64{1} << bits));
    }

    // now + delay(), rounded up to a multiple of 2^(k-3) for a delay of k
    // bits: about eight distinct times per power of two.
    SimTime later_time() {
      const SimTime d = delay();
      const int k = std::bit_width(static_cast<u64>(d));
      const SimTime grain = SimTime{1} << std::max(0, k - 3);
      return (sim.now() + d + grain - 1) / grain * grain;
    }

    void schedule(SimTime at) {
      const SimTime now = sim.now();
      const u64 kind = rng.uniform(3);  // schedule_at, _after, _delivery
      CanonicalKey key{at, now, 0xffff'ffffu, 0, next_seq++};
      if (kind == 2) {
        std::get<1>(key) = std::max<SimTime>(0, now - delay());
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
        schedule(rng.uniform(4) == 0 ? sim.now() : later_time());
      }
    }
  };

  Harness h;
  for (int i = 0; i < 1000; ++i) h.schedule(h.later_time());
  for (int stop = 0; stop < 300 && !h.pending.empty(); ++stop) {
    const SimTime bound = h.later_time();
    h.sim.run_until(bound);
    EXPECT_EQ(h.sim.now(), bound);
    EXPECT_EQ(h.sim.pending(), h.pending.size());
    if (h.pending.empty()) break;
    const SimTime next = std::get<0>(*h.pending.begin());
    ASSERT_GT(next, bound);
    for (int i = 0; i < 3; ++i) {
      h.schedule(bound +
                 static_cast<SimTime>(h.rng.uniform(
                     static_cast<u64>(next - bound) + 1)));
    }
  }
  h.sim.run();
  EXPECT_EQ(h.nested_left, 0);
  EXPECT_EQ(h.dispatched, h.next_seq);
  EXPECT_TRUE(h.pending.empty());
}

// Once the queue has been as deep as it will get, scheduling and running
// events allocates nothing, even as their times cross powers of two that
// the warm-up never reached.
TEST(Simulator, WarmQueueAllocatesNothing) {
  Simulator sim;
  constexpr int kDepth = 64;
  for (int i = 0; i < kDepth; ++i) sim.schedule_at(i, [] {});
  sim.run();

  int ran = 0;
  const auto before = g_alloc_count;
  for (int p = 6; p <= 50; ++p) {
    // 16 events at four instants 2^p ahead, each with a zero-delay
    // follower: at most 32 pending.
    const SimTime base = sim.now() + (SimTime{1} << p);
    for (int i = 0; i < 16; ++i) {
      sim.schedule_at(base + i % 4, [&sim, &ran] {
        ++ran;
        sim.schedule_after(0, [&ran] { ++ran; });
      });
    }
    sim.run();
  }
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(ran, 45 * 32);
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

// Frames that arrive at one instant reach the receiver in the canonical
// order: by send time, then by the sender's attach index, whatever order
// they were sent in. A plain event for the same instant goes first if it
// was scheduled before the send instant, and after the frames if it was
// scheduled at the send instant.
TEST(Network, SameArrivalDeliversInCanonicalOrder) {
  std::vector<std::string> log;
  class PortLog : public Node {
   public:
    explicit PortLog(std::vector<std::string>* log) : Node("rx"), log_(log) {}
    void on_frame(Frame, u32 port) override {
      log_->push_back("rx" + std::to_string(port));
    }

   private:
    std::vector<std::string>* log_;
  };

  Simulator sim;
  Network net(sim);
  std::vector<std::shared_ptr<Recorder>> senders;
  for (int i = 0; i < 4; ++i) {
    senders.push_back(std::make_shared<Recorder>("s" + std::to_string(i)));
    net.attach(senders.back());
  }
  auto rx = std::make_shared<PortLog>(&log);
  net.attach(rx);
  LinkSpec spec;
  spec.latency = 1000;
  spec.gbps = 8.0;  // 1 byte per ns
  for (u32 i = 0; i < 4; ++i) net.connect(*senders[i], 0, *rx, i, spec);

  constexpr SimTime kSend = 100;
  constexpr SimTime kArrival = kSend + 100 + 1000;  // 100-byte frames
  sim.schedule_at(kArrival, [&log] { log.push_back("before"); });
  sim.schedule_at(kSend, [&] {
    sim.schedule_at(kArrival, [&log] { log.push_back("after"); });
    for (int i = 3; i >= 0; --i) net.transmit(*senders[i], 0, Frame(100));
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"before", "rx0", "rx1", "rx2",
                                           "rx3", "after"}));
  EXPECT_EQ(sim.now(), kArrival);
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
