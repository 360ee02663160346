// Discrete-event simulation core: a virtual nanosecond clock and an ordered
// event queue. All testbed experiments (Figs. 8b, 9, 10) run on this engine
// so results are deterministic and independent of host load.
//
// The queue is a radix heap on virtual time (Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990). It relies on what a discrete-event simulator
// guarantees: nothing is scheduled before now(), so the dispatched time
// never decreases.
//
// Events store their captures inline (small-buffer optimization) instead of
// through std::function, whose ~2-word inline budget heap-allocates every
// frame-delivery closure (this + endpoint + FrameBuf). The steady-state
// datapath schedules and runs events with zero heap traffic.
#pragma once

#include <array>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace artmt::telemetry {
class MetricsRegistry;
}  // namespace artmt::telemetry

namespace artmt::netsim {

// Move-only type-erased callable with a large inline capture buffer.
// Callables bigger than kInlineBytes fall back to the heap (counted by the
// simulator for the bench's allocation accounting).
class InlineAction {
 public:
  // Generous: a frame delivery captures Network* + Endpoint + FrameBuf
  // (~40 bytes); control-plane closures carry a few words more.
  static constexpr std::size_t kInlineBytes = 96;

  InlineAction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::remove_cvref_t<F>, InlineAction>>>
  InlineAction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "InlineAction requires a void() callable");
    if constexpr (fits_inline<Fn>()) {
      ::new (storage_) Fn(std::forward<F>(fn));
      vt_ = &vtable_inline<Fn>;
    } else {
      ::new (storage_) Fn*(new Fn(std::forward<F>(fn)));
      vt_ = &vtable_heap<Fn>;
    }
  }

  InlineAction(InlineAction&& other) noexcept { move_from(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { destroy(); }

  void operator()() { vt_->invoke(storage_); }
  [[nodiscard]] explicit operator bool() const { return vt_ != nullptr; }
  [[nodiscard]] bool heap_allocated() const {
    return vt_ != nullptr && vt_->heap;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
    bool heap;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr VTable vtable_inline{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      false,
  };

  template <typename Fn>
  static constexpr VTable vtable_heap{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
      true,
  };

  void destroy() {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }
  void move_from(InlineAction& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

// The event queue keeps 40-byte ordering keys and the actions in two
// slot-indexed arrays side by side. Its radix heap links keys into
// buckets; an action stays in its slot until step() moves it out, once,
// to run it, and a warm queue allocates nothing.
//
// - The base `last_` is the `at` of the batch being dispatched: it is
//   <= now(), and every pending `at` is >= last_.
// - The batch holds the pending keys at exactly last_, in `Later` order;
//   an event scheduled at last_ joins it at its `Later` position.
// - Every other key sits in bucket b, the highest bit in which its `at`
//   differs from last_: a singly linked list threaded through Key::next.
//   Every key in bucket b is earlier than every key in bucket b + 1, so
//   the lowest occupied bucket's minimum is the next `at`.
// - When the batch runs out, step() takes the lowest occupied bucket,
//   moves last_ to its minimum and re-links its keys: those at last_
//   become the new batch, the rest fall into lower buckets. A key falls
//   at most 63 times over its life.
class Simulator {
 public:
  using Action = InlineAction;

  // Schedules `action` to run at absolute virtual time `at` (>= now).
  // Events at equal times run in scheduling order (FIFO).
  void schedule_at(SimTime at, Action action);

  // Schedules `action` `delay` nanoseconds from now.
  void schedule_after(SimTime delay, Action action);

  // Schedules a frame-delivery event carrying its canonical ordering key:
  // ties at equal `at` resolve by (send time, sender attach index, sender
  // tx sequence) -- all derived from simulation state, never from when
  // the event object was materialized, so the dispatch order of
  // same-timestamp deliveries is a function of the scenario alone.
  // Deliveries sort ahead of plain events whose tie (scheduling time)
  // equals their send time.
  void schedule_delivery(SimTime at, SimTime send, u32 src_index, u64 tx_seq,
                         Action action);

  // Runs events until the queue drains or the clock would pass `until`.
  // Events scheduled exactly at `until` are executed.
  void run_until(SimTime until);

  // Runs until the queue is empty.
  void run();

  // Executes at most one event; returns false if the queue was empty.
  bool step();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] u64 events_dispatched() const { return events_dispatched_; }
  // Scheduled actions whose captures exceeded the inline buffer (each one
  // cost a heap allocation); the frame fast path should keep this at zero.
  [[nodiscard]] u64 actions_spilled() const { return actions_spilled_; }

  // Adds the dispatch and spill counts and the current queue depth to
  // `metrics` under component "netsim"; call once per snapshot.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

 private:
  // Sentinel src_index for non-delivery events: sorts them after any
  // delivery sharing (at, tie), so a closure scheduled at time t never
  // runs before a frame that was already in flight toward t.
  static constexpr u32 kNoSrc = 0xffff'ffffu;

  // End of a slot list (a bucket or the free list).
  static constexpr u32 kNil = 0xffff'ffffu;

  // The ordering key of one pending event; its action waits in
  // actions_[slot], where slot is the key's own index in keys_.
  struct Key {
    SimTime at;
    // Canonical tie-break chain below `at`. Plain events carry tie = the
    // clock when they were scheduled (non-decreasing with seq, so FIFO
    // order among them is unchanged); deliveries carry tie = send time
    // plus the (src_index, tx_seq) transmission identity.
    SimTime tie;
    u64 tx_seq;
    u64 seq;  // final tie-break: FIFO in scheduling order
    u32 src_index;
    u32 next;  // next slot in the key's bucket, or in the free list
  };
  static_assert(sizeof(Key) == 40 && std::is_trivially_copyable_v<Key>);
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.tie != b.tie) return a.tie > b.tie;
      if (a.src_index != b.src_index) return a.src_index > b.src_index;
      if (a.tx_seq != b.tx_seq) return a.tx_seq > b.tx_seq;
      return a.seq > b.seq;
    }
  };

  void push_event(SimTime at, SimTime tie, u32 src_index, u64 tx_seq,
                  Action&& action);
  // Files keys_[slot] (at > last_) at the head of its bucket.
  void link(u32 slot);
  // Inserts slot (at == last_) into the batch at its Later position.
  void join_batch(u32 slot);
  // Starts the next batch from the lowest occupied bucket; false if there
  // is none.
  bool refill();
  [[nodiscard]] bool earlier(u32 a, u32 b) const {
    return Later{}(keys_[b], keys_[a]);
  }

  SimTime now_ = 0;
  SimTime last_ = 0;  // the batch's `at`: <= now_ and <= every pending at
  u64 next_seq_ = 0;
  u64 actions_spilled_ = 0;
  u64 events_dispatched_ = 0;
  std::size_t pending_ = 0;
  // Keys and pending actions by slot. step() moves an action out before
  // running it, since the action may schedule events that grow (and so
  // move) these arrays.
  std::vector<Key> keys_;
  std::vector<Action> actions_;
  u32 free_ = kNil;  // LIFO free list of empty slots, through Key::next
  // Bucket b's first slot and minimum `at`, valid while bit b of
  // occupied_ is set.
  u64 occupied_ = 0;
  std::array<u32, 64> head_{};
  std::array<SimTime, 64> min_{};
  // Slots of the pending keys at last_ from batch_[batch_next_] on, in
  // Later order (the ones before it have run). Its capacity covers every
  // slot, so it never grows while the queue is warm.
  std::vector<u32> batch_;
  std::size_t batch_next_ = 0;
};

}  // namespace artmt::netsim
