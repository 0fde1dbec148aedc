// Deterministic discrete-event simulator.
//
// The paper's experiments run on a physical ground station; ours run on this
// kernel. It is single-threaded and fully deterministic: events at equal
// timestamps execute in scheduling order, and all randomness flows from one
// seeded root Rng (forked per subsystem). Re-running with the same seed
// reproduces every event, which the tests rely on.
//
// Storage (hot-path pass, ISSUE 10): events live in a slab of reusable
// slots — no per-event heap allocation once the slab has warmed up — and the
// ready queue is a 4-ary min-heap of (at, seq, slot) keys ordered exactly
// like the old priority_queue, so pop order (and therefore every trace) is
// unchanged. EventId is a generation-checked handle: cancel is O(1) — it
// frees the slot and lets the stale heap entry fall out at pop time — and a
// handle from a previous occupancy of a reused slot can never cancel the
// current one, because the globally unique seq doubles as the generation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"
#include "util/time.h"

namespace mercury::sim {

using util::Duration;
using util::Rng;
using util::TimePoint;

/// An event's label, as it appears in sim-event traces and debug logs:
/// prefix + target + suffix, e.g. "mbus.deliver:" + "ses" or
/// "cli.3" + ".timeout". Prefix and suffix must have static storage (string
/// literals); only the target is copied when the event is scheduled, into
/// a buffer the event slot keeps, so scheduling allocates nothing once the
/// slab has warmed up. The joined text is built only when a trace or the
/// debug log reads it.
class Label {
 public:
  /// A fixed label (a string literal).
  constexpr Label(const char* text) : prefix_(text) {}
  /// A label made at run time; copied when the event is scheduled.
  Label(const std::string& text) : target_(text) {}
  constexpr Label(std::string_view prefix, std::string_view target,
                  std::string_view suffix)
      : prefix_(prefix), target_(target), suffix_(suffix) {}

  static constexpr Label prefixed(std::string_view prefix,
                                  std::string_view target) {
    return Label(prefix, target, {});
  }
  static constexpr Label suffixed(std::string_view target,
                                  std::string_view suffix) {
    return Label({}, target, suffix);
  }

  std::string_view prefix() const { return prefix_; }
  std::string_view target() const { return target_; }
  std::string_view suffix() const { return suffix_; }
  std::string text() const;

 private:
  std::string_view prefix_;
  std::string_view target_;
  std::string_view suffix_;
};

/// Opaque handle for a scheduled event; valid until the event fires or is
/// cancelled. Internally a (slot, generation) pair into the simulator's
/// event slab; a stale handle (slot since freed or reused) is recognized by
/// its generation and cancel() on it is a safe no-op.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  EventId(std::uint32_t slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;  // the scheduling seq, doubling as the generation
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }
  Rng& rng() { return rng_; }

  /// Schedule `fn` at absolute time `t` (>= now; earlier times are clamped
  /// to now). The label appears in sim-event traces and debug logs.
  EventId schedule_at(TimePoint t, Label label, std::function<void()> fn);

  /// Schedule `fn` after a non-negative delay.
  EventId schedule_after(Duration delay, Label label, std::function<void()> fn);

  /// Cancel a pending event in O(1). Returns false if it already fired or
  /// was cancelled (including handles from a previous use of a reused slot).
  bool cancel(EventId id);

  bool has_pending() const;
  TimePoint next_event_time() const;

  /// Execute the next event. Returns false if the queue is empty.
  bool step();

  /// Run events until virtual time would exceed `t`; leaves now() == t.
  void run_until(TimePoint t);

  /// Run for a span of virtual time.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Run until the queue drains or `max_events` fire (runaway guard).
  void run_all(std::uint64_t max_events = 100'000'000);

  std::uint64_t events_executed() const { return events_executed_; }
  std::uint64_t events_scheduled() const { return events_scheduled_; }

 private:
  /// One slab slot. seq == 0 means the slot is free; otherwise it holds the
  /// pending event scheduled with that seq. Freed slots keep the target's
  /// string capacity for reuse.
  struct Event {
    TimePoint at;
    std::uint64_t seq = 0;
    std::string_view prefix;
    std::string target;
    std::string_view suffix;
    std::function<void()> fn;
  };

  /// Heap key: comparisons never touch the slab. (at, seq) ascending — the
  /// exact ordering the old priority_queue used, so traces stay identical.
  struct HeapEntry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  // 4-ary heap primitives over heap_ (children of i at 4i+1..4i+4).
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  void pop_top() const;
  /// Drops stale heap entries (cancelled events) off the top; afterwards the
  /// top entry, if any, is live.
  void prune_stale() const;

  TimePoint now_ = TimePoint::origin();
  Rng rng_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  // mutable: const accessors (has_pending, next_event_time) prune cancelled
  // entries from the heap top, exactly like the old peek_live().
  mutable std::vector<HeapEntry> heap_;
};

/// Self-rescheduling periodic task (e.g. the failure detector's ping loop).
/// Stops rescheduling once stopped or destroyed.
class PeriodicTask {
 public:
  /// `fn` runs every `period`, first at now+period (or now+phase if given).
  PeriodicTask(Simulator& sim, Label label, Duration period,
               std::function<void()> fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void start_with_phase(Duration phase);
  void stop();
  bool running() const { return running_; }
  Duration period() const { return period_; }
  void set_period(Duration period);

 private:
  void fire();

  /// The label's parts, with the target owned (the task outlives any one
  /// caller's string).
  Label label() const;

  Simulator& sim_;
  std::string_view label_prefix_;
  std::string label_target_;
  std::string_view label_suffix_;
  Duration period_;
  std::function<void()> fn_;
  EventId pending_;
  bool running_ = false;
  // Shared liveness flag: outstanding events check it so a destroyed task
  // never has its callback invoked.
  std::shared_ptr<bool> alive_;
};

}  // namespace mercury::sim
