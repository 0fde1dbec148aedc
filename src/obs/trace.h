// Recovery-path tracing & metrics (schema documented in docs/TRACING.md).
//
// The paper's contribution is a timing argument: recovery time = detection
// latency + restart-policy decision + per-component restart durations. The
// benches report end-to-end numbers; this subsystem records *where inside a
// recovery the time went*. Every stage of the pipeline — fault manifestation,
// detector suspicion/report, oracle decision, recoverer action, per-component
// restart — emits structured events into one TraceRecorder, from which
// exporters produce JSONL and Chrome trace-event files and the phase analysis
// (obs/phases.h) rebuilds per-recovery breakdowns.
//
// Design constraints:
//   * Emitters timestamp events themselves (virtual simulation time or wall
//     time), so one recorder serves both the simulator and POSIX backends.
//   * Instrumentation is a thread-locally installable pointer (like
//     util::Logger, but per thread): with no recorder installed every emit
//     site is a single pointer compare. Each simulation runs single-threaded
//     on its own thread; the parallel experiment runner (src/exp) installs a
//     private recorder per trial and merges the buffers afterwards, so no
//     recorder instance is ever shared across threads.
//   * Span begin/end pairing is by id, so overlapping recoveries (escalation
//     chains, concurrent group members) nest correctly.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"
#include "util/time.h"

namespace mercury::obs {

/// Event kinds, mirroring the Chrome trace-event phases we export to.
enum class EventKind {
  kInstant,  ///< point event ("ph":"i")
  kBegin,    ///< span open ("ph":"B"); paired with kEnd by `span`
  kEnd,      ///< span close ("ph":"E")
};

std::string_view to_string(EventKind kind);

/// One key/value annotation. Values are strings; numeric args are formatted
/// by the emitter (the schema in docs/TRACING.md says which keys are numeric).
struct TraceArg {
  std::string key;
  std::string value;
};

struct TraceEvent {
  double t = 0.0;  ///< seconds since run start (virtual or wall clock)
  EventKind kind = EventKind::kInstant;
  std::string category;  ///< pipeline stage: fault|detect|oracle|recover|restart|proc|tree|sim
  std::string name;      ///< event name, e.g. "fd.report", "restart:ses"
  std::string track;     ///< emitting subsystem: "board", "fd", "rec", "pm", "posix", ...
  std::uint64_t span = 0;  ///< nonzero pairs kBegin/kEnd
  std::uint64_t run = 0;   ///< trial index (TraceRecorder::next_run)
  std::vector<TraceArg> args;

  /// Value of an arg, or "" if absent.
  std::string arg_or(const std::string& key, const std::string& fallback = "") const;
};

/// Chunked append-only event storage (hot-path pass, ISSUE 10). A flat
/// std::vector<TraceEvent> re-moves every stored event (strings, arg
/// vectors) each time it doubles; chunking appends into fixed-capacity
/// blocks, so a recorded event is never moved again. Merging one buffer
/// into another (the parallel runner joining per-trial recorders) splices
/// whole chunks instead of copying events. Iteration order is emission
/// order, exactly like the vector it replaces.
class EventBuffer {
 public:
  /// Events per chunk. 4096 events ≈ a few hundred KB per block: big enough
  /// to amortize the allocation, small enough that short traces stay cheap.
  static constexpr std::size_t kChunkCapacity = 4096;

  void push_back(TraceEvent event);
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Random access (tests, spot checks). O(log #chunks).
  const TraceEvent& operator[](std::size_t index) const;
  void clear();

  /// Flat copy, for consumers that outlive the buffer (TracedTrial).
  std::vector<TraceEvent> to_vector() const;

  /// Add `span_offset` to every nonzero span id and `run_offset` to every
  /// run index, in place (the merge rebase — integers only, no copies).
  void rebase(std::uint64_t span_offset, std::uint64_t run_offset);

  /// Steal every event of `other`, appending in order. Chunk splice: O(#chunks
  /// of other), no per-event work. `other` is left empty.
  void splice_from(EventBuffer&& other);

  /// Forward iteration in emission order (range-for compatible).
  class const_iterator {
   public:
    using value_type = TraceEvent;
    using reference = const TraceEvent&;

    reference operator*() const;
    const TraceEvent* operator->() const { return &**this; }
    const_iterator& operator++();
    bool operator==(const const_iterator& other) const {
      return chunk_ == other.chunk_ && pos_ == other.pos_;
    }
    bool operator!=(const const_iterator& other) const { return !(*this == other); }

   private:
    friend class EventBuffer;
    const_iterator(const EventBuffer* buffer, std::size_t chunk, std::size_t pos)
        : buffer_(buffer), chunk_(chunk), pos_(pos) {}
    const EventBuffer* buffer_ = nullptr;
    std::size_t chunk_ = 0;
    std::size_t pos_ = 0;
  };
  const_iterator begin() const { return const_iterator{this, 0, 0}; }
  const_iterator end() const { return const_iterator{this, chunks_.size(), 0}; }

 private:
  struct Chunk {
    std::uint64_t start = 0;  ///< global index of the chunk's first event
    std::vector<TraceEvent> events;
  };

  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
};

/// Append-only event log plus aggregate counters and sample sets.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t max_events = kDefaultMaxEvents);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // --- Emission ----------------------------------------------------------
  void instant(double t, std::string category, std::string name,
               std::string track, std::vector<TraceArg> args = {});
  /// Open a span; returns its id (0 is never a valid span id).
  std::uint64_t begin(double t, std::string category, std::string name,
                      std::string track, std::vector<TraceArg> args = {});
  /// Close a span opened by begin(); category/name/track are replayed from
  /// the matching begin. Unknown ids are dropped (the begin may have been
  /// evicted by the event cap).
  void end(double t, std::uint64_t span, std::vector<TraceArg> args = {});

  // --- Aggregate metrics -------------------------------------------------
  void incr(const std::string& name, std::uint64_t delta = 1);
  void observe(const std::string& name, double value);
  std::uint64_t count(const std::string& name) const;
  const std::map<std::string, std::uint64_t>& counters() const { return counters_; }
  const std::map<std::string, util::SampleStats>& samples() const { return samples_; }
  /// Human-readable dump of all counters and sample percentiles.
  std::string metrics_summary() const;

  // --- Run separation ----------------------------------------------------
  /// Start a new run (trial); subsequent events carry the new run index.
  /// Runs become separate process tracks in the Chrome trace export.
  void next_run() { ++run_; }
  std::uint64_t run() const { return run_; }

  // --- Access ------------------------------------------------------------
  const EventBuffer& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Append another recorder's events, counters, samples and drop count,
  /// rebasing its run indices and span ids past everything this recorder
  /// has issued — exactly the numbering a serial interleaving (this
  /// recorder recording `other`'s trials after its own) would have
  /// produced. Merging per-trial recorders in trial order therefore yields
  /// a byte-identical export regardless of how many threads recorded them
  /// (the parallel runner's determinism contract, src/exp/runner.h).
  void merge_from(const TraceRecorder& other);
  /// Destructive merge: same semantics and resulting bytes, but when the
  /// events fit under the cap they are rebased in place and spliced over
  /// chunk-wise — no per-event copies. The parallel runner uses this on its
  /// per-trial recorders, which are dead after the merge anyway.
  void merge_from(TraceRecorder&& other);

  /// Per-event simulator tracing ("sim" category) is opt-in: a busy run
  /// fires millions of kernel events and would swamp the recovery signal.
  void set_sim_events(bool enabled) { sim_events_ = enabled; }
  bool sim_events() const { return sim_events_; }

  // --- Export (formats specified in docs/TRACING.md) ---------------------
  /// One JSON object per line.
  void write_jsonl(std::ostream& out) const;
  /// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev).
  void write_chrome_trace(std::ostream& out) const;

  static constexpr std::size_t kDefaultMaxEvents = 4'000'000;

 private:
  void push(TraceEvent event);

  /// Merge bookkeeping shared by both merge_from overloads (span/run
  /// counters, drop counts, aggregate counters and samples).
  void merge_metadata_from(const TraceRecorder& other);

  std::size_t max_events_;
  bool sim_events_ = false;
  std::uint64_t next_span_ = 1;
  std::uint64_t run_ = 0;
  std::uint64_t dropped_ = 0;
  EventBuffer events_;
  /// Open spans: id -> (category, name, track), replayed into the end event.
  std::map<std::uint64_t, std::array<std::string, 3>> open_spans_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, util::SampleStats> samples_;
};

/// Serialize an event list in the JSONL schema (one object per line);
/// TraceRecorder::write_jsonl delegates here. Useful for event lists that
/// no longer live in a recorder (run_trial_traced captures, checker tests).
void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out);
void write_jsonl(const EventBuffer& events, std::ostream& out);

/// Parse events back from the JSONL export (the subset write_jsonl emits).
/// Malformed lines are skipped. Round-trip property: write_jsonl then
/// read_jsonl reproduces the event list exactly.
std::vector<TraceEvent> read_jsonl(std::istream& in);

// --- Thread-local recorder ------------------------------------------------
// Instrumented code calls the free functions below; they no-op (fast) while
// no recorder is installed. TimePoint overloads serve simulation code.
// Installation is per thread: a recorder installed on the main thread is
// invisible to worker threads (each experiment-runner trial installs its
// own), so a recorder never sees concurrent emitters.

/// Recorder installed on the calling thread, or nullptr.
TraceRecorder* recorder();
/// Install (or, with nullptr, remove) the calling thread's recorder.
/// Returns the previously installed recorder.
TraceRecorder* set_recorder(TraceRecorder* rec);

inline bool enabled() { return recorder() != nullptr; }

void instant(util::TimePoint t, std::string category, std::string name,
             std::string track, std::vector<TraceArg> args = {});
std::uint64_t begin_span(util::TimePoint t, std::string category,
                         std::string name, std::string track,
                         std::vector<TraceArg> args = {});
void end_span(util::TimePoint t, std::uint64_t span,
              std::vector<TraceArg> args = {});
void incr(const std::string& name, std::uint64_t delta = 1);
void observe(const std::string& name, double value);
void next_run();

/// RAII install/restore, for benches and tests.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(TraceRecorder& rec) : previous_(set_recorder(&rec)) {}
  ~ScopedRecorder() { set_recorder(previous_); }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  TraceRecorder* previous_;
};

}  // namespace mercury::obs
