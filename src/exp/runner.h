// ExperimentRunner: parallel, deterministic execution of independent trials.
//
// The benches' evidence is statistical — hundreds of kill trials per
// (seed, mode, tree) cell — and every trial already owns a private
// Simulator/Station/Rng, so trials are embarrassingly parallel. What makes
// naive parallelism wrong is the observability layer: the process-wide
// TraceRecorder would interleave events from concurrent trials in thread
// order, and the merged .trace.jsonl would change with the thread count.
//
// The runner restores determinism by construction:
//
//   * the recorder installation point (obs::set_recorder) is thread-local;
//     each trial runs under its own private TraceRecorder on whichever
//     worker thread picks it up;
//   * results are written into a slot indexed by trial number, never
//     appended in completion order;
//   * after the pool drains, the per-trial recorders are merged into the
//     caller's ambient recorder in trial-index order, rebasing run and span
//     ids past everything already recorded (TraceRecorder::merge_from);
//   * each trial's log lines are held in a thread-local util::LogCapture
//     and replayed through the Logger on the launching thread, in
//     trial-index order, after the pool drains.
//
// Consequence: aggregated results, the merged trace and stderr are
// byte-identical for any MERCURY_JOBS value, and — because the merge
// reproduces exactly the run/span numbering a serial loop would have
// produced — identical to the pre-runner serial output as well. jobs=1 runs
// inline on the calling thread with no pool at all.
//
// Job count resolution: config.jobs if positive, else $MERCURY_JOBS if set
// to a positive integer, else std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace mercury::exp {

/// Everything a trial body may depend on. Trials must not read any other
/// process-wide mutable state, or determinism under parallelism is lost.
struct TrialContext {
  /// Trial number in submission order; results are aggregated by it.
  std::size_t index = 0;
  /// This trial's private recorder, or nullptr when no ambient recorder is
  /// installed on the launching thread (nothing to merge into). Safe to
  /// inspect inside the body: events of this trial only.
  obs::TraceRecorder* recorder = nullptr;
};

struct RunnerConfig {
  /// Worker threads; 0 = $MERCURY_JOBS, else hardware concurrency.
  int jobs = 0;
};

/// Positive value of $MERCURY_JOBS, or 0 when unset/invalid.
int env_jobs();
/// hardware_concurrency(), at least 1.
int hardware_jobs();

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerConfig config = {});

  /// Resolved worker count (before clamping to the trial count).
  int jobs() const { return jobs_; }

  /// Execute `body` for trial indices [0, trials). Bodies run concurrently;
  /// each sees its own TrialContext. Trace merge and log replay happen
  /// after the last trial finishes. A throwing body does not tear down the
  /// pool: the first exception (by trial index) is rethrown after all trials
  /// finish.
  void run(std::size_t trials, const std::function<void(TrialContext&)>& body);

  /// run() collecting one result per trial, returned in index order.
  template <typename F>
  auto map(std::size_t trials, F&& body)
      -> std::vector<std::decay_t<std::invoke_result_t<F&, TrialContext&>>> {
    using T = std::decay_t<std::invoke_result_t<F&, TrialContext&>>;
    std::vector<T> results(trials);
    run(trials,
        [&](TrialContext& ctx) { results[ctx.index] = body(ctx); });
    return results;
  }

 private:
  RunnerConfig config_;
  int jobs_ = 1;
};

}  // namespace mercury::exp
