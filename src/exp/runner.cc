#include "exp/runner.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "util/log.h"

namespace mercury::exp {

int env_jobs() {
  const char* flag = std::getenv("MERCURY_JOBS");
  if (flag == nullptr || *flag == '\0') return 0;
  int jobs = 0;
  const char* end = flag;
  while (*end != '\0') ++end;
  const auto [ptr, ec] = std::from_chars(flag, end, jobs);
  if (ec != std::errc{} || ptr != end || jobs <= 0) return 0;
  return jobs;
}

int hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ExperimentRunner::ExperimentRunner(RunnerConfig config) : config_(config) {
  if (config_.jobs > 0) {
    jobs_ = config_.jobs;
  } else {
    const int from_env = env_jobs();
    jobs_ = from_env > 0 ? from_env : hardware_jobs();
  }
}

void ExperimentRunner::run(std::size_t trials,
                           const std::function<void(TrialContext&)>& body) {
  if (trials == 0) return;

  // Capture per-trial traces exactly when the launching thread has a
  // recorder to merge them into (index order). With tracing globally off
  // (MERCURY_TRACE=0) trials skip the per-trial recorders entirely and emit
  // sites stay single-pointer-compare cheap.
  obs::TraceRecorder* ambient = obs::recorder();
  const bool capture = ambient != nullptr;

  std::vector<std::unique_ptr<obs::TraceRecorder>> captures(
      capture ? trials : 0);
  std::vector<std::exception_ptr> errors(trials);
  // Every trial's log lines are held back and replayed in trial order, so
  // stderr is the same at any job count.
  std::vector<std::vector<util::LogRecord>> logs(trials);

  const auto run_one = [&](std::size_t index) {
    TrialContext ctx;
    ctx.index = index;
    util::LogCapture log_capture(logs[index]);
    try {
      if (capture) {
        auto recorder = std::make_unique<obs::TraceRecorder>();
        obs::ScopedRecorder scope(*recorder);
        ctx.recorder = recorder.get();
        body(ctx);
        captures[index] = std::move(recorder);
      } else {
        body(ctx);
      }
    } catch (...) {
      errors[index] = std::current_exception();
    }
  };

  const std::size_t workers =
      std::min(static_cast<std::size_t>(jobs_), trials);
  if (workers <= 1) {
    for (std::size_t i = 0; i < trials; ++i) run_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        while (true) {
          const std::size_t index = next.fetch_add(1);
          if (index >= trials) return;
          run_one(index);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }

  // Merge in trial-index order, on the launching thread, after the pool has
  // drained: the one place per-trial buffers touch shared state. This is
  // also what keeps MERCURY_TRACE_DIR safe under parallelism — nothing ever
  // writes a trace file or a log line from a worker.
  for (std::size_t i = 0; i < trials; ++i) {
    if (capture && captures[i] != nullptr) {
      ambient->merge_from(std::move(*captures[i]));
    }
    for (const util::LogRecord& line : logs[i]) {
      util::Logger::instance().log(line.level, line.t, line.component,
                                   line.message);
    }
  }

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace mercury::exp
