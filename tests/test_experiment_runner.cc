// ExperimentRunner (src/exp/runner.h): parallel trial execution must be
// byte-identical to the serial loop — aggregated results, merged traces,
// and the files written from them — for any MERCURY_JOBS value.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/mercury_trees.h"
#include "exp/runner.h"
#include "obs/trace.h"
#include "station/experiment.h"
#include "util/log.h"

namespace mercury::exp {
namespace {

/// RAII override of $MERCURY_JOBS (nullptr = unset), restoring on exit.
class JobsEnv {
 public:
  explicit JobsEnv(const char* value) {
    const char* old = std::getenv("MERCURY_JOBS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv("MERCURY_JOBS", value, 1);
    } else {
      ::unsetenv("MERCURY_JOBS");
    }
  }
  ~JobsEnv() {
    if (had_) {
      ::setenv("MERCURY_JOBS", saved_.c_str(), 1);
    } else {
      ::unsetenv("MERCURY_JOBS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

// --- Runner mechanics ------------------------------------------------------

TEST(EnvJobs, ParsesPositiveIntegersOnly) {
  {
    JobsEnv env("4");
    EXPECT_EQ(env_jobs(), 4);
  }
  {
    JobsEnv env(nullptr);
    EXPECT_EQ(env_jobs(), 0);
  }
  for (const char* bad : {"0", "-2", "abc", "4x", ""}) {
    JobsEnv env(bad);
    EXPECT_EQ(env_jobs(), 0) << "MERCURY_JOBS=" << bad;
  }
}

TEST(ExperimentRunner, JobsResolutionPrefersConfigThenEnv) {
  JobsEnv env("3");
  EXPECT_EQ(ExperimentRunner(RunnerConfig{.jobs = 5}).jobs(), 5);
  EXPECT_EQ(ExperimentRunner().jobs(), 3);
  JobsEnv cleared(nullptr);
  EXPECT_EQ(ExperimentRunner().jobs(), hardware_jobs());
}

TEST(ExperimentRunner, MapReturnsResultsInIndexOrder) {
  ExperimentRunner runner(RunnerConfig{.jobs = 7});
  const std::vector<std::size_t> doubled =
      runner.map(100, [](TrialContext& ctx) { return ctx.index * 2; });
  ASSERT_EQ(doubled.size(), 100u);
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    EXPECT_EQ(doubled[i], i * 2);
  }
}

TEST(ExperimentRunner, FirstExceptionByIndexIsRethrownAfterAllTrialsRun) {
  ExperimentRunner runner(RunnerConfig{.jobs = 4});
  std::atomic<int> completed{0};
  try {
    runner.run(16, [&completed](TrialContext& ctx) {
      if (ctx.index == 11) throw std::runtime_error("trial 11");
      if (ctx.index == 5) throw std::runtime_error("trial 5");
      ++completed;
    });
    FAIL() << "expected the trial exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "trial 5");
  }
  EXPECT_EQ(completed.load(), 14);
}

TEST(ExperimentRunner, TrialsGetPrivateRecordersOnlyUnderAnAmbientOne) {
  ExperimentRunner runner(RunnerConfig{.jobs = 4});
  // No ambient recorder on this thread: capture off.
  const auto without =
      runner.map(8, [](TrialContext& ctx) { return ctx.recorder != nullptr; });
  for (const bool captured : without) EXPECT_FALSE(captured);

  obs::TraceRecorder ambient;
  obs::ScopedRecorder scope(ambient);
  std::set<const obs::TraceRecorder*> distinct;
  std::mutex mutex;
  runner.run(8, [&](TrialContext& ctx) {
    ASSERT_NE(ctx.recorder, nullptr);
    EXPECT_EQ(obs::recorder(), ctx.recorder);  // installed on this thread
    obs::instant(util::TimePoint::origin() + util::Duration::seconds(1.0),
                 "sim", "probe", "test",
                 {{"index", std::to_string(ctx.index)}});
    const std::lock_guard<std::mutex> lock(mutex);
    distinct.insert(ctx.recorder);
  });
  EXPECT_EQ(distinct.size(), 8u);          // one private recorder per trial
  EXPECT_EQ(ambient.events().size(), 8u);  // all merged back, index order
  for (std::size_t i = 0; i < ambient.events().size(); ++i) {
    EXPECT_EQ(ambient.events()[i].arg_or("index"), std::to_string(i));
  }
}

TEST(ExperimentRunner, TrialLogLinesReachTheSinkInTrialOrderOnTheLaunchingThread) {
  struct SinkCall {
    std::thread::id thread;
    std::string message;
  };
  std::vector<SinkCall> calls;
  std::mutex mutex;
  util::Logger& logger = util::Logger::instance();
  const util::LogLevel saved_level = logger.level();
  logger.set_level(util::LogLevel::kWarn);
  logger.set_sink([&](util::LogLevel, util::TimePoint, std::string_view,
                      std::string_view message) {
    const std::lock_guard<std::mutex> lock(mutex);
    calls.push_back({std::this_thread::get_id(), std::string(message)});
  });

  const auto trial = [](TrialContext& ctx) {
    const auto log = [&](util::LogLevel level, const char* tag) {
      util::LogLine(level, util::TimePoint::origin(), "test")
          << "trial " << ctx.index << " " << tag;
    };
    log(util::LogLevel::kInfo, "filtered");  // below kWarn: never captured
    log(util::LogLevel::kWarn, "a");
    log(util::LogLevel::kError, "b");
    if (ctx.index == 7) throw std::runtime_error("trial 7");
  };
  // A throwing trial's lines are replayed before its error is rethrown.
  ExperimentRunner runner(RunnerConfig{.jobs = 4});
  EXPECT_THROW(runner.run(16, trial), std::runtime_error);
  logger.set_sink(nullptr);
  logger.set_level(saved_level);

  ASSERT_EQ(calls.size(), 32u);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].thread, std::this_thread::get_id()) << i;
    EXPECT_EQ(calls[i].message, "trial " + std::to_string(i / 2) +
                                    (i % 2 == 0 ? " a" : " b"));
  }
}

// --- End-to-end determinism over real trials -------------------------------

std::vector<station::TrialSpec> sample_specs() {
  std::vector<station::TrialSpec> specs;
  for (const std::string component : {"ses", "str", "rtu"}) {
    for (std::uint64_t seed : {21ull, 22ull}) {
      station::TrialSpec spec;
      spec.tree = core::MercuryTree::kTreeIV;
      spec.oracle = station::OracleKind::kPerfect;
      spec.fail_component = component;
      spec.seed = seed;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// Results + merged trace of the sample batch under a given job count,
/// serialized to one comparable string.
std::string batch_fingerprint(const char* jobs) {
  JobsEnv env(jobs);
  obs::TraceRecorder recorder;
  std::ostringstream out;
  {
    obs::ScopedRecorder scope(recorder);
    for (const station::TrialResult& result :
         station::run_trial_batch(sample_specs())) {
      out << result.recovery.to_seconds() << "," << result.restarts << ","
          << result.escalations << ";";
    }
  }
  out << "\n";
  recorder.write_jsonl(out);
  return out.str();
}

TEST(ExperimentRunner, BatchByteIdenticalAcrossJobCounts) {
  const std::string serial = batch_fingerprint("1");
  ASSERT_NE(serial.find("rec.restart"), std::string::npos);
  EXPECT_EQ(serial, batch_fingerprint("2"));
  EXPECT_EQ(serial, batch_fingerprint("8"));
}

/// Whole file as a string; empty on error.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string{};
}

TEST(ExperimentRunner, GoldenBatchByteIdenticalToCommittedFixture) {
  // Determinism lock-down (ISSUE 10): the sample batch's merged trace and
  // result line must reproduce the committed fixtures byte for byte, at any
  // job count. The trace fixture was captured with a serial run of the build
  // just before the POSIX backend moved onto core::Recoverer (the results
  // fixture matches it), so this pins the full observable contract — event
  // timestamps, (at, seq) pop order, routing, span/run rebasing in the
  // merge — across every later rewrite. If a change legitimately
  // alters the trace (new events, schema change), regenerate the fixtures
  // with a serial run and say so in the PR.
  const std::string data_dir = MERCURY_TEST_DATA_DIR;
  const std::string golden_trace =
      read_file(data_dir + "/golden_batch.trace.jsonl");
  const std::string golden_results =
      read_file(data_dir + "/golden_batch.results.txt");
  ASSERT_FALSE(golden_trace.empty());
  ASSERT_FALSE(golden_results.empty());

  for (const char* jobs : {"1", "2", "8"}) {
    JobsEnv env(jobs);
    obs::TraceRecorder recorder;
    std::ostringstream results;
    {
      obs::ScopedRecorder scope(recorder);
      for (const station::TrialResult& result :
           station::run_trial_batch(sample_specs())) {
        results << result.recovery.to_seconds() << "," << result.restarts
                << "," << result.escalations << ";";
      }
    }
    results << "\n";
    std::ostringstream trace;
    recorder.write_jsonl(trace);
    EXPECT_EQ(trace.str(), golden_trace) << "MERCURY_JOBS=" << jobs;
    EXPECT_EQ(results.str(), golden_results) << "MERCURY_JOBS=" << jobs;
  }
}

/// Tree IV, pbcom failing with ses and rtu close behind, recovered by
/// traffic-driven on-demand dispatch under client load with per-request
/// spans: the trial shape that drives the bus's typed "restarting" nacks,
/// request touches and lazy drains, none of which the sample batch reaches.
std::vector<station::TrialSpec> traffic_specs() {
  std::vector<station::TrialSpec> specs;
  for (std::uint64_t seed : {67ull, 68ull}) {
    station::TrialSpec spec;
    spec.tree = core::MercuryTree::kTreeIV;
    spec.oracle = station::OracleKind::kPerfect;
    spec.fail_component = "pbcom";
    spec.extra_faults.push_back({"ses", util::Duration::millis(30.0)});
    spec.extra_faults.push_back({"rtu", util::Duration::millis(60.0)});
    spec.dispatch = core::DispatchMode::kOnDemand;
    spec.traffic_driven = true;
    spec.traffic.enabled = true;
    spec.traffic.command_sessions = 4;
    spec.traffic.telemetry_sessions = 2;
    spec.traffic.trace_requests = true;
    spec.traffic.keep_outcome_log = true;
    spec.seed = seed;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ExperimentRunner, GoldenTrafficByteIdenticalToCommittedFixture) {
  // The client-traffic counterpart of the golden batch: every bus delivery,
  // typed nack, retry and touch promotion of the traffic specs lands in the
  // merged trace or the per-request outcome log, so a change to what
  // crosses the bus, or when, shows here byte for byte. Captured from a
  // serial run; never regenerate it to make a change pass.
  const std::string data_dir = MERCURY_TEST_DATA_DIR;
  const std::string golden_trace =
      read_file(data_dir + "/golden_traffic.trace.jsonl");
  const std::string golden_results =
      read_file(data_dir + "/golden_traffic.results.txt");
  ASSERT_FALSE(golden_trace.empty());
  ASSERT_FALSE(golden_results.empty());

  for (const char* jobs : {"1", "2", "8"}) {
    JobsEnv env(jobs);
    obs::TraceRecorder recorder;
    std::ostringstream results;
    {
      obs::ScopedRecorder scope(recorder);
      for (const station::TrialResult& result :
           station::run_trial_batch(traffic_specs())) {
        const core::TrafficSummary& t = result.traffic;
        results << result.recovery.to_seconds() << "," << result.restarts
                << "," << result.escalations << ","
                << result.touch_promotions << "," << result.lazy_drains
                << ";" << t.issued << "," << t.served << "," << t.lost << ","
                << t.retried << "," << t.restarting_rejections << ","
                << t.p50_ms << "," << t.p99_ms << "," << t.dip_end_s << ","
                << t.worst_route_reopen_s << "\n"
                << result.traffic_outcome_log;
      }
    }
    std::ostringstream trace;
    recorder.write_jsonl(trace);
    EXPECT_EQ(trace.str(), golden_trace) << "MERCURY_JOBS=" << jobs;
    EXPECT_EQ(results.str(), golden_results) << "MERCURY_JOBS=" << jobs;
  }
}

TEST(ExperimentRunner, MergedTraceMatchesTheLegacySerialRecorder) {
  // The pre-runner behaviour: every trial recorded directly into one
  // ambient recorder on the calling thread. The runner's per-trial
  // capture + index-ordered merge must reproduce it byte for byte,
  // including run indices and span ids.
  obs::TraceRecorder legacy;
  {
    obs::ScopedRecorder scope(legacy);
    for (const station::TrialSpec& spec : sample_specs()) {
      station::run_trial(spec);
    }
  }
  std::ostringstream legacy_out;
  legacy.write_jsonl(legacy_out);

  JobsEnv env("8");
  obs::TraceRecorder merged;
  {
    obs::ScopedRecorder scope(merged);
    station::run_trial_batch(sample_specs());
  }
  std::ostringstream merged_out;
  merged.write_jsonl(merged_out);

  EXPECT_EQ(legacy_out.str(), merged_out.str());
  EXPECT_EQ(legacy.run(), merged.run());
}

TEST(ExperimentRunner, RunTrialsStatsIdenticalAcrossJobCounts) {
  station::TrialSpec spec;
  spec.tree = core::MercuryTree::kTreeII;
  spec.oracle = station::OracleKind::kPerfect;
  spec.fail_component = "ses";
  spec.seed = 500;

  const auto stats_at = [&spec](const char* jobs) {
    JobsEnv env(jobs);
    return station::run_trials(spec, 20);
  };
  const util::SampleStats serial = stats_at("1");
  const util::SampleStats parallel = stats_at("8");
  ASSERT_EQ(serial.count(), parallel.count());
  EXPECT_EQ(serial.samples(), parallel.samples());  // exact, order included
}

TEST(ExperimentRunner, ConcurrentTrialsNeverInterleaveTraceFileWrites) {
  // Regression for the MERCURY_TRACE_DIR race: workers must never write the
  // trace file themselves — per-trial buffers are merged on the launching
  // thread and serialized once. The written JSONL must parse back line for
  // line with exactly the events of all trials.
  JobsEnv env("8");
  obs::TraceRecorder recorder;
  {
    obs::ScopedRecorder scope(recorder);
    station::run_trial_batch(sample_specs());
  }

  std::size_t expected_events = 0;
  for (const station::TrialSpec& spec : sample_specs()) {
    expected_events += station::run_trial_traced(spec).events.size();
  }
  ASSERT_GT(expected_events, 0u);
  EXPECT_EQ(recorder.events().size(), expected_events);

  const std::string path =
      ::testing::TempDir() + "/runner_merge.trace.jsonl";
  {
    std::ofstream out(path);
    recorder.write_jsonl(out);
    ASSERT_TRUE(out.good());
  }
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, expected_events);  // one object per line, none torn

  std::ifstream reparse(path);
  const std::vector<obs::TraceEvent> reread = obs::read_jsonl(reparse);
  EXPECT_EQ(reread.size(), expected_events);  // every line parses
}

}  // namespace
}  // namespace mercury::exp
