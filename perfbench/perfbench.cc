// perfbench: the repository benchmark driver (README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// Runs one workload through the program's public entry points, checks its
// outputs, and prints one JSON record on stdout: the checks, the TrialResult
// digest, and every metric with its unit, grouped as "e2e" (the gated
// end-to-end metrics), "extra" (end-to-end figures that exist only on some
// workloads) and, with --trace 1, "layers" (per-layer attribution). Exits 1
// when any output check fails, 2 on a usage error.
//
// Workloads (why each exists: README.md):
//   sweep_serial  Table 4 grid, MERCURY_JOBS=1, trace capture off; each run
//                 also checks the traced nproc sweep and the client-traffic
//                 grid and reports them ungated
//   posix_live    SIGKILLs of live mercury_worker processes
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/mercury_trees.h"
#include "core/restart_tree.h"
#include "exp/runner.h"
#include "exp/seed_stream.h"
#include "obs/phases.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "posix/supervisor.h"
#include "probes.h"
#include "station/experiment.h"
#include "util/rng.h"
#include "util/stats.h"

#ifndef MERCURY_WORKER_BIN
#error "MERCURY_WORKER_BIN must point at the mercury_worker binary"
#endif

namespace {

namespace fs = std::filesystem;
namespace names = mercury::core::component_names;
using mercury::core::DispatchMode;
using mercury::core::MercuryTree;
using mercury::station::FailureMode;
using mercury::station::OracleKind;
using mercury::station::TrialResult;
using mercury::station::TrialSpec;
using mercury::util::Duration;
using mercury::util::SampleStats;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter also counts the parent's pages between fork and
/// exec, so it reports the launcher's size for a small driver.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// --- Host speed reference --------------------------------------------------------

/// sweep_serial's host-time figures are scaled to a reference host speed.
/// On a shared host a core runs this kind of code up to ~30% slower for
/// minutes at a time while other tenants load it (README.md, "Host
/// speed"). reference_task_s() times fixed work of the program's kind,
/// short XML-like strings kept in an ordered map, that lives here and so
/// does not change with src/; timed next to the program's own work, it
/// measures how fast the host is at that moment.
constexpr double kReferenceTaskS = 0.022;  ///< its time on the reference host

double reference_task_s() {
  const auto start = Clock::now();
  std::map<std::string, int> table;
  for (int i = 0; i < 50'000; ++i) {
    table["<ping seq=\"" + std::to_string(i * 7919 % 100'003) + "\"/>"] = i;
  }
  return seconds_since(start);
}

/// Fastest of `n` runs of the reference task.
double reference_floor_s(int n) {
  double best = reference_task_s();
  for (int i = 1; i < n; ++i) best = std::min(best, reference_task_s());
  return best;
}

// --- Command line -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".";
};

bool parse_options(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--setup-only") {
      if (value != "0" && value != "1") return false;
      options->setup_only = value == "1";
    } else if (key == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

// --- Result record ------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Report {
 public:
  enum Group { kE2e, kExtra, kLayers };

  void metric(Group group, const std::string& name, double value,
              const std::string& unit) {
    groups_[group].push_back({name, value, unit});
  }
  /// One output check; a failed check counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks_.push_back({name, ok, detail});
    ++attempted_;
    if (!ok) ++failed_;
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s %s\n", name.c_str(), detail.c_str());
  }
  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void set_digest(std::uint64_t digest) { digest_ = digest; }
  bool correct() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const CheckRow& c) { return c.ok; });
  }

  std::string json(const Options& options) const {
    std::ostringstream out;
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(digest_));
    out << "{\"workload\": " << json_string(options.workload)
        << ", \"seed\": " << options.seed << ", \"trace\": " << (options.trace ? 1 : 0)
        << ", \"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"digest\": \"" << digest << "\""
        << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
        << ", \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      out << (i ? ", " : "") << "{\"name\": " << json_string(checks_[i].name)
          << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
          << ", \"detail\": " << json_string(checks_[i].detail) << "}";
    }
    out << "]";
    const char* group_names[] = {"e2e", "extra", "layers"};
    for (int g = 0; g < 3; ++g) {
      out << ", \"" << group_names[g] << "\": {";
      const auto& rows = groups_[g];
      for (std::size_t i = 0; i < rows.size(); ++i) {
        out << (i ? ", " : "") << json_string(rows[i].name) << ": {\"value\": "
            << json_number(rows[i].value) << ", \"unit\": "
            << json_string(rows[i].unit) << "}";
      }
      out << "}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckRow {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Row> groups_[3];
  std::vector<CheckRow> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t digest_ = 0;
};

// --- TrialResult digest (FNV-1a over every field) ------------------------------

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t digest(const std::vector<TrialResult>& results) {
  Fnv h;
  for (const TrialResult& r : results) {
    h.f64(r.recovery.to_seconds());
    for (const int v : {r.restarts, r.escalations, int(r.hard_failure), int(r.timed_out),
                        r.restart_timeouts, r.backoffs, int(r.degraded_functional),
                        r.warm_restarts, r.cold_fallbacks, r.checkpoint_crashes,
                        r.warm_hits_l0, r.warm_hits_l1, r.warm_hits_l2, r.tier_rebuilds,
                        r.max_concurrent_restarts, r.absorbed_restarts,
                        r.touch_promotions, r.lazy_drains}) {
      h.u64(static_cast<std::uint64_t>(v));
    }
    h.u64(r.parked.size());
    for (const std::string& p : r.parked) h.str(p);
    const auto& t = r.traffic;
    for (const std::uint64_t v : {t.issued, t.served, t.lost, t.retried,
                                  t.restarting_rejections, t.parked_rejections}) {
      h.u64(v);
    }
    for (const double v : {t.p50_ms, t.p99_ms, t.p999_ms, t.baseline_rps, t.dip_depth,
                           t.dip_width_s, t.dip_end_s, t.worst_route_reopen_s}) {
      h.f64(v);
    }
    h.str(r.traffic_outcome_log);
  }
  return h.value();
}

// --- Simulated workloads --------------------------------------------------------

/// One pass of a simulated workload. Timed passes run at MERCURY_JOBS=1
/// with trace capture off.
struct SimWorkload {
  std::vector<TrialSpec> specs;  ///< one pass, in trial order
  /// The pass holds trials_per_cell consecutive trials of each cell.
  int trials_per_cell = 0;
  /// Table 4 only: paper MTTR and a label per cell, in pass order.
  std::vector<double> paper;
  std::vector<std::string> cell_labels;
};

/// Table 4 (bench_table4): every applicable (tree, oracle, component) cell,
/// 100 trials each. Cell c's trials use seeds trial_seed(c) + i.
SimWorkload table4_sweep(std::uint64_t seed) {
  struct Row {
    const char* label;
    MercuryTree tree;
    OracleKind oracle;
    double paper[7];  // mbus ses str rtu fedr pbcom fedrcom; -1 = n/a
  };
  const Row rows[] = {
      {"I", MercuryTree::kTreeI, OracleKind::kPerfect, {24.75, 24.75, 24.75, 24.75, -1, -1, 24.75}},
      {"II", MercuryTree::kTreeII, OracleKind::kPerfect, {5.73, 9.50, 9.76, 5.59, -1, -1, 20.93}},
      {"III", MercuryTree::kTreeIII, OracleKind::kPerfect, {5.73, 9.50, 9.76, 5.59, 5.76, 21.24, -1}},
      {"IV", MercuryTree::kTreeIV, OracleKind::kPerfect, {5.73, 6.25, 6.11, 5.59, 5.76, 21.24, -1}},
      {"IV-faulty", MercuryTree::kTreeIV, OracleKind::kFaultyPerfect, {5.73, 6.25, 6.11, 5.59, 5.76, 29.19, -1}},
      {"V-faulty", MercuryTree::kTreeV, OracleKind::kFaultyPerfect, {5.73, 6.25, 6.11, 5.59, 5.76, 21.63, -1}},
  };
  const std::string components[7] = {names::kMbus, names::kSes, names::kStr, names::kRtu,
                                     names::kFedr, names::kPbcom, names::kFedrcom};
  const mercury::exp::SeedStream seeds(seed);
  SimWorkload w;
  w.trials_per_cell = 100;
  for (const Row& row : rows) {
    for (int c = 0; c < 7; ++c) {
      if (row.paper[c] < 0) continue;
      TrialSpec spec;
      spec.tree = row.tree;
      spec.oracle = row.oracle;
      spec.faulty_p_low = 0.3;
      spec.fail_component = components[c];
      spec.mode = components[c] == names::kPbcom ? FailureMode::kJointFedrPbcom
                                                 : FailureMode::kCrash;
      const std::uint64_t base = seeds.trial_seed(w.paper.size());
      w.paper.push_back(row.paper[c]);
      w.cell_labels.push_back(std::string(row.label) + "/" + components[c]);
      for (int i = 0; i < w.trials_per_cell; ++i) {
        spec.seed = base + static_cast<std::uint64_t>(i);
        w.specs.push_back(spec);
      }
    }
  }
  return w;
}

/// The flagship cells of bench_availability_traffic at heavy load: trees
/// {II, IV} x {pbcom+ses+rtu multi-fault, ses single fault} x dispatch
/// {serial, dag, ondemand}, 3 trials each: 36 per pass, ~2 s of host time
/// at one job. Every cell uses the same trial seeds, so the dispatch modes
/// see identical inputs.
SimWorkload traffic_grid(std::uint64_t seed) {
  struct Mode {
    DispatchMode dispatch;
    bool traffic_driven;
  };
  const Mode modes[] = {{DispatchMode::kSerial, false},
                        {DispatchMode::kDag, false},
                        {DispatchMode::kOnDemand, true}};
  const std::uint64_t base = mercury::exp::SeedStream(seed).trial_seed(0);
  SimWorkload w;
  w.trials_per_cell = 3;
  for (const MercuryTree tree : {MercuryTree::kTreeII, MercuryTree::kTreeIV}) {
    // Tree II predates the fedr/pbcom split: fedrcom stands in for pbcom.
    const std::string pbcom = tree == MercuryTree::kTreeII ? names::kFedrcom : names::kPbcom;
    for (const bool multi : {true, false}) {
      for (const Mode& mode : modes) {
        TrialSpec spec;
        spec.tree = tree;
        spec.oracle = OracleKind::kPerfect;
        spec.fail_component = multi ? pbcom : names::kSes;
        if (multi) {
          spec.extra_faults = {{names::kSes, Duration::millis(30.0)},
                               {names::kRtu, Duration::millis(60.0)}};
        }
        spec.dispatch = mode.dispatch;
        spec.traffic_driven = mode.traffic_driven;
        spec.timeout = Duration::seconds(300.0);
        spec.traffic.enabled = true;
        spec.traffic.command_sessions = 16;
        spec.traffic.telemetry_sessions = 8;
        spec.traffic.mean_interarrival = Duration::millis(100.0);
        for (int i = 0; i < w.trials_per_cell; ++i) {
          spec.seed = base + static_cast<std::uint64_t>(i);
          w.specs.push_back(spec);
        }
      }
    }
  }
  return w;
}

void set_jobs(int jobs) { setenv("MERCURY_JOBS", std::to_string(jobs).c_str(), 1); }

/// What a traced pass leaves behind after the runner returns: the work
/// TraceSession::finish() does for every published bench.
struct TraceTail {
  std::vector<mercury::obs::TraceIssue> issues;
  double check_s = 0.0;
  double write_jsonl_s = 0.0;
  double write_chrome_s = 0.0;
  double phases_s = 0.0;
  double trace_mb = 0.0;
  std::vector<mercury::obs::RecoveryPhases> phases;

  double total_s() const { return check_s + write_jsonl_s + write_chrome_s + phases_s; }
};

TraceTail finish_trace(const mercury::obs::TraceRecorder& recorder,
                       const std::string& out_dir, const std::string& name) {
  TraceTail tail;
  auto start = Clock::now();
  tail.issues = mercury::obs::check_trace(recorder.events());
  tail.check_s = seconds_since(start);

  const std::string jsonl_path = out_dir + "/" + name + ".trace.jsonl";
  const std::string chrome_path = out_dir + "/" + name + ".trace.json";
  start = Clock::now();
  {
    std::ofstream out(jsonl_path);
    recorder.write_jsonl(out);
  }
  tail.write_jsonl_s = seconds_since(start);
  start = Clock::now();
  {
    std::ofstream out(chrome_path);
    recorder.write_chrome_trace(out);
  }
  tail.write_chrome_s = seconds_since(start);
  std::error_code ec;
  tail.trace_mb = static_cast<double>(fs::file_size(jsonl_path, ec)) / 1e6;
  fs::remove(jsonl_path, ec);
  fs::remove(chrome_path, ec);

  start = Clock::now();
  tail.phases = mercury::obs::recovery_phases(recorder.events());
  // Built as TraceSession prints it; only its cost matters here.
  const std::string table = mercury::obs::phase_table(tail.phases);
  tail.phases_s = seconds_since(start);
  return tail;
}

struct Pass {
  std::vector<TrialResult> results;
  double wall_s = 0.0;
  /// Times of the pass's separately timed calls, in a fixed order (see
  /// run_pass); they sum to the pass minus loop overhead.
  std::vector<double> part_s;
  TraceTail tail;
};

/// How a pass calls run_trial_batch.
enum class Calls {
  kPerCell,    ///< once per cell, capture off (the timed passes)
  kWholeGrid,  ///< once over the whole grid, capture off
  kCaptured,   ///< once over the whole grid under a recorder, then its tail
};

/// One pass as a published bench runs it; each call (and each step of the
/// recorder tail) is timed on its own.
Pass run_pass(const SimWorkload& w, int jobs, Calls calls, const std::string& out_dir,
              const std::string& name) {
  Pass pass;
  set_jobs(jobs);
  const auto start = Clock::now();
  if (calls == Calls::kWholeGrid) {
    pass.results = mercury::station::run_trial_batch(w.specs);
    pass.part_s.push_back(seconds_since(start));
  } else if (calls == Calls::kPerCell) {
    const std::size_t step = static_cast<std::size_t>(w.trials_per_cell);
    for (std::size_t i = 0; i < w.specs.size(); i += step) {
      const std::vector<TrialSpec> cell(w.specs.begin() + i, w.specs.begin() + i + step);
      const auto cell_start = Clock::now();
      std::vector<TrialResult> results = mercury::station::run_trial_batch(cell);
      pass.part_s.push_back(seconds_since(cell_start));
      std::move(results.begin(), results.end(), std::back_inserter(pass.results));
    }
  } else {
    mercury::obs::TraceRecorder recorder;
    {
      mercury::obs::ScopedRecorder scope(recorder);
      pass.results = mercury::station::run_trial_batch(w.specs);
    }
    pass.part_s.push_back(seconds_since(start));
    pass.tail = finish_trace(recorder, out_dir, name);
    pass.part_s.insert(pass.part_s.end(), {pass.tail.check_s, pass.tail.write_jsonl_s,
                                           pass.tail.write_chrome_s, pass.tail.phases_s});
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

/// Simulated end-to-end figures of one pass (deterministic per seed).
struct SimFigures {
  SampleStats mttr;
  int stalls = 0;
  double paper_max_rel_err = 0.0;
  /// Cells whose mean misses the paper by more than 12% plus three
  /// standard errors of the cell's own mean, described.
  std::vector<std::string> paper_misses;
  std::uint64_t issued = 0, served = 0, lost = 0;
  int conservation_violations = 0;
  SampleStats request_p99_ms;
  SampleStats reopen_s;
};

SimFigures sim_figures(const SimWorkload& w, const std::vector<TrialResult>& results) {
  SimFigures f;
  for (const TrialResult& r : results) {
    f.mttr.add(r.recovery);
    if (r.timed_out || r.hard_failure) ++f.stalls;
    const auto& t = r.traffic;
    if (t.issued == 0) continue;
    f.issued += t.issued;
    f.served += t.served;
    f.lost += t.lost;
    if (t.issued != t.served + t.lost) ++f.conservation_violations;
    f.request_p99_ms.add(t.p99_ms);
    f.reopen_s.add(t.worst_route_reopen_s);
  }
  for (std::size_t c = 0; c < w.paper.size(); ++c) {
    SampleStats cell;
    for (int i = 0; i < w.trials_per_cell; ++i) {
      cell.add(results[c * w.trials_per_cell + i].recovery);
    }
    const double miss = std::fabs(cell.mean() - w.paper[c]);
    f.paper_max_rel_err = std::max(f.paper_max_rel_err, miss / w.paper[c]);
    const double se = cell.stddev() / std::sqrt(static_cast<double>(cell.count()));
    if (miss > 0.12 * w.paper[c] + 3.0 * se) {
      f.paper_misses.push_back(w.cell_labels[c] + " " + json_number(cell.mean()) + " s vs paper " +
                               json_number(w.paper[c]) + " s (se " + json_number(se) + " s)");
    }
  }
  return f;
}

/// Output checks shared by both run modes; returns the pass digest.
std::uint64_t check_sim_outputs(const std::string& prefix, const SimWorkload& w,
                                const std::vector<TrialResult>& results, const SimFigures& f,
                                Report& report) {
  report.check(prefix + "no_stalled_trials", f.stalls == 0,
               std::to_string(f.stalls) + " timed-out or hard-failed trials");
  if (!w.paper.empty()) {
    // tests/test_experiment.cc's per-cell band (12% of the paper value),
    // widened by three standard errors of the cell's 100-trial mean. The
    // inputs change with every seed, and the faulty-oracle pbcom cell is
    // bimodal (~21 s or ~42 s): its mean has a 1 s standard error and
    // leaves the bare 12% band for a few percent of seeds.
    std::string detail = "max |measured - paper| / paper = " + json_number(f.paper_max_rel_err);
    for (const std::string& miss : f.paper_misses) detail += "; " + miss;
    report.check(prefix + "paper_within_12pct_plus_3se", f.paper_misses.empty(), detail);
  }
  if (f.issued > 0) {
    report.check(prefix + "conservation", f.conservation_violations == 0,
                 std::to_string(f.conservation_violations) +
                     " trials with issued != served + lost");
  }
  report.operations(results.size(), static_cast<std::uint64_t>(f.stalls));
  return digest(results);
}

/// When main() began: set-up is timed from here.
Clock::time_point main_start;

/// Set-up ends where the first timed operation would begin. With
/// --setup-only the process prints "setup-done <setup_s> <raw_s>" on stdout
/// and stops there; run.py reports the median of setup_s over fresh
/// processes. raw_s is main() to here; setup_s is raw_s scaled to the
/// reference host speed, measured on the same core right after, when
/// `scaled` (sweep_serial's CPU-bound set-up), else raw_s.
bool setup_done(const Options& options, bool scaled) {
  if (!options.setup_only) return false;
  const double raw = seconds_since(main_start);
  const double setup = scaled ? raw * kReferenceTaskS / reference_floor_s(3) : raw;
  std::printf("setup-done %.9f %.9f\n", setup, raw);
  std::fflush(stdout);
  return true;
}

/// Set-up of sweep_serial: build the inputs from the seed and run each
/// cell's first trial once (lazy initialisation), on the calling thread.
SimWorkload sim_setup(std::uint64_t seed) {
  SimWorkload w = table4_sweep(seed);
  for (std::size_t i = 0; i < w.specs.size(); i += w.trials_per_cell) {
    (void)mercury::station::run_trial(w.specs[i]);
  }
  return w;
}

/// The client-traffic grid, checked and reported in every sweep_serial
/// record but not gated (README.md, "Checked, not gated"): one pass at one
/// job, and one batch over the whole grid at nproc jobs for the digest.
void check_traffic(const Options& options, Report& report) {
  const SimWorkload t = traffic_grid(options.seed);
  const Pass one = run_pass(t, 1, Calls::kPerCell, options.out_dir, options.workload);
  const int jobs = mercury::exp::hardware_jobs();
  const Pass many = run_pass(t, jobs, Calls::kWholeGrid, options.out_dir, options.workload);
  const SimFigures f = sim_figures(t, one.results);
  const std::uint64_t reference = check_sim_outputs("traffic_", t, one.results, f, report);
  report.check("traffic_digest_jobs_1_vs_" + std::to_string(jobs),
               digest(many.results) == reference);
  report.metric(Report::kExtra, "traffic_trials_per_s", t.specs.size() / one.wall_s, "1/s");
  report.metric(Report::kExtra, "traffic_mttr_mean_s", f.mttr.mean(), "s");
  report.metric(Report::kExtra, "traffic_mttr_p90_s", f.mttr.percentile(90.0), "s");
  report.metric(Report::kExtra, "requests_lost_frac", ratio(f.lost, f.issued), "ratio");
  report.metric(Report::kExtra, "request_p99_ms", f.request_p99_ms.mean(), "ms");
  report.metric(Report::kExtra, "service_reopen_s", f.reopen_s.mean(), "s");
}

int run_sim_e2e(const Options& options, Report& report) {
  const SimWorkload w = sim_setup(options.seed);
  if (setup_done(options, true)) return 0;

  std::vector<double> rates;
  const auto start = Clock::now();
  const Pass first = run_pass(w, 1, Calls::kPerCell, options.out_dir, options.workload);
  const std::uint64_t first_digest = digest(first.results);
  rates.push_back(static_cast<double>(w.specs.size()) / first.wall_s);
  // Peak memory of one pass: later passes only add allocator drift.
  const double rss = peak_rss_mb();
  // The reference task after every pass; its fastest time is the host's
  // speed in the run.
  double reference_s = reference_task_s();
  // Fastest time seen for each timed call of the pass, over all passes.
  std::vector<double> part_floor = first.part_s;
  // Later passes repeat the first; only their digest is kept.
  double last_wall = first.wall_s;
  while (rates.size() < 2 || seconds_since(start) + last_wall <= options.seconds) {
    const Pass pass = run_pass(w, 1, Calls::kPerCell, options.out_dir, options.workload);
    reference_s = std::min(reference_s, reference_task_s());
    last_wall = pass.wall_s;
    rates.push_back(static_cast<double>(w.specs.size()) / pass.wall_s);
    for (std::size_t c = 0; c < part_floor.size(); ++c) {
      part_floor[c] = std::min(part_floor[c], pass.part_s[c]);
    }
    const std::string n = std::to_string(rates.size());
    report.check("digest_pass_" + n, digest(pass.results) == first_digest,
                 "results digest vs the first pass");
  }

  const std::vector<TrialResult>& results = first.results;
  const SimFigures f = sim_figures(w, results);
  report.set_digest(check_sim_outputs("", w, results, f, report));
  report.operations((rates.size() - 1) * results.size(),
                    (rates.size() - 1) * static_cast<std::uint64_t>(f.stalls));
  // The ROADMAP's "regenerate at JOBS=N" pass, as every bench's
  // TraceSession runs it: nproc jobs, capture, check_trace, both writes.
  // Checked (job-count invariance, clean trace) and reported, not gated:
  // its four threads make it far more sensitive to a shared host's load.
  const int jobs = mercury::exp::hardware_jobs();
  const Pass traced = run_pass(w, jobs, Calls::kCaptured, options.out_dir, options.workload);
  report.check("digest_jobs_1_vs_" + std::to_string(jobs), digest(traced.results) == digest(results));
  report.check("trace_clean_jobs_" + std::to_string(jobs), traced.tail.issues.empty(),
               mercury::obs::describe(traced.tail.issues));

  // Trials over the sum, over the pass's timed calls, of each call's
  // fastest time in the run, scaled to the reference host speed by the
  // reference task's fastest time. The floors filter interference shorter
  // than the run, where a median pass does not; the scaling cancels a
  // slow spell that lasts the whole run.
  double floor_s = 0.0;
  for (const double part : part_floor) floor_s += part;
  const double raw_rate = w.specs.size() / floor_s;
  report.metric(Report::kE2e, "trials_per_s", raw_rate * reference_s / kReferenceTaskS, "1/s");
  report.metric(Report::kE2e, "mttr_mean_s", f.mttr.mean(), "s");
  report.metric(Report::kE2e, "mttr_p90_s", f.mttr.percentile(90.0), "s");
  report.metric(Report::kE2e, "peak_rss_mb", rss, "MB");
  report.metric(Report::kExtra, "mttr_p99_s", f.mttr.percentile(99.0), "s");
  report.metric(Report::kExtra, "trials", static_cast<double>(results.size()), "count");
  report.metric(Report::kExtra, "passes", static_cast<double>(rates.size()), "count");
  report.metric(Report::kExtra, "trials_per_s_raw", raw_rate, "1/s");
  report.metric(Report::kExtra, "trials_per_s_median_pass", median(rates), "1/s");
  report.metric(Report::kExtra, "reference_task_ms", reference_s * 1e3, "ms");
  report.metric(Report::kExtra, "paper_max_rel_err", f.paper_max_rel_err, "ratio");
  report.metric(Report::kExtra, "traced_jobs_n_trials_per_s", w.specs.size() / traced.wall_s, "1/s");
  report.metric(Report::kExtra, "traced_jobs_n_trace_mb", traced.tail.trace_mb, "MB");
  check_traffic(options, report);
  return 0;
}

// --- Per-layer attribution of a simulated workload ------------------------------

/// A pass driven through ExperimentRunner directly (the engine behind
/// run_trial_batch) so each trial body can be timed from outside.
struct TimedPass {
  std::vector<TrialResult> results;
  std::vector<double> body_s;
  double runner_s = 0.0;  ///< runner.map wall time, merge included
  double merge_s = 0.0;   ///< last body end -> runner return
  double busy_frac = 0.0;
};

TimedPass timed_pass(const std::vector<TrialSpec>& specs, int jobs) {
  TimedPass pass;
  const std::size_t n = specs.size();
  pass.body_s.assign(n, 0.0);
  std::vector<Clock::time_point> ends(n);
  mercury::exp::RunnerConfig config;
  config.jobs = jobs;
  mercury::exp::ExperimentRunner runner(config);
  const auto start = Clock::now();
  pass.results = runner.map(n, [&](mercury::exp::TrialContext& ctx) {
    const auto begin = Clock::now();
    TrialResult result = mercury::station::run_trial(specs[ctx.index]);
    ends[ctx.index] = Clock::now();
    pass.body_s[ctx.index] = std::chrono::duration<double>(ends[ctx.index] - begin).count();
    return result;
  });
  const auto finish = Clock::now();
  pass.runner_s = std::chrono::duration<double>(finish - start).count();
  pass.merge_s = std::chrono::duration<double>(finish - *std::max_element(ends.begin(), ends.end())).count();
  double busy = 0.0;
  for (const double b : pass.body_s) busy += b;
  const double workers = static_cast<double>(std::min<std::size_t>(runner.jobs(), n));
  pass.busy_frac = ratio(busy, workers * pass.runner_s);
  return pass;
}

/// Kernel-event census: every trial re-run under its own recorder with
/// per-event simulator tracing on, counting fired events by label. Runs on
/// all cores; the recorders are private, so nothing is merged or kept.
struct Census {
  perfbench::LabelCounts labels;
  std::vector<TrialResult> results;
};

Census kernel_census(const std::vector<TrialSpec>& specs) {
  Census census;
  std::vector<perfbench::LabelCounts> per_trial(specs.size());
  mercury::exp::RunnerConfig config;
  config.jobs = mercury::exp::hardware_jobs();
  mercury::exp::ExperimentRunner runner(config);
  census.results = runner.map(specs.size(), [&](mercury::exp::TrialContext& ctx) {
    mercury::obs::TraceRecorder recorder;
    recorder.set_sim_events(true);
    TrialResult result;
    {
      mercury::obs::ScopedRecorder scope(recorder);
      result = mercury::station::run_trial(specs[ctx.index]);
    }
    for (const auto& event : recorder.events()) {
      if (event.track == "sim" && event.category == "sim") ++per_trial[ctx.index][event.name];
    }
    return result;
  });
  for (const auto& counts : per_trial) {
    for (const auto& [label, count] : counts) census.labels[label] += count;
  }
  return census;
}

void report_phases(const std::vector<mercury::obs::RecoveryPhases>& rows, Report& report) {
  SampleStats detect, decide, execute;
  for (const auto& row : rows) {
    detect.add(row.detection());
    decide.add(row.decision());
    execute.add(row.execution());
  }
  report.metric(Report::kLayers, "phase.detect_s", detect.mean(), "s");
  report.metric(Report::kLayers, "phase.decide_s", decide.mean(), "s");
  report.metric(Report::kLayers, "phase.execute_s", execute.mean(), "s");
}

void report_obs(const TraceTail& tail, std::size_t events, double trials, Report& report) {
  report.metric(Report::kLayers, "obs.events_per_trial", ratio(events, trials), "count");
  report.metric(Report::kLayers, "obs.check_s", tail.check_s, "s");
  report.metric(Report::kLayers, "obs.write_jsonl_s", tail.write_jsonl_s, "s");
  report.metric(Report::kLayers, "obs.write_chrome_s", tail.write_chrome_s, "s");
  report.metric(Report::kLayers, "obs.phases_s", tail.phases_s, "s");
  report.metric(Report::kLayers, "obs.trace_mb", tail.trace_mb, "MB");
}

/// Layers a workload does not run report zero, so every traced record has
/// the same metric set.
void report_zero(const std::vector<std::pair<std::string, std::string>>& metrics,
                 Report& report) {
  for (const auto& [name, unit] : metrics) report.metric(Report::kLayers, name, 0.0, unit);
}

const std::vector<std::pair<std::string, std::string>> kPosixLayerMetrics = {
    {"posix.detect_ms", "ms"},          {"posix.restart_ms", "ms"},
    {"posix.pong_ratio", "ratio"},      {"posix.spawns_per_kill", "count"},
    {"posix.escalations", "count"},     {"posix.warm_cold_fallbacks", "count"}};

/// Layers only client traffic exercises, from one captured pass of the
/// traffic grid at nproc jobs; "per trial" is per traffic trial here. Its
/// digest must match an uncaptured pass at one job.
void report_traffic_layers(const Options& options, Report& report) {
  const SimWorkload t = traffic_grid(options.seed);
  const Pass one = run_pass(t, 1, Calls::kPerCell, options.out_dir, options.workload);
  const int jobs = mercury::exp::hardware_jobs();
  mercury::obs::TraceRecorder recorder;
  std::vector<TrialResult> results;
  set_jobs(jobs);
  {
    mercury::obs::ScopedRecorder scope(recorder);
    results = mercury::station::run_trial_batch(t.specs);
  }
  report.check("traffic_digest_traced_jobs_" + std::to_string(jobs) + "_vs_untraced_jobs_1",
               digest(results) == digest(one.results));
  const double trials = static_cast<double>(t.specs.size());
  std::uint64_t rejected = 0, issued = 0, retried = 0;
  int max_concurrent = 0;
  for (const TrialResult& r : results) {
    rejected += r.traffic.restarting_rejections;
    issued += r.traffic.issued;
    retried += r.traffic.retried;
    max_concurrent = std::max(max_concurrent, r.max_concurrent_restarts);
  }
  const auto per_trial = [&](const std::string& counter) {
    return ratio(static_cast<double>(recorder.count(counter)), trials);
  };
  const std::vector<mercury::obs::TraceIssue> issues = mercury::obs::check_trace(recorder.events());
  report.check("traffic_trace_clean", issues.empty(), mercury::obs::describe(issues));
  report.metric(Report::kLayers, "bus.rejected_restarting_per_trial", ratio(rejected, trials), "count");
  report.metric(Report::kLayers, "rec.max_concurrent", max_concurrent, "count");
  report.metric(Report::kLayers, "rec.absorbed_per_trial", per_trial("rec.absorbed"), "count");
  report.metric(Report::kLayers, "rec.touch_promotions_per_trial", per_trial("rec.touch_promotions"), "count");
  report.metric(Report::kLayers, "rec.lazy_drains_per_trial", per_trial("rec.lazy_drains"), "count");
  report.metric(Report::kLayers, "workload.issued_per_trial", ratio(issued, trials), "count");
  report.metric(Report::kLayers, "workload.retry_ratio", ratio(retried, issued), "ratio");
  report.metric(Report::kLayers, "workload.timeouts_per_trial", per_trial("traffic.timeouts"), "count");
}

int run_sim_layers(const Options& options, Report& report) {
  const SimWorkload w = sim_setup(options.seed);
  const double trials = static_cast<double>(w.specs.size());

  // (a) The end-to-end pass configuration (one job, capture off), trial
  // bodies timed from outside.
  std::vector<TimedPass> untraced;
  std::vector<double> untraced_rates;
  for (int i = 0; i < 2; ++i) {
    untraced.push_back(timed_pass(w.specs, 1));
    untraced_rates.push_back(trials / untraced.back().runner_s);
  }
  // Attribute the faster of the two passes (less interference from outside).
  const TimedPass& a = untraced[untraced_rates[0] >= untraced_rates[1] ? 0 : 1];
  const std::uint64_t reference =
      check_sim_outputs("", w, a.results, sim_figures(w, a.results), report);
  report.set_digest(reference);
  report.check("digest_untraced_passes", digest(untraced[0].results) == digest(untraced[1].results));

  // (b) The same pass with program trace capture on: counters, phases and
  // the obs tail.
  mercury::obs::TraceRecorder recorder;
  TimedPass b;
  {
    mercury::obs::ScopedRecorder scope(recorder);
    b = timed_pass(w.specs, 1);
  }
  const TraceTail tail = finish_trace(recorder, options.out_dir, options.workload);
  const double traced_rate = trials / (b.runner_s + tail.total_s());
  report.check("digest_traced_vs_untraced", digest(b.results) == reference);
  report.check("trace_clean", tail.issues.empty(), mercury::obs::describe(tail.issues));

  // (b') Captured at nproc jobs: how busy the runner keeps the workers and
  // how long its index-ordered merge takes.
  TimedPass parallel;
  {
    mercury::obs::TraceRecorder merged;
    mercury::obs::ScopedRecorder scope(merged);
    parallel = timed_pass(w.specs, mercury::exp::hardware_jobs());
  }
  report.check("digest_traced_jobs_n", digest(parallel.results) == reference);

  // (c) Kernel census at nproc jobs (also the 1-vs-nproc digest check).
  const Census census = kernel_census(w.specs);
  report.check("digest_census_jobs_" + std::to_string(mercury::exp::hardware_jobs()),
               digest(census.results) == reference);

  // (d) Unit costs on the observed mix.
  std::uint64_t kernel_events = 0;
  for (const auto& [label, count] : census.labels) kernel_events += count;
  const std::uint64_t deliveries = perfbench::count_deliveries(census.labels);
  std::uint64_t to_clients = 0;
  for (const auto& [label, count] : census.labels) {
    if (label.rfind("mbus.deliver:cli.", 0) == 0) to_clients += count;
  }
  std::uint64_t rejected = 0;
  for (const TrialResult& r : a.results) rejected += r.traffic.restarting_rejections;
  const double sim_ns = perfbench::probe_sim_ns_per_event(
      census.labels, perfbench::kAssumedQueueDepth, options.seed);
  const perfbench::BusCosts bus = perfbench::probe_bus(
      census.labels, std::min(1.0, ratio(rejected, to_clients)), sim_ns, options.seed);

  double trial_host_s = 0.0;
  SampleStats body_ms;
  for (const double s : a.body_s) {
    trial_host_s += s;
    body_ms.add(s * 1e3);
  }
  const double sim_est = static_cast<double>(kernel_events) * sim_ns * 1e-9;
  const double bus_est = static_cast<double>(deliveries) * bus.bus_ns_per_send * 1e-9;
  const double msg_est = static_cast<double>(deliveries) * bus.codec_ns_per_message * 1e-9;

  const auto per_trial = [&](const std::string& counter) {
    return ratio(static_cast<double>(recorder.count(counter)), trials);
  };
  report.metric(Report::kLayers, "sim.events_per_trial", ratio(kernel_events, trials), "count");
  report.metric(Report::kLayers, "sim.ns_per_event", sim_ns, "ns");
  report.metric(Report::kLayers, "sim.est_s", sim_est, "s");
  report.metric(Report::kLayers, "bus.deliveries_per_trial", ratio(deliveries, trials), "count");
  report.metric(Report::kLayers, "bus.ns_per_send", bus.bus_ns_per_send, "ns");
  report.metric(Report::kLayers, "bus.est_s", bus_est, "s");
  report.metric(Report::kLayers, "msg.ns_per_roundtrip", bus.codec_ns_per_message, "ns");
  report.metric(Report::kLayers, "msg.est_s", msg_est, "s");
  report.metric(Report::kLayers, "fd.reports_per_trial", per_trial("fd.reports"), "count");
  report.metric(Report::kLayers, "fd.suspicions_per_trial", per_trial("fd.suspicions"), "count");
  report.metric(Report::kLayers, "oracle.choices_per_trial", per_trial("oracle.choices"), "count");
  report.metric(Report::kLayers, "rec.restarts_per_trial", per_trial("rec.restarts"), "count");
  report.metric(Report::kLayers, "rec.escalations_per_trial", per_trial("rec.escalations"), "count");
  report.metric(Report::kLayers, "rec.useful_ratio",
                ratio(recorder.count("faults.cured"), recorder.count("rec.restarts")), "ratio");
  report.metric(Report::kLayers, "pm.restarts_per_trial", per_trial("pm.restarts"), "count");
  report.metric(Report::kLayers, "pm.warm_ratio",
                ratio(recorder.count("pm.warm_restarts"), recorder.count("pm.restarts")), "ratio");
  report.metric(Report::kLayers, "checkpoint.replica_hits_per_trial",
                per_trial("checkpoint.replica_hits"), "count");
  report.metric(Report::kLayers, "exp.trial_host_s", trial_host_s, "s");
  report.metric(Report::kLayers, "exp.trial_host_ms_p50", body_ms.percentile(50.0), "ms");
  report.metric(Report::kLayers, "exp.trial_host_ms_p99", body_ms.percentile(99.0), "ms");
  report.metric(Report::kLayers, "exp.busy_frac", parallel.busy_frac, "ratio");
  report.metric(Report::kLayers, "exp.merge_s", parallel.merge_s, "s");
  report_phases(tail.phases, report);
  report_obs(tail, recorder.events().size(), trials, report);
  report.metric(Report::kLayers, "other.est_s", trial_host_s - sim_est - bus_est - msg_est, "s");
  report.metric(Report::kLayers, "trace.overhead_ratio", ratio(median(untraced_rates), traced_rate), "ratio");
  report_traffic_layers(options, report);
  report_zero(kPosixLayerMetrics, report);
  return 0;
}

// --- posix_live ---------------------------------------------------------------

/// Three cells under one root, the shapes bench_posix_supervision drives: a
/// single-component cell (proxy, 120 ms startup), a consolidated
/// two-component cell (est 40 ms + trk 60 ms; killing trk restarts both) and
/// a warm-restartable checkpointed worker (negotiator: 400 ms cold, 60 ms
/// warm from its state file).
struct LiveRig {
  mercury::core::RestartTree tree{"R_live"};
  std::vector<mercury::posix::WorkerSpec> workers;
  mercury::posix::SupervisorConfig config;
};

constexpr const char* kWarmVictim = "negotiator";
const std::vector<std::string> kVictims = {"proxy", "trk", kWarmVictim};

LiveRig live_rig(const std::string& out_dir) {
  LiveRig rig;
  const std::string bin = MERCURY_WORKER_BIN;
  const auto proxy = rig.tree.add_cell(rig.tree.root(), "R_proxy");
  rig.tree.attach_component(proxy, "proxy");
  const auto pair = rig.tree.add_cell(rig.tree.root(), "R_[est,trk]");
  rig.tree.attach_component(pair, "est");
  rig.tree.attach_component(pair, "trk");
  const auto slow = rig.tree.add_cell(rig.tree.root(), "R_negotiator");
  rig.tree.attach_component(slow, kWarmVictim);
  const std::string checkpoint = out_dir + "/negotiator.ckpt";
  const auto worker = [&](const std::string& name, const std::string& startup_ms) {
    mercury::posix::WorkerSpec spec;
    spec.name = name;
    spec.argv = {bin, "--name", name, "--startup-ms", startup_ms};
    return spec;
  };
  mercury::posix::WorkerSpec warm = worker(kWarmVictim, "400");
  warm.argv.insert(warm.argv.end(),
                   {"--checkpoint-file", checkpoint, "--warm-startup-ms", "60"});
  warm.startup_timeout = mercury::posix::Millis{3000};
  warm.checkpoint_file = checkpoint;
  rig.workers = {worker("proxy", "120"), worker("est", "40"), worker("trk", "60"), warm};
  rig.config.ping_period = mercury::posix::Millis{60};
  rig.config.ping_timeout = mercury::posix::Millis{50};
  // Kills are distinct incidents: the window sits just above the ~110 ms
  // re-detection time, and kill_loop spaces kills of freshly restarted
  // workers past it.
  rig.config.escalation_window = mercury::posix::Millis{300};
  return rig;
}

/// Set-up of posix_live: a fresh system, so the checkpointed worker starts
/// cold, up to every worker READY.
std::unique_ptr<mercury::posix::PosixSupervisor> start_live(const LiveRig& rig) {
  std::remove(rig.workers.back().checkpoint_file.c_str());
  auto supervisor =
      std::make_unique<mercury::posix::PosixSupervisor>(rig.tree, rig.workers, rig.config);
  return supervisor->start_all().ok() ? std::move(supervisor) : nullptr;
}

struct KillStats {
  SampleStats live_ms;
  SampleStats detect_ms;
  SampleStats restart_ms;
  int kills = 0;
  int unrecovered = 0;
  int warm_kills = 0;
  int warm_cold_fallbacks = 0;
  std::size_t restart_actions = 0;
  std::size_t max_in_flight = 0;
  int escalations = 0;
  double wall_s = 0.0;
};

/// Victim schedule shared by consecutive kill loops on one supervisor.
struct KillSchedule {
  explicit KillSchedule(std::uint64_t seed) : rng(seed) {}
  mercury::util::Rng rng;
  std::vector<std::string> order;
  /// When the last kill was seen recovered, and the supervisor's history
  /// length then.
  Clock::time_point last_up;
  std::size_t history_at_up = 0;
};

/// SIGKILL loop: victims rotate through the three cells in a seed-shuffled
/// order; each kill waits for all_up(). Runs until `seconds` have passed and
/// at least `min_kills` kills were made (bounded at 3x seconds).
KillStats kill_loop(mercury::posix::PosixSupervisor& supervisor, const LiveRig& rig,
                    KillSchedule& schedule, double seconds, int min_kills) {
  KillStats stats;
  const std::size_t history_start = supervisor.history().size();
  const auto window = rig.config.escalation_window + mercury::posix::Millis{50};
  const auto start = Clock::now();
  while ((seconds_since(start) < seconds || stats.kills < min_kills) &&
         seconds_since(start) < 3.0 * seconds) {
    if (schedule.order.empty()) {
      schedule.order = kVictims;
      for (std::size_t i = schedule.order.size() - 1; i > 0; --i) {
        std::swap(schedule.order[i], schedule.order[schedule.rng.next_u64() % (i + 1)]);
      }
    }
    const std::string victim = schedule.order.back();
    schedule.order.pop_back();
    // The supervisor escalates a failure of any worker its last completed
    // restart brought up (every worker, after a root restart) within the
    // escalation window. Such a kill waits out the window, so every kill is
    // a fresh incident; a restart the loop did not cause counts from now.
    const auto& history = supervisor.history();
    if (!history.empty()) {
      const auto& group = history.back().restarted;
      if (std::find(group.begin(), group.end(), victim) != group.end()) {
        const auto since = history.size() == schedule.history_at_up
                               ? Clock::now() - schedule.last_up
                               : Clock::duration::zero();
        if (since < window) {
          supervisor.run_for(std::chrono::duration_cast<mercury::posix::Millis>(window - since));
        }
      }
    }
    // A fault lands anywhere in the ping cycle. Without this wait the kill
    // follows the last recovery at a near-fixed phase of the ping schedule,
    // and detection time locks to that phase differently from run to run.
    const auto period = static_cast<std::uint64_t>(rig.config.ping_period.count());
    supervisor.run_for(mercury::posix::Millis{
        static_cast<mercury::posix::Millis::rep>(schedule.rng.next_u64() % period)});
    const std::size_t before = supervisor.history().size();
    const std::uint64_t validated = supervisor.checkpoints_validated();
    const auto killed_at = Clock::now();
    supervisor.kill_worker(victim);
    const bool ok = supervisor.run_until(
        [&] {
          stats.max_in_flight = std::max(stats.max_in_flight, supervisor.restarts_in_flight());
          return supervisor.history().size() > before && supervisor.all_up();
        },
        mercury::posix::Millis{5000});
    const auto up_at = Clock::now();
    ++stats.kills;
    if (!ok) {
      ++stats.unrecovered;
      continue;
    }
    schedule.last_up = up_at;
    schedule.history_at_up = supervisor.history().size();
    const double live = std::chrono::duration<double, std::milli>(up_at - killed_at).count();
    const double downtime = static_cast<double>(supervisor.history().back().downtime.count());
    stats.live_ms.add(live);
    stats.restart_ms.add(downtime);
    stats.detect_ms.add(live - downtime);
    if (victim == kWarmVictim) {
      ++stats.warm_kills;
      if (supervisor.checkpoints_validated() == validated) ++stats.warm_cold_fallbacks;
    }
  }
  for (std::size_t i = history_start; i < supervisor.history().size(); ++i) {
    if (supervisor.history()[i].escalation_level > 0) ++stats.escalations;
  }
  stats.wall_s = seconds_since(start);
  stats.restart_actions = supervisor.history().size() - history_start;
  return stats;
}

constexpr int kMinKills = 100;

void check_live(const KillStats& stats, const mercury::posix::PosixSupervisor& supervisor,
                int min_kills, Report& report) {
  report.operations(static_cast<std::uint64_t>(stats.kills),
                    static_cast<std::uint64_t>(stats.unrecovered));
  report.check("kills_recovered", stats.unrecovered == 0,
               std::to_string(stats.unrecovered) + " kills not recovered within 5 s");
  report.check("no_hard_failures", supervisor.hard_failures().empty());
  report.check("min_kills", stats.kills >= min_kills,
               std::to_string(stats.kills) + " kills");
}

int run_posix(const Options& options, Report& report) {
  fs::create_directories(options.out_dir);
  const LiveRig rig = live_rig(options.out_dir);
  const auto supervisor = start_live(rig);
  if (supervisor == nullptr) {
    report.check("workers_ready", false, "start_all failed");
    return 1;
  }
  // Spawning and startup sleeps dominate: not scaled to host speed.
  if (setup_done(options, false)) return 0;
  KillSchedule schedule(options.seed);

  if (!options.trace) {
    const KillStats stats = kill_loop(*supervisor, rig, schedule, options.seconds, kMinKills);
    const double rss = peak_rss_mb();
    check_live(stats, *supervisor, kMinKills, report);
    report.metric(Report::kE2e, "trials_per_s", stats.kills / stats.wall_s, "1/s");
    report.metric(Report::kE2e, "mttr_mean_s", stats.live_ms.mean() / 1e3, "s");
    report.metric(Report::kE2e, "mttr_p90_s", stats.live_ms.percentile(90.0) / 1e3, "s");
    report.metric(Report::kE2e, "peak_rss_mb", rss, "MB");
    report.metric(Report::kExtra, "live_mttr_p50_ms", stats.live_ms.percentile(50.0), "ms");
    report.metric(Report::kExtra, "live_mttr_p90_ms", stats.live_ms.percentile(90.0), "ms");
    report.metric(Report::kExtra, "kills", stats.kills, "count");
    report.metric(Report::kExtra, "warm_kills", stats.warm_kills, "count");
    report.metric(Report::kExtra, "warm_cold_fallbacks", stats.warm_cold_fallbacks, "count");
    report.metric(Report::kExtra, "escalations", stats.escalations, "count");
    report.metric(Report::kExtra, "posix_detect_ms", stats.detect_ms.mean(), "ms");
    report.metric(Report::kExtra, "posix_restart_ms", stats.restart_ms.mean(), "ms");
    return 0;
  }

  // Traced: half the time untraced (the overhead reference), half under a
  // recorder (counters, phases, the obs tail).
  const int half_kills = kMinKills / 2;
  const KillStats plain = kill_loop(*supervisor, rig, schedule, options.seconds / 2, half_kills);
  const std::uint64_t pings_before = supervisor->pings_sent();
  const std::uint64_t pongs_before = supervisor->pongs_received();
  mercury::obs::TraceRecorder recorder;
  KillStats traced;
  {
    mercury::obs::ScopedRecorder scope(recorder);
    traced = kill_loop(*supervisor, rig, schedule, options.seconds / 2, half_kills);
  }
  check_live(plain, *supervisor, half_kills, report);
  check_live(traced, *supervisor, half_kills, report);
  const TraceTail tail = finish_trace(recorder, options.out_dir, options.workload);
  report.check("trace_clean", tail.issues.empty(), mercury::obs::describe(tail.issues));

  const double kills = traced.kills;
  const auto per_kill = [&](const std::string& counter) {
    return ratio(static_cast<double>(recorder.count(counter)), kills);
  };
  report_zero({{"sim.events_per_trial", "count"}, {"sim.ns_per_event", "ns"}, {"sim.est_s", "s"},
               {"bus.deliveries_per_trial", "count"}, {"bus.rejected_restarting_per_trial", "count"},
               {"bus.ns_per_send", "ns"}, {"bus.est_s", "s"}, {"msg.ns_per_roundtrip", "ns"},
               {"msg.est_s", "s"}},
              report);
  report.metric(Report::kLayers, "fd.reports_per_trial", per_kill("fd.reports"), "count");
  report.metric(Report::kLayers, "fd.suspicions_per_trial", per_kill("fd.suspicions"), "count");
  report.metric(Report::kLayers, "oracle.choices_per_trial", per_kill("oracle.choices"), "count");
  report.metric(Report::kLayers, "rec.restarts_per_trial", per_kill("rec.restarts"), "count");
  report.metric(Report::kLayers, "rec.escalations_per_trial", per_kill("rec.escalations"), "count");
  report.metric(Report::kLayers, "rec.useful_ratio",
                ratio(traced.kills - traced.unrecovered, traced.restart_actions), "ratio");
  report.metric(Report::kLayers, "rec.max_concurrent",
                static_cast<double>(std::max(plain.max_in_flight, traced.max_in_flight)), "count");
  report_zero({{"rec.absorbed_per_trial", "count"}, {"rec.touch_promotions_per_trial", "count"},
               {"rec.lazy_drains_per_trial", "count"}, {"pm.restarts_per_trial", "count"},
               {"pm.warm_ratio", "ratio"}, {"checkpoint.replica_hits_per_trial", "count"},
               {"workload.issued_per_trial", "count"}, {"workload.retry_ratio", "ratio"},
               {"workload.timeouts_per_trial", "count"}},
              report);
  report.metric(Report::kLayers, "exp.trial_host_s", traced.wall_s, "s");
  report_zero({{"exp.trial_host_ms_p50", "ms"}, {"exp.trial_host_ms_p99", "ms"},
               {"exp.busy_frac", "ratio"}, {"exp.merge_s", "s"}},
              report);
  report_phases(tail.phases, report);
  report_obs(tail, recorder.events().size(), kills, report);
  report.metric(Report::kLayers, "other.est_s", traced.wall_s, "s");
  report.metric(Report::kLayers, "trace.overhead_ratio",
                ratio(plain.kills / plain.wall_s, traced.kills / traced.wall_s), "ratio");

  SampleStats detect = plain.detect_ms, restart = plain.restart_ms;
  for (const double v : traced.detect_ms.samples()) detect.add(v);
  for (const double v : traced.restart_ms.samples()) restart.add(v);
  report.metric(Report::kLayers, "posix.detect_ms", detect.mean(), "ms");
  report.metric(Report::kLayers, "posix.restart_ms", restart.mean(), "ms");
  report.metric(Report::kLayers, "posix.pong_ratio",
                ratio(supervisor->pongs_received() - pongs_before,
                      supervisor->pings_sent() - pings_before),
                "ratio");
  report.metric(Report::kLayers, "posix.spawns_per_kill", per_kill("posix.spawns"), "count");
  report.metric(Report::kLayers, "posix.escalations", plain.escalations + traced.escalations,
                "count");
  report.metric(Report::kLayers, "posix.warm_cold_fallbacks",
                plain.warm_cold_fallbacks + traced.warm_cold_fallbacks, "count");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  main_start = Clock::now();
  Options options;
  if (!parse_options(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--setup-only <0|1>]\n");
    return 2;
  }
  if (options.workload != "sweep_serial" && options.workload != "posix_live") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(options.out_dir, ec);

  Report report;
  int status = 0;
  try {
    if (options.workload == "posix_live") {
      status = run_posix(options, report);
    } else {
      status = options.trace ? run_sim_layers(options, report) : run_sim_e2e(options, report);
    }
  } catch (const std::exception& e) {
    report.check("no_exception", false, e.what());
  }
  if (options.setup_only && report.correct()) return status;
  std::printf("%s\n", report.json(options).c_str());
  return status != 0 || !report.correct() ? 1 : 0;
}
