#include "obs/trace_check.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "obs/phases.h"
#include "util/strings.h"

namespace mercury::obs {

namespace {

/// phase-sum tolerance: relative to the measured recovery, with an absolute
/// floor for near-zero recoveries. Fixed, so every bench checks alike.
constexpr double kPhaseTolerance = 0.01;
constexpr double kPhaseSlackSeconds = 1e-6;

bool parse_double(const std::string& text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Component of a process-manager restart span ("restart:<name>").
std::string restart_component(const TraceEvent& event) {
  const std::string from_arg = event.arg_or("component");
  if (!from_arg.empty()) return from_arg;
  constexpr std::string_view kPrefix = "restart:";
  if (event.name.size() > kPrefix.size() &&
      std::string_view(event.name).substr(0, kPrefix.size()) == kPrefix) {
    return event.name.substr(kPrefix.size());
  }
  return event.name;
}

bool is_restart_span_begin(const TraceEvent& event) {
  return event.kind == EventKind::kBegin && event.category == "restart" &&
         event.name.rfind("restart:", 0) == 0;
}

/// A recoverer action span ("rec.restart", sim and POSIX alike): one restart
/// of one cell's whole group, carrying the group membership as an arg.
bool is_action_span_begin(const TraceEvent& event) {
  return event.kind == EventKind::kBegin && event.category == "recover" &&
         event.name == "rec.restart";
}

/// One open rec.restart action span, for the conflicting-restart check.
struct OpenAction {
  std::uint64_t run = 0;
  std::string cell;
  std::vector<std::string> group;  // sorted member components
};

/// One open traffic.request span, for the phantom-goodput check.
struct OpenRequest {
  std::uint64_t run = 0;
  std::string target;
  std::string mode;
  double begin_t = 0.0;
};

bool is_request_span_begin(const TraceEvent& event) {
  return event.kind == EventKind::kBegin && event.category == "traffic" &&
         event.name == "traffic.request";
}

bool groups_intersect(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

/// Accumulated facts about one run (trial), filled in stream order.
struct RunFacts {
  bool has_trial_start = false;
  bool has_recovered = false;
  bool has_parked = false;
  bool has_hard_failure = false;
  double recovered_t = 0.0;
  std::optional<double> reported_recovery;  // trial.recovered "recovery" arg
  std::optional<double> first_manifest_t;
  /// Outstanding fault ids -> (manifest component, onset t); erased on cure.
  std::map<std::uint64_t, std::pair<std::string, double>> open_faults;
};

/// Shared body of both check_trace overloads; `Range` is any forward range
/// of TraceEvent (flat vector or chunked EventBuffer).
template <typename Range>
std::vector<TraceIssue> check_trace_impl(const Range& events) {
  std::vector<TraceIssue> issues;
  const auto flag = [&](std::string invariant, std::uint64_t run,
                        std::string component, double t, std::string detail) {
    issues.push_back(TraceIssue{std::move(invariant), run, std::move(component),
                                t, std::move(detail)});
  };

  using Key = std::pair<std::uint64_t, std::string>;  // (run, component)
  /// Open restart span per component: span id -> key, plus reverse map.
  std::map<std::uint64_t, Key> span_owner;
  std::map<Key, std::uint64_t> open_restart;  // key -> open span id
  std::map<Key, double> open_restart_t;       // key -> begin time of that span
  std::map<Key, std::uint64_t> last_epoch;
  /// Open traffic.request spans (span id -> target + mode + begin time), for
  /// the phantom-goodput overlap check.
  std::map<std::uint64_t, OpenRequest> open_requests;
  /// Open rec.restart action spans (span id -> cell + group), for the
  /// conflicting-restart overlap check.
  std::map<std::uint64_t, OpenAction> open_actions;
  std::map<std::uint64_t, RunFacts> runs;

  for (const TraceEvent& event : events) {
    RunFacts& facts = runs[event.run];

    if (event.category == "sim" && event.name == "trial.start") {
      facts.has_trial_start = true;
    } else if (event.category == "sim" && event.name == "trial.recovered") {
      facts.has_recovered = true;
      facts.recovered_t = event.t;
      double recovery = 0.0;
      if (parse_double(event.arg_or("recovery"), recovery)) {
        facts.reported_recovery = recovery;
      }
    } else if (event.category == "fault" && event.name == "fault.manifest") {
      if (!facts.first_manifest_t.has_value()) facts.first_manifest_t = event.t;
      std::uint64_t id = 0;
      if (parse_u64(event.arg_or("id"), id)) {
        facts.open_faults[id] = {event.arg_or("manifest"), event.t};
      }
    } else if (event.category == "fault" && event.name == "fault.cured") {
      std::uint64_t id = 0;
      if (parse_u64(event.arg_or("id"), id)) facts.open_faults.erase(id);
    } else if (event.category == "recover" && event.name == "rec.parked") {
      facts.has_parked = true;
    } else if (event.category == "recover" &&
               event.name == "rec.hard-failure") {
      facts.has_hard_failure = true;
    }

    if (is_action_span_begin(event)) {
      // Conflicting-restart: two rec.restart actions may overlap in time
      // only when their restart groups are disjoint — i.e. their cells are
      // tree-siblings. An overlap with a shared member means an
      // ancestor/descendant pair restarted concurrently, which the DAG
      // scheduler (absorb-on-escalation, conflict queueing) must prevent.
      OpenAction action;
      action.run = event.run;
      action.cell = event.arg_or("cell");
      action.group = util::split(event.arg_or("group"), ',');
      std::sort(action.group.begin(), action.group.end());
      for (const auto& [span, other] : open_actions) {
        if (other.run != event.run) continue;
        if (groups_intersect(action.group, other.group)) {
          flag("conflicting-restart", event.run, event.arg_or("component"),
               event.t,
               "restart of cell " + action.cell + " begins while span " +
                   std::to_string(span) + " (cell " + other.cell +
                   ") holds an overlapping group");
        }
      }
      open_actions[event.span] = std::move(action);
    }

    if (is_request_span_begin(event)) {
      OpenRequest request;
      request.run = event.run;
      request.target = event.arg_or("target");
      request.mode = event.arg_or("mode");
      request.begin_t = event.t;
      open_requests[event.span] = std::move(request);
    }

    if (is_restart_span_begin(event)) {
      const Key key{event.run, restart_component(event)};

      const auto open = open_restart.find(key);
      if (open != open_restart.end()) {
        flag("overlapping-restart", event.run, key.second, event.t,
             "restart begins while span " + std::to_string(open->second) +
                 " of the same component is still in flight");
      }
      open_restart[key] = event.span;
      open_restart_t[key] = event.t;
      span_owner[event.span] = key;

      std::uint64_t epoch = 0;
      if (parse_u64(event.arg_or("epoch"), epoch)) {
        const auto previous = last_epoch.find(key);
        if (previous != last_epoch.end() && epoch <= previous->second) {
          flag("epoch-regression", event.run, key.second, event.t,
               "attempt epoch " + std::to_string(epoch) +
                   " not above previous " + std::to_string(previous->second));
        }
        last_epoch[key] = epoch;
      }
    } else if (event.kind == EventKind::kEnd) {
      open_actions.erase(event.span);
      const auto request = open_requests.find(event.span);
      if (request != open_requests.end()) {
        // Phantom-goodput: a request served while its target's restart has
        // been in flight since before the request began never reached a live
        // endpoint — unless on-demand mode, where the request itself revives
        // the target and is answered inside the same span.
        if (event.arg_or("outcome") == "served" &&
            request->second.mode != "ondemand") {
          const Key key{request->second.run, request->second.target};
          const auto open = open_restart.find(key);
          if (open != open_restart.end()) {
            const auto begun = open_restart_t.find(key);
            if (begun != open_restart_t.end() &&
                begun->second <= request->second.begin_t) {
              flag("phantom-goodput", request->second.run,
                   request->second.target, event.t,
                   "request served although restart span " +
                       std::to_string(open->second) +
                       " of its target opened at " +
                       util::format_fixed(begun->second, 6) +
                       " s, before the request began at " +
                       util::format_fixed(request->second.begin_t, 6) + " s");
            }
          }
        }
        open_requests.erase(request);
      }
      const auto owner = span_owner.find(event.span);
      if (owner != span_owner.end()) {
        const auto open = open_restart.find(owner->second);
        if (open != open_restart.end() && open->second == event.span) {
          open_restart.erase(open);
          open_restart_t.erase(owner->second);
        }
        span_owner.erase(owner);
      }
    }
  }

  // Restart spans still open at end of stream are legal only in runs that
  // did not recover (a hung startup under a parked chain stays open).
  for (const auto& [key, span] : open_restart) {
    const auto it = runs.find(key.first);
    if (it != runs.end() && it->second.has_recovered) {
      flag("open-restart", key.first, key.second, 0.0,
           "span " + std::to_string(span) +
               " still open although the trial recovered");
    }
  }

  // Harness-trial accounting: every kill resolves, and for recovered runs
  // the phase decomposition accounts for the measured recovery time.
  std::map<std::uint64_t, std::vector<const RecoveryPhases*>> rows_by_run;
  const std::vector<RecoveryPhases> rows = recovery_phases(events);
  for (const RecoveryPhases& row : rows) rows_by_run[row.run].push_back(&row);

  for (const auto& [run, facts] : runs) {
    if (!facts.has_trial_start) continue;

    const bool resolved =
        facts.has_recovered || facts.has_parked || facts.has_hard_failure;
    if (!resolved && facts.first_manifest_t.has_value()) {
      flag("lost-kill", run, runs.at(run).open_faults.empty()
                                 ? std::string()
                                 : runs.at(run).open_faults.begin()->second.first,
           *facts.first_manifest_t,
           "trial neither recovered nor parked by end of trace");
    }
    if (facts.has_recovered && !facts.has_parked && !facts.has_hard_failure) {
      for (const auto& [id, fault] : facts.open_faults) {
        flag("lost-kill", run, fault.first, fault.second,
             "fault id " + std::to_string(id) +
                 " never cured although the trial recovered");
      }
    }

    if (!facts.has_recovered || !facts.reported_recovery.has_value() ||
        !facts.first_manifest_t.has_value()) {
      continue;
    }
    const auto rows_it = rows_by_run.find(run);
    if (rows_it == rows_by_run.end() || rows_it->second.empty()) continue;

    const double measured = *facts.reported_recovery;
    const double slack =
        std::max(kPhaseSlackSeconds, kPhaseTolerance * measured);

    // Actions completing after the recovered instant are post-recovery work
    // (planned rejuvenation in the trial's settle window), not part of the
    // measured chain.
    double last_complete = 0.0;
    for (const RecoveryPhases* row : rows_it->second) {
      if (row->t_complete > facts.recovered_t + slack) continue;
      last_complete = std::max(last_complete, row->t_complete);
    }
    if (last_complete == 0.0) continue;
    const double chain = last_complete - *facts.first_manifest_t;
    if (std::abs(chain - measured) > slack) {
      flag("phase-sum", run, rows_it->second.front()->component, last_complete,
           "recovery chain spans " + util::format_fixed(chain, 6) +
               " s but the harness measured " +
               util::format_fixed(measured, 6) + " s");
    }

    // Single-action trials admit the strict decomposition check: the three
    // phases must tile the measured recovery exactly (bench_table1's
    // assertion). Chains with escalations/backoffs legally contain
    // re-detection and backoff gaps between actions.
    if (rows_it->second.size() == 1 && rows_it->second.front()->has_fault) {
      const RecoveryPhases& row = *rows_it->second.front();
      const double sum = row.detection() + row.decision() + row.execution();
      if (std::abs(sum - measured) > slack) {
        flag("phase-sum", run, row.component, row.t_complete,
             "detection+decision+execution = " + util::format_fixed(sum, 6) +
                 " s but the harness measured " +
                 util::format_fixed(measured, 6) + " s");
      }
    }
  }

  return issues;
}

}  // namespace

std::vector<TraceIssue> check_trace(const std::vector<TraceEvent>& events) {
  return check_trace_impl(events);
}

std::vector<TraceIssue> check_trace(const EventBuffer& events) {
  return check_trace_impl(events);
}

std::string describe(const std::vector<TraceIssue>& issues) {
  std::ostringstream out;
  for (const TraceIssue& issue : issues) {
    out << "[" << issue.invariant << "] run " << issue.run;
    if (!issue.component.empty()) out << " " << issue.component;
    out << " @" << util::format_fixed(issue.t, 6) << "s: " << issue.detail
        << "\n";
  }
  return out.str();
}

}  // namespace mercury::obs
