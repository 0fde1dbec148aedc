// Recovery-trace invariant checker.
//
// A trace is not just a debugging artifact here — it is the evidence the
// benches rest on. TraceChecker validates structural invariants of the
// recovery path over any event stream (live recorder or a re-read
// .trace.jsonl), so a bench can assert that the machinery it measured
// behaved legally, not merely that the aggregate numbers look plausible:
//
//   overlapping-restart  At most one in-flight restart span per component
//                        per run. The process manager's supersede semantics
//                        guarantee an epoch bump ends the stale span before
//                        the new one begins; two open spans mean two owners.
//   epoch-regression     Restart attempts of one component carry strictly
//                        increasing epochs within a run (supersede order is
//                        monotone; a regression means a stale attempt ran
//                        after its successor).
//   phase-sum            For a recovered harness trial, the trace-derived
//                        phase decomposition must account for the measured
//                        end-to-end recovery: the recovery chain spans
//                        [first fault.manifest, last action complete] and
//                        that interval equals the harness's reported
//                        recovery within a fixed tolerance (1%, at least
//                        1 us); single-action trials
//                        additionally check detection+decision+execution
//                        against it directly (bench_table1's assertion,
//                        generalized).
//   lost-kill            Every harness trial (a run with trial.start) ends
//                        recovered or explicitly parked: the run contains
//                        trial.recovered, rec.parked, or rec.hard-failure —
//                        a kill may never just evaporate. In recovered runs
//                        every injected fault is also individually cured.
//   open-restart         A run that claims trial.recovered has no restart
//                        span still open at end of stream (a recovered
//                        station cannot have a startup in flight).
//   conflicting-restart  Two rec.restart action spans overlapping in time
//                        within a run must have disjoint restart groups.
//                        Cells in a restart tree are nested-or-disjoint, so
//                        a shared member means an ancestor/descendant pair
//                        restarted concurrently — exactly what the DAG
//                        scheduler (conflict queueing, absorb-on-escalation)
//                        must never allow. Sibling overlaps are legal.
//   phantom-goodput      A traffic.request span that ends served while a
//                        restart of its target component has been open since
//                        before the request began cannot be real goodput:
//                        the endpoint was down for the request's whole
//                        lifetime, so a served outcome means the workload
//                        accounting and the restart trace disagree. Exempt
//                        when the request's mode arg is "ondemand" — there a
//                        request legally touches a parked/lazy cell, promotes
//                        its restart, and is served by the revived endpoint
//                        inside the same span.
//
// Runs without trial.start (background injector campaigns, POSIX
// supervision) are exempt from the harness-trial invariants but still
// checked for overlap and epoch order.
//
// Used as a library assert by every bench (bench::TraceSession::finish())
// and as the backbone of tests/test_trace_checker.cc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace mercury::obs {

struct TraceIssue {
  std::string invariant;  ///< "overlapping-restart" | "epoch-regression" |
                          ///< "phase-sum" | "lost-kill" | "open-restart" |
                          ///< "conflicting-restart" | "phantom-goodput"
  std::uint64_t run = 0;
  std::string component;
  double t = 0.0;  ///< event time anchoring the issue (seconds)
  std::string detail;
};

/// Validate `events` (in emission order, as recorded or re-read from
/// JSONL). Returns every violation found; empty means the trace is clean.
std::vector<TraceIssue> check_trace(const std::vector<TraceEvent>& events);

/// One line per issue, for bench/test output.
std::string describe(const std::vector<TraceIssue>& issues);

}  // namespace mercury::obs
