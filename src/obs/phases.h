// Recovery phase analysis over a trace (see docs/TRACING.md §"Phases").
//
// Rebuilds the paper's timing decomposition from the emitted events:
//
//   recovery = detection  (fault.manifest  -> fd.report)
//            + decision   (fd.report      -> rec.restart/rec.soft begin;
//                          includes the oracle.choice and FD->REC link hop)
//            + execution  (action begin   -> action end, extended to the
//                          trial.recovered instant when the harness emits
//                          one: post-restart readiness work like the §4.3
//                          ses/str resync counts as execution)
//
// The three phases tile the interval from fault onset to functional
// readiness, so they sum to the end-to-end recovery time exactly (tested in
// tests/test_trace.cc). An escalation chain produces one row per recovery
// action; rows after the first have no fault.manifest of their own and
// anchor on the re-detection report instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace mercury::obs {

struct RecoveryPhases {
  std::uint64_t run = 0;
  std::string component;  ///< reported component
  std::string cell;       ///< restarted cell label ("" for soft recoveries)
  bool soft = false;      ///< §7 soft-recovery action rather than a restart
  bool planned = false;   ///< proactive rejuvenation rather than reaction
  int escalation_level = 0;
  bool has_fault = false;  ///< a fault.manifest event anchors this chain

  // Timeline anchors, seconds. t_fault is meaningful only when has_fault.
  double t_fault = 0.0;
  double t_report = 0.0;
  double t_action_begin = 0.0;
  double t_complete = 0.0;

  /// fault.manifest -> fd.report; 0 when no fault event was traced.
  double detection() const { return has_fault ? t_report - t_fault : 0.0; }
  /// fd.report -> recovery-action begin (oracle decision + link latency).
  double decision() const { return t_action_begin - t_report; }
  /// Recovery-action begin -> end (the restart/soft-procedure itself).
  double execution() const { return t_complete - t_action_begin; }
  double end_to_end() const {
    return t_complete - (has_fault ? t_fault : t_report);
  }
};

/// Reconstruct per-recovery-action phase rows from an event stream (as
/// recorded, or as loaded back via read_jsonl). Events must be in emission
/// order. Actions still open at the end of the stream are omitted.
std::vector<RecoveryPhases> recovery_phases(const std::vector<TraceEvent>& events);

/// Aggregate phase table (mean seconds per reported component plus a total
/// row), formatted like the benches' paper-vs-measured tables.
std::string phase_table(const std::vector<RecoveryPhases>& rows);

}  // namespace mercury::obs
