// ProcessControl: the recoverer's handle on the system's processes.
//
// In the paper, REC "restarts the chosen modules" by killing and re-exec'ing
// their JVM processes. This interface abstracts that: the simulated station
// implements it against the event kernel, and the POSIX backend implements
// it with fork/exec/SIGKILL on real child processes. The recoverer (core) is
// the same code over both.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/time.h"

namespace mercury::core {

class ProcessControl {
 public:
  virtual ~ProcessControl() = default;

  /// All managed component names.
  virtual std::vector<std::string> component_names() const = 0;

  /// Kill and restart the named components concurrently, as one restart
  /// group. `on_complete` fires once every component in the group has
  /// finished starting up (whole-system restarts experience contention —
  /// a property of the implementation, not of this interface).
  ///
  /// A group naming a component whose previous restart is still in flight
  /// (possibly hung or crash-looping — the restart path is itself a fault
  /// domain) SUPERSEDES the stale attempt: the component is re-killed and
  /// started fresh under the new group. The abandoned group's on_complete
  /// still fires when its remaining members drain, so callers MUST guard
  /// completions (the recoverer tags each action with an id and ignores
  /// stale ones). `on_complete` is not guaranteed to fire at all for an
  /// attempt that hangs; a hardened caller needs its own deadline.
  virtual void restart_group(const std::vector<std::string>& names,
                             std::function<void()> on_complete) = 0;

  /// True while any restart group is still in flight.
  virtual bool restart_in_progress() const = 0;

  /// Components currently being restarted (subset of component_names()).
  virtual std::vector<std::string> restarting_now() const = 0;

  /// Deadline for one restart action over `names`; zero means none. The
  /// recoverer passes its configured deadline, which the default keeps.
  /// Implementations that know each component's own startup allowance
  /// derive the group's deadline from its members instead.
  virtual util::Duration restart_deadline(const std::vector<std::string>& names,
                                          util::Duration configured) const {
    (void)names;
    return configured;
  }

  // --- Recursive recovery (§7) --------------------------------------------
  // "With recursive recovery, we can accommodate a wider range of recovery
  // semantics, since each component is recovered using a custom procedure;
  // restart is just one example of a recovery procedure."

  // --- Checkpointed warm restarts (ISSUE 3; tiered, ISSUE 7) --------------
  /// Shed the fault-suspected soft-state checkpoints for `names`. The
  /// recoverer calls this when a restart action blows its deadline: state
  /// the failed attempt may have warm-started from is fault-suspected, and
  /// bad state is exactly what a restart is meant to shed.
  ///
  /// The shed is TIER-AWARE for implementations with replicated checkpoint
  /// storage: only the component's *local* (L0) snapshot — the copy that
  /// could have fed the failed attempt — is condemned. Replicas held
  /// elsewhere (a partner's in-memory copy, stable storage) are kept, and
  /// the superseding attempt still consults them before conceding a cold
  /// start. Single-tier implementations degenerate to "discard everything".
  /// Default: no checkpointing, nothing to discard.
  virtual void discard_checkpoints(const std::vector<std::string>& names) {
    (void)names;
  }

  /// The recoverer parked `names` as hard failures: they stay down (and
  /// permanently masked) until an operator intervenes. Implementations with
  /// replicated checkpoint storage reassign the replicas those components
  /// hosted — a parked host is as gone as a killed one, but without this
  /// hook its hosted copies would silently rot. Default: nothing to do.
  virtual void note_parked(const std::vector<std::string>& names) {
    (void)names;
  }

  /// Whether components offer a soft recovery procedure (cheaper than a
  /// restart; cures only soft-curable failures). Default: restart-only.
  virtual bool supports_soft_recovery() const { return false; }

  /// Run `component`'s soft recovery procedure; `on_complete` fires when it
  /// finishes. Only call when supports_soft_recovery() is true.
  virtual void soft_recover(const std::string& component,
                            std::function<void()> on_complete) {
    (void)component;
    if (on_complete) on_complete();
  }
};

}  // namespace mercury::core
