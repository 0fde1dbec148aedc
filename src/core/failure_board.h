// FailureBoard: the ground truth of which failures are active.
//
// Components consult the board to decide whether they answer pings (a
// manifesting component is fail-silent); the process manager reports restart
// completions so the board can apply the cure rule: a failure clears once
// every member of its cure set has completed a restart after the failure's
// onset. A partial cure (e.g. restarting only pbcom for a {fedr,pbcom}
// failure) leaves the failure active, so FD re-detects it and the recoverer
// escalates — exactly the §4.4 faulty-oracle dynamics.
//
// The perfect oracle (an idealization the paper assumes in A_oracle) reads
// cure sets from the board; realistic oracles never do.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/failure.h"
#include "util/time.h"

namespace mercury::core {

class FailureBoard {
 public:
  using InjectListener = std::function<void(const ActiveFailure&)>;

  /// Activate a failure; returns its id.
  FailureId inject(FailureSpec spec, util::TimePoint now);

  /// Record that `component` completed a restart; cures any failure whose
  /// cure set is now fully restarted (each cure is traced as fault.cured).
  void on_restart_complete(const std::string& component, util::TimePoint now);

  /// Record that `component` completed its soft recovery procedure; cures
  /// only failures marked soft_curable that manifest at the component.
  void on_soft_recovery_complete(const std::string& component,
                                 util::TimePoint now);

  /// True if some active failure manifests at `component` (it must appear
  /// fail-silent).
  bool manifests_at(const std::string& component) const;

  /// Active failures manifesting at `component` (usually zero or one).
  std::vector<ActiveFailure> active_at(const std::string& component) const;

  const std::vector<ActiveFailure>& active() const { return active_; }
  bool any_active() const { return !active_.empty(); }

  /// Forcibly clear a failure (used by tests); returns false if unknown.
  /// Not a cure: nothing is traced and total_cured() does not move.
  bool clear(FailureId id);

  void add_inject_listener(InjectListener listener);

  std::uint64_t total_injected() const { return next_id_ - 1; }
  std::uint64_t total_cured() const { return total_cured_; }

  // --- Restart-time faults ------------------------------------------------
  // The restart path is itself a fault domain (ISSUE 2): the board holds the
  // ground-truth spec of how each component's restarts misbehave, and the
  // process manager consults it at every startup attempt. An all-zero spec
  // (the default) means restarts always succeed.

  /// Install (or, with an inactive spec, remove) `component`'s restart-time
  /// fault behavior.
  void set_restart_faults(const std::string& component, RestartFaultSpec spec);

  /// The component's restart-fault spec; all-zero default if none installed.
  const RestartFaultSpec& restart_faults(const std::string& component) const;

  bool any_restart_faults() const { return !restart_faults_.empty(); }

  /// Bookkeeping hooks for the process manager: a restart attempt of
  /// `component` hung / crashed during startup. Emit trace events and bump
  /// counters so chaos campaigns can audit the injected restart faults.
  void note_restart_hang(const std::string& component, util::TimePoint now);
  void note_restart_crash(const std::string& component, util::TimePoint now);

  std::uint64_t restart_hangs() const { return restart_hangs_; }
  std::uint64_t restart_crashes() const { return restart_crashes_; }

 private:
  std::vector<ActiveFailure> active_;
  std::vector<InjectListener> inject_listeners_;
  std::map<std::string, RestartFaultSpec> restart_faults_;
  FailureId next_id_ = 1;
  std::uint64_t total_cured_ = 0;
  std::uint64_t restart_hangs_ = 0;
  std::uint64_t restart_crashes_ = 0;
};

}  // namespace mercury::core
