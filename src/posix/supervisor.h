// PosixSupervisor: the restart tree driving real OS processes.
//
// The simulator proves the paper's numbers; this backend proves the
// mechanism is not a simulation artifact. It runs the same REC as the
// simulator — core::Recoverer, unchanged — on a sim::Simulator that the
// supervisor's poll() loop advances to wall-clock time, so there is one
// recovery policy for both backends:
//
//   * FD is POSIX-specific: each worker is a real child process
//     (fork/exec), pinged over its stdin/stdout pipes with "PING n"/"PONG n"
//     lines; a missed pong, or a missed startup deadline of a worker no
//     restart covers, sends report-failure to rec over a zero-latency
//     DedicatedLink, and rec's mask/unmask commands silence FD for groups
//     being restarted;
//   * REC is core::Recoverer: oracle choice, escalation to the parent cell
//     when the failure persists (§3.3), concurrent dispatch of disjoint
//     cells, traffic-driven deferral, and parking after max_root_restarts;
//   * the supervisor is REC's core::ProcessControl: restarting a group
//     SIGKILLs and respawns its members through the checkpoint gate and
//     completes once every member has reported READY. A group's deadline is
//     its slowest member's WorkerSpec::startup_timeout.
//
// Timestamps (traces, logs, rec's timers) are seconds since process start on
// that one clock. Timings here are real milliseconds, so tests keep startup
// delays small.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bus/dedicated_link.h"
#include "core/oracle.h"
#include "core/process_control.h"
#include "core/recoverer.h"
#include "core/restart_tree.h"
#include "posix/child_process.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace mercury::posix {

using Clock = std::chrono::steady_clock;
using Millis = std::chrono::milliseconds;

struct WorkerSpec {
  std::string name;
  /// argv[0] = binary path. The supervisor appends nothing; encode worker
  /// options (--name, --startup-ms, ...) here.
  std::vector<std::string> argv;
  /// READY must arrive within this after spawn, or the start is itself a
  /// failure (escalates like any other).
  Millis startup_timeout{2000};
  /// Checkpoint state file (ISSUE 3), empty = no checkpointing. Must match
  /// the worker's --checkpoint-file. The supervisor validates the file's
  /// checksum before every spawn and deletes it when invalid, so the worker
  /// never warm-starts from garbage.
  std::string checkpoint_file;
};

struct SupervisorConfig {
  Millis ping_period{100};
  Millis ping_timeout{80};
  /// Re-failure within this window of a restart's completion escalates.
  Millis escalation_window{1500};
  int max_root_restarts = 2;
  /// §7 health beacons over the pipes: when a worker's reported memory
  /// ("HEALTH <name> mem=<MB>" lines) exceeds this, it is proactively
  /// restarted. 0 disables the policy.
  double memory_limit_mb = 0.0;

  // --- Partner checkpoint replicas (ISSUE 7) ------------------------------
  /// The simulator's L1 tier on real processes: the supervisor keeps an
  /// in-memory copy of each worker's last *validated* checkpoint payload.
  /// When the on-disk state file is missing or fails validation at spawn
  /// time, the file is rewritten from the copy before the exec, so the
  /// worker still warm-starts instead of falling off the redundancy cliff.
  /// Off by default: the single-file behaviour.
  bool keep_partner_copies = false;

  // --- Recovery scheduling (core::RecConfig::dispatch) --------------------
  /// Allow multiple restart actions in flight at once, as long as their
  /// restart groups are disjoint (DispatchMode::kDag). Off: one action at a
  /// time, later reports queue behind it (DispatchMode::kSerial).
  bool parallel_recovery = false;
  /// core::RecConfig::traffic_driven under DispatchMode::kOnDemand; requires
  /// parallel_recovery. While any action is in flight, further failures are
  /// deferred: touch_worker(name) — called when a client request needs the
  /// worker — promotes its deferred restart; untouched workers drain in the
  /// background, one per lazy_drain.
  bool traffic_driven = false;
  Millis lazy_drain{300};
};

struct PosixRecoveryRecord {
  std::string reported_worker;
  core::NodeId node = core::kInvalidNode;
  std::vector<std::string> restarted;
  int escalation_level = 0;
  Millis downtime{0};  ///< failure report -> group READY
};

class PosixSupervisor : private core::ProcessControl {
 public:
  /// The tree's components must exactly match the worker names.
  PosixSupervisor(core::RestartTree tree, std::vector<WorkerSpec> workers,
                  SupervisorConfig config);
  ~PosixSupervisor() override;

  PosixSupervisor(const PosixSupervisor&) = delete;
  PosixSupervisor& operator=(const PosixSupervisor&) = delete;

  /// Spawn every worker and wait for all READYs (or startup timeouts).
  util::Status start_all();

  /// Run the supervision loop for a wall-clock duration.
  void run_for(Millis duration);

  /// Run until `predicate()` is true or `timeout` elapses; returns whether
  /// the predicate was met. The loop keeps supervising while waiting.
  bool run_until(const std::function<bool()>& predicate, Millis timeout);

  // --- Introspection / fault injection for tests --------------------------
  bool worker_up(const std::string& name) const;
  bool all_up() const;
  /// SIGKILL a worker out-of-band (external fault injection). Returns false
  /// (and logs) for a name the supervisor does not manage.
  bool kill_worker(const std::string& name);
  /// Make a worker fail-silent without killing its process. Returns false
  /// (and logs) for a name the supervisor does not manage.
  bool wedge_worker(const std::string& name);

  const std::vector<PosixRecoveryRecord>& history() const { return history_; }
  const std::vector<std::string>& hard_failures() const {
    return rec_.hard_failures();
  }
  const core::RestartTree& tree() const { return rec_.tree(); }
  std::uint64_t pings_sent() const { return pings_sent_; }
  std::uint64_t pongs_received() const { return pongs_received_; }
  /// Missed startup deadlines: spawns no restart covered (reported by FD)
  /// plus restart actions rec abandoned at their group deadline.
  std::uint64_t restart_timeouts() const {
    return startup_timeouts_ + rec_.restart_timeouts();
  }
  /// Restart actions currently in flight (>1 only under parallel_recovery).
  std::size_t restarts_in_flight() const { return rec_.restarts_in_flight(); }
  /// In-flight actions superseded by a covering (ancestor-cell) restart.
  std::uint64_t absorbed_restarts() const { return rec_.absorbed_restarts(); }
  /// Latest memory figure a worker's HEALTH beacon reported, if any.
  std::optional<double> latest_memory_mb(const std::string& name) const;
  std::uint64_t rejuvenations() const { return rec_.planned_restarts(); }
  /// Checkpoint files found valid at spawn (the worker will warm-start).
  std::uint64_t checkpoints_validated() const { return checkpoints_validated_; }
  /// Invalid checkpoint files deleted before a spawn (cold start enforced).
  std::uint64_t checkpoints_deleted() const { return checkpoints_deleted_; }
  /// Checkpoint files rewritten from the supervisor's partner copy after
  /// the on-disk tier was lost (keep_partner_copies configs only).
  std::uint64_t partner_restores() const { return partner_restores_; }

  // --- Traffic-driven on-demand recovery (ISSUE 9) ------------------------
  using TouchResult = core::TouchResult;
  /// Client-request touch (traffic_driven configs): promote `name`'s
  /// deferred restart. No-op (kIdle) otherwise.
  TouchResult touch_worker(const std::string& name);
  std::uint64_t touch_promotions() const { return rec_.touch_promotions(); }
  std::uint64_t lazy_drains() const { return rec_.lazy_drains(); }
  /// Failure reports rec currently holds back (deferred or queued).
  std::size_t deferred_count() const { return rec_.queued_reports(); }

 private:
  enum class WorkerState { kDown, kStarting, kUp };

  struct Worker {
    WorkerSpec spec;
    std::optional<ChildProcess> process;
    WorkerState state = WorkerState::kDown;
    util::TimePoint next_ping;
    std::uint64_t outstanding_seq = 0;
    util::TimePoint ping_deadline;
    util::TimePoint ready_deadline;
    std::optional<double> memory_mb;  // latest HEALTH beacon figure
    util::TimePoint last_rejuvenation =
        util::TimePoint::origin() - util::Duration::hours(1.0);
    std::uint64_t restart_span = 0;  // open obs span: spawn -> READY
    /// Partner replica (ISSUE 7): the last checkpoint payload that passed
    /// the spawn-time gate, held supervisor-side on the worker's behalf.
    std::optional<std::string> replica_payload;
  };

  /// One restart group handed over by rec, waiting for its members' READY.
  struct Group {
    std::vector<std::string> members;
    std::function<void()> on_complete;
  };

  // --- core::ProcessControl -----------------------------------------------
  std::vector<std::string> component_names() const override;
  void restart_group(const std::vector<std::string>& names,
                     std::function<void()> on_complete) override;
  bool restart_in_progress() const override;
  std::vector<std::string> restarting_now() const override;
  /// Deletes the on-disk state files only; partner copies survive.
  void discard_checkpoints(const std::vector<std::string>& names) override;
  /// The group's slowest member's startup_timeout.
  util::Duration restart_deadline(const std::vector<std::string>& names,
                                  util::Duration configured) const override;

  /// Run rec's timers and link messages up to wall-clock now, then copy
  /// rec's newly completed actions into history_.
  void advance();
  void pump(Millis max_wait);
  void drain_worker(Worker& worker);
  void send_pings();
  void check_deadlines();
  void check_health_policy();
  /// Fire on_complete for every group whose members are all READY.
  void complete_ready_groups();
  void report_failure(const std::string& name, const std::string& cause);
  void on_rec_command(const msg::Message& message);
  void spawn_worker(Worker& worker);
  void log(const std::string& who, const std::string& what) const;

  SupervisorConfig config_;
  std::map<std::string, Worker> workers_;
  sim::Simulator sim_{0};
  bus::DedicatedLink link_;
  core::HeuristicOracle oracle_;
  core::Recoverer rec_;
  /// Workers rec has masked from detection (restarting or parked).
  std::set<std::string> masked_;
  std::vector<Group> groups_;
  std::vector<PosixRecoveryRecord> history_;
  std::uint64_t seq_ = 1;
  std::uint64_t pings_sent_ = 0;
  std::uint64_t pongs_received_ = 0;
  std::uint64_t startup_timeouts_ = 0;
  std::uint64_t checkpoints_validated_ = 0;
  std::uint64_t checkpoints_deleted_ = 0;
  std::uint64_t partner_restores_ = 0;
};

}  // namespace mercury::posix
