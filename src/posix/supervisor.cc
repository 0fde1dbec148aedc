#include "posix/supervisor.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/trace.h"
#include "posix/checkpoint_file.h"
#include "util/log.h"
#include "util/strings.h"

namespace mercury::posix {

using util::Duration;
using util::Error;
using util::Status;
using util::TimePoint;

namespace {

const Clock::time_point kProcessStart = Clock::now();

/// The backend's one clock: wall-clock seconds since process start. The
/// supervisor advances its simulator to this before every step, so traces,
/// logs and rec's timers all read the same time line.
TimePoint wall_now() {
  return TimePoint::from_seconds(
      std::chrono::duration<double>(Clock::now() - kProcessStart).count());
}

Duration to_duration(Millis ms) {
  return Duration::millis(static_cast<double>(ms.count()));
}

// Built-in recovery policy of this backend (no SupervisorConfig knob):
/// Uncured root restarts of one worker accumulate over this window.
constexpr Duration kRootRetryWindow = Duration::seconds(30.0);
/// Minimum spacing between proactive restarts of the same worker.
constexpr Duration kRejuvenationSpacing = Duration::seconds(2.0);

/// The single place SupervisorConfig's policy fields meet core::RecConfig.
/// Same-cell backoff and the per-chain attempt budget stay off (RecConfig's
/// defaults); restart deadlines come from the workers (restart_deadline).
core::RecConfig rec_config(const SupervisorConfig& config) {
  core::RecConfig rec;
  rec.escalation_window = to_duration(config.escalation_window);
  rec.max_root_restarts = config.max_root_restarts;
  rec.root_retry_window = kRootRetryWindow;
  if (config.parallel_recovery) {
    rec.dispatch = config.traffic_driven ? core::DispatchMode::kOnDemand
                                         : core::DispatchMode::kDag;
  }
  rec.traffic_driven = config.traffic_driven;
  rec.lazy_drain_interval = to_duration(config.lazy_drain);
  return rec;
}

}  // namespace

PosixSupervisor::PosixSupervisor(core::RestartTree tree,
                                 std::vector<WorkerSpec> workers,
                                 SupervisorConfig config)
    : config_(config),
      link_(sim_, "fd", "rec", Duration::zero()),
      rec_(sim_, link_, std::move(tree), oracle_, *this, rec_config(config)) {
  for (auto& spec : workers) {
    Worker worker;
    worker.spec = std::move(spec);
    workers_.emplace(worker.spec.name, std::move(worker));
  }
  // Tree components and workers must agree, or recovery actions would
  // reference processes we do not manage.
  const auto tree_components = rec_.tree().all_components();
  assert(tree_components.size() == workers_.size());
  for (const auto& component : tree_components) {
    assert(workers_.contains(component) && "tree component without a worker");
    (void)component;
  }
  link_.bind("fd", [this](const msg::Message& message) { on_rec_command(message); });
  rec_.start();
}

PosixSupervisor::~PosixSupervisor() = default;

void PosixSupervisor::log(const std::string& who, const std::string& what) const {
  util::LogLine(util::LogLevel::kInfo, sim_.now(), who) << what;
}

void PosixSupervisor::advance() {
  sim_.run_until(wall_now());
  const auto& records = rec_.history();
  for (std::size_t i = history_.size(); i < records.size(); ++i) {
    const core::RecoveryRecord& record = records[i];
    history_.push_back(PosixRecoveryRecord{
        record.reported_component, record.node, record.restarted,
        record.escalation_level,
        std::chrono::duration_cast<Millis>(std::chrono::duration<double>(
            (record.complete_time - record.report_time).to_seconds()))});
  }
}

Status PosixSupervisor::start_all() {
  advance();
  for (auto& [name, worker] : workers_) spawn_worker(worker);
  const bool ready = run_until([this] { return all_up(); }, Millis{10'000});
  if (!ready) return Error("workers failed to become READY within 10 s");
  return Status::ok_status();
}

void PosixSupervisor::spawn_worker(Worker& worker) {
  worker.process.reset();  // kills and reaps any previous incarnation

  // Checkpoint gate (ISSUE 3): validate the state file before the spawn so
  // the child never warm-starts from a corrupt or foreign snapshot. Invalid
  // files are deleted — then, with partner copies on (the L1 tier), the
  // file is rewritten from the supervisor's replica of the last validated
  // payload, so losing the on-disk tier does not force a cold start.
  // Without a replica the worker finds nothing and rebuilds cold.
  if (!worker.spec.checkpoint_file.empty()) {
    const auto restore_from_replica = [&]() {
      if (!config_.keep_partner_copies || !worker.replica_payload.has_value()) {
        return;
      }
      if (ckpt::write_checkpoint_file(worker.spec.checkpoint_file,
                                      worker.spec.name,
                                      *worker.replica_payload)) {
        ++partner_restores_;
        obs::incr("posix.partner_restores");
        log(worker.spec.name,
            "checkpoint file restored from partner copy (warm start kept)");
      }
    };
    ckpt::CheckpointFile file;
    switch (ckpt::read_checkpoint_file(worker.spec.checkpoint_file,
                                       worker.spec.name, &file)) {
      case ckpt::FileState::kMissing:
        restore_from_replica();
        break;
      case ckpt::FileState::kInvalid:
        ::unlink(worker.spec.checkpoint_file.c_str());
        ++checkpoints_deleted_;
        obs::incr("posix.checkpoints_deleted");
        log(worker.spec.name, "invalid checkpoint file deleted (cold start enforced)");
        restore_from_replica();
        break;
      case ckpt::FileState::kValid:
        ++checkpoints_validated_;
        obs::incr("posix.checkpoints_validated");
        if (config_.keep_partner_copies) {
          worker.replica_payload = file.payload;
        }
        break;
    }
  }

  // A spawn failure surfaces as a worker that never becomes READY: its
  // startup deadline reports it (or, inside a restart, rec's group deadline
  // escalates it).
  worker.state = WorkerState::kStarting;
  worker.ready_deadline = sim_.now() + to_duration(worker.spec.startup_timeout);
  worker.outstanding_seq = 0;
  auto spawned = ChildProcess::spawn(worker.spec.argv);
  if (!spawned.ok()) {
    log(worker.spec.name, "spawn failed: " + spawned.error().message());
    return;
  }
  worker.process.emplace(std::move(spawned).value());
  // Close any span left open by a killed incarnation before opening the new
  // spawn->READY span.
  if (worker.restart_span != 0) {
    obs::end_span(sim_.now(), worker.restart_span, {{"outcome", "superseded"}});
  }
  worker.restart_span =
      obs::begin_span(sim_.now(), "restart", "restart:" + worker.spec.name,
                      "posix", {{"component", worker.spec.name}});
  obs::incr("posix.spawns");
}

void PosixSupervisor::run_for(Millis duration) {
  run_until([] { return false; }, duration);
}

bool PosixSupervisor::run_until(const std::function<bool()>& predicate,
                                Millis timeout) {
  const Clock::time_point end = Clock::now() + timeout;
  while (Clock::now() < end) {
    if (predicate()) return true;
    pump(Millis{10});
  }
  return predicate();
}

void PosixSupervisor::pump(Millis max_wait) {
  // Wait for child output, the slice, or rec's next timer, whichever is
  // soonest: poll never sleeps past the simulator's next event.
  const double until_timer_ms =
      std::ceil((sim_.next_event_time() - wall_now()).to_millis());
  const int wait_ms = static_cast<int>(
      std::clamp(until_timer_ms, 0.0, static_cast<double>(max_wait.count())));
  std::vector<pollfd> fds;
  std::vector<Worker*> fd_owners;
  for (auto& [name, worker] : workers_) {
    if (worker.process.has_value()) {
      fds.push_back(pollfd{worker.process->stdout_fd(), POLLIN, 0});
      fd_owners.push_back(&worker);
    }
  }
  const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                        static_cast<nfds_t>(fds.size()), wait_ms);
  if (rc < 0 && errno != EINTR) {
    // A real poll failure (EBADF from a raced-away fd, ENOMEM, ...) must not
    // kill the supervision loop — the drains below are non-blocking and the
    // deadline checks still have to run. EINTR is routine (signals).
    log("supervisor", std::string("poll failed: ") + std::strerror(errno));
  }

  advance();
  for (Worker* worker : fd_owners) drain_worker(*worker);
  send_pings();
  check_deadlines();
  check_health_policy();
  complete_ready_groups();
  // Deliver what FD and the completions just sent to rec, at this instant.
  advance();
}

void PosixSupervisor::drain_worker(Worker& worker) {
  if (!worker.process.has_value()) return;
  for (const auto& line : worker.process->read_lines()) {
    if (line == "READY " + worker.spec.name) {
      worker.state = WorkerState::kUp;
      worker.next_ping = sim_.now() + to_duration(config_.ping_period);
      log(worker.spec.name, "READY");
      if (worker.restart_span != 0) {
        obs::end_span(sim_.now(), worker.restart_span, {{"outcome", "ready"}});
        worker.restart_span = 0;
      }
    } else if (util::starts_with(line, "PONG ")) {
      // Checked parse: a corrupted PONG can carry 20+ digits (passes
      // is_all_digits, overflows stoull) or garbage. The supervisor is the
      // recovery brain — it ignores bad lines, it never throws.
      const std::optional<std::uint64_t> seq = util::parse_u64(line.substr(5));
      if (seq.has_value() && *seq == worker.outstanding_seq &&
          worker.outstanding_seq != 0) {
        worker.outstanding_seq = 0;
        ++pongs_received_;
      }
    } else if (util::starts_with(line, "HEALTH " + worker.spec.name + " mem=")) {
      // §7 beacon digest over the pipe: "HEALTH <name> mem=<MB>".
      const std::string value = line.substr(line.find("mem=") + 4);
      char* end = nullptr;
      const double mb = std::strtod(value.c_str(), &end);
      if (end != value.c_str()) worker.memory_mb = mb;
    }
  }
}

std::optional<double> PosixSupervisor::latest_memory_mb(
    const std::string& name) const {
  const auto it = workers_.find(name);
  return it != workers_.end() ? it->second.memory_mb : std::nullopt;
}

void PosixSupervisor::check_health_policy() {
  if (config_.memory_limit_mb <= 0.0) return;
  for (auto& [name, worker] : workers_) {
    if (worker.state != WorkerState::kUp || masked_.contains(name)) continue;
    if (!worker.memory_mb || *worker.memory_mb <= config_.memory_limit_mb) continue;
    if (sim_.now() - worker.last_rejuvenation < kRejuvenationSpacing) continue;
    const std::string mem_mb = util::format_fixed(*worker.memory_mb, 1);
    // rec declines while reactive work that could interfere is in flight.
    if (!rec_.planned_restart(name)) return;
    log(name, "memory " + mem_mb + " MB over limit; proactive rejuvenation (§7)");
    obs::instant(sim_.now(), "recover", "rec.rejuvenate", "posix",
                 {{"component", name}, {"mem_mb", mem_mb}});
    obs::incr("posix.rejuvenations");
    worker.last_rejuvenation = sim_.now();
    worker.memory_mb.reset();  // a fresh figure arrives after the restart
    return;  // one proactive action per pump
  }
}

void PosixSupervisor::send_pings() {
  const TimePoint now = sim_.now();
  for (auto& [name, worker] : workers_) {
    if (worker.state != WorkerState::kUp) continue;
    if (masked_.contains(name)) continue;
    if (worker.outstanding_seq != 0) continue;
    if (now < worker.next_ping) continue;
    const std::uint64_t seq = seq_++;
    worker.outstanding_seq = seq;
    worker.ping_deadline = now + to_duration(config_.ping_timeout);
    worker.next_ping = now + to_duration(config_.ping_period);
    if (worker.process.has_value()) {
      worker.process->write_line("PING " + std::to_string(seq));
      ++pings_sent_;
    }
  }
}

void PosixSupervisor::check_deadlines() {
  const TimePoint now = sim_.now();
  for (auto& [name, worker] : workers_) {
    // Masked workers belong to rec: a hung member of a restart group is
    // aborted by the group's deadline, a parked one stays down.
    if (masked_.contains(name)) continue;
    if (worker.state == WorkerState::kStarting && now >= worker.ready_deadline) {
      worker.state = WorkerState::kDown;
      ++startup_timeouts_;
      obs::incr("posix.restart_timeouts");
      report_failure(name, "startup-timeout");
      continue;
    }
    if (worker.state == WorkerState::kUp && worker.outstanding_seq != 0 &&
        now >= worker.ping_deadline) {
      worker.outstanding_seq = 0;
      report_failure(name, "missed-ping");
    }
  }
}

void PosixSupervisor::report_failure(const std::string& name,
                                     const std::string& cause) {
  log(name, cause + "; reporting failure");
  obs::instant(sim_.now(), "detect", "fd.report", "fd",
               {{"component", name}, {"cause", cause}});
  obs::incr("fd.reports");
  msg::Message report = msg::make_command("fd", "rec", seq_++, "report-failure");
  report.body.set_attr("component", name);
  link_.send(report);
}

void PosixSupervisor::on_rec_command(const msg::Message& message) {
  if (message.kind != msg::Kind::kCommand) return;
  const bool mask = message.verb == "mask";
  if (!mask && message.verb != "unmask") return;
  for (const auto& name : util::split(message.body.attr_or("components", ""), ',')) {
    if (mask) {
      masked_.insert(name);
    } else {
      masked_.erase(name);
    }
  }
}

void PosixSupervisor::complete_ready_groups() {
  // Completions may start new groups (rec drains its queue), so collect
  // first and call afterwards.
  std::vector<std::function<void()>> done;
  std::erase_if(groups_, [&](Group& group) {
    const bool ready = std::all_of(
        group.members.begin(), group.members.end(),
        [this](const auto& name) { return worker_up(name); });
    if (ready) done.push_back(std::move(group.on_complete));
    return ready;
  });
  for (const auto& on_complete : done) on_complete();
}

std::vector<std::string> PosixSupervisor::component_names() const {
  std::vector<std::string> names;
  for (const auto& [name, worker] : workers_) names.push_back(name);
  return names;
}

void PosixSupervisor::restart_group(const std::vector<std::string>& names,
                                    std::function<void()> on_complete) {
  log("supervisor", "restarting " + util::join(names, ","));
  // Respawning a member of an older, still-starting group supersedes that
  // attempt; the older group completes (and rec ignores it) once its
  // members are READY again.
  for (const auto& name : names) spawn_worker(workers_.at(name));
  groups_.push_back(Group{names, std::move(on_complete)});
}

std::vector<std::string> PosixSupervisor::restarting_now() const {
  std::set<std::string> starting;
  for (const Group& group : groups_) {
    for (const auto& name : group.members) {
      if (!worker_up(name)) starting.insert(name);
    }
  }
  return {starting.begin(), starting.end()};
}

bool PosixSupervisor::restart_in_progress() const {
  return !restarting_now().empty();
}

void PosixSupervisor::discard_checkpoints(const std::vector<std::string>& names) {
  for (const auto& name : names) {
    const Worker& worker = workers_.at(name);
    if (worker.spec.checkpoint_file.empty()) continue;
    if (::unlink(worker.spec.checkpoint_file.c_str()) == 0) {
      log(name, "fault-suspected checkpoint file discarded");
    }
  }
}

Duration PosixSupervisor::restart_deadline(const std::vector<std::string>& names,
                                           Duration /*configured*/) const {
  Millis slowest{0};
  for (const auto& name : names) {
    slowest = std::max(slowest, workers_.at(name).spec.startup_timeout);
  }
  return to_duration(slowest);
}

PosixSupervisor::TouchResult PosixSupervisor::touch_worker(
    const std::string& name) {
  advance();
  const TouchResult result = rec_.touch(name);
  advance();  // deliver the promoted restart's mask to FD
  return result;
}

bool PosixSupervisor::worker_up(const std::string& name) const {
  const auto it = workers_.find(name);
  return it != workers_.end() && it->second.state == WorkerState::kUp;
}

bool PosixSupervisor::all_up() const {
  return std::all_of(workers_.begin(), workers_.end(), [](const auto& entry) {
    return entry.second.state == WorkerState::kUp;
  });
}

bool PosixSupervisor::kill_worker(const std::string& name) {
  const auto it = workers_.find(name);
  if (it == workers_.end()) {
    log("supervisor", "kill_worker: no such worker '" + name + "'");
    return false;
  }
  advance();
  Worker& worker = it->second;
  if (worker.process.has_value()) worker.process->kill_hard();
  obs::instant(sim_.now(), "fault", "fault.manifest", "posix",
               {{"manifest", name}, {"kind", "sigkill"}});
  obs::incr("faults.injected");
  // State stays kUp: the supervisor has not *detected* anything yet — that
  // is the failure detector's job (fail-silent semantics).
  return true;
}

bool PosixSupervisor::wedge_worker(const std::string& name) {
  const auto it = workers_.find(name);
  if (it == workers_.end()) {
    log("supervisor", "wedge_worker: no such worker '" + name + "'");
    return false;
  }
  advance();
  Worker& worker = it->second;
  if (worker.process.has_value()) worker.process->write_line("WEDGE");
  obs::instant(sim_.now(), "fault", "fault.manifest", "posix",
               {{"manifest", name}, {"kind", "wedge"}});
  obs::incr("faults.injected");
  return true;
}

}  // namespace mercury::posix
