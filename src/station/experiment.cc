#include "station/experiment.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "core/mercury_trees.h"
#include "exp/runner.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/strings.h"

namespace mercury::station {

namespace names = core::component_names;
using util::Duration;

std::string to_string(OracleKind kind) {
  switch (kind) {
    case OracleKind::kHeuristic: return "heuristic";
    case OracleKind::kPerfect: return "perfect";
    case OracleKind::kFaultyPerfect: return "faulty";
    case OracleKind::kLearning: return "learning";
  }
  return "?";
}

util::Duration hardened_restart_deadline(
    const Calibration& cal, const std::vector<std::string>& components) {
  double worst = 0.0;
  for (const auto& name : components) {
    const ComponentTiming timing = cal.timing_for(name);
    worst = std::max(worst, timing.startup_mean.to_seconds() +
                                3.0 * timing.startup_stddev.to_seconds());
  }
  const double full_contention =
      1.0 + cal.contention_slope *
                std::max<double>(0.0, static_cast<double>(components.size()) - 2.0);
  return Duration::seconds(worst * full_contention * 1.5);
}

std::vector<std::string> command_routes(core::MercuryTree tree) {
  // The command path: ground commands reach the spacecraft through the RTU
  // and the radio frontends.
  if (core::uses_split_fedrcom(tree)) {
    return {names::kRtu, names::kFedr, names::kPbcom};
  }
  return {names::kRtu, names::kFedrcom};
}

std::vector<std::string> telemetry_routes(core::MercuryTree tree) {
  (void)tree;  // same data chain in every tree
  return {names::kSes, names::kStr};
}

MercuryRig::MercuryRig(sim::Simulator& sim, const TrialSpec& spec)
    : sim_(sim), cal_(spec.cal) {
  StationConfig config;
  config.split_fedrcom = core::uses_split_fedrcom(spec.tree);
  config.enable_domain_behavior = spec.enable_domain_behavior;
  config.cal = spec.cal;
  config.bus.loss_probability = spec.bus_loss_probability;
  // Client traffic gets typed mid-restart nacks: a fast "restarting" error
  // beats a silent drop both for retry latency and for the touch signal.
  config.bus.typed_restart_errors = spec.traffic.enabled;
  config.checkpoints.enabled = spec.enable_checkpoints;
  config.checkpoints.ttl = spec.checkpoint_ttl;
  config.checkpoints.l1_partner = spec.checkpoint_l1;
  config.checkpoints.l2_stable = spec.checkpoint_l2;
  station_ = std::make_unique<Station>(sim_, config);
  if (spec.enable_checkpoints && spec.checkpoint_l1) {
    // Deterministic buddy assignment from the restart tree: the partner map
    // is pure topology, so every trial of a grid agrees on who hosts whom.
    station_->checkpoints().set_partners(
        core::choose_partners(core::make_mercury_tree(spec.tree)));
  }

  link_ = std::make_unique<bus::DedicatedLink>(sim_, names::kFd, names::kRec,
                                               spec.cal.link_latency);

  // Oracle stack.
  if (spec.oracle_override != nullptr) {
    active_oracle_ = spec.oracle_override;
  } else {
    switch (spec.oracle) {
      case OracleKind::kHeuristic:
        owned_oracle_ = std::make_unique<core::HeuristicOracle>();
        active_oracle_ = owned_oracle_.get();
        break;
      case OracleKind::kPerfect:
        perfect_oracle_ = std::make_unique<core::PerfectOracle>(station_->board());
        active_oracle_ = perfect_oracle_.get();
        break;
      case OracleKind::kFaultyPerfect:
        perfect_oracle_ = std::make_unique<core::PerfectOracle>(station_->board());
        owned_oracle_ = std::make_unique<core::FaultyOracle>(
            *perfect_oracle_, sim_.rng().fork("faulty-oracle"), spec.faulty_p_low);
        active_oracle_ = owned_oracle_.get();
        break;
      case OracleKind::kLearning: {
        std::map<std::string, double> costs;
        for (const auto& name : station_->component_names()) {
          costs[name] = spec.cal.timing_for(name).startup_mean.to_seconds();
        }
        owned_oracle_ = std::make_unique<core::LearningOracle>(
            sim_.rng().fork("learning-oracle"), std::move(costs));
        active_oracle_ = owned_oracle_.get();
        break;
      }
    }
  }

  core::FdConfig fd_config;
  fd_config.ping_period = spec.cal.ping_period;
  fd_config.ping_timeout = spec.cal.ping_timeout;
  fd_config.misses_before_report = spec.fd_misses_before_report;
  fd_ = std::make_unique<core::FailureDetector>(
      sim_, station_->bus(), *link_, station_->component_names(), fd_config);

  core::RecConfig rec_config;
  rec_config.enable_soft_recovery = spec.enable_soft_recovery;
  rec_config.dispatch = spec.dispatch;
  rec_config.traffic_driven = spec.traffic_driven;
  if (spec.harden_restart_path) {
    rec_config.restart_deadline =
        hardened_restart_deadline(spec.cal, station_->component_names());
    rec_config.backoff_base = spec.backoff_base;
    rec_config.max_attempts_per_chain = spec.max_attempts_per_chain;
  }
  for (const auto& [name, faults] : spec.restart_faults) {
    station_->set_restart_faults(name, faults);
  }
  rec_ = std::make_unique<core::Recoverer>(
      sim_, *link_, core::make_mercury_tree(spec.tree), *active_oracle_,
      station_->process_manager(), rec_config);

  // FD re-attaches its endpoint after every bus restart.
  station_->add_bus_restart_listener([this] { fd_->reattach(); });

  // Mutual recovery (§2.2): each side can restart the other's process.
  rec_->set_fd_restarter([this] {
    const Duration startup = cal_.fd.startup_mean;
    sim_.schedule_after(startup, "fd.restart",
                        [this] { fd_->restart_complete(); });
  });
  fd_->set_rec_restarter([this] {
    const Duration startup = cal_.rec.startup_mean;
    sim_.schedule_after(startup, "rec.restart",
                        [this] { rec_->restart_complete(); });
  });

  if (spec.traffic.enabled) {
    workload::WorkloadConfig wl;
    wl.command_sessions = spec.traffic.command_sessions;
    wl.telemetry_sessions = spec.traffic.telemetry_sessions;
    wl.mean_interarrival = spec.traffic.mean_interarrival;
    wl.seed = spec.seed;
    wl.trace_requests = spec.traffic.trace_requests;
    wl.mode_label = spec.traffic_driven &&
                            spec.dispatch == core::DispatchMode::kOnDemand
                        ? "ondemand"
                        : std::string(to_string(spec.dispatch));
    workload_ = std::make_unique<workload::WorkloadDriver>(
        sim_, station_->bus(), command_routes(spec.tree),
        telemetry_routes(spec.tree), wl);
    // A request at a parked route gets a clean local rejection instead of
    // burning its retry budget against a component that will not return.
    workload_->set_parked_query(
        [this](const std::string& target) { return rec_->parked().contains(target); });
    if (spec.traffic_driven) {
      // Client evidence a route is down (timeout or "restarting" nack)
      // promotes its lazily queued restart.
      workload_->set_touch_callback(
          [this](const std::string& target) { rec_->touch(target); });
      // Bus-level touch: a client request landing on a killed (detached)
      // endpoint fires before any nack/timeout round-trips. Filter to client
      // senders — FD's liveness pings touch every dead component and would
      // otherwise degenerate lazy recovery into eager DAG dispatch.
      station_->bus().set_touch_listener(
          [this](const std::string& to, const std::string& from) {
            if (util::starts_with(from, "cli.")) rec_->touch(to);
          });
    }
  }
}

void MercuryRig::start() {
  station_->boot_instant();
  fd_->start();
  rec_->start();
  rec_->monitor_fd();
  fd_->monitor_rec();
}

TrialResult run_trial(const TrialSpec& spec) {
  // Each trial is its own track in the trace (Chrome export: one "process"
  // per run), so repeated trials starting at t=0 do not overlap.
  obs::next_run();
  obs::instant(util::TimePoint::origin(), "sim", "trial.start", "trial",
               {{"seed", std::to_string(spec.seed)},
                {"component", spec.fail_component},
                {"oracle", to_string(spec.oracle)}});

  sim::Simulator sim(spec.seed);
  MercuryRig rig(sim, spec);
  rig.start();
  // Traffic baseline: the workload serves through warmup, so the goodput
  // dip is measured against a real pre-injection serving rate.
  if (rig.workload() != nullptr) rig.workload()->start();

  sim.run_for(kTrialWarmup);

  // Inject at a uniformly random phase of the ping schedule, as a physical
  // SIGKILL at an arbitrary wall-clock instant would land.
  const Duration phase = Duration::seconds(
      sim.rng().uniform(0.0, spec.cal.ping_period.to_seconds()));
  sim.run_for(phase);
  const util::TimePoint injected_at = sim.now();

  switch (spec.mode) {
    case FailureMode::kCrash:
      assert(!spec.fail_component.empty());
      rig.station().inject_crash(spec.fail_component);
      break;
    case FailureMode::kJointFedrPbcom:
      rig.station().inject_joint_fedr_pbcom();
      break;
    case FailureMode::kStaleAttachment:
      assert(!spec.fail_component.empty());
      rig.station().inject_stale_attachment(spec.fail_component);
      break;
  }

  // Checkpoint damage rides along with the failure: whatever killed the
  // component may have trashed its local snapshot too.
  const std::string& victim = spec.mode == FailureMode::kJointFedrPbcom
                                  ? names::kPbcom
                                  : spec.fail_component;
  constexpr core::CheckpointTier kLocal = core::CheckpointTier::kL0Local;
  switch (spec.checkpoint_damage) {
    case TrialSpec::CheckpointDamage::kNone:
      break;
    case TrialSpec::CheckpointDamage::kCorrupt:
      rig.station().checkpoints().corrupt(victim, kLocal);
      break;
    case TrialSpec::CheckpointDamage::kPoison:
      rig.station().checkpoints().poison(victim, kLocal);
      break;
    case TrialSpec::CheckpointDamage::kStale:
      rig.station().checkpoints().stale_date(
          victim, kLocal,
          injected_at - spec.checkpoint_ttl - Duration::seconds(1.0));
      break;
    case TrialSpec::CheckpointDamage::kKill:
      rig.station().checkpoints().discard_tier(victim, kLocal);
      break;
  }

  // Correlated partner loss: the same fault event fells the victim's L1
  // replica host; the station's host-down listener drops its replicas.
  if (spec.fail_partner_too) {
    const std::string& partner =
        rig.station().checkpoints().partner_of(victim);
    if (!partner.empty()) rig.station().inject_crash(partner);
  }

  // Multi-fault scenarios (ISSUE 8): extra crashes land at fixed offsets
  // after the primary, giving the parallel scheduler disjoint cells to work
  // concurrently.
  for (const auto& extra : spec.extra_faults) {
    const std::string name = extra.component;
    sim.schedule_after(extra.delay, sim::Label::prefixed("extra-fault.", name),
                       [&rig, name] { rig.station().inject_crash(name); });
  }

  TrialResult result;
  const util::TimePoint deadline = injected_at + spec.timeout;
  while (sim.now() < deadline) {
    if (rig.station().all_functional() && !rig.rec().restart_in_progress()) {
      break;
    }
    if (!rig.rec().hard_failures().empty()) {
      result.hard_failure = true;
      break;
    }
    if (!sim.step()) break;  // queue drained (should not happen: ping loops)
  }

  result.recovery = sim.now() - injected_at;
  if (!result.hard_failure && sim.now() >= deadline) {
    result.timed_out = true;
    result.recovery = spec.timeout;
  }
  if (result.hard_failure) {
    // Let the station settle into degraded operation: everything outside
    // the parked set back up and functional. (With mbus parked this can
    // never succeed; the loop is bounded by the trial deadline.)
    const std::set<std::string>& parked = rig.rec().parked();
    while (sim.now() < deadline && !rig.station().functional_except(parked)) {
      if (!sim.step()) break;
    }
    result.degraded_functional = rig.station().functional_except(parked);
  }
  result.restarts = static_cast<int>(rig.rec().restarts_executed());
  result.escalations = static_cast<int>(rig.rec().escalations());
  result.restart_timeouts = static_cast<int>(rig.rec().restart_timeouts());
  result.backoffs = static_cast<int>(rig.rec().backoffs_applied());
  result.parked.assign(rig.rec().parked().begin(), rig.rec().parked().end());
  result.warm_restarts =
      static_cast<int>(rig.station().process_manager().warm_restarts());
  result.cold_fallbacks =
      static_cast<int>(rig.station().process_manager().cold_fallbacks());
  result.checkpoint_crashes =
      static_cast<int>(rig.station().process_manager().checkpoint_crashes());
  const core::TieredCheckpointStore& tiers = rig.station().checkpoints();
  result.warm_hits_l0 =
      static_cast<int>(tiers.tier_hits(core::CheckpointTier::kL0Local));
  result.warm_hits_l1 =
      static_cast<int>(tiers.tier_hits(core::CheckpointTier::kL1Partner));
  result.warm_hits_l2 =
      static_cast<int>(tiers.tier_hits(core::CheckpointTier::kL2Stable));
  result.tier_rebuilds = static_cast<int>(tiers.rebuilds());
  result.max_concurrent_restarts =
      static_cast<int>(rig.rec().max_concurrent_restarts());
  result.absorbed_restarts = static_cast<int>(rig.rec().absorbed_restarts());
  if (!result.timed_out && !result.hard_failure) {
    // The "functionally ready" moment the paper's methodology timestamps:
    // closes the last recovery action's execution phase in the trace,
    // covering post-restart readiness work like the §4.3 resync.
    obs::instant(sim.now(), "sim", "trial.recovered", "trial",
                 {{"recovery", util::format_fixed(result.recovery.to_seconds(), 6)}});
    obs::observe("trial.recovery_seconds", result.recovery.to_seconds());
  }

  // Stop issuing new requests at measurement end; the settle window below
  // (3.5 s) covers the in-flight drain (at most four retry rounds, ~2 s),
  // so issued == served + lost holds exactly.
  if (rig.workload() != nullptr) rig.workload()->quiesce();

  // Let the recoverer's post-recovery bookkeeping (the oracle's positive
  // cure feedback fires one escalation-window after the restart) settle, so
  // persistent oracles learn from this trial.
  sim.run_for(core::RecConfig{}.escalation_window + Duration::seconds(1.0));

  if (rig.workload() != nullptr) {
    workload::WorkloadDriver& wl = *rig.workload();
    result.traffic =
        wl.account().summarize(injected_at.to_seconds(), wl.quiesce_time());
    result.touch_promotions = static_cast<int>(rig.rec().touch_promotions());
    result.lazy_drains = static_cast<int>(rig.rec().lazy_drains());
    if (spec.traffic.keep_outcome_log) {
      result.traffic_outcome_log = wl.outcome_text();
    }
  }
  return result;
}

TracedTrial run_trial_traced(const TrialSpec& spec) {
  TracedTrial traced;
  obs::TraceRecorder recorder;
  {
    obs::ScopedRecorder scope(recorder);
    traced.result = run_trial(spec);
  }
  traced.events = recorder.events();
  return traced;
}

std::vector<TrialResult> run_trial_batch(const std::vector<TrialSpec>& specs) {
  const bool order_dependent =
      std::any_of(specs.begin(), specs.end(), [](const TrialSpec& spec) {
        return spec.oracle_override != nullptr;
      });
  if (order_dependent) {
    // A persistent oracle mutates across trials in trial order; the serial
    // loop is the definition of its behaviour, not an optimisation fallback.
    std::vector<TrialResult> results;
    results.reserve(specs.size());
    for (const TrialSpec& spec : specs) results.push_back(run_trial(spec));
    return results;
  }
  exp::ExperimentRunner runner;
  return runner.map(specs.size(), [&specs](exp::TrialContext& ctx) {
    return run_trial(specs[ctx.index]);
  });
}

util::SampleStats run_trials(TrialSpec spec, int trials) {
  return run_trials_grid({std::move(spec)}, trials).front();
}

std::vector<util::SampleStats> run_trials_grid(
    const std::vector<TrialSpec>& specs, int trials) {
  std::vector<TrialSpec> flat;
  flat.reserve(specs.size() * static_cast<std::size_t>(std::max(trials, 0)));
  for (const TrialSpec& spec : specs) {
    for (int i = 0; i < trials; ++i) {
      TrialSpec cell = spec;
      cell.seed = spec.seed + static_cast<std::uint64_t>(i);
      flat.push_back(std::move(cell));
    }
  }
  const std::vector<TrialResult> results = run_trial_batch(flat);
  std::vector<util::SampleStats> stats(specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    stats[i / static_cast<std::size_t>(trials)].add(results[i].recovery);
  }
  return stats;
}

}  // namespace mercury::station
