// Integration tests: §7 recursive recovery — soft procedures below the
// restart ladder.
#include <gtest/gtest.h>

#include "core/mercury_trees.h"
#include "sim/simulator.h"
#include "station/experiment.h"

namespace mercury::station {
namespace {

namespace names = core::component_names;
using core::MercuryTree;
using util::Duration;

TrialSpec soft_spec(FailureMode mode, const std::string& component,
                    std::uint64_t seed, bool soft = true) {
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.oracle = OracleKind::kHeuristic;  // realistic: no cure-set knowledge
  spec.enable_soft_recovery = soft;
  spec.mode = mode;
  spec.fail_component = component;
  spec.seed = seed;
  return spec;
}

TEST(RecursiveRecovery, StaleAttachmentCuredBySoftProcedure) {
  const TrialResult result =
      run_trial(soft_spec(FailureMode::kStaleAttachment, names::kPbcom, 1));
  // Detection (~0.66 s) + soft procedure (0.25 s) — versus a 21 s restart.
  EXPECT_LT(result.recovery.to_seconds(), 1.8);
  EXPECT_EQ(result.restarts, 1);  // one action in the history: the soft one
  EXPECT_EQ(result.escalations, 0);
}

TEST(RecursiveRecovery, WithoutSoftRecoveryStaleAttachmentCostsARestart) {
  const TrialResult result = run_trial(
      soft_spec(FailureMode::kStaleAttachment, names::kPbcom, 2, /*soft=*/false));
  // The restart cures it too (restart is the stronger rung) but costs 20+s.
  EXPECT_GT(result.recovery.to_seconds(), 20.0);
  EXPECT_EQ(result.escalations, 0);
}

TEST(RecursiveRecovery, CrashEscalatesPastTheSoftRung) {
  const TrialResult result =
      run_trial(soft_spec(FailureMode::kCrash, names::kRtu, 3));
  // Soft rung (0.25 s) fails, FD re-detects, restart rung cures: the crash
  // costs roughly one extra second over the restart-only policy.
  EXPECT_GT(result.recovery.to_seconds(), 5.5);
  EXPECT_LT(result.recovery.to_seconds(), 8.5);
  EXPECT_EQ(result.restarts, 2);  // soft attempt + real restart
  EXPECT_EQ(result.escalations, 1);
}

TEST(RecursiveRecovery, SoftRungPenaltyIsBounded) {
  TrialSpec with = soft_spec(FailureMode::kCrash, names::kRtu, 100);
  TrialSpec without =
      soft_spec(FailureMode::kCrash, names::kRtu, 100, /*soft=*/false);
  const double mean_with = run_trials(with, 20).mean();
  const double mean_without = run_trials(without, 20).mean();
  EXPECT_GT(mean_with, mean_without);
  EXPECT_LT(mean_with - mean_without, 2.0);
}

TEST(RecursiveRecovery, JointFailureClimbsAllThreeRungs) {
  const TrialResult result =
      run_trial(soft_spec(FailureMode::kJointFedrPbcom, names::kPbcom, 4));
  // Rung 0: soft pbcom (no cure). Rung 1: restart pbcom leaf (no cure).
  // Rung 2: escalate to the joint cell (cure).
  EXPECT_EQ(result.restarts, 3);
  EXPECT_EQ(result.escalations, 2);
  EXPECT_FALSE(result.hard_failure);
  EXPECT_GT(result.recovery.to_seconds(), 40.0);
}

TEST(RecursiveRecovery, SoftCureLeavesNoEscalationResidue) {
  // A crash right after a successful soft cure must start a fresh chain,
  // not an escalation of the cured one.
  sim::Simulator sim(5);
  TrialSpec spec = soft_spec(FailureMode::kStaleAttachment, names::kRtu, 5);
  MercuryRig rig(sim, spec);
  rig.start();
  sim.run_for(Duration::seconds(3.0));

  rig.station().inject_stale_attachment(names::kRtu);
  while (!rig.station().all_functional()) sim.step();
  ASSERT_EQ(rig.rec().soft_recoveries(), 1u);

  sim.run_for(Duration::seconds(5.0));  // past the escalation window
  rig.station().inject_crash(names::kRtu);
  while (!rig.station().all_functional()) sim.step();
  // Fresh chain: soft rung first again (not a tree escalation).
  EXPECT_EQ(rig.rec().soft_recoveries(), 2u);
  EXPECT_TRUE(rig.rec().hard_failures().empty());
}

// Soft-cure sweep: every component's stale-attachment transient heals in
// under two seconds with the soft rung, on every tree that carries it. The
// component is a std::string, not a const char*: gtest prints the parameter
// into the ctest name, and a pointer would print its address, new on every
// build.
class StaleSweep
    : public ::testing::TestWithParam<std::tuple<MercuryTree, std::string>> {};

TEST_P(StaleSweep, SoftCureIsFast) {
  const auto [tree, component] = GetParam();
  TrialSpec spec = soft_spec(FailureMode::kStaleAttachment, component, 77);
  spec.tree = tree;
  const TrialResult result = run_trial(spec);
  EXPECT_LT(result.recovery.to_seconds(), 2.0)
      << core::to_string(tree) << " " << component;
  EXPECT_EQ(result.escalations, 0);
  EXPECT_FALSE(result.hard_failure);
}

INSTANTIATE_TEST_SUITE_P(
    TreesAndComponents, StaleSweep,
    ::testing::Combine(::testing::Values(MercuryTree::kTreeIII,
                                         MercuryTree::kTreeIV,
                                         MercuryTree::kTreeV),
                       ::testing::Values("mbus", "ses", "str", "rtu", "fedr",
                                         "pbcom")),
    [](const ::testing::TestParamInfo<std::tuple<MercuryTree, std::string>>&
           info) {
      return "tree" +
             std::string{core::to_string(std::get<0>(info.param)) ==
                                 std::string("II'")
                             ? "IIp"
                             : core::to_string(std::get<0>(info.param))} +
             "_" + std::get<1>(info.param);
    });

TEST(RecursiveRecovery, PaperBaselineHasNoSoftRung) {
  // Default configuration = the paper's system: restart is the only
  // procedure, so soft counters stay zero.
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.fail_component = names::kSes;
  spec.seed = 6;
  sim::Simulator sim(6);
  MercuryRig rig(sim, spec);
  rig.start();
  sim.run_for(Duration::seconds(3.0));
  rig.station().inject_crash(names::kSes);
  while (!rig.station().all_functional()) sim.step();
  EXPECT_EQ(rig.rec().soft_recoveries(), 0u);
}

}  // namespace
}  // namespace mercury::station
