// Unit tests: the failure board's cure rule (§4's f_ci machinery).
#include <gtest/gtest.h>

#include "core/failure_board.h"
#include "obs/trace.h"

namespace mercury::core {
namespace {

using util::TimePoint;

TimePoint at(double seconds) { return TimePoint::from_seconds(seconds); }

/// The fault.cured instants the board traced.
std::vector<const obs::TraceEvent*> cured_events(const obs::TraceRecorder& rec) {
  std::vector<const obs::TraceEvent*> out;
  for (const obs::TraceEvent& event : rec.events()) {
    if (event.name == "fault.cured") out.push_back(&event);
  }
  return out;
}

TEST(FailureSpecs, CrashAndJointConstructors) {
  const FailureSpec crash = make_crash("ses");
  EXPECT_EQ(crash.manifest, "ses");
  EXPECT_EQ(crash.cure_set, std::vector<std::string>{"ses"});
  EXPECT_EQ(crash.kind, "crash");

  const FailureSpec joint = make_joint("pbcom", {"fedr", "pbcom", "fedr"});
  EXPECT_EQ(joint.manifest, "pbcom");
  EXPECT_EQ(joint.cure_set, (std::vector<std::string>{"fedr", "pbcom"}));
  EXPECT_EQ(joint.kind, "joint");
}

TEST(FailureBoard, InjectManifestsAtComponent) {
  FailureBoard board;
  EXPECT_FALSE(board.any_active());
  board.inject(make_crash("ses"), at(1.0));
  EXPECT_TRUE(board.any_active());
  EXPECT_TRUE(board.manifests_at("ses"));
  EXPECT_FALSE(board.manifests_at("str"));
  ASSERT_EQ(board.active_at("ses").size(), 1u);
  EXPECT_EQ(board.active_at("ses")[0].onset, at(1.0));
}

TEST(FailureBoard, RestartOfCureSetCures) {
  FailureBoard board;
  board.inject(make_crash("ses"), at(1.0));
  board.on_restart_complete("ses", at(5.0));
  EXPECT_FALSE(board.any_active());
  EXPECT_EQ(board.total_cured(), 1u);
}

TEST(FailureBoard, UnrelatedRestartDoesNotCure) {
  FailureBoard board;
  board.inject(make_crash("ses"), at(1.0));
  board.on_restart_complete("str", at(5.0));
  EXPECT_TRUE(board.manifests_at("ses"));
}

TEST(FailureBoard, JointFailureNeedsWholeCureSet) {
  FailureBoard board;
  board.inject(make_joint("pbcom", {"fedr", "pbcom"}), at(0.0));
  // Guess-too-low: pbcom alone does not cure (§4.4).
  board.on_restart_complete("pbcom", at(21.0));
  EXPECT_TRUE(board.manifests_at("pbcom"));
  // Completing the cure set does.
  board.on_restart_complete("fedr", at(43.0));
  EXPECT_FALSE(board.any_active());
}

TEST(FailureBoard, CureSetMembersMayRestartInAnyOrder) {
  FailureBoard board;
  board.inject(make_joint("pbcom", {"fedr", "pbcom"}), at(0.0));
  board.on_restart_complete("fedr", at(5.0));
  EXPECT_TRUE(board.manifests_at("pbcom"));
  board.on_restart_complete("pbcom", at(25.0));
  EXPECT_FALSE(board.any_active());
}

TEST(FailureBoard, DuplicateRestartCountsOnce) {
  FailureBoard board;
  board.inject(make_joint("pbcom", {"fedr", "pbcom"}), at(0.0));
  board.on_restart_complete("pbcom", at(5.0));
  board.on_restart_complete("pbcom", at(10.0));
  EXPECT_TRUE(board.manifests_at("pbcom"));  // fedr still pending
}

TEST(FailureBoard, IndependentFailuresCureIndependently) {
  FailureBoard board;
  const FailureId ses_failure = board.inject(make_crash("ses"), at(0.0));
  board.inject(make_crash("rtu"), at(1.0));
  (void)ses_failure;
  board.on_restart_complete("rtu", at(6.0));
  EXPECT_TRUE(board.manifests_at("ses"));
  EXPECT_FALSE(board.manifests_at("rtu"));
  EXPECT_EQ(board.active().size(), 1u);
}

TEST(FailureBoard, TwoFailuresSameComponentCureTogether) {
  FailureBoard board;
  board.inject(make_crash("ses"), at(0.0));
  board.inject(make_crash("ses"), at(1.0));
  EXPECT_EQ(board.active_at("ses").size(), 2u);
  board.on_restart_complete("ses", at(5.0));
  EXPECT_FALSE(board.any_active());
  EXPECT_EQ(board.total_cured(), 2u);
}

TEST(FailureBoard, ListenersFire) {
  // Inject listeners fire on inject; a cure is recorded in the counters and
  // in the trace (the fault.cured instant), not through a callback.
  FailureBoard board;
  obs::TraceRecorder recorder;
  obs::ScopedRecorder scoped(recorder);
  int injected = 0;
  board.add_inject_listener([&](const ActiveFailure&) { ++injected; });
  board.inject(make_crash("ses"), at(0.0));
  EXPECT_EQ(injected, 1);
  board.on_restart_complete("ses", at(7.0));
  EXPECT_EQ(board.total_cured(), 1u);
  EXPECT_FALSE(board.manifests_at("ses"));
  const std::vector<const obs::TraceEvent*> cures = cured_events(recorder);
  ASSERT_EQ(cures.size(), 1u);
  EXPECT_EQ(cures[0]->t, 7.0);
  EXPECT_EQ(cures[0]->arg_or("manifest"), "ses");
}

TEST(FailureBoard, ClearRemovesById) {
  FailureBoard board;
  const FailureId id = board.inject(make_crash("ses"), at(0.0));
  EXPECT_TRUE(board.clear(id));
  EXPECT_FALSE(board.clear(id));
  EXPECT_FALSE(board.any_active());
}

TEST(FailureBoard, ClearDoesNotFireListenersOrCountAsCured) {
  // clear() forcibly removes a failure (operator/test intervention); it was
  // removed, not cured, so no cure may be counted or traced — a cure record
  // would credit recovery machinery that never ran.
  FailureBoard board;
  obs::TraceRecorder recorder;
  obs::ScopedRecorder scoped(recorder);
  int injects = 0;
  board.add_inject_listener([&](const ActiveFailure&) { ++injects; });

  const FailureId id = board.inject(make_crash("ses"), at(0.0));
  EXPECT_EQ(injects, 1);
  EXPECT_TRUE(board.clear(id));
  EXPECT_TRUE(cured_events(recorder).empty());
  EXPECT_EQ(board.total_cured(), 0u);
  EXPECT_FALSE(board.any_active());
  EXPECT_FALSE(board.manifests_at("ses"));

  // A real cure afterwards still counts: clear() removed one failure, not
  // the cure rule.
  board.inject(make_crash("ses"), at(1.0));
  EXPECT_TRUE(board.manifests_at("ses"));
  board.on_restart_complete("ses", at(2.0));
  EXPECT_EQ(cured_events(recorder).size(), 1u);
  EXPECT_EQ(board.total_cured(), 1u);
  EXPECT_FALSE(board.manifests_at("ses"));
  EXPECT_EQ(injects, 2);
}

TEST(FailureBoard, CountersTrack) {
  FailureBoard board;
  board.inject(make_crash("a"), at(0.0));
  board.inject(make_crash("b"), at(0.0));
  EXPECT_EQ(board.total_injected(), 2u);
  board.on_restart_complete("a", at(1.0));
  EXPECT_EQ(board.total_cured(), 1u);
}

}  // namespace
}  // namespace mercury::core
