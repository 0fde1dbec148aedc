// Recovery-path tracing (src/obs): recorder semantics, export round-trips,
// and the phase decomposition on a real simulated crash -> recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/mercury_trees.h"
#include "core/transformations.h"
#include "obs/phases.h"
#include "obs/trace.h"
#include "station/experiment.h"
#include "util/rng.h"

namespace mercury::obs {
namespace {

using util::TimePoint;

TEST(TraceRecorder, RecordsEventsInEmissionOrder) {
  TraceRecorder rec;
  rec.instant(1.0, "fault", "fault.manifest", "board", {{"manifest", "ses"}});
  rec.instant(2.0, "detect", "fd.report", "fd", {{"component", "ses"}});
  rec.instant(2.5, "oracle", "oracle.choice", "oracle", {{"cell", "R_ses"}});

  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].name, "fault.manifest");
  EXPECT_EQ(rec.events()[0].kind, EventKind::kInstant);
  EXPECT_EQ(rec.events()[0].arg_or("manifest"), "ses");
  EXPECT_EQ(rec.events()[1].name, "fd.report");
  EXPECT_EQ(rec.events()[2].name, "oracle.choice");
  EXPECT_EQ(rec.events()[2].arg_or("cell"), "R_ses");
}

TEST(TraceRecorder, SpansNestAndReplayMetadataOnEnd) {
  TraceRecorder rec;
  const auto outer = rec.begin(1.0, "recover", "rec.restart", "rec",
                               {{"component", "ses"}});
  const auto inner = rec.begin(1.5, "restart", "restart:ses", "pm");
  EXPECT_NE(outer, 0u);
  EXPECT_NE(inner, 0u);
  EXPECT_NE(outer, inner);

  rec.end(3.0, inner, {{"outcome", "ready"}});
  rec.end(3.5, outer);

  ASSERT_EQ(rec.events().size(), 4u);
  const TraceEvent& inner_end = rec.events()[2];
  EXPECT_EQ(inner_end.kind, EventKind::kEnd);
  // category/name/track replayed from the matching begin.
  EXPECT_EQ(inner_end.category, "restart");
  EXPECT_EQ(inner_end.name, "restart:ses");
  EXPECT_EQ(inner_end.track, "pm");
  EXPECT_EQ(inner_end.span, inner);
  EXPECT_EQ(inner_end.arg_or("outcome"), "ready");

  const TraceEvent& outer_end = rec.events()[3];
  EXPECT_EQ(outer_end.name, "rec.restart");
  EXPECT_EQ(outer_end.span, outer);
}

TEST(TraceRecorder, EndOfUnknownSpanIsDropped) {
  TraceRecorder rec;
  rec.end(1.0, 999);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, EventCapCountsDropped) {
  TraceRecorder rec(/*max_events=*/2);
  rec.instant(1.0, "fault", "a", "t");
  rec.instant(2.0, "fault", "b", "t");
  rec.instant(3.0, "fault", "c", "t");
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(TraceRecorder, MetricsAggregate) {
  TraceRecorder rec;
  rec.incr("fd.reports");
  rec.incr("fd.reports", 2);
  rec.observe("trial.recovery_seconds", 5.0);
  rec.observe("trial.recovery_seconds", 7.0);

  EXPECT_EQ(rec.count("fd.reports"), 3u);
  EXPECT_EQ(rec.count("missing"), 0u);
  ASSERT_EQ(rec.samples().count("trial.recovery_seconds"), 1u);
  EXPECT_DOUBLE_EQ(rec.samples().at("trial.recovery_seconds").mean(), 6.0);
  const std::string summary = rec.metrics_summary();
  EXPECT_NE(summary.find("fd.reports"), std::string::npos);
  EXPECT_NE(summary.find("trial.recovery_seconds"), std::string::npos);
}

TEST(TraceRecorder, RunIndexStampsSubsequentEvents) {
  TraceRecorder rec;
  rec.instant(1.0, "fault", "a", "t");
  rec.next_run();
  rec.instant(1.0, "fault", "b", "t");
  EXPECT_EQ(rec.events()[0].run, 0u);
  EXPECT_EQ(rec.events()[1].run, 1u);
}

// --- Chunked EventBuffer (ISSUE 10) ---------------------------------------
// Events are stored in fixed-capacity chunks (no re-moves on growth, merge
// by chunk splice). These pin the behavior right at the chunk seams.

TEST(EventBuffer, IndexingAndIterationCrossChunkBoundaries) {
  EventBuffer buffer;
  const std::size_t total = EventBuffer::kChunkCapacity * 2 + 7;
  for (std::size_t i = 0; i < total; ++i) {
    TraceEvent event;
    event.t = static_cast<double>(i);
    event.name = "e" + std::to_string(i);
    buffer.push_back(std::move(event));
  }
  ASSERT_EQ(buffer.size(), total);
  // Random access at the seams.
  for (std::size_t i : {std::size_t{0}, EventBuffer::kChunkCapacity - 1,
                        EventBuffer::kChunkCapacity,
                        2 * EventBuffer::kChunkCapacity, total - 1}) {
    EXPECT_EQ(buffer[i].name, "e" + std::to_string(i)) << i;
  }
  // Full iteration visits every event in emission order.
  std::size_t index = 0;
  for (const TraceEvent& event : buffer) {
    ASSERT_EQ(event.t, static_cast<double>(index));
    ++index;
  }
  EXPECT_EQ(index, total);
  EXPECT_EQ(buffer.to_vector().size(), total);
}

TEST(EventBuffer, SpliceMovesEverythingAndEmptiesTheSource) {
  EventBuffer a;
  EventBuffer b;
  const std::size_t per_side = EventBuffer::kChunkCapacity + 3;
  for (std::size_t i = 0; i < per_side; ++i) {
    TraceEvent ea;
    ea.t = static_cast<double>(i);
    a.push_back(std::move(ea));
    TraceEvent eb;
    eb.t = 1000.0 + static_cast<double>(i);
    b.push_back(std::move(eb));
  }
  a.splice_from(std::move(b));
  EXPECT_EQ(a.size(), 2 * per_side);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_EQ(a[per_side].t, 1000.0);          // first spliced event
  EXPECT_EQ(a[2 * per_side - 1].t, 1000.0 + per_side - 1);
}

TEST(TraceRecorder, DestructiveMergeMatchesCopyingMergeByteForByte) {
  const auto fill = [](TraceRecorder& rec) {
    rec.next_run();
    const std::uint64_t span = rec.begin(1.0, "recover", "rec.restart", "rec",
                                         {{"component", "ses"}});
    rec.instant(1.5, "detect", "fd.report", "fd");
    rec.end(2.0, span);
    rec.incr("restarts");
    rec.observe("recovery_s", 1.0);
  };
  TraceRecorder copied;
  TraceRecorder spliced;
  for (int trial = 0; trial < 3; ++trial) {
    TraceRecorder a;
    fill(a);
    copied.merge_from(a);  // per-event copying merge
    TraceRecorder b;
    fill(b);
    spliced.merge_from(std::move(b));  // chunk-splice merge
  }
  std::ostringstream copied_out;
  copied.write_jsonl(copied_out);
  std::ostringstream spliced_out;
  spliced.write_jsonl(spliced_out);
  EXPECT_EQ(copied_out.str(), spliced_out.str());
  EXPECT_EQ(copied.run(), spliced.run());
  EXPECT_EQ(copied.count("restarts"), spliced.count("restarts"));
}

TEST(TraceExport, JsonlRoundTripReproducesEvents) {
  TraceRecorder rec;
  rec.instant(0.25, "fault", "fault.manifest", "board",
              {{"manifest", "ses"}, {"kind", "crash"}});
  const auto span = rec.begin(1.0, "recover", "rec.restart", "rec",
                              {{"cell", "R_[ses,str]"}, {"escalation", "0"}});
  rec.next_run();
  rec.instant(1.5, "detect", "fd.report", "fd", {{"component", "str"}});
  rec.end(2.0, span, {{"outcome", "cured"}});
  // Values that stress the escaping and number formatting.
  rec.instant(3.0000001, "sim", "weird \"quotes\"\n\ttabs \\ backslash", "sim",
              {{"k", "vé"}});

  std::ostringstream out;
  rec.write_jsonl(out);
  std::istringstream in(out.str());
  const std::vector<TraceEvent> back = read_jsonl(in);

  ASSERT_EQ(back.size(), rec.events().size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const TraceEvent& a = rec.events()[i];
    const TraceEvent& b = back[i];
    EXPECT_DOUBLE_EQ(a.t, b.t) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.category, b.category) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.track, b.track) << i;
    EXPECT_EQ(a.span, b.span) << i;
    EXPECT_EQ(a.run, b.run) << i;
    ASSERT_EQ(a.args.size(), b.args.size()) << i;
    for (std::size_t j = 0; j < a.args.size(); ++j) {
      EXPECT_EQ(a.args[j].key, b.args[j].key);
      EXPECT_EQ(a.args[j].value, b.args[j].value);
    }
  }
}

TEST(TraceExport, ReadJsonlSkipsMalformedLines) {
  std::istringstream in(
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"a\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "not json at all\n"
      // "C" (a counter sample) is not a phase the schema defines.
      "{\"t\":1.5,\"ph\":\"C\",\"cat\":\"metric\",\"name\":\"active\","
      "\"track\":\"board\",\"span\":0,\"run\":0,\"args\":{\"value\":\"3\"}}\n"
      "{\"t\":2,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"b\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n");
  const auto events = read_jsonl(in);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

TEST(TraceExport, ReadJsonlSurvivesMalformedNumbersAndEscapes) {
  // Regression (ISSUE 3 satellite): these lines used to reach std::stod /
  // std::stoull and throw out of read_jsonl. Each must now simply be
  // skipped, with the surrounding good lines kept.
  const std::string good_a =
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"a\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n";
  const std::string good_b =
      "{\"t\":2,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"b\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n";
  std::istringstream in(
      good_a +
      // Timestamps that are sign/point/exponent tokens but not numbers.
      "{\"t\":-,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":.,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":1e,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      // Overflowing double exponent (stod would throw out_of_range).
      "{\"t\":1e999,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      // 24-digit span / run overflow 64 bits (stoull would throw).
      "{\"t\":1,\"ph\":\"b\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":999999999999999999999999,\"run\":0,\"args\":{}}\n"
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":999999999999999999999999,\"args\":{}}\n"
      // Negative span: not a digit sequence for an unsigned field.
      "{\"t\":1,\"ph\":\"b\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":-1,\"run\":0,\"args\":{}}\n"
      // Broken \u escapes: non-hex digits, and a truncated one at
      // end-of-string (used to read past the escape).
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"bad\\uZZZZesc\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"trunc\\u00\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n" +
      good_b);
  const auto events = read_jsonl(in);  // must not throw
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

TEST(TraceExport, ReadJsonlSurvivesSeededFuzz) {
  // Deterministic fuzz: random byte mutations of a valid line, plus raw
  // printable garbage. read_jsonl must never throw (the checked number /
  // escape parsing) or over-read (the sanitizer CI job watches that);
  // mutated lines are either parsed or skipped.
  util::Rng rng(20260806);
  const std::string valid =
      "{\"t\":1.5,\"ph\":\"b\",\"cat\":\"recover\",\"name\":\"rec.restart\","
      "\"track\":\"rec\",\"span\":42,\"run\":3,\"args\":{\"cell\":\"R_x\","
      "\"esc\\u0061lation\":\"0\"}}";
  for (int round = 0; round < 400; ++round) {
    std::string line = valid;
    const int mutations = static_cast<int>(rng.uniform_int(1, 6));
    for (int m = 0; m < mutations && !line.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:  // flip a byte to random printable
          line[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:  // delete a byte (truncation mid-token, mid-escape, ...)
          line.erase(pos, 1);
          break;
        default:  // duplicate a byte
          line.insert(pos, 1, line[pos]);
          break;
      }
    }
    std::istringstream in(line + "\n");
    const auto events = read_jsonl(in);  // must not throw
    EXPECT_LE(events.size(), 1u);
  }
  // Pure garbage lines too.
  for (int round = 0; round < 100; ++round) {
    std::string line;
    const auto length = rng.uniform_int(0, 120);
    for (std::int64_t i = 0; i < length; ++i) {
      line.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    }
    std::istringstream in(line + "\n");
    EXPECT_LE(read_jsonl(in).size(), 1u);  // must not throw
  }
}

TEST(TraceExport, ReadJsonlDecodesValidUnicodeEscapes) {
  // The checked \u parser still has to accept real escapes, including
  // multi-byte code points, and encode them as UTF-8.
  std::istringstream in(
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"caf\\u00e9 \\u2713\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n");
  const auto events = read_jsonl(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "café \u2713");
}

TEST(TraceExport, ChromeTraceIsWellFormed) {
  TraceRecorder rec;
  const auto span = rec.begin(1.0, "recover", "rec.restart", "rec");
  rec.end(2.0, span);
  rec.instant(2.5, "fault", "fault.cured", "board",
              {{"manifest", "ses"}, {"note", "say \"cured\""}});

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  // Args are written as an escaped string-valued object.
  EXPECT_NE(text.find(R"("args":{"manifest":"ses","note":"say \"cured\""})"),
            std::string::npos);
  // Track naming metadata for the viewers.
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  // Timestamps are microseconds: t=1.0 s -> 1000000.
  EXPECT_NE(text.find("\"ts\":1000000"), std::string::npos);
  // Balanced braces/brackets is a cheap proxy for "parses".
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

TEST(TraceGlobals, FreeFunctionsNoOpWithoutRecorder) {
  ASSERT_EQ(recorder(), nullptr);
  // Must not crash or leak state.
  instant(TimePoint::from_seconds(1.0), "fault", "x", "t");
  const auto span = begin_span(TimePoint::from_seconds(1.0), "recover", "x", "t");
  EXPECT_EQ(span, 0u);
  end_span(TimePoint::from_seconds(2.0), span);
  incr("nothing");
  observe("nothing", 1.0);
  next_run();
}

TEST(TraceGlobals, ScopedRecorderInstallsAndRestores) {
  ASSERT_EQ(recorder(), nullptr);
  TraceRecorder rec;
  {
    ScopedRecorder scoped(rec);
    EXPECT_EQ(recorder(), &rec);
    instant(TimePoint::from_seconds(1.0), "fault", "x", "t");
  }
  EXPECT_EQ(recorder(), nullptr);
  EXPECT_EQ(rec.events().size(), 1u);
}

TEST(TraceGlobals, TransformationsEmitTreeEvents) {
  TraceRecorder rec;
  ScopedRecorder scoped(rec);
  auto tree = core::make_tree_i();
  const auto augmented = core::depth_augment(tree, tree.root());
  ASSERT_TRUE(augmented.ok());
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].name, "tree.transform");
  EXPECT_EQ(rec.events()[0].arg_or("op"), "depth_augment");
  EXPECT_EQ(rec.count("tree.transforms"), 1u);
}

// --- Phase decomposition on a real crash -> recovery ----------------------

class TracedTrial : public ::testing::Test {
 protected:
  station::TrialResult run(const std::string& component,
                           core::MercuryTree tree) {
    station::TrialSpec spec;
    spec.tree = tree;
    spec.oracle = station::OracleKind::kHeuristic;
    spec.fail_component = component;
    spec.seed = 11;
    ScopedRecorder scoped(rec_);
    return station::run_trial(spec);
  }

  TraceRecorder rec_;
};

TEST_F(TracedTrial, CrashProducesThePipelineEventSequence) {
  run(core::component_names::kSes, core::MercuryTree::kTreeIV);

  // Index of the first event with this name; the pipeline stages must appear
  // in causal order.
  const auto index_of = [&](const std::string& name, EventKind kind) {
    const auto& events = rec_.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].name == name && events[i].kind == kind) return i;
    }
    ADD_FAILURE() << "missing event " << name;
    return events.size();
  };

  const auto fault = index_of("fault.manifest", EventKind::kInstant);
  const auto suspect = index_of("fd.suspect", EventKind::kInstant);
  const auto report = index_of("fd.report", EventKind::kInstant);
  const auto choice = index_of("oracle.choice", EventKind::kInstant);
  const auto action_begin = index_of("rec.restart", EventKind::kBegin);
  const auto restart_begin = index_of("restart:ses", EventKind::kBegin);
  const auto restart_end = index_of("restart:ses", EventKind::kEnd);
  const auto action_end = index_of("rec.restart", EventKind::kEnd);
  const auto cured = index_of("fault.cured", EventKind::kInstant);

  EXPECT_LT(fault, suspect);
  EXPECT_LT(suspect, report);
  EXPECT_LT(report, choice);
  EXPECT_LT(choice, action_begin);
  EXPECT_LT(action_begin, restart_begin);
  EXPECT_LT(restart_begin, restart_end);
  EXPECT_LT(restart_end, action_end);
  EXPECT_LT(restart_end, cured);

  EXPECT_GE(rec_.count("faults.injected"), 1u);
  EXPECT_GE(rec_.count("faults.cured"), 1u);
  EXPECT_GE(rec_.count("fd.reports"), 1u);
  EXPECT_GE(rec_.count("oracle.choices"), 1u);
  EXPECT_GE(rec_.count("rec.restarts"), 1u);
}

TEST_F(TracedTrial, PhasesTileTheMeasuredRecoveryTime) {
  const auto result = run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  ASSERT_FALSE(result.timed_out);
  ASSERT_FALSE(result.hard_failure);

  const auto rows = recovery_phases(rec_.events());
  ASSERT_EQ(rows.size(), 1u);
  const RecoveryPhases& row = rows[0];
  EXPECT_EQ(row.component, "ses");
  EXPECT_TRUE(row.has_fault);
  EXPECT_FALSE(row.soft);
  EXPECT_EQ(row.escalation_level, 0);
  EXPECT_GT(row.detection(), 0.0);
  EXPECT_GT(row.decision(), 0.0);
  EXPECT_GT(row.execution(), 0.0);

  // The three phases tile fault -> cure, so they sum to end_to_end exactly.
  EXPECT_NEAR(row.detection() + row.decision() + row.execution(),
              row.end_to_end(), 1e-12);

  // And the trace-derived end-to-end matches the harness's measurement
  // (well inside the 1% acceptance tolerance).
  const double measured = result.recovery.to_seconds();
  EXPECT_NEAR(row.end_to_end(), measured, 0.01 * measured);
}

TEST_F(TracedTrial, PhaseTableSummarizesComponents) {
  run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  const std::string table = phase_table(recovery_phases(rec_.events()));
  EXPECT_NE(table.find("ses"), std::string::npos);
  EXPECT_NE(table.find("(all)"), std::string::npos);
}

TEST_F(TracedTrial, JsonlRoundTripPreservesPhases) {
  const auto result = run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  std::ostringstream out;
  rec_.write_jsonl(out);
  std::istringstream in(out.str());
  const auto rows = recovery_phases(read_jsonl(in));
  ASSERT_EQ(rows.size(), 1u);
  const double measured = result.recovery.to_seconds();
  EXPECT_NEAR(rows[0].end_to_end(), measured, 0.01 * measured);
}

}  // namespace
}  // namespace mercury::obs
