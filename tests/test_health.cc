// Unit + integration tests: §7 health beacons, the monitor's proactive
// rejuvenation, and the §5.2 downlink session accounting.
#include <gtest/gtest.h>

#include "core/health.h"
#include "core/health_monitor.h"
#include "core/mercury_trees.h"
#include "sim/simulator.h"
#include "station/downlink.h"
#include "station/experiment.h"
#include "station/health_reporter.h"
#include "util/log.h"

namespace mercury {
namespace {

namespace names = core::component_names;
using util::Duration;
using util::TimePoint;

// --- Beacon codec ---------------------------------------------------------------

TEST(HealthBeacon, EncodeDecodeRoundTrip) {
  core::HealthBeacon beacon;
  beacon.component = "fedr";
  beacon.seq = 12;
  beacon.uptime_s = 345.5;
  beacon.memory_mb = 210.25;
  beacon.queue_depth = 7.0;
  beacon.internal_latency_ms = 3.5;
  beacon.connectivity_ok = false;
  beacon.consistency_ok = true;
  beacon.warnings = {"memory above warn level", "slow replies"};
  beacon.hard_failure_suspected = true;

  const msg::Message wire = core::encode_beacon(beacon, "hm");
  EXPECT_EQ(wire.kind, msg::Kind::kTelemetry);
  EXPECT_EQ(wire.to, "hm");
  auto decoded = core::decode_beacon(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(decoded.value(), beacon);
}

TEST(HealthBeacon, DecodeRejectsNonBeacons) {
  EXPECT_FALSE(core::decode_beacon(msg::make_ping("fd", "ses", 1)).ok());
  msg::Message telemetry;
  telemetry.kind = msg::Kind::kTelemetry;
  telemetry.from = "x";
  telemetry.to = "hm";
  telemetry.verb = "health";
  EXPECT_FALSE(core::decode_beacon(telemetry).ok());  // missing fields
}

// --- HealthMonitor ----------------------------------------------------------------

class HealthMonitorTest : public ::testing::Test {
 protected:
  HealthMonitorTest()
      : sim_(3), bus_(sim_, bus::BusConfig{}) {}

  core::HealthMonitor& make_monitor(core::HealthPolicy policy = {}) {
    monitor_ = std::make_unique<core::HealthMonitor>(sim_, bus_, "hm", policy);
    monitor_->set_rejuvenator([this](const std::string& component) {
      rejuvenated_.push_back(component);
      return accept_rejuvenation_;
    });
    monitor_->start();
    return *monitor_;
  }

  void send_beacon(const core::HealthBeacon& beacon) {
    bus_.send(core::encode_beacon(beacon, "hm"));
    sim_.run_for(Duration::millis(20.0));
  }

  core::HealthBeacon healthy(const std::string& component) {
    core::HealthBeacon beacon;
    beacon.component = component;
    beacon.seq = ++seq_;
    beacon.memory_mb = 60.0;
    beacon.uptime_s = 10.0;
    return beacon;
  }

  sim::Simulator sim_;
  bus::MessageBus bus_;
  std::unique_ptr<core::HealthMonitor> monitor_;
  std::vector<std::string> rejuvenated_;
  bool accept_rejuvenation_ = true;
  std::uint64_t seq_ = 0;
};

TEST_F(HealthMonitorTest, HealthyBeaconsCauseNoAction) {
  auto& monitor = make_monitor();
  for (int i = 0; i < 10; ++i) send_beacon(healthy("fedr"));
  EXPECT_EQ(monitor.beacons_received(), 10u);
  EXPECT_TRUE(rejuvenated_.empty());
  ASSERT_TRUE(monitor.latest("fedr").has_value());
  EXPECT_EQ(monitor.latest("fedr")->seq, 10u);
}

TEST_F(HealthMonitorTest, MemoryOverLimitTriggersRejuvenation) {
  auto& monitor = make_monitor();
  core::HealthBeacon beacon = healthy("fedr");
  beacon.memory_mb = 300.0;
  send_beacon(beacon);
  ASSERT_EQ(rejuvenated_, std::vector<std::string>{"fedr"});
  EXPECT_EQ(monitor.rejuvenations_requested(), 1u);
}

TEST_F(HealthMonitorTest, MinSpacingSuppressesRepeats) {
  make_monitor();
  core::HealthBeacon beacon = healthy("fedr");
  beacon.memory_mb = 300.0;
  send_beacon(beacon);
  beacon.seq = ++seq_;
  send_beacon(beacon);  // still over limit, but within min spacing
  EXPECT_EQ(rejuvenated_.size(), 1u);
  sim_.run_for(Duration::minutes(6.0));
  beacon.seq = ++seq_;
  send_beacon(beacon);
  EXPECT_EQ(rejuvenated_.size(), 2u);
}

TEST_F(HealthMonitorTest, ConsecutiveWarningsTrigger) {
  core::HealthPolicy policy;
  policy.warning_beacons_before_action = 3;
  make_monitor(policy);
  core::HealthBeacon beacon = healthy("rtu");
  beacon.warnings = {"suspect behavior"};
  send_beacon(beacon);
  beacon.seq = ++seq_;
  send_beacon(beacon);
  EXPECT_TRUE(rejuvenated_.empty());  // two warnings: not yet
  beacon.seq = ++seq_;
  send_beacon(beacon);
  EXPECT_EQ(rejuvenated_, std::vector<std::string>{"rtu"});
}

TEST_F(HealthMonitorTest, WarningStreakResetsOnCleanBeacon) {
  core::HealthPolicy policy;
  policy.warning_beacons_before_action = 2;
  make_monitor(policy);
  core::HealthBeacon warning = healthy("rtu");
  warning.warnings = {"w"};
  send_beacon(warning);
  send_beacon(healthy("rtu"));  // resets the streak
  warning.seq = ++seq_;
  send_beacon(warning);
  EXPECT_TRUE(rejuvenated_.empty());
}

TEST_F(HealthMonitorTest, FailedSelfCheckActsImmediately) {
  make_monitor();
  core::HealthBeacon beacon = healthy("ses");
  beacon.consistency_ok = false;
  send_beacon(beacon);
  EXPECT_EQ(rejuvenated_, std::vector<std::string>{"ses"});
}

TEST_F(HealthMonitorTest, QueueDepthOverLimitTriggersRejuvenation) {
  // The rejuvenation reason only reaches the log; capture the monitor's
  // lines for the duration of the test.
  util::Logger& logger = util::Logger::instance();
  const util::LogLevel saved_level = logger.level();
  std::vector<std::string> lines;
  logger.set_level(util::LogLevel::kInfo);
  logger.set_sink([&](util::LogLevel, util::TimePoint, std::string_view component,
                      std::string_view message) {
    if (component == "hm") lines.emplace_back(message);
  });

  make_monitor();
  core::HealthBeacon beacon = healthy("str");
  beacon.queue_depth = 1500.0;  // limit is 1000
  send_beacon(beacon);
  logger.set_sink(nullptr);
  logger.set_level(saved_level);

  EXPECT_EQ(rejuvenated_, std::vector<std::string>{"str"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("queue depth 1500"), std::string::npos) << lines[0];
}

TEST_F(HealthMonitorTest, MaintenanceWindowDefersUntilOpen) {
  auto& monitor = make_monitor();
  bool window_open = false;
  monitor.set_maintenance_window([&] { return window_open; });

  core::HealthBeacon beacon = healthy("fedr");
  beacon.memory_mb = 300.0;
  send_beacon(beacon);
  EXPECT_TRUE(rejuvenated_.empty());
  EXPECT_EQ(monitor.rejuvenations_deferred(), 1u);

  window_open = true;
  sim_.run_for(Duration::seconds(15.0));  // retry tick drains the deferral
  EXPECT_EQ(rejuvenated_, std::vector<std::string>{"fedr"});
}

TEST_F(HealthMonitorTest, DeclinedRejuvenationIsRetried) {
  make_monitor();
  accept_rejuvenation_ = false;  // recoverer busy
  core::HealthBeacon beacon = healthy("fedr");
  beacon.memory_mb = 300.0;
  send_beacon(beacon);
  EXPECT_EQ(rejuvenated_.size(), 1u);  // asked once, declined
  accept_rejuvenation_ = true;
  sim_.run_for(Duration::seconds(15.0));
  EXPECT_EQ(rejuvenated_.size(), 2u);  // retried and accepted
}

TEST_F(HealthMonitorTest, HardFailureGoesToOperatorNotRejuvenation) {
  auto& monitor = make_monitor();
  std::vector<std::string> operator_alerts;
  monitor.set_hard_failure_handler(
      [&](const std::string& component) { operator_alerts.push_back(component); });
  core::HealthBeacon beacon = healthy("pbcom");
  beacon.hard_failure_suspected = true;
  beacon.memory_mb = 999.0;  // degradation must NOT shadow the hard report
  send_beacon(beacon);
  EXPECT_EQ(operator_alerts, std::vector<std::string>{"pbcom"});
  EXPECT_TRUE(rejuvenated_.empty());
  EXPECT_EQ(monitor.hard_failure_reports().size(), 1u);
  // Reported once, not per beacon.
  beacon.seq = ++seq_;
  send_beacon(beacon);
  EXPECT_EQ(operator_alerts.size(), 1u);
}

// --- Reporter + monitor + recoverer, end to end ------------------------------------

TEST(HealthIntegration, LeakyComponentGetsRejuvenatedBeforeFailing) {
  sim::Simulator sim(11);
  station::TrialSpec spec;
  spec.tree = core::MercuryTree::kTreeIV;
  spec.oracle = station::OracleKind::kHeuristic;
  station::MercuryRig rig(sim, spec);
  rig.start();

  station::StationHealthReporter reporter(rig.station(), "hm");
  // fedr leaks 8 MB/min; with a 40 MB headroom over the ~48 MB base it
  // crosses the 88 MB limit after ~5 minutes of uptime.
  core::HealthPolicy policy;
  policy.memory_limit_mb = 88.0;
  core::HealthMonitor monitor(sim, rig.station().bus(), "hm", policy);
  monitor.set_rejuvenator([&](const std::string& component) {
    return rig.rec().planned_restart(component);
  });
  rig.station().add_bus_restart_listener([&] { monitor.reattach(); });
  reporter.start();
  monitor.start();

  sim.run_for(Duration::minutes(30.0));

  // fedr got rejuvenated repeatedly (~every 5 minutes + restart time).
  EXPECT_GE(rig.rec().planned_restarts(), 4u);
  EXPECT_LE(rig.rec().planned_restarts(), 8u);
  int planned_fedr = 0;
  for (const auto& record : rig.rec().history()) {
    if (record.planned) {
      EXPECT_EQ(record.reported_component, names::kFedr);
      ++planned_fedr;
    }
  }
  EXPECT_GE(planned_fedr, 4);
  // The memory model actually resets on restart.
  EXPECT_LT(reporter.current_memory_mb(names::kFedr), 88.0 + 10.0);
  // And the station is healthy throughout.
  EXPECT_TRUE(rig.station().all_functional());
  EXPECT_TRUE(rig.rec().hard_failures().empty());
}

TEST(HealthIntegration, CrashedComponentStopsBeaconing) {
  sim::Simulator sim(12);
  station::TrialSpec spec;
  spec.tree = core::MercuryTree::kTreeIV;
  station::MercuryRig rig(sim, spec);
  rig.station().boot_instant();  // no FD/REC: nothing repairs the crash

  station::StationHealthReporter reporter(rig.station(), "hm");
  core::HealthMonitor monitor(sim, rig.station().bus(), "hm",
                              core::HealthPolicy{});
  reporter.start();
  monitor.start();

  sim.run_for(Duration::seconds(12.0));
  const auto before = monitor.latest(names::kRtu);
  ASSERT_TRUE(before.has_value());

  rig.station().inject_crash(names::kRtu);
  sim.run_for(Duration::seconds(20.0));
  // No beacons since the crash: seq frozen within one period of the crash.
  EXPECT_LE(monitor.latest(names::kRtu)->seq, before->seq + 1);
}

// --- Downlink session (§5.2 unit-level) -----------------------------------------

TEST(Downlink, CleanPassCapturesEverything) {
  sim::Simulator sim(13);
  station::StationConfig config;
  config.enable_domain_behavior = false;
  station::Station station(sim, config);
  station.boot_instant();

  orbit::Pass pass;
  pass.aos = sim.now() + Duration::seconds(10.0);
  pass.los = pass.aos + Duration::minutes(8.0);
  station::DownlinkSession session(station, pass);
  session.start();
  sim.run_until(pass.los + Duration::seconds(1.0));

  EXPECT_TRUE(session.finished());
  EXPECT_FALSE(session.report().link_broken);
  EXPECT_NEAR(session.report().capture_fraction(), 1.0, 1e-9);
  EXPECT_NEAR(session.report().offered_bits, 38'400.0 * 480.0,
              38'400.0 * 2.0);
}

TEST(Downlink, ShortOutagePausesStream) {
  sim::Simulator sim(14);
  station::StationConfig config;
  station::Station station(sim, config);
  station.boot_instant();

  orbit::Pass pass;
  pass.aos = sim.now();
  pass.los = pass.aos + Duration::minutes(8.0);
  station::DownlinkSession session(station, pass);
  session.start();

  sim.run_for(Duration::minutes(2.0));
  const auto failure = station.inject_crash(names::kRtu);
  sim.run_for(Duration::seconds(6.0));
  station.board().clear(failure);  // manual cure after 6 s
  sim.run_until(pass.los + Duration::seconds(1.0));

  const auto& report = session.report();
  EXPECT_FALSE(report.link_broken);
  EXPECT_NEAR(report.outage.to_seconds(), 6.0, 0.5);
  EXPECT_NEAR(report.capture_fraction(), 1.0 - 6.0 / 480.0, 0.01);
}

TEST(Downlink, LongOutageBreaksLink) {
  sim::Simulator sim(15);
  station::StationConfig config;
  station::Station station(sim, config);
  station.boot_instant();

  orbit::Pass pass;
  pass.aos = sim.now();
  pass.los = pass.aos + Duration::minutes(8.0);
  station::DownlinkSession session(station, pass);
  session.start();

  sim.run_for(Duration::minutes(2.0));
  const auto failure = station.inject_crash(names::kStr);
  sim.run_for(Duration::seconds(20.0));  // > 15 s threshold
  station.board().clear(failure);
  sim.run_until(pass.los + Duration::seconds(1.0));

  const auto& report = session.report();
  EXPECT_TRUE(report.link_broken);
  // Everything after the break is lost: capture ~= 2 min / 8 min.
  EXPECT_NEAR(report.capture_fraction(), 0.25, 0.02);
}

}  // namespace
}  // namespace mercury
