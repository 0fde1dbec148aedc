// Unit tests: mbus and the dedicated FD<->REC link.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bus/dedicated_link.h"
#include "bus/message_bus.h"
#include "core/mercury_trees.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "station/experiment.h"
#include "util/log.h"
#include "util/rng.h"

namespace mercury::bus {
namespace {

using util::Duration;

class BusTest : public ::testing::Test {
 protected:
  BusTest() : sim_(1), bus_(sim_, BusConfig{}) {}

  /// Attach an endpoint that records received messages.
  std::vector<msg::Message>* record(const std::string& name) {
    auto* inbox = &inboxes_[name];
    bus_.attach(name, [inbox](const msg::Message& m) { inbox->push_back(m); });
    return inbox;
  }

  sim::Simulator sim_;
  MessageBus bus_;
  std::map<std::string, std::vector<msg::Message>> inboxes_;
};

TEST_F(BusTest, DeliversPointToPoint) {
  auto* inbox = record("ses");
  record("str");
  bus_.send(msg::make_ping("fd", "ses", 1));
  sim_.run_for(Duration::seconds(1.0));
  ASSERT_EQ(inbox->size(), 1u);
  EXPECT_EQ((*inbox)[0].kind, msg::Kind::kPing);
  EXPECT_EQ((*inbox)[0].seq, 1u);
  EXPECT_TRUE(inboxes_["str"].empty());
  EXPECT_EQ(bus_.stats().delivered, 1u);
}

TEST_F(BusTest, DeliveryHasLatency) {
  auto* inbox = record("ses");
  bus_.send(msg::make_ping("fd", "ses", 1));
  EXPECT_TRUE(inbox->empty());  // not synchronous
  sim_.run_for(Duration::millis(1.0));
  EXPECT_TRUE(inbox->empty());  // below minimum latency
  sim_.run_for(Duration::millis(10.0));
  EXPECT_EQ(inbox->size(), 1u);
}

TEST_F(BusTest, BroadcastSkipsSender) {
  auto* a = record("a");
  auto* b = record("b");
  auto* c = record("c");
  bus_.send(msg::make_event("a", 1, "ephemeris"));
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(a->empty());
  EXPECT_EQ(b->size(), 1u);
  EXPECT_EQ(c->size(), 1u);
}

TEST_F(BusTest, UnknownDestinationCountsAsDrop) {
  bus_.send(msg::make_ping("fd", "ghost", 1));
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_EQ(bus_.stats().dropped_no_endpoint, 1u);
  EXPECT_EQ(bus_.stats().delivered, 0u);
}

TEST_F(BusTest, CrashDropsInFlightAndSubsequent) {
  auto* inbox = record("ses");
  bus_.send(msg::make_ping("fd", "ses", 1));  // in flight
  bus_.crash();
  bus_.send(msg::make_ping("fd", "ses", 2));  // while down
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(inbox->empty());
  EXPECT_EQ(bus_.stats().dropped_bus_down, 2u);
}

TEST_F(BusTest, RestartRequiresReattach) {
  auto* inbox = record("ses");
  bus_.crash();
  bus_.restart();
  // Endpoint was lost in the crash; message drops until re-attach.
  bus_.send(msg::make_ping("fd", "ses", 1));
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(inbox->empty());

  record("ses");
  bus_.send(msg::make_ping("fd", "ses", 2));
  sim_.run_for(Duration::seconds(1.0));
  ASSERT_EQ(inbox->size(), 1u);
  EXPECT_EQ((*inbox)[0].seq, 2u);
}

TEST_F(BusTest, InFlightFromOldEpochVoidedEvenAfterRestart) {
  auto* inbox = record("ses");
  bus_.send(msg::make_ping("fd", "ses", 1));
  bus_.crash();
  bus_.restart();
  record("ses");
  sim_.run_for(Duration::seconds(1.0));
  // The pre-crash message must not be resurrected by the fast restart.
  EXPECT_TRUE(inbox->empty());
}

TEST_F(BusTest, ReattachReplacesReceiver) {
  std::vector<int> first;
  std::vector<int> second;
  bus_.attach("x", [&](const msg::Message&) { first.push_back(1); });
  bus_.attach("x", [&](const msg::Message&) { second.push_back(1); });
  bus_.send(msg::make_ping("fd", "x", 1));
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(first.empty());
  EXPECT_EQ(second.size(), 1u);
}

TEST_F(BusTest, DetachStopsDelivery) {
  auto* inbox = record("ses");
  bus_.detach("ses");
  EXPECT_FALSE(bus_.attached("ses"));
  bus_.send(msg::make_ping("fd", "ses", 1));
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(inbox->empty());
  EXPECT_EQ(bus_.stats().dropped_no_endpoint, 1u);
}

TEST_F(BusTest, OversizeMessagesDrop) {
  auto* inbox = record("ses");
  msg::Message big = msg::make_command("fd", "ses", 1, "blob");
  big.body.set_text(std::string(200 * 1024, 'x'));
  bus_.send(big);
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(inbox->empty());
  EXPECT_EQ(bus_.stats().dropped_oversize, 1u);
}

TEST_F(BusTest, OversizeBoundaryIsExactly64KiBOfEncodedBytes) {
  // The limit applies to the bytes msg::encode would write: a message that
  // encodes to exactly 64 KiB is delivered, one byte more is dropped.
  constexpr std::size_t kLimit = 64 * 1024;
  auto* inbox = record("ses");
  msg::Message at_limit = msg::make_command("fd", "ses", 1, "blob");
  at_limit.body.set_text("x");
  const std::size_t overhead = msg::encode(at_limit).size() - 1;
  at_limit.body.set_text(std::string(kLimit - overhead, 'x'));
  ASSERT_EQ(msg::encode(at_limit).size(), kLimit);
  msg::Message over = at_limit;
  over.body.set_text(at_limit.body.text() + "x");
  ASSERT_EQ(msg::encode(over).size(), kLimit + 1);

  bus_.send(at_limit);
  bus_.send(over);
  sim_.run_for(Duration::seconds(1.0));
  ASSERT_EQ(inbox->size(), 1u);
  EXPECT_EQ((*inbox)[0], at_limit);
  EXPECT_EQ(bus_.stats().dropped_oversize, 1u);
  EXPECT_EQ(bus_.stats().delivered, 1u);
}

TEST_F(BusTest, MessageWithoutEndpointIsDroppedAsUndecodable) {
  // The command language has no frame without `from` or `to`: such a
  // message is counted as a drop per target and logged as undecodable,
  // never delivered.
  auto* a = record("a");
  auto* b = record("b");
  util::Logger& logger = util::Logger::instance();
  const util::LogLevel saved_level = logger.level();
  std::vector<std::string> lines;
  logger.set_sink([&](util::LogLevel level, util::TimePoint,
                      std::string_view component, std::string_view message) {
    if (level == util::LogLevel::kError && component == "mbus") {
      lines.emplace_back(message);
    }
  });
  logger.set_level(util::LogLevel::kWarn);
  bus_.send(msg::make_ping("", "a", 1));          // no sender
  bus_.send(msg::make_ping("fd", "", 2));         // no target
  bus_.send(msg::make_event("", 3, "ephemeris"));  // anonymous broadcast
  sim_.run_for(Duration::seconds(1.0));
  logger.set_sink(nullptr);
  logger.set_level(saved_level);

  EXPECT_TRUE(a->empty());
  EXPECT_TRUE(b->empty());
  EXPECT_EQ(bus_.stats().sent, 3u);
  EXPECT_EQ(bus_.stats().delivered, 0u);
  // One per message, plus one per endpoint the broadcast would have reached.
  EXPECT_EQ(bus_.stats().dropped_no_endpoint, 4u);
  EXPECT_EQ(lines, (std::vector<std::string>{
                       "undecodable frame: <msg> missing 'from' attribute",
                       "undecodable frame: <msg> missing 'to' attribute",
                       "undecodable frame: <msg> missing 'from' attribute"}));
}

TEST_F(BusTest, EndpointNamesSorted) {
  record("zeta");
  record("alpha");
  const auto names = bus_.endpoint_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST_F(BusTest, StructuredPayloadsArriveIntact) {
  // Receivers get the sender's typed message: structured payloads arrive
  // exactly as sent.
  auto* inbox = record("str");
  msg::Message m = msg::make_event("ses", 9, "ephemeris");
  m.body.set_attr("el_deg", 45.5);
  bus_.send(m);
  sim_.run_for(Duration::seconds(1.0));
  ASSERT_EQ(inbox->size(), 1u);
  EXPECT_DOUBLE_EQ(*(*inbox)[0].body.attr_double("el_deg"), 45.5);
  EXPECT_EQ((*inbox)[0], m);
}

TEST(BusTracing, SimEventLabelsKeepTheirText) {
  // Labels are scheduled as a static category plus a target and joined only
  // when a trace reads them; the joined text is what trace readers (and the
  // kernel census) match on: mbus.deliver:<target>, fd.timeout:<name>,
  // fd.ping:<name>, <session>.timeout.
  station::TrialSpec spec;
  spec.tree = core::MercuryTree::kTreeIV;
  spec.oracle = station::OracleKind::kPerfect;
  spec.fail_component = "rtu";
  spec.seed = 5;
  spec.traffic.enabled = true;
  obs::TraceRecorder recorder;
  recorder.set_sim_events(true);
  {
    obs::ScopedRecorder scope(recorder);
    station::run_trial(spec);
  }
  std::set<std::string> labels;
  for (const auto& event : recorder.events()) {
    if (event.track == "sim" && event.category == "sim") {
      labels.insert(event.name);
    }
  }
  for (const std::string expected :
       {"mbus.deliver:ses", "mbus.deliver:fd", "mbus.deliver:cli.0",
        "fd.timeout:rtu", "fd.ping:ses", "cli.0.timeout", "cli.0.arrival",
        "restart.complete:rtu", "link.deliver"}) {
    EXPECT_TRUE(labels.contains(expected)) << expected;
  }
}

// --- Typed mid-restart errors (ISSUE 9) --------------------------------------

TEST(BusRestarting, TypedNackCarriesComponentAndEpoch) {
  sim::Simulator sim(3);
  BusConfig config;
  config.typed_restart_errors = true;
  MessageBus bus(sim, config);
  std::vector<msg::Message> inbox;
  bus.attach("cli.0", [&](const msg::Message& m) { inbox.push_back(m); });
  // ses was killed at epoch 5 and has not re-attached: mid-restart.
  bus.note_restarting("ses", 5);
  EXPECT_TRUE(bus.restarting("ses"));

  bus.send(msg::make_ping("cli.0", "ses", 42));
  sim.run_for(Duration::seconds(1.0));
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].kind, msg::Kind::kNack);
  EXPECT_EQ(inbox[0].seq, 42u);  // matches the request for client correlation
  EXPECT_EQ(inbox[0].body.attr("reason").value_or(""), "restarting");
  EXPECT_EQ(inbox[0].body.attr("component").value_or(""), "ses");
  EXPECT_EQ(inbox[0].body.attr("epoch").value_or(""), "5");
  EXPECT_EQ(bus.stats().rejected_restarting, 1u);
}

TEST(BusRestarting, ReattachClearsRestartingAndResumesDelivery) {
  sim::Simulator sim(3);
  BusConfig config;
  config.typed_restart_errors = true;
  MessageBus bus(sim, config);
  std::vector<msg::Message> ses_inbox;
  bus.note_restarting("ses", 2);
  bus.attach("ses", [&](const msg::Message& m) { ses_inbox.push_back(m); });
  EXPECT_FALSE(bus.restarting("ses"));
  bus.send(msg::make_ping("fd", "ses", 1));
  sim.run_for(Duration::seconds(1.0));
  EXPECT_EQ(ses_inbox.size(), 1u);
  EXPECT_EQ(bus.stats().rejected_restarting, 0u);
}

TEST(BusRestarting, GateOffPreservesLegacySilentDropButStillTouches) {
  // Default config: no typed errors. A send into a mid-restart endpoint
  // drops exactly as before ISSUE 9 — but the touch listener still fires,
  // so traffic-driven recovery works on legacy configs too.
  sim::Simulator sim(3);
  MessageBus bus(sim, BusConfig{});
  std::vector<std::pair<std::string, std::string>> touches;
  bus.set_touch_listener([&](const std::string& to, const std::string& from) {
    touches.emplace_back(to, from);
  });
  std::vector<msg::Message> inbox;
  bus.attach("cli.0", [&](const msg::Message& m) { inbox.push_back(m); });
  bus.note_restarting("rtu", 1);

  bus.send(msg::make_ping("cli.0", "rtu", 7));
  sim.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(bus.stats().dropped_no_endpoint, 1u);
  EXPECT_EQ(bus.stats().rejected_restarting, 0u);
  ASSERT_EQ(touches.size(), 1u);
  EXPECT_EQ(touches[0].first, "rtu");
  EXPECT_EQ(touches[0].second, "cli.0");
}

TEST(BusRestarting, NeverNacksANackOrAnonymousSender) {
  // No error-on-error loops: a nack into a restarting endpoint, or a
  // message with no return address, drops without generating a reply.
  sim::Simulator sim(3);
  BusConfig config;
  config.typed_restart_errors = true;
  MessageBus bus(sim, config);
  bus.note_restarting("ses", 1);

  msg::Message command = msg::make_command("cli.0", "ses", 9, "track");
  msg::Message nack = msg::make_nack(command, "other", "busy");
  nack.to = "ses";
  bus.send(nack);
  msg::Message anonymous = msg::make_ping("", "ses", 10);
  bus.send(anonymous);
  sim.run_for(Duration::seconds(1.0));
  EXPECT_EQ(bus.stats().rejected_restarting, 0u);
  EXPECT_EQ(bus.stats().dropped_no_endpoint, 2u);
}

TEST(BusRestarting, UnmarkedMissingEndpointStaysSilentDrop) {
  // typed errors apply only to endpoints the process backend marked as
  // mid-restart; a plain unknown destination still just drops.
  sim::Simulator sim(3);
  BusConfig config;
  config.typed_restart_errors = true;
  MessageBus bus(sim, config);
  std::vector<msg::Message> inbox;
  bus.attach("cli.0", [&](const msg::Message& m) { inbox.push_back(m); });
  bus.send(msg::make_ping("cli.0", "ghost", 1));
  sim.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(bus.stats().dropped_no_endpoint, 1u);
}

TEST(BusLoss, LossyBusDropsApproximatelyTheConfiguredFraction) {
  sim::Simulator sim(5);
  BusConfig config;
  config.loss_probability = 0.1;
  MessageBus bus(sim, config);
  int received = 0;
  bus.attach("sink", [&](const msg::Message&) { ++received; });
  const int sent = 5'000;
  for (int i = 0; i < sent; ++i) {
    bus.send(msg::make_ping("src", "sink", static_cast<std::uint64_t>(i)));
  }
  sim.run_for(Duration::seconds(1.0));
  EXPECT_NEAR(received / static_cast<double>(sent), 0.9, 0.02);
  EXPECT_EQ(bus.stats().dropped_lossy + static_cast<std::uint64_t>(received),
            static_cast<std::uint64_t>(sent));
}

TEST(BusLoss, DefaultBusIsLossless) {
  sim::Simulator sim(6);
  MessageBus bus(sim, BusConfig{});
  int received = 0;
  bus.attach("sink", [&](const msg::Message&) { ++received; });
  for (int i = 0; i < 1'000; ++i) {
    bus.send(msg::make_ping("src", "sink", static_cast<std::uint64_t>(i)));
  }
  sim.run_for(Duration::seconds(1.0));
  EXPECT_EQ(received, 1'000);
  EXPECT_EQ(bus.stats().dropped_lossy, 0u);
}

// --- Flat-map routing -------------------------------------------------------
// Every delivery looks its target up in the endpoint table, a sorted flat
// map. These tests pin the delivery contract: a repeat send must never reach
// a detached endpoint or a replaced receiver, nor follow a slot whose index
// shifted under an insert, and routing agrees with a std::map model.

namespace routing {

BusConfig instant_config() {
  BusConfig config;
  config.latency = Duration::millis(0.0);
  config.latency_jitter = Duration::millis(0.0);
  return config;
}

TEST(BusRouting, StaleRouteCacheNeverDeliversToDetachedEndpoint) {
  sim::Simulator sim(1);
  MessageBus bus(sim, instant_config());
  int received = 0;
  bus.attach("a", [](const msg::Message&) {});
  bus.attach("b", [&received](const msg::Message&) { ++received; });
  bus.send(msg::make_ping("a", "b", 1));  // warms the a->b route
  sim.run_all();
  ASSERT_EQ(received, 1);

  bus.detach("b");
  bus.send(msg::make_ping("a", "b", 2));
  sim.run_all();
  EXPECT_EQ(received, 1);  // cached route invalidated, not re-used
  EXPECT_EQ(bus.stats().dropped_no_endpoint, 1u);
}

TEST(BusRouting, ReattachReplacesReceiverDespiteWarmCache) {
  sim::Simulator sim(1);
  MessageBus bus(sim, instant_config());
  int old_received = 0;
  int new_received = 0;
  bus.attach("b", [&old_received](const msg::Message&) { ++old_received; });
  bus.send(msg::make_ping("a", "b", 1));
  sim.run_all();
  ASSERT_EQ(old_received, 1);

  // A restarted component takes over its name: the warm route must resolve
  // to the replacement receiver, never the dead one.
  bus.attach("b", [&new_received](const msg::Message&) { ++new_received; });
  bus.send(msg::make_ping("a", "b", 2));
  sim.run_all();
  EXPECT_EQ(old_received, 1);
  EXPECT_EQ(new_received, 1);
}

TEST(BusRouting, WarmRouteSurvivesFlatMapSlotShifts) {
  sim::Simulator sim(1);
  MessageBus bus(sim, instant_config());
  int received = 0;
  bus.attach("mmm", [&received](const msg::Message&) { ++received; });
  bus.send(msg::make_ping("zzz", "mmm", 1));  // cache holds mmm's slot index
  sim.run_all();
  ASSERT_EQ(received, 1);

  // Inserting names that sort before "mmm" shifts its slot in the sorted
  // vector; a cached index from before the insert must not be trusted.
  bus.attach("aaa", [](const msg::Message&) {});
  bus.attach("bbb", [](const msg::Message&) {});
  bus.send(msg::make_ping("zzz", "mmm", 2));
  sim.run_all();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(bus.stats().delivered, 2u);
}

TEST(BusRouting, RandomizedDifferentialAgainstMapModel) {
  // Property fuzz: drive the bus with random attach/detach/send/crash/
  // restart ops and mirror every op in a trivial std::map model. Delivery
  // counts per endpoint and the drop counters must match the model exactly.
  sim::Simulator sim(7);
  MessageBus bus(sim, instant_config());
  util::Rng rng(99);

  const std::vector<std::string> pool = {"mbus", "ses",  "str", "rtu",
                                         "fedr", "pbcom", "fd",  "rec"};
  std::map<std::string, std::uint64_t> got;       // live deliveries observed
  std::map<std::string, std::uint64_t> expected;  // model's prediction
  std::set<std::string> model_attached;
  bool model_online = true;
  std::uint64_t exp_sent = 0, exp_delivered = 0;
  std::uint64_t exp_bus_down = 0, exp_no_endpoint = 0;

  const auto pick = [&]() -> const std::string& {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  for (int op = 0; op < 5'000; ++op) {
    const auto kind = rng.uniform_int(0, 19);
    if (kind < 3) {  // attach (or re-attach)
      const std::string& name = pick();
      auto* count = &got[name];
      bus.attach(name, [count](const msg::Message&) { ++*count; });
      model_attached.insert(name);
    } else if (kind < 5) {  // detach
      const std::string& name = pick();
      bus.detach(name);
      model_attached.erase(name);
    } else if (kind == 5) {
      bus.crash();  // clears the endpoint table while down
      if (model_online) {
        model_online = false;
        model_attached.clear();
      }
    } else if (kind == 6) {
      bus.restart();
      model_online = true;
    } else if (kind < 16) {  // point-to-point send
      const std::string& from = pick();
      const std::string& to = pick();
      bus.send(msg::make_ping(from, to, static_cast<std::uint64_t>(op)));
      sim.run_all();
      ++exp_sent;
      if (!model_online) {
        ++exp_bus_down;
      } else if (model_attached.count(to) > 0) {
        ++exp_delivered;
        ++expected[to];
      } else {
        ++exp_no_endpoint;
      }
    } else {  // broadcast
      const std::string& from = pick();
      bus.send(msg::make_event(from, static_cast<std::uint64_t>(op), "beacon"));
      sim.run_all();
      ++exp_sent;
      if (!model_online) {
        ++exp_bus_down;
      } else {
        for (const std::string& name : model_attached) {
          if (name == from) continue;
          ++exp_delivered;
          ++expected[name];
        }
      }
    }
  }

  EXPECT_EQ(bus.stats().sent, exp_sent);
  EXPECT_EQ(bus.stats().delivered, exp_delivered);
  EXPECT_EQ(bus.stats().dropped_bus_down, exp_bus_down);
  EXPECT_EQ(bus.stats().dropped_no_endpoint, exp_no_endpoint);
  EXPECT_EQ(bus.stats().dropped_lossy, 0u);
  EXPECT_EQ(bus.stats().dropped_oversize, 0u);
  for (const std::string& name : pool) {
    EXPECT_EQ(got[name], expected[name]) << "endpoint " << name;
  }
}

}  // namespace routing

// --- DedicatedLink ---------------------------------------------------------

TEST(DedicatedLink, DeliversBothDirections) {
  sim::Simulator sim(1);
  DedicatedLink link(sim, "fd", "rec");
  std::vector<msg::Message> fd_inbox;
  std::vector<msg::Message> rec_inbox;
  link.bind("fd", [&](const msg::Message& m) { fd_inbox.push_back(m); });
  link.bind("rec", [&](const msg::Message& m) { rec_inbox.push_back(m); });

  link.send(msg::make_ping("fd", "rec", 1));
  link.send(msg::make_ping("rec", "fd", 2));
  sim.run_for(Duration::seconds(1.0));
  ASSERT_EQ(rec_inbox.size(), 1u);
  EXPECT_EQ(rec_inbox[0].seq, 1u);
  ASSERT_EQ(fd_inbox.size(), 1u);
  EXPECT_EQ(fd_inbox[0].seq, 2u);
}

TEST(DedicatedLink, UnboundEndDropsSilently) {
  sim::Simulator sim(1);
  DedicatedLink link(sim, "fd", "rec");
  link.send(msg::make_ping("fd", "rec", 1));
  sim.run_for(Duration::seconds(1.0));  // no crash, no delivery
}

TEST(DedicatedLink, UnbindStopsDelivery) {
  sim::Simulator sim(1);
  DedicatedLink link(sim, "fd", "rec");
  std::vector<msg::Message> inbox;
  link.bind("rec", [&](const msg::Message& m) { inbox.push_back(m); });
  link.unbind("rec");
  link.send(msg::make_ping("fd", "rec", 1));
  sim.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(inbox.empty());
}

TEST(DedicatedLink, IndependentOfBusState) {
  sim::Simulator sim(1);
  MessageBus bus(sim, BusConfig{});
  DedicatedLink link(sim, "fd", "rec");
  std::vector<msg::Message> inbox;
  link.bind("rec", [&](const msg::Message& m) { inbox.push_back(m); });
  bus.crash();  // the dedicated link does not care (§2.2 isolation)
  link.send(msg::make_ping("fd", "rec", 1));
  sim.run_for(Duration::seconds(1.0));
  EXPECT_EQ(inbox.size(), 1u);
}

}  // namespace
}  // namespace mercury::bus
