// Unit tests: the command-language message schema.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/health.h"
#include "core/mercury_trees.h"
#include "msg/message.h"
#include "util/rng.h"
#include "xml/element.h"
#include "xml/writer.h"

namespace mercury::msg {
namespace {

TEST(Message, KindStringsRoundTrip) {
  for (Kind kind : {Kind::kPing, Kind::kPong, Kind::kCommand, Kind::kAck,
                    Kind::kNack, Kind::kTelemetry, Kind::kEvent}) {
    auto parsed = kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(kind_from_string("bogus").ok());
}

TEST(Message, EncodeDecodeRoundTrip) {
  // Sequence numbers span the full uint64 range, 2^63 and above included.
  for (const std::uint64_t seq : {std::uint64_t{42}, std::uint64_t{1} << 63,
                                  std::numeric_limits<std::uint64_t>::max()}) {
    Message m = make_command("rtu", "fedr", seq, "tune");
    m.in_reply_to = seq;
    m.body.set_attr("freq_hz", 437.1e6);
    m.body.add_child(xml::Element("note")).set_text("doppler corrected");

    auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.ok()) << seq << ": " << decoded.error().message();
    EXPECT_EQ(decoded.value(), m) << seq;
  }
}

TEST(Message, RoundTripAllKinds) {
  for (Kind kind : {Kind::kPing, Kind::kPong, Kind::kCommand, Kind::kAck,
                    Kind::kNack, Kind::kTelemetry, Kind::kEvent}) {
    Message m;
    m.kind = kind;
    m.from = "a";
    m.to = "b";
    m.seq = 7;
    m.verb = kind == Kind::kCommand ? "track" : "";
    if (kind == Kind::kAck) m.in_reply_to = 6;
    auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message();
    EXPECT_EQ(decoded.value(), m) << to_string(kind);
  }
}

TEST(Message, PingPongPairing) {
  const Message ping = make_ping("fd", "ses", 99);
  EXPECT_EQ(ping.kind, Kind::kPing);
  EXPECT_EQ(ping.to, "ses");

  const Message pong = make_pong(ping, "ses");
  EXPECT_EQ(pong.kind, Kind::kPong);
  EXPECT_EQ(pong.to, "fd");
  EXPECT_EQ(pong.seq, ping.seq);
  ASSERT_TRUE(pong.in_reply_to.has_value());
  EXPECT_EQ(*pong.in_reply_to, ping.seq);
}

TEST(Message, AckNackCarryContext) {
  const Message command = make_command("str", "ses", 5, "sync");
  const Message ack = make_ack(command, "ses");
  EXPECT_EQ(ack.kind, Kind::kAck);
  EXPECT_EQ(ack.to, "str");
  EXPECT_EQ(ack.verb, "sync");
  EXPECT_EQ(*ack.in_reply_to, 5u);

  const Message nack = make_nack(command, "ses", "busy");
  EXPECT_EQ(nack.kind, Kind::kNack);
  EXPECT_EQ(nack.body.attr_or("reason", ""), "busy");
}

TEST(Message, EventBroadcastsByDefault) {
  const Message event = make_event("ses", 3, "ephemeris");
  EXPECT_EQ(event.to, "*");
  EXPECT_EQ(event.verb, "ephemeris");
}

TEST(Message, DecodeRejectsMissingFields) {
  EXPECT_FALSE(decode("<msg/>").ok());
  EXPECT_FALSE(decode(R"(<msg type="ping" to="b" seq="1"/>)").ok());   // no from
  EXPECT_FALSE(decode(R"(<msg type="ping" from="a" seq="1"/>)").ok()); // no to
  EXPECT_FALSE(decode(R"(<msg type="ping" from="a" to="b"/>)").ok());  // no seq
  EXPECT_FALSE(decode(R"(<msg type="nope" from="a" to="b" seq="1"/>)").ok());
  EXPECT_FALSE(
      decode(R"(<msg type="ping" from="a" to="b" seq="-3"/>)").ok());
  EXPECT_FALSE(
      decode(R"(<msg type="ping" from="a" to="b" seq="-1"/>)").ok());
  EXPECT_FALSE(decode(
      R"(<msg type="ping" from="a" to="b" seq="18446744073709551616"/>)").ok());
  EXPECT_FALSE(decode(
      R"(<msg type="pong" from="a" to="b" seq="1" reply-to="-1"/>)").ok());
  EXPECT_FALSE(decode(
      R"(<msg type="pong" from="a" to="b" seq="1" reply-to="18446744073709551616"/>)").ok());
  EXPECT_FALSE(decode(R"(<notmsg type="ping" from="a" to="b" seq="1"/>)").ok());
  EXPECT_FALSE(decode("not xml at all").ok());
}

TEST(Message, EncodeMatchesTheEquivalentElementTreeByteForByte) {
  // encode() serializes straight into the wire string (ISSUE 10); its bytes
  // must stay identical to building the <msg> element tree and writing it —
  // attributes in sorted map order (from, reply-to, seq, to, type, verb),
  // same escaping, body as the only child. Covers the optional fields both
  // present and absent, and values that need attribute escaping.
  Message m = make_command("r&tu", "fe\"dr", 42, "tu<ne");
  m.in_reply_to = 41;
  m.body.set_attr("freq_hz", 437.1e6);
  m.body.add_child(xml::Element("note")).set_text("doppler <&> corrected");

  const auto tree_bytes = [](const Message& message) {
    xml::Element root("msg");
    root.set_attr("from", message.from);
    if (message.in_reply_to) {
      root.set_attr("reply-to", static_cast<long long>(*message.in_reply_to));
    }
    root.set_attr("seq", static_cast<long long>(message.seq));
    root.set_attr("to", message.to);
    root.set_attr("type", std::string{to_string(message.kind)});
    if (!message.verb.empty()) root.set_attr("verb", message.verb);
    root.add_child(message.body);
    return xml::write(root);
  };
  EXPECT_EQ(encode(m), tree_bytes(m));

  Message bare = make_ping("fd", "ses", 7);  // no verb, no reply-to
  EXPECT_EQ(encode(bare), tree_bytes(bare));
}

TEST(Message, DecodeToleratesMissingBody) {
  auto decoded = decode(R"(<msg type="ping" from="a" to="b" seq="1"/>)");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().body.name(), "body");
}

// --- Representability: what the bus delivers in process ---------------------
//
// mbus hands receivers the sender's typed Message instead of re-parsing its
// encoding, which is only faithful if every message the program builds is
// exactly representable in the command language, and if the oversize check
// counts the bytes encode() would write.

constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint64_t>::max();

/// One of every message shape the simulator and the POSIX supervisor build,
/// made by the same constructors they use.
std::vector<Message> program_messages() {
  namespace names = core::component_names;
  std::vector<Message> out;
  // FD liveness probes and their replies (failure_detector.cc, component.cc).
  const Message fd_ping = make_ping(names::kFd, names::kSes, 17);
  out.push_back(fd_ping);
  out.push_back(make_pong(fd_ping, names::kSes));
  out.push_back(make_ping(names::kFd, names::kMbus, kMaxSeq));
  // FD -> REC report and REC -> FD mask/unmask over the dedicated link.
  Message report = make_command(names::kFd, names::kRec, 3, "report-failure");
  report.body.set_attr("component", names::kPbcom);
  out.push_back(report);
  Message mask = make_command(names::kRec, names::kFd, 4, "mask");
  mask.body.set_attr("components", "fedr,pbcom");
  out.push_back(mask);
  // ses's ephemeris broadcast and rtu's Doppler tune command (components.cc).
  Message ephemeris = make_event(names::kSes, 5, "ephemeris");
  ephemeris.body.set_attr("az_deg", 213.25);
  ephemeris.body.set_attr("el_deg", -3.0625);
  ephemeris.body.set_attr("range_km", 2417.117);
  ephemeris.body.set_attr("range_rate_km_s", -6.4999999);
  ephemeris.body.set_attr("visible", std::string{"0"});
  out.push_back(ephemeris);
  Message tune = make_command(names::kRtu, names::kFedr, 6, "tune");
  tune.body.set_attr("freq_hz", 437.1e6 * (1.0 + 2.1e-5));
  out.push_back(tune);
  // The radio front end's replies.
  out.push_back(make_ack(tune, names::kFedr));
  out.push_back(make_nack(tune, names::kFedr, "missing freq_hz"));
  out.push_back(make_nack(tune, names::kFedr, "pbcom link down"));
  // A client request, its pong, and the bus's typed "restarting" nack with
  // the component and failure epoch (message_bus.cc, workload.cc).
  const Message request = make_ping("cli.11", names::kStr, kMaxSeq - 1);
  out.push_back(request);
  out.push_back(make_pong(request, names::kStr));
  Message restarting = make_nack(request, names::kMbus, "restarting");
  restarting.body.set_attr("component", names::kStr);
  restarting.body.set_attr("epoch", std::to_string(kMaxSeq));
  out.push_back(restarting);
  // Health beacons (health_reporter.cc), with and without warnings.
  core::HealthBeacon beacon;
  beacon.component = names::kPbcom;
  beacon.seq = 12;
  beacon.uptime_s = 3601.5;
  beacon.memory_mb = 187.3333;
  beacon.queue_depth = 1500.0;
  beacon.internal_latency_ms = 0.1;
  out.push_back(core::encode_beacon(beacon, "hm"));
  beacon.connectivity_ok = false;
  beacon.hard_failure_suspected = true;
  beacon.warnings = {"memory above warn level (187.3 MB)",
                     "queue <depth> & \"latency\" rising"};
  out.push_back(core::encode_beacon(beacon, "hm"));
  return out;
}

TEST(Representability, EveryProgramMessageSurvivesTheCodec) {
  for (const Message& m : program_messages()) {
    const std::string wire = encode(m);
    EXPECT_EQ(encoded_size(m), wire.size()) << wire;
    auto decoded = decode(wire);
    ASSERT_TRUE(decoded.ok()) << wire << ": " << decoded.error().message();
    EXPECT_EQ(decoded.value(), m) << wire;
  }
}

/// A string over an alphabet heavy in the characters escaping rewrites.
std::string random_text(util::Rng& rng, std::size_t max_len) {
  static constexpr std::string_view kAlphabet = "ab&<>\"'=/ 01._-";
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string text;
  for (std::size_t i = 0; i < len; ++i) {
    text += kAlphabet[rng.next_u64() % kAlphabet.size()];
  }
  return text;
}

xml::Element random_element(util::Rng& rng, std::string name, int depth) {
  xml::Element element(std::move(name));
  const int attrs = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < attrs; ++i) {
    element.set_attr("k" + std::to_string(i), random_text(rng, 12));
  }
  if (depth > 0) {
    const int children = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < children; ++i) {
      element.add_child(
          random_element(rng, "c" + std::to_string(i), depth - 1));
    }
  }
  if (rng.chance(0.5)) element.set_text(random_text(rng, 20));
  return element;
}

TEST(Representability, EncodedSizeCountsExactlyTheEncodedBytes) {
  util::Rng rng(20020623);
  const std::vector<std::uint64_t> seqs = {0, 9, 10, 99, 100, 1ull << 63,
                                           kMaxSeq};
  for (int trial = 0; trial < 2000; ++trial) {
    Message m;
    m.kind = static_cast<Kind>(rng.uniform_int(0, 6));
    m.from = random_text(rng, 8);
    m.to = random_text(rng, 8);
    m.seq = rng.chance(0.5) ? seqs[rng.next_u64() % seqs.size()]
                            : rng.next_u64() >> rng.uniform_int(0, 63);
    if (rng.chance(0.5)) m.in_reply_to = rng.next_u64();
    if (rng.chance(0.5)) m.verb = random_text(rng, 10);
    m.body = random_element(rng, "body", 3);
    ASSERT_EQ(encoded_size(m), encode(m).size()) << encode(m);
  }

  Message big = make_command("fd", "ses", kMaxSeq, "blob");
  big.body.set_text(std::string(200 * 1024, '&'));
  big.body.add_child(xml::Element("note")).set_text("<\"x\">");
  EXPECT_EQ(encoded_size(big), encode(big).size());
}

}  // namespace
}  // namespace mercury::msg
