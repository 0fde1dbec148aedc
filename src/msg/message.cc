#include "msg/message.h"

#include <charconv>

#include "xml/parser.h"
#include "xml/writer.h"

namespace mercury::msg {

using util::Error;
using util::Result;

std::string_view to_string(Kind kind) {
  switch (kind) {
    case Kind::kPing: return "ping";
    case Kind::kPong: return "pong";
    case Kind::kCommand: return "command";
    case Kind::kAck: return "ack";
    case Kind::kNack: return "nack";
    case Kind::kTelemetry: return "telemetry";
    case Kind::kEvent: return "event";
  }
  return "?";
}

Result<Kind> kind_from_string(std::string_view s) {
  if (s == "ping") return Kind::kPing;
  if (s == "pong") return Kind::kPong;
  if (s == "command") return Kind::kCommand;
  if (s == "ack") return Kind::kAck;
  if (s == "nack") return Kind::kNack;
  if (s == "telemetry") return Kind::kTelemetry;
  if (s == "event") return Kind::kEvent;
  return Error("unknown message kind '" + std::string{s} + "'");
}

std::string encode(const Message& message) {
  // Serializes straight into the wire string — no intermediate <msg> Element
  // (which would deep-copy the body) and no attribute-map inserts. The bytes
  // are identical to writing the equivalent tree: attributes appear in the
  // sorted order the element's attribute map would store them (from,
  // reply-to, seq, to, type, verb), which the round-trip test pins down.
  std::string out;
  out.reserve(64 + message.from.size() + message.to.size() + message.verb.size());
  out += "<msg from=\"";
  xml::escape_attr_to(out, message.from);
  out += '"';
  if (message.in_reply_to) {
    out += " reply-to=\"";
    out += std::to_string(*message.in_reply_to);
    out += '"';
  }
  out += " seq=\"";
  out += std::to_string(message.seq);
  out += "\" to=\"";
  xml::escape_attr_to(out, message.to);
  out += "\" type=\"";
  out += to_string(message.kind);
  out += '"';
  if (!message.verb.empty()) {
    out += " verb=\"";
    xml::escape_attr_to(out, message.verb);
    out += '"';
  }
  out += '>';
  xml::write_to(out, message.body);
  out += "</msg>";
  return out;
}

namespace {

/// Decimal digits of `value`, as std::to_string writes them.
std::size_t decimal_digits(std::uint64_t value) {
  std::size_t digits = 1;
  while (value >= 10) {
    value /= 10;
    ++digits;
  }
  return digits;
}

/// A sequence-number attribute: the full unsigned 64-bit range, decimal
/// digits only (no sign, no whitespace), rejected on overflow.
std::optional<std::uint64_t> parse_seq(const std::string& v) {
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  if (ec != std::errc{} || ptr != v.data() + v.size()) return std::nullopt;
  return parsed;
}

}  // namespace

std::size_t encoded_size(const Message& message) {
  // Mirrors encode() field by field; test_msg pins the two together.
  std::size_t size = std::string_view{"<msg from=\"\""}.size() +
                     xml::escaped_attr_size(message.from);
  if (message.in_reply_to) {
    size += std::string_view{" reply-to=\"\""}.size() +
            decimal_digits(*message.in_reply_to);
  }
  size += std::string_view{" seq=\"\" to=\"\" type=\"\""}.size() +
          decimal_digits(message.seq) + xml::escaped_attr_size(message.to) +
          to_string(message.kind).size();
  if (!message.verb.empty()) {
    size += std::string_view{" verb=\"\""}.size() +
            xml::escaped_attr_size(message.verb);
  }
  return size + 1 + xml::written_size(message.body) +
         std::string_view{"</msg>"}.size();
}

Result<Message> decode(std::string_view wire) {
  auto doc = xml::parse(wire);
  if (!doc.ok()) return doc.error().wrap("decoding message");
  xml::Element& root = doc.value();
  if (root.name() != "msg") {
    return Error("expected <msg> root, got <" + root.name() + ">");
  }

  // Read attributes through the map directly: one binary search and one
  // string copy per field (attr() would add an optional<string> copy each).
  const auto& attrs = root.attributes();
  Message message;
  const auto type = attrs.find("type");
  if (type == attrs.end()) return Error("<msg> missing 'type' attribute");
  auto kind = kind_from_string(type->second);
  if (!kind.ok()) return kind.error();
  message.kind = kind.value();

  const auto from = attrs.find("from");
  const auto to = attrs.find("to");
  if (from == attrs.end() || from->second.empty()) {
    return Error("<msg> missing 'from' attribute");
  }
  if (to == attrs.end() || to->second.empty()) {
    return Error("<msg> missing 'to' attribute");
  }
  message.from = from->second;
  message.to = to->second;

  const auto seq = attrs.find("seq");
  const auto seq_value =
      seq != attrs.end() ? parse_seq(seq->second) : std::nullopt;
  if (!seq_value) return Error("<msg> missing or invalid 'seq' attribute");
  message.seq = *seq_value;

  const auto verb = attrs.find("verb");
  if (verb != attrs.end()) message.verb = verb->second;
  const auto reply = attrs.find("reply-to");
  if (reply != attrs.end()) {
    const auto reply_value = parse_seq(reply->second);
    if (!reply_value) return Error("<msg> invalid 'reply-to' attribute");
    message.in_reply_to = *reply_value;
  }

  if (xml::Element* body = root.child("body")) {
    // The parse result dies with this call: steal the body instead of
    // deep-copying it.
    message.body = std::move(*body);
  }
  return message;
}

Message make_ping(std::string from, std::string to, std::uint64_t seq) {
  Message m;
  m.kind = Kind::kPing;
  m.from = std::move(from);
  m.to = std::move(to);
  m.seq = seq;
  return m;
}

Message make_pong(const Message& ping, std::string from) {
  Message m;
  m.kind = Kind::kPong;
  m.from = std::move(from);
  m.to = ping.from;
  m.seq = ping.seq;  // pongs reuse the ping's sequence number
  m.in_reply_to = ping.seq;
  return m;
}

Message make_command(std::string from, std::string to, std::uint64_t seq,
                     std::string verb) {
  Message m;
  m.kind = Kind::kCommand;
  m.from = std::move(from);
  m.to = std::move(to);
  m.seq = seq;
  m.verb = std::move(verb);
  return m;
}

Message make_ack(const Message& command, std::string from) {
  Message m;
  m.kind = Kind::kAck;
  m.from = std::move(from);
  m.to = command.from;
  m.seq = command.seq;
  m.verb = command.verb;
  m.in_reply_to = command.seq;
  return m;
}

Message make_nack(const Message& command, std::string from, std::string reason) {
  Message m = make_ack(command, std::move(from));
  m.kind = Kind::kNack;
  m.body.set_attr("reason", std::move(reason));
  return m;
}

Message make_event(std::string from, std::uint64_t seq, std::string name) {
  Message m;
  m.kind = Kind::kEvent;
  m.from = std::move(from);
  m.to = "*";
  m.seq = seq;
  m.verb = std::move(name);
  return m;
}

}  // namespace mercury::msg
