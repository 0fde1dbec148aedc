// The Mercury XML command language (paper §2.1).
//
// Every message on mbus is an XML document:
//
//   <msg type="ping" from="fd" to="ses" seq="42">
//     <body .../>
//   </msg>
//
// Message kinds:
//   ping / pong            — application-level liveness probes (§2.2)
//   command / ack / nack   — high-level station commands and replies
//   telemetry              — downlinked science/housekeeping data
//   event                  — asynchronous notifications (e.g. pass start)
//
// The wire format is the serialized XML. In process, mbus delivers the typed
// Message itself and never builds the XML: encoded_size() sizes a message
// for the bus's 64 KiB limit, and encode()/decode() remain the codec for
// whatever needs the bytes (benchmarks, tests). Delivering the typed value
// is faithful because every message the program builds is representable —
// decode(encode(m)) == m — which tests/test_msg.cc checks for each message
// shape, alongside encoded_size(m) == encode(m).size() over randomized
// messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/result.h"
#include "xml/element.h"

namespace mercury::msg {

enum class Kind {
  kPing,
  kPong,
  kCommand,
  kAck,
  kNack,
  kTelemetry,
  kEvent,
};

std::string_view to_string(Kind kind);
util::Result<Kind> kind_from_string(std::string_view s);

/// One message on the software bus. A plain value type: no invariants beyond
/// "kind/from/to are set", enforced at encode time.
struct Message {
  Kind kind = Kind::kEvent;
  std::string from;
  std::string to;
  std::uint64_t seq = 0;
  /// Command verb for kCommand (e.g. "track", "tune", "point"); event name
  /// for kEvent; empty otherwise.
  std::string verb;
  /// For kPong/kAck/kNack: the seq of the message being answered.
  std::optional<std::uint64_t> in_reply_to;
  /// Structured payload (command arguments, telemetry frames, ...).
  xml::Element body{"body"};

  bool operator==(const Message&) const = default;
};

/// Serialize to the XML wire format.
std::string encode(const Message& message);

/// encode(message).size(), counted without building the string: the bus's
/// oversize check runs on every send.
std::size_t encoded_size(const Message& message);

/// Parse the XML wire format. Fails on missing/unknown required fields.
util::Result<Message> decode(std::string_view wire);

// --- Convenience constructors -------------------------------------------

Message make_ping(std::string from, std::string to, std::uint64_t seq);
Message make_pong(const Message& ping, std::string from);
Message make_command(std::string from, std::string to, std::uint64_t seq,
                     std::string verb);
Message make_ack(const Message& command, std::string from);
Message make_nack(const Message& command, std::string from, std::string reason);
Message make_event(std::string from, std::uint64_t seq, std::string name);

}  // namespace mercury::msg
