// mbus — the Mercury software message bus (paper §2.1).
//
// "Messages are exchanged over a TCP/IP-based software messaging bus."
// Components attach under a well-known name and receive messages of the XML
// command language (msg/message.h). Delivery is asynchronous with a small
// configurable latency.
//
// In process the bus delivers the typed msg::Message itself: one immutable
// shared copy per send, no encode/parse/decode. The wire format still sets
// the rules: a message whose encoding would exceed 64 KiB is dropped
// (msg::encoded_size counts the bytes without building them), and one the
// codec could not decode (no `from` or no `to`) is dropped as undecodable.
// That every message the program builds is representable in the command
// language — decode(encode(m)) == m — is a tested property
// (tests/test_msg.cc), so delivering the typed value is indistinguishable
// from the round trip.
//
// Failure semantics mirror the paper's mbus process:
//   * The bus itself can crash (fail-silent). While down, every message is
//     dropped — senders get no error, exactly like writes into a dead TCP
//     endpoint that hasn't RST yet.
//   * When the bus restarts, previously attached components must re-attach
//     (their Component base class does this automatically on reconnect).
//   * Messages to unattached or crashed destinations are silently dropped.
//
// The bus also exposes delivery/drop counters used by tests and by the
// health-beacon extension.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "msg/message.h"
#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/time.h"

namespace mercury::bus {

using util::Duration;

struct BusConfig {
  /// One-way delivery latency; jitter is uniform in [0, latency_jitter).
  Duration latency = Duration::millis(3.0);
  Duration latency_jitter = Duration::millis(2.0);
  /// Independent per-delivery loss probability (a congested or flaky bus).
  /// Mercury's TCP bus is lossless in steady state (0.0), but the
  /// robustness ablation uses this to show why single-miss failure
  /// detection (the paper's choice) needs a reliable transport.
  double loss_probability = 0.0;
  /// Typed mid-restart errors (ISSUE 9): a message addressed to an endpoint
  /// that is detached *because its process is restarting* is answered with a
  /// kNack (reason "restarting", carrying the component name and its failure
  /// epoch) instead of being silently dropped. Lets clients retry fast —
  /// they can tell "mid-restart" from "never existed". Off by default so
  /// legacy traffic and drop counters stay byte-identical.
  bool typed_restart_errors = false;
};

struct BusStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_bus_down = 0;
  std::uint64_t dropped_no_endpoint = 0;
  std::uint64_t dropped_oversize = 0;
  std::uint64_t dropped_lossy = 0;
  /// Messages answered with a typed "restarting" nack instead of a silent
  /// drop (typed_restart_errors configs only).
  std::uint64_t rejected_restarting = 0;
};

class MessageBus {
 public:
  using Receiver = std::function<void(const msg::Message&)>;

  MessageBus(sim::Simulator& sim, BusConfig config);

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Attach a named endpoint. Re-attaching an existing name replaces the
  /// receiver (a restarted component takes over its old name).
  void attach(const std::string& name, Receiver receiver);
  void detach(const std::string& name);
  bool attached(const std::string& name) const;
  std::vector<std::string> endpoint_names() const;

  /// Route a message. `to == "*"` broadcasts to every endpoint except the
  /// sender. Every receiver of one send shares one immutable copy of the
  /// message (moved in from an rvalue). The size limit applies to the bytes
  /// the message would encode to; a message with no `from` or `to` is
  /// dropped, as the wire codec would reject it.
  void send(const msg::Message& message);
  void send(msg::Message&& message);

  /// Crash the bus: drops all in-flight messages and everything sent while
  /// down. Endpoints remain registered (the TCP peers don't know yet).
  void crash();
  /// Restart the bus: comes back empty; endpoints must re-attach to be
  /// reachable again (mirrors reconnect-after-restart).
  void restart();
  bool online() const { return online_; }

  /// Mark `name` as detached-because-restarting (called by the process
  /// backend at kill time, with the restart attempt's failure epoch). The
  /// mark clears automatically when the endpoint re-attaches. While marked,
  /// deliveries to the missing endpoint fire the touch listener, and — with
  /// typed_restart_errors on — are answered with a "restarting" nack.
  void note_restarting(const std::string& name, std::uint64_t epoch);
  bool restarting(const std::string& name) const;

  /// Observer for traffic-driven recovery (ISSUE 9): fired when a message
  /// from `from` targets a mid-restart endpoint `to`. The harness uses it to
  /// promote lazily queued restarts when a client request first touches a
  /// down component.
  using TouchListener =
      std::function<void(const std::string& to, const std::string& from)>;
  void set_touch_listener(TouchListener listener);

  const BusStats& stats() const { return stats_; }

 private:
  /// Counts the send and applies the bus-down, oversize and undecodable
  /// drops; true when the message may be routed.
  bool admit(const msg::Message& message);
  /// Fan `message` out to its target, or to every other endpoint for "*".
  void route(const std::shared_ptr<const msg::Message>& message);
  /// Schedule one delivery of `message` to `target` (loss + latency applied).
  void dispatch(const std::string& target,
                const std::shared_ptr<const msg::Message>& message);
  void deliver(std::uint64_t epoch, const std::string& to,
               const std::shared_ptr<const msg::Message>& message);

  sim::Simulator& sim_;
  BusConfig config_;
  util::Rng rng_;
  bool online_ = true;
  /// Incremented on crash; in-flight deliveries from an older epoch are void.
  std::uint64_t epoch_ = 0;
  /// Endpoint table: sorted flat map (same iteration order as the std::map
  /// it replaced, so broadcasts and endpoint_names() are unchanged).
  util::FlatMap<std::string, Receiver> endpoints_;
  /// Endpoints currently detached because their process is restarting, with
  /// the failure epoch of the restart attempt (note_restarting / attach).
  util::FlatMap<std::string, std::uint64_t> restarting_;
  TouchListener touch_listener_;
  BusStats stats_;
};

}  // namespace mercury::bus
