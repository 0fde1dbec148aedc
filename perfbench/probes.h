// Unit-cost probes: time calls into one layer's public functions, on the
// operation mix a traced run actually observed, so a per-layer cost is a
// measured price times a measured count (README.md, "Per-layer metrics").
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Fired kernel events by exact label (e.g. "mbus.deliver:ses",
/// "fd.ping:rtu"), as counted from TraceRecorder sim events.
using LabelCounts = std::map<std::string, std::uint64_t>;

/// Pending-queue depth the kernel probe holds. An assumption, not a
/// measurement: run_trial owns its Simulator and the kernel exposes no
/// pending count, so the depth a trial sees cannot be observed from
/// outside. Roughly one timer per component plus the deliveries in flight;
/// the heap's cost grows with log4 of it, so a 4x error moves the price by
/// one heap level (README.md, "Per-layer metrics").
constexpr int kAssumedQueueDepth = 32;

/// Nanoseconds per kernel event: sim::Simulator schedule_after + dispatch of
/// an empty callback, with labels drawn from `labels` by frequency, delays
/// uniform in [0, 10) ms and a pending queue as deep as `queue_depth`.
double probe_sim_ns_per_event(const LabelCounts& labels, int queue_depth,
                              std::uint64_t seed);

struct BusCosts {
  /// msg::encode + msg::decode of one message (the wire round trip
  /// MessageBus::send performs once per message).
  double codec_ns_per_message = 0.0;
  /// The bus's own cost per delivered message: MessageBus::send plus the
  /// delivery it schedules, minus the codec round trip and one kernel event.
  double bus_ns_per_send = 0.0;
};

/// Replays the observed deliveries (`labels` entries "mbus.deliver:<to>")
/// through a bus::MessageBus. Message kinds follow from the target, as in a
/// timing trial: components receive PINGs (failure detector and client
/// sessions), "fd" receives PONGs, client sessions ("cli.*") receive PONGs
/// or, for `nack_share` of them, typed "restarting" NACKs.
BusCosts probe_bus(const LabelCounts& labels, double nack_share,
                   double sim_ns_per_event, std::uint64_t seed);

/// Total deliveries among `labels` ("mbus.deliver:*" entries).
std::uint64_t count_deliveries(const LabelCounts& labels);

}  // namespace perfbench
