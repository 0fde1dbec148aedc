#include "bus/message_bus.h"

#include <cassert>

#include "util/log.h"

namespace mercury::bus {

using util::LogLevel;
using util::LogLine;

MessageBus::MessageBus(sim::Simulator& sim, BusConfig config)
    : sim_(sim), config_(config), rng_(sim.rng().fork("mbus")) {}

void MessageBus::attach(const std::string& name, Receiver receiver) {
  endpoints_.insert_or_assign(name, std::move(receiver));
  restarting_.erase(name);  // back on the bus: no longer mid-restart
}

void MessageBus::note_restarting(const std::string& name, std::uint64_t epoch) {
  restarting_.insert_or_assign(name, epoch);
}

bool MessageBus::restarting(const std::string& name) const {
  return restarting_.contains(name);
}

void MessageBus::set_touch_listener(TouchListener listener) {
  touch_listener_ = std::move(listener);
}

void MessageBus::detach(const std::string& name) {
  endpoints_.erase(name);
}

bool MessageBus::attached(const std::string& name) const {
  return endpoints_.contains(name);
}

std::vector<std::string> MessageBus::endpoint_names() const {
  std::vector<std::string> names;
  names.reserve(endpoints_.size());
  for (const auto& [name, receiver] : endpoints_) names.push_back(name);
  return names;
}

/// Message size limit; oversized messages are dropped and counted.
constexpr std::size_t kMaxWireBytes = 64 * 1024;

void MessageBus::send(const msg::Message& message) {
  if (admit(message)) route(std::make_shared<const msg::Message>(message));
}

void MessageBus::send(msg::Message&& message) {
  if (admit(message)) {
    route(std::make_shared<const msg::Message>(std::move(message)));
  }
}

bool MessageBus::admit(const msg::Message& message) {
  ++stats_.sent;
  if (!online_) {
    ++stats_.dropped_bus_down;
    return false;
  }
  const std::size_t wire_bytes = msg::encoded_size(message);
  // Debug builds cross-check the size counter against the real encoder on
  // every message the tests send.
  assert(wire_bytes == msg::encode(message).size());
  if (wire_bytes > kMaxWireBytes) {
    ++stats_.dropped_oversize;
    LogLine(LogLevel::kWarn, sim_.now(), "mbus")
        << "dropping oversize message from " << message.from << " ("
        << wire_bytes << " bytes)";
    return false;
  }
  // The command language has no frame without both endpoints (msg::decode
  // rejects one): count it as a drop per target rather than deliver it.
  const char* missing = message.from.empty() ? "from"
                        : message.to.empty()  ? "to"
                                              : nullptr;
  if (missing != nullptr) {
    if (message.to == "*") {
      for (const auto& [name, receiver] : endpoints_) {
        if (name != message.from) ++stats_.dropped_no_endpoint;
      }
    } else {
      ++stats_.dropped_no_endpoint;
    }
    LogLine(LogLevel::kError, sim_.now(), "mbus")
        << "undecodable frame: <msg> missing '" << missing << "' attribute";
    return false;
  }
  return true;
}

void MessageBus::route(const std::shared_ptr<const msg::Message>& message) {
  if (message->to == "*") {
    // Scheduling deliveries never mutates the endpoint table, so broadcasts
    // iterate it directly (same order the old targets vector was built in).
    for (const auto& [name, receiver] : endpoints_) {
      if (name != message->from) dispatch(name, message);
    }
  } else {
    dispatch(message->to, message);
  }
}

void MessageBus::dispatch(const std::string& target,
                          const std::shared_ptr<const msg::Message>& message) {
  if (config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability)) {
    ++stats_.dropped_lossy;
    return;
  }
  const Duration latency =
      config_.latency +
      Duration::seconds(rng_.uniform(0.0, config_.latency_jitter.to_seconds()));
  const std::uint64_t epoch = epoch_;
  const sim::Label label = sim::Label::prefixed("mbus.deliver:", target);
  if (target == message->to) {
    // Point-to-point: the message already names the target — no
    // per-delivery string copy in the closure.
    sim_.schedule_after(latency, label, [this, epoch, message] {
      deliver(epoch, message->to, message);
    });
  } else {
    sim_.schedule_after(latency, label, [this, epoch, target, message] {
      deliver(epoch, target, message);
    });
  }
}

void MessageBus::deliver(std::uint64_t epoch, const std::string& to,
                         const std::shared_ptr<const msg::Message>& message) {
  if (!online_ || epoch != epoch_) {
    ++stats_.dropped_bus_down;
    return;
  }
  const auto slot = endpoints_.find(to);
  if (slot == endpoints_.end()) {
    // Mid-restart endpoint (ISSUE 9): the process backend marked it at kill
    // time. With typed errors on, the sender gets a kNack carrying the
    // component and its failure epoch — a fast, actionable retry signal —
    // instead of the legacy silent drop. The touch listener fires either
    // way, so traffic-driven recovery sees the request even on legacy
    // configs.
    const auto mid_restart = restarting_.find(to);
    if (mid_restart != restarting_.end() &&
        (config_.typed_restart_errors || touch_listener_)) {
      const msg::Message& request = *message;
      if (touch_listener_) touch_listener_(to, request.from);
      // Never answer a nack with a nack (no error-on-error loops), and
      // never answer our own error messages.
      if (config_.typed_restart_errors && request.kind != msg::Kind::kNack &&
          !request.from.empty() && request.from != "mbus") {
        ++stats_.rejected_restarting;
        msg::Message error = msg::make_nack(request, "mbus", "restarting");
        error.body.set_attr("component", to);
        error.body.set_attr("epoch", std::to_string(mid_restart->second));
        send(std::move(error));
        return;
      }
    }
    ++stats_.dropped_no_endpoint;
    return;
  }
  ++stats_.delivered;
  // Copy the receiver: the callback may detach/re-attach endpoints, which
  // moves flat-map slots out from under the pointer.
  Receiver receiver = slot->second;
  receiver(*message);
}

void MessageBus::crash() {
  if (!online_) return;
  online_ = false;
  ++epoch_;  // voids in-flight deliveries
  endpoints_.clear();
  LogLine(LogLevel::kInfo, sim_.now(), "mbus") << "bus crashed";
}

void MessageBus::restart() {
  online_ = true;
  LogLine(LogLevel::kInfo, sim_.now(), "mbus") << "bus restarted";
}

}  // namespace mercury::bus
