#include "probes.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <vector>

#include "bus/message_bus.h"
#include "msg/message.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mercury::util::Duration;

constexpr std::string_view kDeliverPrefix = "mbus.deliver:";
constexpr int kRepeats = 5;

double elapsed_ns(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Draws keys of a count map with probability proportional to their count.
class WeightedPicker {
 public:
  explicit WeightedPicker(const LabelCounts& counts) {
    for (const auto& [key, count] : counts) {
      if (count == 0) continue;
      total_ += count;
      keys_.push_back(&key);
      cumulative_.push_back(total_);
    }
  }
  bool empty() const { return keys_.empty(); }
  const std::string& pick(mercury::util::Rng& rng) const {
    const auto ticket = rng.next_u64() % total_;
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), ticket);
    return *keys_[static_cast<std::size_t>(it - cumulative_.begin())];
  }

 private:
  std::vector<const std::string*> keys_;
  std::vector<std::uint64_t> cumulative_;
  std::uint64_t total_ = 0;
};

bool is_client(const std::string& name) { return name.rfind("cli.", 0) == 0; }

}  // namespace

double probe_sim_ns_per_event(const LabelCounts& labels, int queue_depth,
                              std::uint64_t seed) {
  const WeightedPicker picker(labels);
  if (picker.empty()) return 0.0;
  constexpr int kEvents = 200'000;
  mercury::util::Rng rng(seed);
  std::vector<const std::string*> picks(kEvents);
  std::vector<Duration> delays(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    picks[i] = &picker.pick(rng);
    delays[i] = Duration::millis(rng.uniform(0.0, 10.0));
  }
  std::vector<double> runs;
  for (int r = 0; r < kRepeats; ++r) {
    mercury::sim::Simulator sim(seed);
    for (int i = 0; i < queue_depth; ++i) {
      sim.schedule_after(delays[i], *picks[i], [] {});
    }
    const auto start = Clock::now();
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_after(delays[i], *picks[i], [] {});
      sim.step();
    }
    runs.push_back(elapsed_ns(start) / kEvents);
  }
  return median(runs);
}

std::uint64_t count_deliveries(const LabelCounts& labels) {
  std::uint64_t total = 0;
  for (const auto& [label, count] : labels) {
    if (label.rfind(kDeliverPrefix, 0) == 0) total += count;
  }
  return total;
}

BusCosts probe_bus(const LabelCounts& labels, double nack_share,
                   double sim_ns_per_event, std::uint64_t seed) {
  LabelCounts targets;
  std::vector<std::string> components;
  std::uint64_t to_fd = 0;
  std::uint64_t to_clients = 0;
  for (const auto& [label, count] : labels) {
    if (label.rfind(kDeliverPrefix, 0) != 0) continue;
    const std::string to = label.substr(kDeliverPrefix.size());
    targets[to] = count;
    if (to == "fd") {
      to_fd += count;
    } else if (is_client(to)) {
      to_clients += count;
    } else {
      components.push_back(to);
    }
  }
  const WeightedPicker picker(targets);
  if (picker.empty()) return {};
  if (components.empty()) components.push_back("ses");
  std::vector<std::string> clients;
  for (const auto& [to, count] : targets) {
    if (is_client(to)) clients.push_back(to);
  }
  const double fd_ping_share =
      to_fd + to_clients == 0
          ? 1.0
          : static_cast<double>(to_fd) / static_cast<double>(to_fd + to_clients);

  constexpr int kMessages = 50'000;
  mercury::util::Rng rng(seed);
  std::vector<mercury::msg::Message> messages;
  messages.reserve(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    const std::string& to = picker.pick(rng);
    const std::uint64_t seq = 1 + static_cast<std::uint64_t>(i);
    const std::string& component =
        components[rng.next_u64() % components.size()];
    if (to == "fd") {
      messages.push_back(mercury::msg::make_pong(
          mercury::msg::make_ping("fd", component, seq), component));
    } else if (is_client(to)) {
      const auto ping = mercury::msg::make_ping(to, component, seq);
      messages.push_back(rng.chance(nack_share)
                             ? mercury::msg::make_nack(ping, component, "restarting")
                             : mercury::msg::make_pong(ping, component));
    } else {
      const bool from_fd = clients.empty() || rng.chance(fd_ping_share);
      const std::string& from =
          from_fd ? std::string("fd") : clients[rng.next_u64() % clients.size()];
      messages.push_back(mercury::msg::make_ping(from, to, seq));
    }
  }

  std::vector<double> codec_runs;
  std::vector<double> bus_runs;
  std::size_t sink = 0;
  for (int r = 0; r < kRepeats; ++r) {
    auto start = Clock::now();
    for (const auto& message : messages) {
      const std::string wire = mercury::msg::encode(message);
      sink += mercury::msg::decode(wire).ok() ? wire.size() : 0;
    }
    const double codec_ns = elapsed_ns(start) / kMessages;
    codec_runs.push_back(codec_ns);

    mercury::sim::Simulator sim(seed);
    mercury::bus::MessageBus bus(sim, mercury::bus::BusConfig{});
    for (const auto& [to, count] : targets) {
      bus.attach(to, [&sink](const mercury::msg::Message& m) { sink += m.seq; });
    }
    constexpr std::size_t kBatch = 256;
    start = Clock::now();
    for (std::size_t i = 0; i < messages.size(); i += kBatch) {
      const std::size_t end = std::min(messages.size(), i + kBatch);
      for (std::size_t j = i; j < end; ++j) bus.send(messages[j]);
      sim.run_all();
    }
    const double total_ns = elapsed_ns(start) / kMessages;
    bus_runs.push_back(total_ns - codec_ns - sim_ns_per_event);
  }
  if (sink == 0) return {};  // keeps the timed work observable
  return BusCosts{median(codec_runs), median(bus_runs)};
}

}  // namespace perfbench
