#include "core/failure_board.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "util/strings.h"

namespace mercury::core {

namespace {

/// Fault onset/cure are the trace anchors every phase breakdown hangs off
/// (obs/phases.h): detection latency is measured from fault.manifest.
void trace_cured(const ActiveFailure& failure, util::TimePoint now) {
  obs::instant(now, "fault", "fault.cured", "board",
               {{"manifest", failure.spec.manifest},
                {"id", std::to_string(failure.id)},
                {"kind", failure.spec.kind}});
  obs::incr("faults.cured");
  obs::observe("fault.active_seconds", (now - failure.onset).to_seconds());
}

}  // namespace

FailureSpec make_crash(std::string component) {
  FailureSpec spec;
  spec.cure_set = {component};
  spec.manifest = std::move(component);
  spec.kind = "crash";
  return spec;
}

FailureSpec make_stale_attachment(std::string component) {
  FailureSpec spec = make_crash(std::move(component));
  spec.soft_curable = true;
  spec.kind = "stale-attachment";
  return spec;
}

FailureSpec make_joint(std::string manifest, std::vector<std::string> cure_set) {
  FailureSpec spec;
  spec.manifest = std::move(manifest);
  spec.cure_set = std::move(cure_set);
  std::sort(spec.cure_set.begin(), spec.cure_set.end());
  spec.cure_set.erase(std::unique(spec.cure_set.begin(), spec.cure_set.end()),
                      spec.cure_set.end());
  assert(std::binary_search(spec.cure_set.begin(), spec.cure_set.end(),
                            spec.manifest) &&
         "cure set must include the manifest component");
  spec.kind = "joint";
  return spec;
}

FailureId FailureBoard::inject(FailureSpec spec, util::TimePoint now) {
  assert(!spec.manifest.empty());
  assert(!spec.cure_set.empty());
  ActiveFailure failure;
  failure.id = next_id_++;
  failure.spec = std::move(spec);
  failure.onset = now;
  active_.push_back(failure);
  obs::instant(now, "fault", "fault.manifest", "board",
               {{"manifest", active_.back().spec.manifest},
                {"cure", util::join(active_.back().spec.cure_set, ",")},
                {"kind", active_.back().spec.kind},
                {"id", std::to_string(failure.id)}});
  obs::incr("faults.injected");
  for (const auto& listener : inject_listeners_) listener(active_.back());
  return failure.id;
}

void FailureBoard::on_restart_complete(const std::string& component,
                                       util::TimePoint now) {
  std::vector<ActiveFailure> cured;
  for (auto& failure : active_) {
    const auto& cure_set = failure.spec.cure_set;
    if (std::find(cure_set.begin(), cure_set.end(), component) == cure_set.end()) {
      continue;
    }
    if (std::find(failure.restarted.begin(), failure.restarted.end(), component) ==
        failure.restarted.end()) {
      failure.restarted.push_back(component);
    }
    if (failure.cured()) cured.push_back(failure);
  }
  if (cured.empty()) return;
  active_.erase(std::remove_if(active_.begin(), active_.end(),
                               [](const ActiveFailure& f) { return f.cured(); }),
                active_.end());
  total_cured_ += cured.size();
  for (const auto& failure : cured) trace_cured(failure, now);
}

void FailureBoard::on_soft_recovery_complete(const std::string& component,
                                             util::TimePoint now) {
  std::vector<ActiveFailure> cured;
  for (const auto& failure : active_) {
    if (failure.spec.soft_curable && failure.spec.manifest == component) {
      cured.push_back(failure);
    }
  }
  if (cured.empty()) return;
  active_.erase(std::remove_if(active_.begin(), active_.end(),
                               [&](const ActiveFailure& f) {
                                 return f.spec.soft_curable &&
                                        f.spec.manifest == component;
                               }),
                active_.end());
  total_cured_ += cured.size();
  for (const auto& failure : cured) trace_cured(failure, now);
}

bool FailureBoard::manifests_at(const std::string& component) const {
  return std::any_of(active_.begin(), active_.end(), [&](const ActiveFailure& f) {
    return f.spec.manifest == component;
  });
}

std::vector<ActiveFailure> FailureBoard::active_at(const std::string& component) const {
  std::vector<ActiveFailure> out;
  for (const auto& failure : active_) {
    if (failure.spec.manifest == component) out.push_back(failure);
  }
  return out;
}

bool FailureBoard::clear(FailureId id) {
  const auto it = std::find_if(active_.begin(), active_.end(),
                               [id](const ActiveFailure& f) { return f.id == id; });
  if (it == active_.end()) return false;
  active_.erase(it);
  return true;
}

void FailureBoard::set_restart_faults(const std::string& component,
                                      RestartFaultSpec spec) {
  if (spec.active()) {
    restart_faults_[component] = spec;
  } else {
    restart_faults_.erase(component);
  }
}

const RestartFaultSpec& FailureBoard::restart_faults(
    const std::string& component) const {
  static const RestartFaultSpec kNone;
  const auto it = restart_faults_.find(component);
  return it != restart_faults_.end() ? it->second : kNone;
}

void FailureBoard::note_restart_hang(const std::string& component,
                                     util::TimePoint now) {
  ++restart_hangs_;
  obs::instant(now, "restart", "restart.hang", "board",
               {{"component", component}});
  obs::incr("restart.hangs");
}

void FailureBoard::note_restart_crash(const std::string& component,
                                      util::TimePoint now) {
  ++restart_crashes_;
  obs::instant(now, "restart", "restart.crash", "board",
               {{"component", component}});
  obs::incr("restart.crashes");
}

void FailureBoard::add_inject_listener(InjectListener listener) {
  inject_listeners_.push_back(std::move(listener));
}

}  // namespace mercury::core
