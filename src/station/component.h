// Component: base class for Mercury's independently restartable processes.
//
// "Software components are independently operating processes with
// autonomous loci of control and interoperate through passing of messages
// composed in our XML command language" (§2.1). Each component:
//
//   * attaches to mbus under its well-known name,
//   * answers application-level liveness pings while responsive,
//   * is fail-silent: a manifesting failure (FailureBoard) or an in-flight
//     restart makes it simply stop answering (§2.2),
//   * has a process lifecycle driven by the ProcessManager: kill() ->
//     [startup duration] -> complete_start().
//
// Subclasses layer on domain behaviour (orbit estimation, tracking, tuning,
// radio proxying) and functional-readiness rules (peer resync, TCP
// connect).
#pragma once

#include <string>

#include "msg/message.h"
#include "station/calibration.h"
#include "util/time.h"

namespace mercury::station {

class Station;

class Component {
 public:
  Component(Station& station, std::string name, ComponentTiming timing);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  const std::string& name() const { return name_; }
  const ComponentTiming& timing() const { return timing_; }

  /// Process finished startup and is running.
  bool up() const { return up_; }
  bool restarting() const { return restarting_; }

  /// Answers liveness pings: up, attached to the bus, and not manifesting
  /// any active failure.
  bool responsive() const;

  /// Fully ready for station operations. Base: responsive(); subclasses add
  /// readiness conditions (ses/str: peer sync; fedr: pbcom connection).
  virtual bool functional() const { return responsive(); }

  /// Time this component last completed a startup.
  util::TimePoint last_start_time() const { return last_start_; }

  /// Whether the last completed startup was warm (checkpoint reloaded).
  bool warm_started() const { return warm_started_; }

  // --- Process lifecycle (ProcessManager only) ---------------------------
  /// The process is killed; restart begins.
  void kill();
  /// Startup finished; the component is up and re-attached to the bus.
  /// `warm` records that this start reloaded a checkpoint instead of
  /// reconstructing state (ISSUE 3) — readiness protocols consult it (a
  /// warm ses/str resumes its saved session rather than initiating fresh).
  void complete_start(bool warm = false);
  /// Cold boot into the steady state (already up, attached, ready) without
  /// simulating the initial startup transient. Used by the experiment
  /// harness; subclasses mark themselves ready in on_instant_boot().
  void instant_boot();

  /// (Re-)subscribe to mbus; no-op unless up. Called after a bus restart.
  void attach_to_bus();

 protected:
  /// Domain message handler; the ping/pong protocol is handled by the base
  /// before this is called.
  virtual void handle_message(const msg::Message& message) { (void)message; }
  virtual void on_killed() {}
  virtual void on_started() {}
  virtual void on_instant_boot() {}

  /// Send a message from this component over mbus (silently dropped by the
  /// bus when it is down — fail-silent, like a dead TCP write).
  void send(msg::Message message);
  std::uint64_t next_seq() { return seq_++; }

  Station& station_;

 private:
  void receive(const msg::Message& message);

  std::string name_;
  ComponentTiming timing_;
  bool up_ = false;
  bool restarting_ = false;
  bool warm_started_ = false;
  std::uint64_t seq_ = 1;
  util::TimePoint last_start_;
};

}  // namespace mercury::station
