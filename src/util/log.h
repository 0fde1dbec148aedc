// Minimal leveled logger.
//
// Components log against virtual (simulation) time, so the sink takes an
// explicit timestamp instead of reading a wall clock. Global level filtering
// keeps benches quiet and lets examples run verbose. A thread may hold its
// lines back in a LogCapture and replay them later, which is how the
// parallel experiment runner (src/exp) keeps stderr in trial order.
#pragma once

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"

namespace mercury::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

std::string_view to_string(LogLevel level);

/// Process-wide log configuration. Level and sink are set before any
/// worker thread starts (the simulator is single-threaded, and the POSIX
/// supervisor configures logging before spawning children); log() itself
/// may run on any thread and honours that thread's LogCapture.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, TimePoint, std::string_view component,
                                  std::string_view message)>;

  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_ && level_ != LogLevel::kOff; }

  /// Replace the sink (default writes to stderr). Pass nullptr to restore
  /// the default sink.
  void set_sink(Sink sink);

  /// Send a line that passes the level filter to the sink, or append it to
  /// the calling thread's LogCapture when one is installed.
  void log(LogLevel level, TimePoint t, std::string_view component,
           std::string_view message);

 private:
  Logger();
  LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
};

/// One log line held back by a LogCapture.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  TimePoint t;
  std::string component;
  std::string message;
};

/// RAII thread-local capture: while it lives, Logger::log on this thread
/// appends to `lines` instead of calling the sink. The owner replays them
/// through Logger::log when their order is settled. Captures nest; the
/// previous one is restored on destruction.
class LogCapture {
 public:
  explicit LogCapture(std::vector<LogRecord>& lines);
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

 private:
  std::vector<LogRecord>* previous_;
};

/// Stream-style helper: LogLine(kInfo, now, "ses") << "locked on pass";
/// At a disabled level it builds nothing: no component copy, no stream.
class LogLine {
 public:
  LogLine(LogLevel level, TimePoint t, std::string_view component)
      : level_(level), t_(t) {
    if (Logger::instance().enabled(level)) {
      component_ = component;
      os_.emplace();
    }
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine();

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (os_) *os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  TimePoint t_;
  std::string component_;
  std::optional<std::ostringstream> os_;
};

}  // namespace mercury::util
