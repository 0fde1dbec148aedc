#include "obs/trace.h"

#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

namespace mercury::obs {

namespace {

// Thread-local: parallel experiment trials each install a private recorder
// on their worker thread (src/exp/runner.cc); emit sites never race.
thread_local TraceRecorder* g_recorder = nullptr;

/// JSON string escaping for the export/import round trip. Event names and
/// args are ASCII in practice, but component labels flow through user code,
/// so escape defensively.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Timestamps print with microsecond resolution; %.9g keeps round-trip
/// fidelity for the double seconds the recorder stores.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_args_object(std::ostream& out, const std::vector<TraceArg>& args) {
  out << '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << json_escape(args[i].key) << "\":\"" << json_escape(args[i].value)
        << '"';
  }
  out << '}';
}

}  // namespace

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kInstant: return "i";
    case EventKind::kBegin: return "B";
    case EventKind::kEnd: return "E";
  }
  return "?";
}

std::string TraceEvent::arg_or(const std::string& key,
                               const std::string& fallback) const {
  for (const auto& arg : args) {
    if (arg.key == key) return arg.value;
  }
  return fallback;
}

TraceRecorder::TraceRecorder(std::size_t max_events) : max_events_(max_events) {}

void TraceRecorder::push(TraceEvent event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceRecorder::instant(double t, std::string category, std::string name,
                            std::string track, std::vector<TraceArg> args) {
  TraceEvent event;
  event.t = t;
  event.kind = EventKind::kInstant;
  event.category = std::move(category);
  event.name = std::move(name);
  event.track = std::move(track);
  event.run = run_;
  event.args = std::move(args);
  push(std::move(event));
}

std::uint64_t TraceRecorder::begin(double t, std::string category,
                                   std::string name, std::string track,
                                   std::vector<TraceArg> args) {
  const std::uint64_t id = next_span_++;
  open_spans_[id] = {category, name, track};
  TraceEvent event;
  event.t = t;
  event.kind = EventKind::kBegin;
  event.category = std::move(category);
  event.name = std::move(name);
  event.track = std::move(track);
  event.span = id;
  event.run = run_;
  event.args = std::move(args);
  push(std::move(event));
  return id;
}

void TraceRecorder::end(double t, std::uint64_t span,
                        std::vector<TraceArg> args) {
  const auto it = open_spans_.find(span);
  if (it == open_spans_.end()) return;  // never opened, or already closed
  TraceEvent event;
  event.t = t;
  event.kind = EventKind::kEnd;
  event.category = it->second[0];
  event.name = it->second[1];
  event.track = it->second[2];
  event.span = span;
  event.run = run_;
  event.args = std::move(args);
  open_spans_.erase(it);
  push(std::move(event));
}

void TraceRecorder::incr(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

void TraceRecorder::observe(const std::string& name, double value) {
  samples_[name].add(value);
}

std::uint64_t TraceRecorder::count(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

std::string TraceRecorder::metrics_summary() const {
  std::ostringstream out;
  if (!counters_.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : counters_) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!samples_.empty()) {
    out << "samples (n / mean / p50 / p95 / max, seconds):\n";
    for (const auto& [name, stats] : samples_) {
      out << "  " << name << " = " << stats.count() << " / "
          << json_number(stats.mean()) << " / " << json_number(stats.percentile(50))
          << " / " << json_number(stats.percentile(95)) << " / "
          << json_number(stats.max()) << "\n";
    }
  }
  if (dropped_ > 0) {
    out << "dropped events (over " << max_events_ << " cap): " << dropped_ << "\n";
  }
  return out.str();
}

void TraceRecorder::merge_from(TraceRecorder&& other) {
  // Number other's spans and runs after everything this recorder has
  // issued, as if it had recorded other's trials itself; a later merge (or
  // live emission) continues that same numbering.
  const std::uint64_t span_offset = next_span_ - 1;
  const std::uint64_t run_offset = run_;
  for (TraceEvent& event : other.events_) {
    if (event.span != 0) event.span += span_offset;
    event.run += run_offset;
    push(std::move(event));
  }
  other.events_.clear();
  next_span_ += other.next_span_ - 1;
  run_ += other.run_;
  dropped_ += other.dropped_;
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, stats] : other.samples_) {
    util::SampleStats& mine = samples_[name];
    for (const double value : stats.samples()) mine.add(value);
  }
}

void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out) {
  for (const TraceEvent& event : events) {
    out << "{\"t\":" << json_number(event.t) << ",\"ph\":\""
        << to_string(event.kind) << "\",\"cat\":\"" << json_escape(event.category)
        << "\",\"name\":\"" << json_escape(event.name) << "\",\"track\":\""
        << json_escape(event.track) << "\",\"span\":" << event.span
        << ",\"run\":" << event.run << ",\"args\":";
    write_args_object(out, event.args);
    out << "}\n";
  }
}

void TraceRecorder::write_jsonl(std::ostream& out) const {
  obs::write_jsonl(events_, out);
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  // Tracks map to Chrome thread ids within the run's process; name them via
  // metadata events so the viewer shows "fd", "rec", ... instead of numbers.
  std::map<std::pair<std::uint64_t, std::string>, int> tids;
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const TraceEvent& event : events_) {
    const auto key = std::make_pair(event.run, event.track);
    auto it = tids.find(key);
    if (it == tids.end()) {
      const int tid = static_cast<int>(tids.size()) + 1;
      it = tids.emplace(key, tid).first;
      comma();
      out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << event.run
          << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
          << json_escape(event.track) << "\"}}";
      comma();
      out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << event.run
          << ",\"tid\":" << tid << ",\"args\":{\"name\":\"run " << event.run
          << "\"}}";
    }
    comma();
    out << "{\"ph\":\"" << to_string(event.kind) << "\",\"ts\":"
        << json_number(event.t * 1e6) << ",\"pid\":" << event.run
        << ",\"tid\":" << it->second << ",\"cat\":\"" << json_escape(event.category)
        << "\",\"name\":\"" << json_escape(event.name) << "\"";
    if (event.kind == EventKind::kInstant) out << ",\"s\":\"t\"";
    out << ",\"args\":";
    write_args_object(out, event.args);
    out << "}";
  }
  out << "]}\n";
}

// --- JSONL import ---------------------------------------------------------
//
// A hand-rolled parser for exactly the flat object write_jsonl emits (string
// and integer values, plus the one-level "args" object). Not a general JSON
// parser; docs/TRACING.md pins the schema.

namespace {

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  bool eat(char c) {
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }
};

bool parse_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (c.i < c.s.size()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.i >= c.s.size()) return false;
      const char esc = c.s[c.i++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Checked hex parse: a malformed escape fails the line instead of
          // throwing out of the reader (corrupted trace files are routine).
          if (c.i + 4 > c.s.size()) return false;
          unsigned code = 0;
          for (std::size_t k = 0; k < 4; ++k) {
            const char h = c.s[c.i + k];
            unsigned digit = 0;
            if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') digit = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') digit = static_cast<unsigned>(h - 'A' + 10);
            else return false;
            code = code * 16 + digit;
          }
          c.i += 4;
          // write_jsonl only emits \u00XX (control bytes), but accept any
          // BMP code point and re-encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    } else {
      out += ch;
    }
  }
  return false;
}

bool parse_number(Cursor& c, std::string& out) {
  out.clear();
  while (c.i < c.s.size()) {
    const char ch = c.s[c.i];
    if ((ch >= '0' && ch <= '9') || ch == '-' || ch == '+' || ch == '.' ||
        ch == 'e' || ch == 'E') {
      out += ch;
      ++c.i;
    } else {
      break;
    }
  }
  return !out.empty();
}

// Checked numeric parses: corrupted lines carry tokens like "-", ".", "e",
// or out-of-range digit runs, all of which parse_number happily collects.
// std::stod/std::stoull would throw on them and kill the reader; from_chars
// reports failure and the line is skipped.
bool parse_double_checked(std::string_view text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_u64_checked(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_args(Cursor& c, std::vector<TraceArg>& out) {
  if (!c.eat('{')) return false;
  c.skip_ws();
  if (c.eat('}')) return true;
  while (true) {
    TraceArg arg;
    if (!parse_string(c, arg.key)) return false;
    if (!c.eat(':')) return false;
    if (!parse_string(c, arg.value)) return false;
    out.push_back(std::move(arg));
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

bool parse_event(std::string_view line, TraceEvent& event) {
  Cursor c{line};
  if (!c.eat('{')) return false;
  while (true) {
    c.skip_ws();
    std::string key;
    if (!parse_string(c, key)) return false;
    if (!c.eat(':')) return false;
    if (key == "args") {
      if (!parse_args(c, event.args)) return false;
    } else if (key == "ph") {
      std::string ph;
      if (!parse_string(c, ph)) return false;
      if (ph == "i") event.kind = EventKind::kInstant;
      else if (ph == "B") event.kind = EventKind::kBegin;
      else if (ph == "E") event.kind = EventKind::kEnd;
      else return false;
    } else if (key == "cat" || key == "name" || key == "track") {
      std::string value;
      if (!parse_string(c, value)) return false;
      if (key == "cat") event.category = std::move(value);
      else if (key == "name") event.name = std::move(value);
      else event.track = std::move(value);
    } else if (key == "t" || key == "span" || key == "run") {
      std::string num;
      if (!parse_number(c, num)) return false;
      if (key == "t") {
        if (!parse_double_checked(num, event.t)) return false;
      } else if (key == "span") {
        if (!parse_u64_checked(num, event.span)) return false;
      } else {
        if (!parse_u64_checked(num, event.run)) return false;
      }
    } else {
      return false;  // unknown field: not our schema
    }
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

}  // namespace

std::vector<TraceEvent> read_jsonl(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TraceEvent event;
    if (parse_event(line, event)) events.push_back(std::move(event));
  }
  return events;
}

// --- Process-wide recorder ------------------------------------------------

TraceRecorder* recorder() { return g_recorder; }

TraceRecorder* set_recorder(TraceRecorder* rec) {
  TraceRecorder* previous = g_recorder;
  g_recorder = rec;
  return previous;
}

void instant(util::TimePoint t, std::string category, std::string name,
             std::string track, std::vector<TraceArg> args) {
  if (g_recorder == nullptr) return;
  g_recorder->instant(t.to_seconds(), std::move(category), std::move(name),
                      std::move(track), std::move(args));
}

std::uint64_t begin_span(util::TimePoint t, std::string category,
                         std::string name, std::string track,
                         std::vector<TraceArg> args) {
  if (g_recorder == nullptr) return 0;
  return g_recorder->begin(t.to_seconds(), std::move(category), std::move(name),
                           std::move(track), std::move(args));
}

void end_span(util::TimePoint t, std::uint64_t span,
              std::vector<TraceArg> args) {
  if (g_recorder == nullptr || span == 0) return;
  g_recorder->end(t.to_seconds(), span, std::move(args));
}

void incr(const std::string& name, std::uint64_t delta) {
  if (g_recorder == nullptr) return;
  g_recorder->incr(name, delta);
}

void observe(const std::string& name, double value) {
  if (g_recorder == nullptr) return;
  g_recorder->observe(name, value);
}

void next_run() {
  if (g_recorder == nullptr) return;
  g_recorder->next_run();
}

}  // namespace mercury::obs
