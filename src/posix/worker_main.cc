// mercury_worker — the POSIX backend's test component.
//
// A deliberately boring process that behaves like a Mercury component:
// it takes a while to start (serial negotiation, JVM warmup...), then
// answers liveness pings on stdin until told to misbehave.
//
//   mercury_worker --name ses --startup-ms 200 [--wedge-after N]
//
// Protocol (one line per message):
//   stdout:  READY <name>            after the startup delay
//            PONG <seq>              reply to a ping
//   stdin:   PING <seq>
//            WEDGE                   become fail-silent (stop answering)
//            CRASH                   abort() immediately
//            EXIT                    clean exit
//
// --wedge-after N: stop answering after the N-th pong — a self-inflicted
// fail-silent failure, for supervision tests without external kills.
//
// --leak-mb-per-min R: report a memory figure growing at R MB/min in a
// "HEALTH <name> mem=<MB>" line alongside every pong — the §7 beacon
// digest, over real pipes. A restart resets the figure (rejuvenation).
//
// Restart-time faults (ISSUE 2: the restart path is itself a fault domain):
//
// --hang-start-once FILE: if FILE does not exist, create it and hang forever
// before READY (the deterministic first-attempt hang); if it exists, start
// normally. Lets a test observe exactly one startup timeout, then recovery.
//
// Checkpointed warm restarts (ISSUE 3):
//
// --checkpoint-file FILE [--warm-startup-ms N]: if FILE holds a valid
// checkpoint for this worker (format: posix/checkpoint_file.h), sleep only
// the warm delay (default startup_ms / 4) instead of the full startup —
// the slow part of starting was rebuilding exactly the state the file
// preserves. After READY the worker (re)writes the file. The supervisor
// validates the same checksum before spawning and deletes invalid files.
//
// --garble-pongs N: answer the first N pings of this incarnation with
// corrupted protocol lines (an oversized PONG sequence, a malformed HEALTH
// figure) before resuming normal service — regression fodder for the
// supervisor's checked line parsing (a 20+ digit PONG used to throw
// std::out_of_range inside the recovery brain).
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "posix/checkpoint_file.h"

namespace {

struct Options {
  std::string name = "worker";
  long startup_ms = 100;
  long wedge_after = -1;  // pongs answered before self-wedging; -1 = never
  double leak_mb_per_min = 0.0;
  std::string hang_start_once;   // sentinel path; hang before READY if absent
  std::string checkpoint_file;   // state file enabling warm restarts
  long warm_startup_ms = -1;     // warm delay; -1 = startup_ms / 4
  long garble_pongs = 0;         // pings answered with corrupted lines first
};

double now_seconds() {
  timeval tv{};
  gettimeofday(&tv, nullptr);
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--name" && has_value) {
      options.name = argv[++i];
    } else if (arg == "--startup-ms" && has_value) {
      options.startup_ms = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--wedge-after" && has_value) {
      options.wedge_after = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--leak-mb-per-min" && has_value) {
      options.leak_mb_per_min = std::strtod(argv[++i], nullptr);
    } else if (arg == "--hang-start-once" && has_value) {
      options.hang_start_once = argv[++i];
    } else if (arg == "--checkpoint-file" && has_value) {
      options.checkpoint_file = argv[++i];
    } else if (arg == "--warm-startup-ms" && has_value) {
      options.warm_startup_ms = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--garble-pongs" && has_value) {
      options.garble_pongs = std::strtol(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "worker: unknown or incomplete argument '%s'\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // line-buffered replies

  // Deterministic first-attempt hang: claim the sentinel, then stall before
  // READY. The supervisor's startup timeout is the only way out.
  if (!options.hang_start_once.empty()) {
    std::FILE* sentinel = std::fopen(options.hang_start_once.c_str(), "r");
    if (sentinel != nullptr) {
      std::fclose(sentinel);  // already claimed: this incarnation starts clean
    } else {
      sentinel = std::fopen(options.hang_start_once.c_str(), "w");
      if (sentinel != nullptr) std::fclose(sentinel);
      std::fprintf(stderr, "worker %s: hanging during startup (sentinel %s)\n",
                   options.name.c_str(), options.hang_start_once.c_str());
      for (;;) pause();  // hang until SIGKILLed
    }
  }

  // Warm restart (ISSUE 3): a valid checkpoint file means the state whose
  // reconstruction dominates the cold startup is already on disk — sleep
  // only the warm delay. Any invalid file yields the full cold start (and
  // the supervisor normally deleted it before this spawn anyway).
  long startup_ms = options.startup_ms;
  bool warm = false;
  if (!options.checkpoint_file.empty()) {
    mercury::posix::ckpt::CheckpointFile checkpoint;
    if (mercury::posix::ckpt::read_checkpoint_file(
            options.checkpoint_file, options.name, &checkpoint) ==
        mercury::posix::ckpt::FileState::kValid) {
      warm = true;
      startup_ms = options.warm_startup_ms >= 0 ? options.warm_startup_ms
                                                : options.startup_ms / 4;
    }
  }
  usleep(static_cast<useconds_t>(startup_ms) * 1000);

  const double started = now_seconds();
  std::printf("READY %s\n", options.name.c_str());
  if (!options.checkpoint_file.empty()) {
    // The state is (re)built; persist it for the next incarnation.
    const std::string payload =
        std::string(warm ? "reloaded" : "rebuilt") + "-state";
    mercury::posix::ckpt::write_checkpoint_file(options.checkpoint_file,
                                                options.name, payload);
    std::fprintf(stderr, "worker %s: %s start, checkpoint written to %s\n",
                 options.name.c_str(), warm ? "warm" : "cold",
                 options.checkpoint_file.c_str());
  }

  bool wedged = false;
  long pongs = 0;
  long garbled = 0;
  char line[512];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    // Strip the newline.
    line[std::strcspn(line, "\n")] = '\0';
    if (std::strncmp(line, "PING ", 5) == 0) {
      if (wedged) continue;  // fail-silent: consume, never answer
      if (garbled < options.garble_pongs) {
        // Corrupted replies: an overflowing all-digit sequence (passes
        // is_all_digits, overflows 64 bits), a non-numeric one, and a
        // HEALTH beacon with a garbage figure. A correct supervisor skips
        // them all and times the ping out.
        ++garbled;
        std::printf("PONG 99999999999999999999999\n");
        std::printf("PONG not-a-sequence-number\n");
        std::printf("HEALTH %s mem=not-a-number\n", options.name.c_str());
        continue;
      }
      std::printf("PONG %s\n", line + 5);
      if (options.leak_mb_per_min > 0.0) {
        const double uptime_min = (now_seconds() - started) / 60.0;
        std::printf("HEALTH %s mem=%.3f\n", options.name.c_str(),
                    48.0 + options.leak_mb_per_min * uptime_min);
      }
      ++pongs;
      if (options.wedge_after >= 0 && pongs >= options.wedge_after) {
        wedged = true;
      }
    } else if (std::strcmp(line, "WEDGE") == 0) {
      wedged = true;
    } else if (std::strcmp(line, "CRASH") == 0) {
      std::abort();
    } else if (std::strcmp(line, "EXIT") == 0) {
      return 0;
    }
    // Unknown commands are ignored (COTS components shrug).
  }
  return 0;  // stdin closed: supervisor went away
}
