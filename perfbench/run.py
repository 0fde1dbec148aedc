#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads (README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. It builds perfbench/ (which compiles
the program from ../src) into .bench_build/perfbench, times the workload's
set-up in fresh processes (setup_s is their median), runs the workload, and
prints two lines on stdout:

  1. the result record: every metric and check of the run, stamped with the
     source commit (or "unknown" outside git), a digest of the sources,
     build type, compiler, nproc and CPU model; the record is also appended
     to .bench_build/perfbench/results.jsonl;
  2. the result: {"correct", "attempted", "failed", "metrics"}, where the
     metrics are BENCHMARK.json's end_to_end set (--trace 0) or its
     per_layer set (--trace 1).

Exits 1 when the build fails (nothing printed) or an output check fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sweep_serial", "posix_live")
SETUP_REPEATS = 15
RUN_TIMEOUT_S = 170  # set-up processes and the run together


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (a no-op when nothing changed) and builds incrementally;
    returns the driver path."""
    os.makedirs(BUILD, exist_ok=True)
    cmake_dir = os.path.join(BUILD, "cmake")
    generator = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "perfbench")


def run_driver(argv, out_dir, deadline):
    """Runs the driver in its own process group until `deadline`
    (time.monotonic()); returns (code, stdout)."""
    proc = subprocess.Popen(argv + ["--out-dir", out_dir], stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"driver timed out ({RUN_TIMEOUT_S} s for set-up and run)")
        return 1, ""
    return proc.returncode, out


def time_setup(argv, out_dir, deadline):
    """Set-up of one fresh driver process as the driver timed it, from
    main() to its "setup-done <setup_s> <raw_s>" line: (setup_s, raw_s)."""
    code, out = run_driver(argv + ["--setup-only", "1"], out_dir, deadline)
    fields = out.split()
    if code != 0 or len(fields) != 3 or fields[0] != "setup-done":
        raise RuntimeError(f"set-up run failed (exit {code})")
    return float(fields[1]), float(fields[2])


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_digest(record, sources):
    """Same seed and sources must give the same TrialResult digest in every
    run of this checkout, traced or not."""
    if record["digest"] == "0000000000000000":
        return True
    path = os.path.join(BUILD, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    key = f"{sources}/{record['workload']}/{record['seed']}"
    if key in known:
        return known[key] == record["digest"]
    known[key] = record["digest"]
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(BUILD, f"out-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    argv = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            setups = [time_setup(argv + ["--trace", "0"], out_dir, deadline)
                      for _ in range(SETUP_REPEATS)]
        code, out = run_driver(argv + ["--trace", str(args.trace)], out_dir, deadline)
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        log(f"driver printed no record (exit {code})")
        return 1
    record = json.loads(lines[-1])

    sources = source_digest()
    if setups:
        scaled, raw = zip(*setups)
        record["e2e"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        record["extra"]["setup_s_raw"] = {"value": statistics.median(raw), "unit": "s"}
        record["setup_samples_s"] = scaled
        record["setup_raw_samples_s"] = raw
    record.update({"commit": commit(), "source_digest": sources, "nproc": os.cpu_count(),
                   "cpu_model": cpu_model(), "seconds": args.seconds, "unix_time": time.time()})
    checks = [{"name": "digest_across_runs", "ok": check_digest(record, sources),
               "detail": "same seed and sources, same TrialResult digest"}]

    group = "layers" if args.trace else "e2e"
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    metrics = record[group]
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        checks.append({"name": "metrics_complete", "ok": not missing,
                       "detail": "missing: " + ",".join(missing)})
        metrics = {m["name"]: metrics[m["name"]] for m in wanted if m["name"] in metrics}

    record["checks"] += checks
    record["attempted"] += len(checks)
    record["failed"] += sum(1 for c in checks if not c["ok"])
    correct = code == 0 and all(c["ok"] for c in record["checks"])
    record["correct"] = correct
    record["extra"]["failed_frac"] = {
        "value": record["failed"] / record["attempted"], "unit": "ratio"}
    with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
