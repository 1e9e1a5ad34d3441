#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, both modes

The C++ driver (perfbench/src/main.cc) is configured and built with CMake
under .bench_build/perfbench on first use. Each workload runs in its own
process. The wrapper adds the machine and build fingerprint, compares the
default seed against perfbench/golden.json, checks that every metric named
in BENCHMARK.json was printed with its unit, and prints as its last stdout
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status is 0 when every check passed, 1 when a check failed or the
build or run broke (then the failing check is named on stdout/stderr).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPAN_TEST = os.path.join(BUILD_DIR, "perfbench_span_test")
WORKLOADS = ["fleet_sharded", "fleet_serial", "scenario_cascade"]
GOLDEN_SEED = 1
RUN_TIMEOUT_S = 160


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the program's sources (src/) are missing; cannot build")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("perfbench: CMake configure failed")
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        return False
    return True


def read_field(path, prefix):
    """Value after the colon on the first line of `path` starting with
    `prefix` (as in /proc/cpuinfo); None when unreadable."""
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix) and ":" in line:
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip() or None
    except OSError:
        return None


def source_digest():
    """SHA-256 over the program and benchmark sources, which identifies a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint(build_info):
    governor = read_text(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    flags = build_info.get("flags", "")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read_field("/proc/cpuinfo", "model name") or "unknown",
        "governor": governor or "unreadable",
        "kernel": platform.release(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("type", "unknown"),
        "cxx_flags": flags.strip(),
        "sanitizers": " ".join(f for f in flags.split() if "sanitize" in f)
                      or "none",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def golden_checks(workload, seed, observed):
    """Compares the default seed's behaviour counters with golden.json."""
    if seed != GOLDEN_SEED:
        return []
    with open(os.path.join(BENCH_DIR, "golden.json")) as f:
        golden = json.load(f)["workloads"].get(workload)
    if golden is None:
        return [{"name": "golden.%s" % workload, "ok": False,
                 "detail": "no golden values recorded"}]
    checks = []
    for key, want in sorted(golden.items()):
        got = observed.get(key)
        checks.append({"name": "golden.%s.%s" % (workload, key),
                       "ok": got == want,
                       "detail": "expected %s, got %s" % (json.dumps(want),
                                                          json.dumps(got))})
    return checks


def metric_check(spec, trace, metrics):
    """Every metric of the mode must be printed, with its unit, and no other."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in metrics.items()}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong_unit = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    ok = not (missing or extra or wrong_unit)
    detail = "all %d metrics printed with their units" % len(want) if ok else \
        "missing %s, unexpected %s, wrong unit %s" % (missing, extra, wrong_unit)
    return {"name": "metrics.complete", "ok": ok, "detail": detail}, \
        {n: metrics[n] for n in want if n in metrics}


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the result dict, or
    None when the driver did not produce one."""
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log("perfbench: %s exited %d without a result" % (workload,
                                                          proc.returncode))
        return None

    checks = result["checks"] + golden_checks(workload, seed,
                                              result["observed"])
    complete, metrics = metric_check(spec, trace, result["metrics"])
    checks.append(complete)
    for check in checks[len(result["checks"]):]:
        print("check %s %s: %s" % ("PASS" if check["ok"] else "FAIL",
                                   check["name"], check["detail"]))
    correct = all(c["ok"] for c in checks)
    outcome = {
        "correct": correct,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]) if correct else
                  max(1, int(result["attempted"])),
        "metrics": metrics,
    }
    record = dict(result, checks=checks,
                  fingerprint=fingerprint(result["build"]), outcome=outcome)
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    path = os.path.join(OUT_DIR, "result_%s_seed%d_trace%d.json"
                        % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return outcome


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    args = parser.parse_args()

    start = time.monotonic()
    if not build():
        return 1
    log("perfbench: build ready in %.1f s" % (time.monotonic() - start))

    if args.workload != "all":
        outcome = run_workload(spec, args.workload, args.seed, args.seconds,
                               args.trace or 0)
        if outcome is None:
            return 1
        print(json.dumps(outcome))
        return 0 if outcome["correct"] else 1

    # Every workload, each in its own process, in both modes.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    modes = [0, 1] if args.trace is None else [args.trace]
    for workload in WORKLOADS:
        for trace in modes:
            print("=== %s seed %d trace %d" % (workload, args.seed, trace))
            outcome = run_workload(spec, workload, args.seed, args.seconds,
                                   trace)
            if outcome is None:
                return 1
            total["correct"] = total["correct"] and outcome["correct"]
            total["attempted"] += outcome["attempted"]
            total["failed"] += outcome["failed"]
            for name, metric in outcome["metrics"].items():
                total["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
