#!/usr/bin/env python3
"""DN-Hunter ingest benchmark: builds the benchmark, makes the inputs for a
seed and runs one workload in a fresh process.

    python3 perfbench/run.py --workload capture-serial --seed 1105 \
        --seconds 15 --trace 0

Run from the repository root. Everything it writes goes under the build
root (CARGO_TARGET_DIR if set, else .bench_build): the Release build, the
cached inputs of the last seeds, and each workload's work directory. The
last line of stdout is the result JSON; README.md documents the workloads
and metrics. `--workload all` runs every workload, each in its own
process, and prints one line per workload.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["capture-serial", "capture-sharded", "live-windowed",
             "export-sharded"]
BUILD_TYPE = "Release"
CACHED_SEEDS = 2      # input sets kept on disk
RUN_TIMEOUT_S = 170   # one perfbench_run process


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=1):
    log("perfbench: " + message)
    sys.exit(code)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        fail(f"{cmd[0]} failed: {exc}")
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def build():
    """Configures (once) and builds the Release tree; returns its dir."""
    build_dir = os.path.join(build_root(), "perfbench")
    started = time.monotonic()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator, 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], 840)
    seconds = time.monotonic() - started
    stamp_path = os.path.join(build_dir, "perfbench-build.json")
    if not os.path.exists(stamp_path):
        with open(stamp_path, "w") as f:
            json.dump({"full_build_s": round(seconds, 3)}, f)
    with open(stamp_path) as f:
        stamp = json.load(f)
    print(f"build: {BUILD_TYPE}, full build {stamp['full_build_s']} s, "
          f"this run {seconds:.3f} s")
    return build_dir


def inputs_for(build_dir, seed):
    """Returns (dir, meta) of the seed's inputs, generating them once."""
    cache = os.path.join(build_root(), "inputs")
    final = os.path.join(cache, f"seed-{seed}")
    meta_path = os.path.join(final, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        print(f"inputs: seed {seed} cached; generation took "
              f"{meta['generation_s']} s when made")
        return final, meta
    os.makedirs(cache, exist_ok=True)
    kept = sorted((os.path.join(cache, d) for d in os.listdir(cache)),
                  key=os.path.getmtime, reverse=True)
    for stale in kept[CACHED_SEEDS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    staging = final + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    started = time.monotonic()
    gen = subprocess.run(
        [os.path.join(build_dir, "perfbench_gen"), "--seed", str(seed),
         "--out", staging],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if gen.returncode != 0:
        fail(f"input generation failed: {gen.stderr.strip()}")
    meta = json.loads(gen.stdout.strip().splitlines()[-1])
    meta["generation_s"] = round(time.monotonic() - started, 3)
    run_quiet([os.path.join(build_dir, "perfbench_run"), "--make-reference",
               "--inputs", staging, "--work",
               os.path.join(build_root(), "work", "reference")],
              RUN_TIMEOUT_S)
    with open(os.path.join(staging, "meta.json"), "w") as f:
        json.dump(meta, f)
    # Write the new inputs back now: left dirty, the kernel would flush
    # them during the timed passes (and every spill fsync would wait).
    for name in os.listdir(staging):
        fd = os.open(os.path.join(staging, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    os.replace(staging, final)
    print(f"inputs: seed {seed} generated in {meta['generation_s']} s "
          f"(not part of setup_s)")
    return final, meta


def compiler(build_dir):
    path = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
        version = subprocess.run([path, "--version"], capture_output=True,
                                 text=True, timeout=30, check=False)
        return version.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return path


def source_revision():
    """git sha when the tree is a checkout, plus a hash of the sources the
    benchmark builds (the checkout it runs in need not be a git tree)."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        sha = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def engine(build_dir, mode, args, inputs, timeout=RUN_TIMEOUT_S):
    """Runs one perfbench_run process; returns (exit code, stdout lines)."""
    cmd = [os.path.join(build_dir, "perfbench_run"), mode, "--workload",
           args.workload, "--inputs", inputs, "--work",
           os.path.join(build_root(), "work", args.workload)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} {mode} did not finish in {timeout} s")
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.strip().splitlines()


def last_json(lines, what):
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{what} printed no result")


def median(values):
    return statistics.median(values)


def nearest_rank(values, p):
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(build_dir, args, inputs):
    """Repeats passes, each in a fresh process, for args.seconds; returns
    (all passes ok and identical, metrics)."""
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < args.seconds:
        code, lines = engine(build_dir, "--pass", args, inputs)
        passes.append(last_json(lines, "a pass"))
        if code != 0:
            break
    ok = all(p["ok"] for p in passes) and \
        len({p["tsv_hash"] for p in passes}) == 1
    setup = [s for p in passes for s in p["setup_s"]]
    by_window = {}
    for p in passes:
        for window, latency in p["latency_ms"]:
            by_window.setdefault(window, []).append(latency)
    # A window is delivered once per pass; its latency is the median of its
    # deliveries, so one stall in one pass does not set the tail.
    latency = [median(v) for v in by_window.values()]
    print(f"passes: {len(passes)}  setup samples: {len(setup)}  "
          f"windows: {len(latency)}")
    # Window latency is printed, not bounded: on a shared disk and CPU its
    # run-to-run spread exceeds any bound the metrics may have (README.md).
    for p in (50, 99):
        print(f"window_latency_p{p}_ms {nearest_rank(latency, p):.6f} ms")
    metrics = [
        ("setup_s", median(setup), "s"),
        ("ingest_fps", median(p["items"] / p["ingest_s"] for p in passes),
         "1/s"),
        ("wall_s", median(p["wall_s"] for p in passes), "s"),
        ("peak_rss_mb", median(p["peak_rss_mb"] for p in passes), "MiB"),
    ]
    return ok, {name: {"value": value, "unit": unit}
                for name, value, unit in metrics}


def run_workload(args):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no DN-Hunter source tree under {ROOT}", 2)
    build_dir = build()
    inputs, meta = inputs_for(build_dir, args.seed)
    sha, source_hash = source_revision()
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "hw_threads": os.cpu_count(), "build_type": BUILD_TYPE,
        "compiler": compiler(build_dir), "git_sha": sha,
        "source_sha256": source_hash, "machine": platform.machine(),
        "input_frames": meta["frames"], "input_flows": meta["tcp_flows"],
        "input_bytes": meta["pcap_bytes"] + meta["export_bytes"],
        "clients": meta["clients"], "capture_minutes": meta["minutes"],
    }
    print("provenance: " + json.dumps(provenance))
    if args.trace:
        code, lines = engine(build_dir, "--trace", args, inputs)
        print("\n".join(lines[:-1]))
        traced = last_json(lines, "the traced run")
        ok, metrics = traced["ok"] and code == 0, traced["metrics"]
    else:
        ok, metrics = end_to_end(build_dir, args, inputs)
    code, lines = engine(build_dir, "--check", args, inputs)
    print("\n".join(lines[:-1]))
    check = last_json(lines, "the output check")
    ok = ok and check["ok"] and code == 0
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>18.6f} {m['unit']}")
    if not ok:
        log("perfbench: output check FAILED")
    print(json.dumps({"correct": ok,
                      "attempted": max(1, check["reference_flows"]),
                      "failed": check["mismatched"], "metrics": metrics}),
          flush=True)
    return 0 if ok else 1


def run_all(args):
    """Every workload in its own process; one summary line each."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(f"[{workload}] {line}" for line in lines[:-1]))
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[workload] = {"correct": False}
        if done.returncode != 0:
            status = 1
    print(json.dumps(summary))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1105)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
