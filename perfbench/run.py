#!/usr/bin/env python3
"""The ndetd benchmark: one command, two workloads, a traced run.

    python3 perfbench/run.py --workload cold|average --seed N \\
        --seconds S --trace 0|1 [--record FILE]

Builds the daemon and perfbench_client from source on first use (under
$CARGO_TARGET_DIR, default .bench_build), makes the workload's schedule from
the seed, and prints one JSON object as the last line of stdout.  With
--trace 0 it reports the end-to-end metrics of a timed run against the real
ndetd over loopback TCP; with --trace 1 it reports the per-layer metrics of
an in-process traced replay of the same schedule.  --record also writes the
run's full record (environment stamp, tail percentile, guards, counts) for
perfbench/compare.py.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import trace_metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
CLIENT_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds ndetd and perfbench_client (a no-op when up to
    date).  Returns (daemon, client, build type)."""
    for needed in ("CMakeLists.txt", os.path.join("src", "serve", "ndetd_main.cpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise SystemExit("perfbench: %s is missing; run from a full checkout"
                             % needed)
    out = build_dir()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                    "--target", "ndetd", "perfbench_client"],
                   check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S - (time.monotonic() - started))
    build_type = ""
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return (os.path.join(out, "ndet", "src", "ndetd"),
            os.path.join(out, "perfbench_client"), build_type)


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run_client(client, mode, schedule_path, workload, out, extra=()):
    command = [client, mode, "--schedule=" + schedule_path,
               "--connections=%d" % workload.connections,
               "--cache-bytes=%d" % workload.cache_bytes,
               "--out=" + out, *extra]
    subprocess.run(command, check=True, stdout=sys.stderr,
                   timeout=CLIENT_TIMEOUT_S)


def read_rows(path):
    """(key, text) of every "<key>\t<text>" row of a file the client wrote."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for row in handle:
            key, text = row.rstrip("\n").split("\t", 1)
            rows.append((int(key), text))
    return rows


def timed_run(daemon, client, workload, schedule_path, out, setups):
    """Runs the TCP timed phase and returns (record, end-to-end metrics)."""
    run_client(client, "drive", schedule_path, workload, out,
               ["--ndetd=" + daemon, "--setups=%d" % setups,
                "--rounds=%d" % workload.rounds])
    with open(os.path.join(out, "drive.json")) as handle:
        drive = json.load(handle)
    served = read_rows(os.path.join(out, "served.txt"))
    expected = dict(read_rows(os.path.join(out, "expected.txt")))
    attempted = len(workload.timed)
    succeeded, mismatches = metrics.validate(served, expected)
    guards = metrics.guard_failures(
        workload.name, attempted, drive["stats_before"], drive["stats_after"],
        [line for _, line in served] if workload.name == "average" else ())
    if drive["daemon_exit"] != 0:
        guards.append("ndetd exited with %d after the timed phase"
                      % drive["daemon_exit"])
    throughput, p50, tail, (percent, samples, beyond) = metrics.timed_metrics(
        drive["latency_ms"], drive["round_wall_s"])
    first = next((line for _, line in served if line), "{}")
    simd = json.loads(first).get("session", {}).get("simd_level")
    record = {
        "attempted": attempted,
        "succeeded": succeeded,
        "mismatches": mismatches[:5],
        "guard_failures": guards,
        "tail": {"percentile": percent, "samples": samples, "beyond": beyond},
        "rounds": workload.rounds,
        "simd_level": simd,
        "setup_s": drive["setup_s"],
        "timed_wall_s": sum(drive["round_wall_s"]),
        "validate_s": drive["validate_s"],
        "server_cpu_ms": drive["server_cpu_ms"],
        "stats_before": drive["stats_before"],
        "stats_after": drive["stats_after"],
    }
    values = {
        "throughput_rps": throughput,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "success_ratio": succeeded / attempted,
        "server_rss_peak_mb": drive["vm_hwm_kb"] * 1024 / 1e6,
        "setup_s": statistics.median(drive["setup_s"]),
    }
    return record, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full run record here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    daemon, client, build_type = build()
    stamp = {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
             "build_type": build_type, "commit": commit(),
             "source_digest": source_digest()}
    if build_type != "Release":
        raise SystemExit("perfbench: refusing to time a %r build" % build_type)

    workload = workloads.make(args.workload, args.seed, args.seconds)
    out = os.path.join(build_dir(), "runs",
                       "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(out, exist_ok=True)
    schedule_path = os.path.join(out, "schedule.txt")
    with open(schedule_path, "w") as handle:
        handle.write("\n".join(workloads.schedule_rows(workload)) + "\n")
    try:
        record, values = timed_run(daemon, client, workload, schedule_path,
                                   out, setups=1 if args.trace else 5)
        stamp["simd_level"] = record.pop("simd_level")
        if args.trace:
            run_client(client, "trace", schedule_path, workload, out,
                       ["--workload=" + workload.name])
            with open(os.path.join(out, "trace.json")) as handle:
                trace = json.load(handle)
            values, checks = trace_metrics.per_layer(trace, record)
            record["trace_checks"] = checks
            wanted = spec["per_layer"]
        else:
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    failures = record["guard_failures"] + record.get("trace_checks", [])
    correct = record["succeeded"] == record["attempted"] and not failures
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["attempted"] if failures
        else record["attempted"] - record["succeeded"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    tail = record["tail"]
    print("perfbench: %s seed %d: %d/%d validated; tail p%g of %d samples "
          "(%d beyond); throughput and p50 are medians of %d rounds; %s"
          % (args.workload, args.seed, record["succeeded"],
             record["attempted"], tail["percentile"], tail["samples"],
             tail["beyond"], record["rounds"],
             "; ".join(failures) or "guards hold"))
    print("perfbench: stamp " + json.dumps(stamp, sort_keys=True))
    if args.record:
        with open(args.record, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "stamp": stamp, "result": result, "record": record},
                      handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
