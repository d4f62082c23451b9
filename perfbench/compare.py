#!/usr/bin/env python3
"""Compares runs recorded with `perfbench/run.py --record FILE`.

    python3 perfbench/compare.py --base A.json ... [--candidate B.json ...]

Refuses (exit 2) to compare records whose SIMD tier or build type differ.
For every workload and metric it prints each side's median and quartiles and
the candidate's change against the base median.  Traced records of the same
workload, seed and --seconds must repeat every count metric exactly; a count
that does not is flagged and the exit code is 1.
"""

import argparse
import json
import statistics
import sys

# Per-layer metrics that are counts of work, not times: they depend only on
# the schedule, so runs with the same seed must agree exactly.
REPEATABLE = (
    "faults.bridging.enumerated", "faults.bridging.detectable_ratio",
    "sim.batch_fault_sim.dense_mb", "core.detection_db.set_mb",
    "core.procedure1.tests_added", "core.procedure1.def1_fallbacks",
    "sim.ternary_sim.oracle_queries", "sim.ternary_sim.good_sims",
    "sim.ternary_sim.verdict_hit_ratio", "core.session.memo_mb",
    "serve.protocol.response_bytes")


def load(paths):
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def stamp_conflicts(records):
    problems = []
    for field in ("simd_level", "build_type"):
        seen = {r["stamp"][field] for r in records}
        if len(seen) > 1:
            problems.append("%s differs: %s" % (field, sorted(map(str, seen))))
    return problems


def count_mismatches(records):
    groups = {}
    for r in records:
        if r["trace"]:
            groups.setdefault((r["workload"], r["seed"], r["seconds"]), []).append(r)
    flagged = []
    for key, group in sorted(groups.items()):
        for name in REPEATABLE:
            values = {g["result"]["metrics"][name]["value"] for g in group}
            if len(values) > 1:
                flagged.append("%s seed %s: %s took %s" % (key[0], key[1], name,
                                                          sorted(values)))
    return flagged


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--candidate", nargs="*", default=[])
    args = parser.parse_args()
    base, candidate = load(args.base), load(args.candidate)

    conflicts = stamp_conflicts(base + candidate)
    if conflicts:
        print("compare: refusing to compare: " + "; ".join(conflicts))
        return 2
    sides = [("base", base)] + ([("candidate", candidate)] if candidate else [])
    for workload in sorted({r["workload"] for r in base + candidate}):
        for trace in (0, 1):
            rows = {name: [r for r in records if r["workload"] == workload
                           and r["trace"] == trace] for name, records in sides}
            if not rows["base"]:
                continue
            print("%s (trace %d)" % (workload, trace))
            for metric in rows["base"][0]["result"]["metrics"]:
                line = "  %-36s" % metric
                medians = []
                for name, _ in sides:
                    values = [r["result"]["metrics"][metric]["value"]
                              for r in rows[name]]
                    if not values:
                        continue
                    q1, median, q3 = summary(values)
                    medians.append(median)
                    line += " %s %.6g [%.6g, %.6g]" % (name, median, q1, q3)
                if len(medians) == 2 and medians[0]:
                    line += " change %+.1f%%" % (100 * (medians[1] / medians[0] - 1))
                print(line)
    flagged = count_mismatches(base) + count_mismatches(candidate)
    for problem in flagged:
        print("compare: count did not repeat: " + problem)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
