"""Pure functions behind the end-to-end metrics: percentiles, payload
validation and the workloads' purity guards (tested by test_perfbench.py)."""

import json
import math
import statistics
from fractions import Fraction

# Tail candidates, in percent.  The reported tail is the highest one that
# leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_samples, percent):
    """1-based nearest rank of `percent` in n samples (exact arithmetic, so
    that p99.9 of 90,000 samples leaves 90 beyond, not 89)."""
    return max(1, math.ceil(Fraction(str(percent)) / 100 * len(sorted_samples)))


def tail_percentile(samples):
    """(percent, value, samples beyond it) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples beyond it; the median's row when
    there are too few samples for any."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    chosen = None
    for percent in TAIL_LADDER:
        rank = nearest_rank(ordered, percent)
        beyond = len(ordered) - rank
        if beyond >= TAIL_MIN_BEYOND or chosen is None:
            chosen = (percent, ordered[rank - 1], beyond)
    return chosen


def round_bounds(count, rounds):
    """[begin, end) of each round, as perfbench_client splits the schedule."""
    return [(r * count // rounds, (r + 1) * count // rounds)
            for r in range(rounds)]


def timed_metrics(latency_ms, round_wall_s):
    """Throughput, median latency and tail of the timed phase.  Throughput
    and median are taken per round, then the median over rounds.  The tail
    is taken over the whole phase: a round is too short to have a tail of
    its own.
    Returns (throughput_rps, p50_ms, tail_ms,
             (tail percent, samples it was taken over, samples beyond))."""
    bounds = round_bounds(len(latency_ms), len(round_wall_s))
    blocks = [latency_ms[begin:end] for begin, end in bounds]
    throughput = statistics.median(
        len(block) / wall for block, wall in zip(blocks, round_wall_s))
    p50 = statistics.median(statistics.median(block) for block in blocks)
    percent, tail, beyond = tail_percentile(latency_ms)
    return throughput, p50, tail, (percent, len(latency_ms), beyond)


def result_span(response):
    """The raw bytes of a response line's "result" value, or None when the
    line is not a successful analysis response."""
    try:
        envelope = json.loads(response)
    except ValueError:
        return None
    if envelope.get("ok") is not True or "result" not in envelope:
        return None
    start = response.index('"result":') + len('"result":')
    _, end = json.JSONDecoder().raw_decode(response, start)
    return response[start:end]


def validate(served, expected):
    """Counts successful responses: "ok":true and a result byte-identical to
    the direct AnalysisSession payload for the request's key.

    served:   one (key, response line) per timed request.
    expected: key -> payload string."""
    succeeded = 0
    mismatches = []
    for key, line in served:
        if result_span(line) == expected[key]:
            succeeded += 1
        else:
            mismatches.append((key, line[:200]))
    return succeeded, mismatches


def counter_delta(before, after, *path):
    for name in path:
        before, after = before[name], after[name]
    return after - before


def guard_failures(workload, timed, before, after, responses=()):
    """Reasons the timed phase was not pure, from the stats endpoint read
    before and after it (and, for `average`, the served session telemetry).

    cold:    every timed request missed the session cache.
    average: every request reused a resident session (no DB build) and ran
             Procedure 1 once (a new memo entry, never a memo hit)."""
    hits = counter_delta(before, after, "cache", "hits")
    misses = counter_delta(before, after, "cache", "misses")
    failures = []
    if workload == "cold" and (misses != timed or hits != 0):
        failures.append("cold: %d misses and %d hits for %d requests"
                        % (misses, hits, timed))
    if workload == "average":
        ran = counter_delta(before, after, "requests", "average_case", "ok")
        if hits != timed or misses != 0 or ran != timed:
            failures.append("average: %d hits, %d misses, %d ok for %d requests"
                            % (hits, misses, ran, timed))
        entries = {}
        for line in responses:
            envelope = json.loads(line) if line else {}
            session = envelope.get("session")
            if session is None:
                continue
            if session["average_case_hits"] != 0:
                failures.append("average: a memo hit on %s" % envelope["circuit"])
            entries.setdefault(envelope["circuit"], []).append(
                (session["average_case_entries"], session["db_seconds"]))
        for circuit, seen in entries.items():
            counts = sorted(e for e, _ in seen)
            if counts != list(range(1, len(seen) + 1)):
                failures.append("average: %s memo grew %s, not one entry per "
                                "request" % (circuit, counts[:5]))
            if len({db for _, db in seen}) != 1:
                failures.append("average: %s rebuilt its database" % circuit)
    return failures

