"""Tests of the benchmark's own logic: tail-percentile selection, the purity
guards, the payload validation path, the schedules, the tracer's build
accounting check and the run comparison.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import metrics  # noqa: E402
import trace_metrics  # noqa: E402
import workloads  # noqa: E402


def response(result, ok=True, circuit="bbara", session=None):
    """A response line laid out like serve::ok_response."""
    if not ok:
        return ('{"id":7,"ok":false,"type":"worst_case","error":{"kind":'
                '"internal","stage":"","message":"x"},"elapsed_ms":0.1}')
    session = session or {"thread_count": 1, "simd_level": "avx512"}
    return ('{"id":7,"ok":true,"type":"worst_case","circuit":"%s",'
            '"cache_hit":false,"elapsed_ms":1.5,"result":%s,"session":%s}'
            % (circuit, result, json.dumps(session, separators=(",", ":"))))


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_ladder_percentile_with_ten_beyond(self):
        for count, percent, beyond in ((108, 90.0, 10), (162, 90.0, 16),
                                       (9000, 99.0, 90), (90000, 99.9, 90),
                                       (100000, 99.99, 10)):
            samples = list(range(count, 0, -1))
            chosen = metrics.tail_percentile(samples)
            self.assertEqual(chosen[0], percent, count)
            self.assertEqual(chosen[2], beyond, count)
            # Nearest rank: exactly `beyond` samples lie above the value.
            self.assertEqual(sum(s > chosen[1] for s in samples), beyond)

    def test_too_few_samples_fall_back_to_the_median(self):
        percent, value, beyond = metrics.tail_percentile([5, 1, 3])
        self.assertEqual((percent, value, beyond), (50.0, 3, 1))

    def test_rounds_report_medians_of_per_round_figures(self):
        latency = [1.0] * 100 + [2.0] * 100 + [9.0] * 100
        throughput, p50, tail, (percent, samples, beyond) = (
            metrics.timed_metrics(latency, [1.0, 2.0, 4.0]))
        self.assertEqual(throughput, 50.0)
        self.assertEqual(p50, 2.0)
        # The tail is the whole phase's p90, not a median of round tails.
        self.assertEqual(tail, 9.0)
        self.assertEqual((percent, samples, beyond), (90.0, 300, 30))

    def test_the_tail_is_taken_over_the_whole_phase(self):
        latency = [float(i) for i in range(1, 109)]
        throughput, p50, tail, row = metrics.timed_metrics(latency, [1.0] * 6)
        self.assertEqual(throughput, 18.0)
        self.assertEqual(p50, statistics.median(
            statistics.median(latency[i:i + 18]) for i in range(0, 108, 18)))
        self.assertEqual((tail, row), (98.0, (90.0, 108, 10)))


def stats(hits, misses, average_ok=0, peak_depth=1):
    return {"cache": {"hits": hits, "misses": misses},
            "requests": {"average_case": {"ok": average_ok}},
            "admission": {"peak_depth": peak_depth}}


class GuardTest(unittest.TestCase):
    def test_cold_requires_every_request_to_miss(self):
        self.assertEqual(metrics.guard_failures(
            "cold", 12, stats(0, 6), stats(0, 18)), [])
        self.assertTrue(metrics.guard_failures(
            "cold", 12, stats(0, 6), stats(1, 17)))

    def test_average_requires_one_procedure1_run_per_request(self):
        def line(entries, hits=0, db=0.25):
            return response("{}", session={"average_case_hits": hits,
                                           "average_case_entries": entries,
                                           "db_seconds": db})
        good = [line(1), line(2), line(3)]
        self.assertEqual(metrics.guard_failures(
            "average", 3, stats(0, 3), stats(3, 3, 3), good), [])
        # A memo hit, a rebuilt database, a missed run, a fresh session.
        for bad_lines, after in (([line(1), line(2), line(2, hits=1)], stats(3, 3, 3)),
                                 ([line(1), line(2), line(3, db=0.5)], stats(3, 3, 3)),
                                 ([line(1), line(2), line(2)], stats(3, 3, 3)),
                                 (good, stats(2, 4, 3))):
            self.assertTrue(metrics.guard_failures(
                "average", 3, stats(0, 3), after, bad_lines))


class ValidationTest(unittest.TestCase):
    PAYLOAD = '{"nmin":[3,3,1],"note":"a \\"session\\": b","nested":{"x":[1]}}'

    def test_extracts_the_raw_result_bytes(self):
        self.assertEqual(metrics.result_span(response(self.PAYLOAD)),
                         self.PAYLOAD)
        self.assertIsNone(metrics.result_span(response("", ok=False)))
        self.assertIsNone(metrics.result_span("not json"))

    def test_counts_only_byte_identical_successes(self):
        expected = {0: self.PAYLOAD, 1: "[1,2]"}
        served = [(0, response(self.PAYLOAD))] * 4 + [
            # Same value, different bytes: not byte-identical.
            (0, response(self.PAYLOAD.replace(",", ", "))),
            (1, response("[1,2]")),
            (1, response("[1,2]", ok=False)),
            (1, response(self.PAYLOAD)),  # another key's payload
            (1, ""),
        ]
        succeeded, mismatches = metrics.validate(served, expected)
        self.assertEqual(succeeded, 5)
        self.assertEqual([key for key, _ in mismatches], [0, 1, 1, 1])


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        for name in workloads.WORKLOADS:
            a = workloads.schedule_rows(workloads.make(name, 5, 2))
            b = workloads.schedule_rows(workloads.make(name, 5, 2))
            c = workloads.schedule_rows(workloads.make(name, 6, 2))
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)

    def test_cold_never_repeats_a_circuit_back_to_back(self):
        w = workloads.make("cold", 3, 20)
        circuits = [json.loads(b)["circuit"] for b in w.setup + w.timed]
        self.assertTrue(all(a != b for a, b in zip(circuits, circuits[1:])))
        self.assertEqual(workloads.ROUND["cold"] % len(workloads.COLD_CIRCUITS), 0)
        self.assertEqual(len(w.timed), w.rounds * workloads.ROUND["cold"])
        self.assertGreaterEqual(len(w.timed), 100)

    def test_average_requests_are_all_distinct(self):
        w = workloads.make("average", 3, 20)
        self.assertEqual(len(set(w.timed)), len(w.timed))
        self.assertEqual(len(w.timed), w.rounds * workloads.ROUND["average"])
        circuits = {json.loads(b)["circuit"] for b in w.setup}
        self.assertEqual(circuits, {k["circuit"] for k in workloads.AVERAGE_KINDS})

    def test_rows_number_ids_and_share_keys(self):
        w = workloads.Workload("t", 1, 0, setup=['{"type":"worst_case","circuit":"a"}'],
                               timed=['{"type":"worst_case","circuit":"b"}',
                                      '{"type":"worst_case","circuit":"a"}'])
        self.assertEqual(workloads.schedule_rows(w), [
            'S\t0\t{"id":1,"type":"worst_case","circuit":"a"}',
            'T\t1\t{"id":2,"type":"worst_case","circuit":"b"}',
            'T\t0\t{"id":3,"type":"worst_case","circuit":"a"}'])


class BuildAccountingTest(unittest.TestCase):
    @staticmethod
    def traced(build_ms, phase_ms):
        """A traced cold run whose build took `build_ms` beside five
        mirrored sub-phases of `phase_ms` each."""
        def spans(names, ms):
            return {n: {"duration_ms": ms, "requests": 2} for n in names}
        timed = spans(trace_metrics.RUN_SPANS.values(), 2.0)
        timed.update(spans(trace_metrics.BUILD_PHASES, 2 * phase_ms))
        timed.update(spans([trace_metrics.BUILD], 2 * build_ms))
        hits = spans([s for group in trace_metrics.HIT_SPANS_US.values()
                      for s in group], 0.002)
        procedure1 = dict.fromkeys(("runs", "tests_added", "def1_fallbacks",
                                    "oracle_queries", "good_sims",
                                    "verdict_hits", "verdict_misses"), 1)
        return {
            "violations": [],
            "timed": {"spans": timed, "procedure1": procedure1,
                      "payload_bytes": 10.0, "requests": 2, "wall_s": 1.0},
            "probe_runs": {"spans": {}, "procedure1": procedure1},
            "probe_hits": {"spans": hits},
            "probe_paths": {"handle_line_us": 1.0, "submit_us": 2.0,
                            "tcp_us": 3.0},
            "memo_bytes": None, "probe_memo_bytes": 5.0,
            "circuits": {"enumerated": 4.0, "detectable": 2.0,
                         "set_bytes": 1.0, "dense_bytes_max": 1.0,
                         "build_width1_s": 2.0, "build_width2_s": 1.0},
        }

    RECORD = {"stats_before": stats(0, 0), "stats_after": stats(0, 2),
              "server_cpu_ms": 10.0, "attempted": 2, "timed_wall_s": 1.0}

    def test_untraced_time_is_the_build_minus_its_mirrored_sub_phases(self):
        values, checks = trace_metrics.per_layer(self.traced(100.0, 19.0),
                                                 self.RECORD)
        self.assertEqual(checks, [])
        self.assertEqual(values["core.detection_db.build_ms"], 100.0)
        self.assertAlmostEqual(values["core.detection_db.untraced_ms"], 5.0)

    def test_flags_sub_phases_that_do_not_account_for_the_build(self):
        # The mirror took 10 % longer than the build, or the build did 20 %
        # of its work outside the mirrored sub-phases.
        for phase_ms in (22.0, 16.0):
            _, checks = trace_metrics.per_layer(self.traced(100.0, phase_ms),
                                                self.RECORD)
            self.assertEqual(len(checks), 1, phase_ms)


class CompareTest(unittest.TestCase):
    def record(self, simd="avx512", build="Release", trace=1, count=7):
        metrics_ = {name: {"value": count, "unit": "count"}
                    for name in compare.REPEATABLE}
        return {"workload": "cold", "seed": 1, "seconds": 20, "trace": trace,
                "stamp": {"simd_level": simd, "build_type": build},
                "result": {"metrics": metrics_}}

    def run_compare(self, base, candidate=()):
        paths = []
        with tempfile.TemporaryDirectory() as tmp:
            for i, record in enumerate(list(base) + list(candidate)):
                paths.append(os.path.join(tmp, "%d.json" % i))
                with open(paths[-1], "w") as handle:
                    json.dump(record, handle)
            argv = ["compare.py", "--base", *paths[:len(base)]]
            if candidate:
                argv += ["--candidate", *paths[len(base):]]
            saved, sys.argv = sys.argv, argv
            stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
            try:
                return compare.main()
            finally:
                sys.stdout.close()
                sys.argv, sys.stdout = saved, stdout

    def test_refuses_different_simd_tier_or_build_type(self):
        self.assertEqual(self.run_compare([self.record()], [self.record(simd="avx2")]), 2)
        self.assertEqual(self.run_compare([self.record(), self.record(build="Debug")]), 2)

    def test_flags_counts_that_do_not_repeat(self):
        self.assertEqual(self.run_compare([self.record(), self.record()]), 0)
        self.assertEqual(self.run_compare([self.record(), self.record(count=8)]), 1)


if __name__ == "__main__":
    unittest.main()
