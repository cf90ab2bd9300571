"""Tests of the benchmark harness itself: golden checks, metrics, tracing.

Run with ``python3 perfbench/test_harness.py`` or under pytest.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _report(golden: dict) -> str:
    """The JSON report the CLI would print for a golden invocation."""
    return json.dumps([dict(r, elapsed_ms=0) for r in golden["records"]])


class GoldenCheckTest(unittest.TestCase):
    def setUp(self):
        self.golden = bench.load_golden("report-default")[("all", "--format", "json")]

    def test_golden_holds_exactly_the_two_honest_failures(self):
        fails = bench.golden_failures([self.golden])
        self.assertEqual(
            sorted(map(repr, fails)),
            sorted(map(repr, bench.EXPECTED_FAILURES["report-default"])),
        )
        self.assertEqual(self.golden["exit"], 1)

    def test_every_workload_invocation_has_a_golden_report(self):
        for name, invocations in bench.PARTS.items():
            golden = bench.load_golden(name)
            for inv in invocations:
                entry = golden[tuple(inv + bench.REPORT_FORMAT)]
                self.assertTrue(entry["records"], (name, inv))
                if name not in bench.EXPECTED_FAILURES:
                    self.assertEqual(entry["exit"], 0, (name, inv))
                    self.assertEqual(bench.golden_failures([entry]), [])

    def test_workloads_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(bench.WORKLOADS))
        parts = [p for ps in bench.WORKLOADS.values() for p in ps]
        self.assertEqual(sorted(parts), sorted(bench.PARTS))

    def test_unchanged_report_passes(self):
        self.assertEqual(bench.invocation_problems(self.golden, 1, _report(self.golden)), [])

    def test_flipped_status_fails(self):
        changed = copy.deepcopy(self.golden)
        rec = next(r for r in changed["records"] if r["status"] == "pass")
        rec["status"] = "fail"
        self.assertTrue(bench.invocation_problems(self.golden, 1, _report(changed)))

    def test_honest_failure_that_starts_passing_fails(self):
        changed = copy.deepcopy(self.golden)
        rec = next(r for r in changed["records"] if r["claim"] == "small-degree-count"
                   and r["params"] == {"n": "10"})
        rec["status"] = "pass"
        rec["computed"] = rec["expected"]
        self.assertTrue(bench.invocation_problems(self.golden, 1, _report(changed)))

    def test_changed_computed_value_fails(self):
        changed = copy.deepcopy(self.golden)
        changed["records"][0]["computed"] += "0"
        self.assertTrue(bench.invocation_problems(self.golden, 1, _report(changed)))

    def test_missing_record_fails(self):
        changed = copy.deepcopy(self.golden)
        del changed["records"][5]
        self.assertTrue(bench.invocation_problems(self.golden, 1, _report(changed)))

    def test_unexpected_exit_code_fails(self):
        text = _report(self.golden)
        for code in (0, 2, 3):
            self.assertTrue(bench.invocation_problems(self.golden, code, text), code)

    def test_cap_or_usage_exit_without_report_fails(self):
        for code in (2, 3):
            self.assertTrue(bench.invocation_problems(self.golden, code, ""), code)

    def test_empty_selection_is_not_a_pass(self):
        empty = dict(self.golden, exit=0, records=[])
        self.assertTrue(bench.invocation_problems(empty, 0, "[]\n"))
        self.assertTrue(bench.invocation_problems(self.golden, 1, "[]\n"))

    def test_new_failing_record_fails(self):
        extra = dict(self.golden["records"][0], claim="new-claim", status="fail")
        text = json.dumps(json.loads(_report(self.golden)) + [extra])
        self.assertTrue(bench.invocation_problems(self.golden, 1, text))

    def test_added_param_still_matches(self):
        changed = copy.deepcopy(self.golden)
        for r in changed["records"]:
            r["params"]["route"] = "enumeration"
        self.assertEqual(bench.invocation_problems(self.golden, 1, _report(changed)), [])


class LayerMetricTest(unittest.TestCase):
    def test_layer_and_function_names_resolve(self):
        tot = bench.trace_totals([
            {"calls": {"exact.rref": 2, "exact.rank": 1, "graphs.build_graph": 4},
             "self_s": {"exact.rref": 0.5, "exact.rank": 0.25}, "yielded": {},
             "distinct_keys": {"graphs.build_graph": 1}},
            {"calls": {"exact.rref": 1}, "self_s": {"exact.rref": 0.25}, "yielded": {},
             "distinct_keys": {}},
        ])
        self.assertEqual(bench.layer_metric("exact.calls", tot, 2.0, 1.0), 4)
        self.assertEqual(bench.layer_metric("graphs.build_graph.calls", tot, 2.0, 1.0), 4)
        self.assertEqual(bench.layer_metric("exact.rref.self_s", tot, 2.0, 1.0), 0.75)
        self.assertEqual(bench.layer_metric("search.self_s", tot, 2.0, 1.0), 0)
        self.assertEqual(bench.layer_metric("graphs.build_reuse_ratio", tot, 2.0, 1.0), 0.25)
        self.assertEqual(bench.layer_metric("trace.coverage", tot, 2.0, 1.0), 0.5)
        self.assertEqual(bench.layer_metric("trace.overhead_s", tot, 2.0, 1.5), 0.5)
        with self.assertRaises(KeyError):
            bench.layer_metric("exact.bogus", tot, 2.0, 1.0)

    def test_every_benchmark_metric_resolves(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        tot = bench.trace_totals([])
        for m in spec["per_layer"]:
            bench.layer_metric(m["name"], tot, 1.0, 1.0)


class _FakeRunner:
    def setup_time(self):
        return 0.1


class _FakeJob:
    """Invocations of fixed length; records the order they ran in."""

    def __init__(self, walls):
        self.invocations = [("part", [str(i)]) for i in range(len(walls))]
        self.walls = walls
        self.ran = []
        self.reference = []

    def order(self):
        return list(range(len(self.walls)))

    def invoke(self, i):
        self.ran.append(i)
        return self.walls[i], 10.0 + i, None


class PlainRoundsTest(unittest.TestCase):
    def test_rounds_fill_the_window_without_overrunning_it(self):
        job = _FakeJob([1.0, 2.0])
        samples, setups, rounds = bench.plain_rounds(job, _FakeRunner(), 10.0)
        # 1+2+1+2+1+2 = 9 s; the next invocation (1 s) still fits, then 2 s does not
        self.assertEqual(job.ran, [0, 1, 0, 1, 0, 1, 0])
        self.assertEqual(rounds, 4)
        self.assertEqual([len(s) for s in samples], [4, 3])
        self.assertEqual(len(setups), bench.SETUP_LAUNCHES_FIRST + rounds)
        # one reference task before each invocation
        self.assertEqual(len(job.reference), len(job.ran))

    def test_first_round_runs_whole_even_past_the_window(self):
        job = _FakeJob([3.0, 4.0, 5.0])
        samples, _, rounds = bench.plain_rounds(job, _FakeRunner(), 1.0)
        self.assertEqual(job.ran, [0, 1, 2])
        self.assertEqual(rounds, 1)
        self.assertEqual(samples, [[(3.0, 10.0)], [(4.0, 11.0)], [(5.0, 12.0)]])


class TracedRunTest(unittest.TestCase):
    def test_generator_steps_are_charged_to_their_layer(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "trace.json")
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "traced.py"), out, "--",
                 "cayley", "--k", "10", "--format", "json"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            self.assertEqual(done.returncode, 0, done.stderr)
            self.assertTrue(json.loads(done.stdout))
            with open(out) as fh:
                trace = json.load(fh)
        # p(20) = 627 cycle types, produced by one outside call; the
        # recursion inside iter_partitions is not traced again
        self.assertEqual(trace["yielded"]["partitions.iter_partitions"], 627)
        self.assertEqual(trace["calls"]["partitions.iter_partitions"], 1)
        self.assertGreater(trace["self_s"]["partitions.iter_partitions"], 0)
        spans = trace["spans"]
        scan = next(s for s in spans if s[0] == "partitions.iter_partitions")
        self.assertEqual(spans[scan[3]][0], "cayley.no_cyclic_pq_element")
        for name, start, end, parent, busy in spans:
            self.assertLessEqual(start, end)
            self.assertLessEqual(busy, end - start + 1e-9)


if __name__ == "__main__":
    unittest.main()
