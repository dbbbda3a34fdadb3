#!/usr/bin/env python3
"""Tests for the perfbench benchmark.

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests -v

They build the harness through perfbench/run.py (first use takes a few
minutes) and then check:
  * a short smoke run of every workload, untraced and traced, is correct;
  * every metric BENCHMARK.json names is printed with its unit;
  * the traced run's span dump is a well-formed tree;
  * the same seed generates byte-identical inputs.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py: build() and the harness path)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SMOKE_SECONDS = "1"


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().split("\n")
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def read_spans(path):
    spans = {}
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            spans[int(row["id"])] = {
                "parent": int(row["parent"]), "group": int(row["group"]),
                "name": row["name"], "start": int(row["start_ns"]),
                "end": int(row["end_ns"])}
    return spans


def covered(intervals):
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench harness build failed")

    def check_metrics(self, result, section):
        want = {m["name"]: m["unit"] for m in CONTRACT[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(want, got)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_smoke_untraced_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = bench(w, 11, 0)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0, out)
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, "end_to_end")
                for name, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, name)

    def test_traced_run_and_span_tree(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = bench(w, 12, 1)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"], out)
                self.check_metrics(result, "per_layer")
                metrics = result["metrics"]
                self.assertEqual(metrics["propagation.catch_up_snapshots"]["value"], 0)
                self.assertGreater(metrics["trace.spans"]["value"], 0)
                # Client self time plus the edge RPC spans account for the
                # measured batch latency.
                coverage = metrics["trace.batch_latency_coverage"]["value"]
                self.assertAlmostEqual(coverage, 1.0, delta=0.1)
                self.check_span_tree(
                    os.path.join(ROOT, ".bench_build", "spans", f"{w}-12.tsv"))

    def check_span_tree(self, path):
        spans = read_spans(path)
        self.assertTrue(spans)
        children = {}
        for sid, s in spans.items():
            self.assertLessEqual(s["start"], s["end"], s)
            if s["parent"] == 0:
                continue
            self.assertIn(s["parent"], spans, s)
            p = spans[s["parent"]]
            self.assertGreaterEqual(s["start"], p["start"], (s, p))
            self.assertLessEqual(s["end"], p["end"], (s, p))
            self.assertEqual(s["group"], p["group"], (s, p))
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        for sid, kids in children.items():
            s = spans[sid]
            self_ns = (s["end"] - s["start"]) - covered(kids)
            self.assertGreaterEqual(self_ns, 0, s)
        names = {s["name"] for s in spans.values()}
        for expected in ("client.query_batched", "transport.deliver.rpc_up",
                         "transport.deliver.rpc_down", "central.insert_tuple",
                         "hub.flush_once", "transport.deliver.delta",
                         "central.load_table", "hub.sync_all"):
            self.assertIn(expected, names)

    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
            def dump(workload, seed, name):
                path = os.path.join(d, name)
                subprocess.run([run.HARNESS, "--workload", workload, "--seed",
                                str(seed), "--seconds", "2", "--trace", "0",
                                "--dump-inputs", path], check=True, timeout=120)
                with open(path, "rb") as f:
                    return f.read()
            for w in WORKLOADS:
                with self.subTest(workload=w):
                    a = dump(w, 5, f"{w}-a")
                    b = dump(w, 5, f"{w}-b")
                    c = dump(w, 6, f"{w}-c")
                    self.assertEqual(a, b)
                    self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()
