#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-scale run of every workload.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root.  Each workload runs for two seconds at
--scale tiny, untraced and traced, through perfbench/run.py (the first run
builds).  The tests check that every metric BENCHMARK.json names prints
with its unit, that no answer was wrong, that the trace is valid Chrome
trace-event JSON whose spans nest, and that each paper_grid query's
modeled spans sum to its modeled time.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def load(path):
    with open(path) as f:
        return json.load(f)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
OUT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                   "perfbench", "out")
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve_open"]
SEED = 7


def run(workload, trace, cwd=ROOT, timeout=900):
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "2", "--trace",
         str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)
    return p


def result(workload, trace):
    p = run(workload, trace)
    if p.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spans_nest(events):
    """Every span with a parent lies inside it, on the same clock."""
    spans = {}
    begins = {}
    for e in events:
        ph = e["ph"]
        if ph == "M":
            continue
        a = e["args"]
        if ph == "X":
            spans[a["span_id"]] = (e["pid"], e["ts"], e["ts"] + e["dur"],
                                   a["parent"])
        elif ph == "b":
            begins[a["span_id"]] = e
        elif ph == "e":
            b = begins.pop(a["span_id"])
            spans[a["span_id"]] = (e["pid"], b["ts"], e["ts"], a["parent"])
        else:
            raise AssertionError(f"unexpected phase {ph}")
    assert not begins, "async span without an end"
    for sid, (pid, t0, t1, parent) in spans.items():
        assert t1 >= t0, f"span {sid} ends before it starts"
        if parent == 0:
            continue
        ppid, p0, p1, _ = spans[parent]
        assert pid == ppid, f"span {sid} and its parent are on different clocks"
        assert p0 - 1.0 <= t0 and t1 <= p1 + 1.0, (
            f"span {sid} [{t0}, {t1}] escapes its parent [{p0}, {p1}]")
    return spans


class TinyRuns(unittest.TestCase):
    def check_metrics(self, res, defs, nonzero):
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        got = res["metrics"]
        self.assertEqual(list(got), [d["name"] for d in defs])
        for d in defs:
            self.assertEqual(got[d["name"]]["unit"], d["unit"], d["name"])
            self.assertIsInstance(got[d["name"]]["value"], (int, float))
            if nonzero:
                self.assertGreater(got[d["name"]]["value"], 0, d["name"])

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(result(w, 0), SPEC["end_to_end"],
                                   nonzero=True)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result(w, 1)
                self.check_metrics(res, SPEC["per_layer"], nonzero=False)
                self.assertEqual(res["metrics"]["failed_share"]["value"], 0)
                self.assertGreater(res["metrics"]["trace.spans"]["value"], 0)
                path = os.path.join(OUT, f"{w}-seed{SEED}.trace.json")
                trace = load(path)
                spans_nest(trace["traceEvents"])

    def test_paper_grid_modeled_spans_sum(self):
        result("paper_grid", 1)
        trace = load(os.path.join(OUT, f"paper_grid-seed{SEED}.trace.json"))
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        roots = {e["args"]["span_id"]: e for e in events
                 if e["name"] == "query.modeled"}
        self.assertGreater(len(roots), 0)
        sums = {sid: 0.0 for sid in roots}
        for e in events:
            if e["name"].startswith("simgpu.critical."):
                sums[e["args"]["parent"]] += e["dur"]
        for sid, root in roots.items():
            want = root["args"]["modeled_us"]
            self.assertAlmostEqual(root["dur"], want, delta=1e-6 * want)
            self.assertAlmostEqual(sums[sid], want, delta=1e-6 * want)

    def test_digest(self):
        for w in ("paper_grid", "serve_burst", "shard_large"):
            with self.subTest(workload=w):
                result(w, 0)
                digest = load(os.path.join(OUT, f"{w}-seed{SEED}-digest.json"))
                self.assertGreater(len(digest["cells"]), 0)
                for c in digest["cells"]:
                    self.assertGreater(c["modeled_us"], 0)
                    self.assertLessEqual(c["modeled_us_min"], c["modeled_us"])

    def test_fails_without_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper_grid", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
