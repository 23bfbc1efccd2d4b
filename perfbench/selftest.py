"""Self-test of the benchmark.

Each output check must fire on a known-bad input, and every workload must
run end to end, untraced and traced, at a tiny size through the same code
path as a full run. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

import run

if not run.prepare():
    sys.exit(f"no gainhmm sources under {run.ROOT / 'src'}")

import bench  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from gainhmm import gain, model  # noqa: E402

SCRATCH = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"


def tiny(cls, name):
    """A set-up tiny workload with its queries made."""
    wl = cls(seed=7, workdir=SCRATCH / name, tiny=True)
    (SCRATCH / name).mkdir(parents=True, exist_ok=True)
    wl.make_inputs()
    hmm, graph = wl.set_up()
    wl.make_queries(hmm)
    return wl, hmm, graph


class ChecksFire(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.hmm, cls.graph = tiny(workloads.Recombination, "checks")
        cls.query = cls.wl.queries[0]
        cls.result = workloads.pipeline(cls.hmm, cls.graph, cls.query, cls.wl.widths,
                                        cls.wl.gammas, cls.wl.tolerance)

    def checker(self):
        return checks.Checker()

    def test_good_pipeline_passes(self):
        c, r = self.checker(), self.result
        c.posteriors("good", r.post)
        c.viterbi_bound("good", r.viterbi_logp, r.post.log_likelihood)
        c.log_likelihood("good", r.post.log_likelihood,
                         checks.read_model_file(self.wl.model_path), self.query.seq)
        for annotation, value, windows, params in r.herd.values():
            c.herd("good", r.post, windows, params, annotation, value, self.graph,
                   {"viterbi": r.viterbi, "posterior": r.posterior})
        self.assertEqual(c.failures, [])
        self.assertGreater(c.count, 5)

    def test_perturbed_pair_post_fires(self):
        # Moving mass inside a row keeps the row sum but breaks marginalisation.
        pair = self.result.post.pair_post.copy()
        k = pair.shape[0] // 2
        pair[k, 0, 0] += 1e-6
        pair[k, 1, 1] -= 1e-6
        c = self.checker()
        c.posteriors("moved", dataclasses.replace(self.result.post, pair_post=pair))
        self.assertEqual(len(c.failures), 1)
        self.assertIn("marginalise", c.failures[0])

        scaled = self.result.post.pair_post * (1 + 1e-6)
        c = self.checker()
        c.posteriors("scaled", dataclasses.replace(self.result.post, pair_post=scaled))
        self.assertTrue(any("rows do not sum" in f for f in c.failures))

    def test_objective_off_fires(self):
        annotation, value, windows, params = next(iter(self.result.herd.values()))
        c = self.checker()
        c.herd("off", self.result.post, windows, params, annotation, value + 1e-6,
               self.graph, {})
        self.assertEqual(len(c.failures), 1)
        self.assertIn("expected_gain", c.failures[0])

    def test_beaten_by_rival_fires(self):
        # A one-color annotation with its own true objective is not the optimum
        # when the gain decoder found something better.
        post = self.result.post
        (annotation, value, windows, params) = next(iter(self.result.herd.values()))
        flat = model.Annotation([annotation.colors[0]] * post.length)
        flat_value = gain.expected_gain(flat, post, windows, params)
        self.assertLess(flat_value, value)
        c = self.checker()
        c.herd("beaten", post, windows, params, flat, flat_value, self.graph,
               {"herd": annotation})
        self.assertEqual(len(c.failures), 1)
        self.assertIn("below the herd", c.failures[0])

    def test_log_likelihood_mismatch_fires(self):
        c = self.checker()
        c.log_likelihood("ll", self.result.post.log_likelihood * (1 + 1e-6),
                         checks.read_model_file(self.wl.model_path), self.query.seq)
        self.assertEqual(len(c.failures), 1)

    def test_viterbi_above_likelihood_fires(self):
        c = self.checker()
        ll = self.result.post.log_likelihood
        c.viterbi_bound("vit", ll + 1e-3, ll)
        self.assertEqual(len(c.failures), 1)

    def test_scorer_mismatch_fires(self):
        wl = self.wl
        for kind in ("cli_decode", "cli_bench"):
            code, err = wl.run(kind, None, self.hmm, self.graph)
            self.assertEqual(code, 0, err)
        n_rows = 3 * wl.grid_points
        c = self.checker()
        c.bench_csv("good", wl.bench_csv, wl.truth_tsv, n_rows)
        c.same_bytes("good", wl.decode_tsv, wl.bench_herd_tsv)
        self.assertEqual(c.failures, [])

        with open(wl.bench_csv) as fh:
            rows = list(csv.DictReader(fh))
        header = list(rows[0])
        rows[1]["base_accuracy"] = f"{float(rows[1]['base_accuracy']) - 0.01:.6f}"
        rows[2]["exact_f1"] = f"{float(rows[2]['exact_f1']) + 0.25:.6f}"
        out = io.StringIO()
        writer = csv.DictWriter(out, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        Path(wl.bench_csv).write_text(out.getvalue())
        c = self.checker()
        c.bench_csv("bad", wl.bench_csv, wl.truth_tsv, n_rows)
        self.assertEqual(len(c.failures), 2)
        self.assertIn("base_accuracy", c.failures[0])
        self.assertIn("exact_f1", c.failures[1])

        with open(wl.bench_herd_tsv, "a") as fh:
            fh.write("extra\n")
        c = self.checker()
        c.same_bytes("bad", wl.decode_tsv, wl.bench_herd_tsv)
        self.assertEqual(len(c.failures), 1)


class TinyWorkloads(unittest.TestCase):
    """Every workload, untraced and traced, through bench.run_instance."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = [m["name"] for m in spec["end_to_end"]]
        cls.per_layer = [m["name"] for m in spec["per_layer"]]

    def run_tiny(self, cls, trace):
        workdir = SCRATCH / f"{cls.name}-{trace}"
        workdir.mkdir(parents=True)
        result, metrics = bench.run_instance(cls(seed=3, workdir=workdir, tiny=True),
                                             0, trace, log=io.StringIO())
        self.assertEqual(result.checker.failures, [])
        self.assertEqual(list(metrics), self.per_layer if trace else self.end_to_end)
        self.assertTrue(all(v is not None for v, _unit in metrics.values()))
        ops = len(result.wl.operations(0))
        self.assertEqual(result.attempted % ops, 0)
        expected_failed = result.attempted // ops if cls.upper_case_decode else 0
        self.assertEqual(result.failed, expected_failed)
        return metrics

    def test_untraced(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(cls.name):
                metrics = self.run_tiny(cls, False)
                self.assertTrue(all(v > 0 for v, _unit in metrics.values()))

    def test_traced(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(cls.name):
                metrics = self.run_tiny(cls, True)
                self.assertGreater(metrics["inference.forward_backward_calls"][0], 0)
                self.assertGreater(metrics["gain.decode_calls"][0], 0)
                self.assertGreater(metrics["cli.self_s"][0], 0)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
