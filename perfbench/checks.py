"""Output checks that do not trust the code they check.

The forward pass and the file scorer here are written from the model file
and the segment-table format alone; they share no code with
``gainhmm.inference``, ``gainhmm.metrics`` or ``gainhmm.seqio``. The other
checks test properties every correct output has: probability rows sum to
one, pair posteriors marginalise to color posteriors, the best path is no
likelier than the sequence, and an exact gain optimum scores at least as
well as any feasible competitor.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse

from gainhmm import gain

TOL = 1e-9
CSV_TOL = 1e-6  # bench.csv prints six decimals


def read_model_file(path):
    """(alphabet index, initial, CSR transitions, emissions) from a model JSON."""
    with open(path) as fh:
        spec = json.load(fh)
    ids = {s["id"]: i for i, s in enumerate(spec["states"])}
    symbols = {a: j for j, a in enumerate(spec["alphabet"])}
    n = len(ids)
    emissions = np.zeros((n, len(symbols)))
    for i, state in enumerate(spec["states"]):
        for a, p in state["emission"].items():
            emissions[i, symbols[a]] = p
    initial = np.zeros(n)
    for sid, p in spec["initial"].items():
        initial[ids[sid]] = p
    rows, cols, vals = [], [], []
    for sid, row in spec["transitions"].items():
        for tid, p in row.items():
            rows.append(ids[sid])
            cols.append(ids[tid])
            vals.append(p)
    trans = sparse.csr_array((vals, (rows, cols)), shape=(n, n))
    return symbols, initial, trans, emissions


def forward_log_likelihood(model_file, seq):
    """log Pr(seq) by a rescaled forward pass over the model file's numbers."""
    symbols, initial, trans, emissions = model_file
    obs = [symbols[ch] for ch in seq]
    into = sparse.csr_array(trans.T)  # into[v] lists the predecessors of v
    e_cols = emissions.T
    f = initial * e_cols[obs[0]]
    logs = []
    for t in range(len(obs)):
        if t:
            f = (into @ f) * e_cols[obs[t]]
        c = f.sum()
        logs.append(math.log(c))
        f = f / c
    return math.fsum(logs)


def read_segment_table(path):
    """{seq id: color array} from a segment TSV (seq_id, start, end, color_id, name)."""
    spans = {}
    with open(path) as fh:
        fh.readline()
        for line in fh:
            if not line.strip():
                continue
            sid, start, end, color = line.split("\t")[:4]
            spans.setdefault(sid, []).append((int(start), int(end), int(color)))
    out = {}
    for sid, parts in spans.items():
        colors = np.empty(parts[-1][1], dtype=np.int64)
        for start, end, color in parts:
            colors[start - 1:end] = color
        out[sid] = colors
    return out


def exact_f1(pred, truth):
    """F1 of exactly placed boundaries (gap and ordered color pair)."""
    def bounds(c):
        ks = np.flatnonzero(c[1:] != c[:-1])
        return {(int(k), int(c[k]), int(c[k + 1])) for k in ks}

    p, t = bounds(pred), bounds(truth)
    hit = len(p & t)
    sens = hit / len(t) if t else 1.0
    prec = hit / len(p) if p else 1.0
    return 0.0 if sens + prec == 0.0 else 2.0 * sens * prec / (sens + prec)


class Checker:
    """Collects check failures; a run is correct when none were recorded."""

    def __init__(self):
        self.failures = []
        self.count = 0

    def expect(self, ok, message):
        self.count += 1
        if not ok:
            self.failures.append(message)
        return ok

    def posteriors(self, label, post):
        cp, pp = post.color_post, post.pair_post
        self.expect(np.abs(cp.sum(axis=1) - 1.0).max() <= TOL,
                    f"{label}: color_post rows do not sum to 1")
        if pp.shape[0]:
            self.expect(np.abs(pp.sum(axis=(1, 2)) - 1.0).max() <= TOL,
                        f"{label}: pair_post rows do not sum to 1")
            left = np.abs(pp.sum(axis=2) - cp[:-1]).max()
            right = np.abs(pp.sum(axis=1) - cp[1:]).max()
            self.expect(max(left, right) <= TOL,
                        f"{label}: pair_post does not marginalise to color_post "
                        f"(off by {max(left, right):.3g})")

    def log_likelihood(self, label, value, model_file, seq):
        ref = forward_log_likelihood(model_file, seq)
        self.expect(abs(value - ref) <= TOL * max(1.0, abs(ref)),
                    f"{label}: log_likelihood {value!r} but the reference forward "
                    f"pass gives {ref!r}")

    def viterbi_bound(self, label, best_logp, log_likelihood):
        self.expect(best_logp <= log_likelihood + TOL * max(1.0, abs(log_likelihood)),
                    f"{label}: best path log probability {best_logp!r} exceeds "
                    f"log-likelihood {log_likelihood!r}")

    def herd(self, label, post, windows, params, annotation, value, graph, rivals):
        """Objective equals expected_gain and beats every feasible rival."""
        own = gain.expected_gain(annotation, post, windows, params)
        tol = TOL * max(1.0, abs(own))
        point = f"{label} W={params.window} gamma={params.gamma:g}"
        self.expect(abs(value - own) <= tol,
                    f"{point}: objective {value!r} but expected_gain gives {own!r}")
        for name, rival in rivals.items():
            if graph.allows(rival):
                other = gain.expected_gain(rival, post, windows, params)
                self.expect(value >= other - tol,
                            f"{point}: objective {value!r} below the {name} "
                            f"coloring's expected gain {other!r}")

    def same_bytes(self, label, path_a, path_b):
        a, b = Path(path_a).read_bytes(), Path(path_b).read_bytes()
        self.expect(a == b, f"{label}: {path_a} and {path_b} differ")

    def bench_csv(self, label, csv_path, truth_path, n_rows):
        """Rescore base_accuracy and exact_f1 of every bench row from its files."""
        truth = read_segment_table(truth_path)
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        self.expect(len(rows) == n_rows,
                    f"{label}: {len(rows)} rows in {csv_path}, expected {n_rows}")
        preds_dir = Path(str(csv_path) + ".preds")
        for row in rows:
            name = f"{row['decoder']}_W{row['W']}_g{row['gamma']}"
            pred = read_segment_table(preds_dir / f"{name}.tsv")
            ids = list(pred)
            ok = (ids and len(ids) == int(row["n_queries"]) and set(ids) <= set(truth)
                  and all(len(pred[i]) == len(truth[i]) for i in ids))
            if not self.expect(ok, f"{label} {name}: prediction ids do not match truth"):
                continue
            acc = np.mean([np.mean(pred[i] == truth[i]) for i in ids])
            f1 = np.mean([exact_f1(pred[i], truth[i]) for i in ids])
            self.expect(abs(acc - float(row["base_accuracy"])) <= CSV_TOL,
                        f"{label} {name}: base_accuracy {row['base_accuracy']} but "
                        f"rescoring gives {acc:.6f}")
            self.expect(abs(f1 - float(row["exact_f1"])) <= CSV_TOL,
                        f"{label} {name}: exact_f1 {row['exact_f1']} but "
                        f"rescoring gives {f1:.6f}")
