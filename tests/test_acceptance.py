"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
one PASS/FAIL line. The recombination benchmark reproduces the headline
decoder comparison at desk scale: the windowed-gain decoder must reach at
least the Viterbi boundary F1 minus 0.02 at tolerance 10, while exact
boundary F1 and base accuracy are reported without gating.
"""

import itertools
import math
import multiprocessing
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gainhmm import (
    Annotation,
    GainParams,
    JumpingHmmSpec,
    base_accuracy,
    boundary_metrics,
    build_hmm,
    build_jumping_hmm,
    color_graph,
    expected_gain,
    forward_backward,
    gain_decode,
    posterior_decode,
    random_recombinants,
    synthetic_subtypes,
    viterbi_decode,
    window_scores,
)
from gainhmm.cli import main as cli_main
from gainhmm.gain import decode_from_posteriors
from _brute_force import (
    _gains_against,
    brute_force_best_annotation,
    brute_force_expected_gain,
    coloring_distribution,
)
from gainhmm.seqio import FastaRecord, write_fasta, write_segments
import _oracles
from conftest import random_model, random_seq, t1_spec


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def exactness_instances(count=200, seed=8181):
    """The randomized small instances shared by criteria 2, 3 and 4."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n_states = int(rng.integers(2, 5))
        n_colors = int(rng.integers(2, min(4, n_states + 1)))
        hmm = random_model(rng, n_states=n_states, n_colors=n_colors,
                           n_symbols=2, sparsity=float(rng.random() * 0.5))
        seq = random_seq(rng, hmm.alphabet, int(rng.integers(2, 9)))
        params = GainParams(
            window=int(rng.choice([0, 1, 2])),
            gamma=float(rng.choice([0.0, 0.2, 1.0, 5.0])),
            alpha=float(rng.choice([0.0, 0.1])),
        )
        out.append((hmm, seq, params))
    return out


def test_1_oracle_suite():
    """Posterior machinery vs full path enumeration, all sequences <= 6."""
    with criterion(1, "oracle suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(424242)
        models = [build_hmm(t1_spec()),
                  random_model(rng, n_states=4, n_colors=3, n_symbols=2)]
        for hmm in models:
            for n in range(1, 7):
                for obs in itertools.product(range(len(hmm.alphabet)), repeat=n):
                    seq = "".join(hmm.alphabet[i] for i in obs)
                    post = forward_backward(hmm, seq)
                    z, cp, pp = _oracles.posteriors(hmm, list(obs))
                    assert math.exp(post.log_likelihood) == pytest.approx(
                        z, rel=1e-10)
                    np.testing.assert_allclose(
                        post.color_post, cp, rtol=1e-10, atol=1e-300)
                    if n > 1:
                        np.testing.assert_allclose(
                            post.pair_post, pp, rtol=1e-10, atol=1e-300)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


def test_2_gain_decoder_exactness():
    """DP objective equals the exhaustive optimum on 200 random instances."""
    with criterion(2, "gain decoder exactness"):
        start = time.perf_counter()
        for hmm, seq, params in exactness_instances():
            ann, value = gain_decode(hmm, seq, params)
            _, best = brute_force_best_annotation(hmm, seq, params, "counting")
            assert value == pytest.approx(best, abs=1e-9)
            attained = brute_force_expected_gain(hmm, seq, ann, params, "counting")
            assert attained == pytest.approx(best, abs=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"exactness suite took {elapsed:.1f}s"


def test_3_w0_gain_coincidence():
    """Counting and indicator expectations agree for every annotation at W=0."""
    with criterion(3, "W=0 gain coincidence"):
        checked = 0
        for hmm, seq, params in exactness_instances():
            if params.window != 0:
                continue
            n = len(seq)
            support, weights = coloring_distribution(hmm, seq)
            all_colorings = np.array(
                list(itertools.product(range(hmm.n_colors), repeat=n)),
                dtype=np.int64)
            for cand in all_colorings:
                ann = Annotation(cand)
                counting = _gains_against(support, ann, params, "counting") @ weights
                indicator = _gains_against(support, ann, params, "indicator") @ weights
                assert abs(counting - indicator) <= 1e-12
                checked += 1
        assert checked > 1000


def test_4_suppression_and_dominance():
    """Boundary suppression and argmax dominance on every suite-2 instance."""
    with criterion(4, "suppression and dominance"):
        suppressed = 0
        for hmm, seq, params in exactness_instances():
            graph = color_graph(hmm)
            post = forward_backward(hmm, seq)
            ws = window_scores(post, params.window)
            off = ~np.eye(hmm.n_colors, dtype=bool)
            move = (1 + params.gamma) * ws.sums(0, post.length - 1)[:, off] - params.gamma
            if move.size and np.all(move < 0):
                ann, _ = gain_decode(hmm, seq,
                                     GainParams(params.window, params.gamma, 0.0))
                assert not ann.boundaries
                suppressed += 1
            _, value = gain_decode(hmm, seq, params)
            rivals = [viterbi_decode(hmm, seq)[0], posterior_decode(post)]
            for rival in rivals:
                if graph.allows(rival):
                    assert value >= expected_gain(rival, post, ws, params) - 1e-9
        assert suppressed > 0


def test_5_linear_time_scaling():
    """Doubling the sequence at most 2.5x the decode time (median of 5)."""
    with criterion(5, "linear time scaling"):
        msa = synthetic_subtypes(3, 30, divergence=0.2, seed=77)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.3))
        rng = np.random.default_rng(31337)
        params = GainParams(window=10, gamma=0.5)
        seqs = {n: random_seq(rng, list("acgt"), n) for n in (10_000, 20_000)}
        gain_decode(hmm, seqs[10_000], params)  # warm caches
        times = {10_000: [], 20_000: []}
        for _ in range(5):
            for n, seq in seqs.items():
                t0 = time.perf_counter()
                gain_decode(hmm, seq, params)
                times[n].append(time.perf_counter() - t0)
        med10 = float(np.median(times[10_000]))
        med20 = float(np.median(times[20_000]))
        print(f"\n  n=10000: {med10:.3f}s  n=20000: {med20:.3f}s  "
              f"ratio {med20 / med10:.2f}")
        assert med20 <= 2.5 * med10


_BENCH = {}


def _bench_decode(seq):
    hmm, graph = _BENCH["hmm"], _BENCH["graph"]
    vit, _ = viterbi_decode(hmm, seq)
    post = forward_backward(hmm, seq)
    ws = window_scores(post, _BENCH["window"])
    herd = {}
    for g in _BENCH["gammas"]:
        ann, _ = decode_from_posteriors(post, ws, GainParams(_BENCH["window"], g),
                                        graph)
        herd[g] = ann
    return vit, herd


def test_6_recombination_benchmark():
    """Synthetic subtype benchmark: windowed-gain decoding vs Viterbi.

    3 subtypes of length 1000 at ~15% pairwise divergence, 100 evaluation
    recombinants with 1-3 breakpoints at 5% query mutation, jump
    probability 0.01; gamma picked from {0.1, 0.2, 0.5, 1} on 20 held-out
    tuning queries; metrics at boundary tolerance 10.
    """
    with criterion(6, "recombination benchmark"):
        start = time.perf_counter()
        gammas = (0.1, 0.2, 0.5, 1.0)
        tolerance = 10
        msa = synthetic_subtypes(3, 1000, divergence=0.15, seed=2026)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        records = random_recombinants(msa, 120, seed=99, breakpoint_range=(1, 3),
                                      min_segment=100, mutation_rate=0.05)
        tune, evaluate = records[:20], records[20:]

        _BENCH.update(hmm=hmm, graph=color_graph(hmm), gammas=gammas,
                      window=tolerance)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            decoded = pool.map(_bench_decode, [r.seq for r in records], chunksize=5)

        tune_scores = {
            g: float(np.mean([
                boundary_metrics(herd[g], rec.truth, tolerance).f1
                for rec, (_, herd) in zip(tune, decoded[:20])]))
            for g in gammas}
        best_gamma = max(gammas, key=lambda g: tune_scores[g])

        rows = {"herd": [], "viterbi": []}
        for rec, (vit, herd) in zip(evaluate, decoded[20:]):
            for name, ann in (("herd", herd[best_gamma]), ("viterbi", vit)):
                rows[name].append({
                    "f1": boundary_metrics(ann, rec.truth, tolerance).f1,
                    "exact_f1": boundary_metrics(ann, rec.truth, 0).f1,
                    "base": base_accuracy(ann, rec.truth),
                })
        means = {name: {k: float(np.mean([r[k] for r in rs])) for k in rs[0]}
                 for name, rs in rows.items()}
        elapsed = time.perf_counter() - start
        print(f"\n  gamma*={best_gamma} (tuning F1 {tune_scores})")
        print(f"  boundary F1 @tol {tolerance}: herd {means['herd']['f1']:.3f} "
              f"vs viterbi {means['viterbi']['f1']:.3f}  [gate: herd >= viterbi-0.02]")
        print(f"  exact F1 (report only): herd {means['herd']['exact_f1']:.3f} "
              f"vs viterbi {means['viterbi']['exact_f1']:.3f}")
        print(f"  base accuracy (report only): herd {means['herd']['base']:.4f} "
              f"vs viterbi {means['viterbi']['base']:.4f}")
        print(f"  elapsed {elapsed:.0f}s of 300s budget")
        assert means["herd"]["f1"] >= means["viterbi"]["f1"] - 0.02
        assert elapsed < 300.0, f"benchmark took {elapsed:.0f}s"


def test_7_bench_determinism(tmp_path):
    """Two identical bench runs produce byte-identical CSVs."""
    with criterion(7, "bench determinism"):
        msa = synthetic_subtypes(3, 200, divergence=0.15, seed=55)
        msa_path = tmp_path / "msa.fasta"
        write_fasta(msa_path, [
            FastaRecord(f"{n}_ref", msa.groups[n][0], {"subtype": n})
            for n in msa.names])
        model = tmp_path / "model.json"
        assert cli_main(["build-model", "--in", str(msa_path), "--out", str(model),
                         "--pj", "0.01", "--pseudocount", "0.1"]) == 0
        fasta, truth = tmp_path / "q.fasta", tmp_path / "t.tsv"
        recs = random_recombinants(msa, 4, seed=13, min_segment=50,
                                   mutation_rate=0.05)
        write_fasta(fasta, [(f"q{i}", r.seq) for i, r in enumerate(recs)])
        write_segments(truth, [(f"q{i}", r.truth) for i, r in enumerate(recs)],
                       list(msa.names))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = cli_main(["bench", "--model", str(model), "--in", str(fasta),
                             "--truth", str(truth), "--out", str(out),
                             "--W", "10", "--sweep-gamma", "0.2,1",
                             "--tolerance", "10", "--seed", "7"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 7
