import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from gainhmm import (
    Annotation,
    GainParams,
    Hmm,
    JumpingHmmSpec,
    ZeroLikelihoodError,
    boundary_metrics,
    build_hmm,
    build_jumping_hmm,
    color_graph,
    decode_from_posteriors,
    forward_backward,
    gain_decode,
    posterior_decode,
    random_recombinants,
    simulate_recombinant,
    synthetic_subtypes,
    viterbi_decode,
    window_scores,
)
from gainhmm import _transition
from gainhmm.simulate import sample_path
import _oracles
from conftest import column_major, permuted, random_model, random_seq, t1_spec

# Hand-derived T1 "xy" quantities; the four state paths have joint
# probabilities 0.0405 (AA), 0.036 (AB), 0.002 (BA), 0.064 (BB).
T1_XY_LIK = 0.1425
T1_XY_P0 = (0.0765 / 0.1425, 0.0425 / 0.1425)
T1_XY_B01 = 0.036 / 0.1425
T1_XY_B10 = 0.002 / 0.1425


class TestForwardBackward:
    def test_t1_x_likelihood(self, t1):
        post = forward_backward(t1, "x")
        assert post.log_likelihood == pytest.approx(math.log(0.55), rel=1e-12)

    def test_t1_xy_posteriors(self, t1):
        post = forward_backward(t1, "xy")
        assert math.exp(post.log_likelihood) == pytest.approx(T1_XY_LIK, rel=1e-12)
        assert post.color_post[0, 0] == pytest.approx(T1_XY_P0[0], rel=1e-12)
        assert post.color_post[1, 0] == pytest.approx(T1_XY_P0[1], rel=1e-12)
        assert post.boundary_post(1, 0, 1) == pytest.approx(T1_XY_B01, rel=1e-12)
        assert post.boundary_post(1, 1, 0) == pytest.approx(T1_XY_B10, rel=1e-12)

    def test_boundary_needs_two_colors(self, t1):
        with pytest.raises(ValueError, match="^a boundary needs two different colors$"):
            forward_backward(t1, "xy").boundary_post(1, 0, 0)

    def test_one_state_degenerate(self, one_state):
        post = forward_backward(one_state, "xxx")
        assert post.log_likelihood == 0.0
        np.testing.assert_array_equal(post.color_post, np.ones((3, 1)))
        assert post.pair_post.shape == (2, 1, 1)

    def test_rows_sum_to_one(self, t1):
        post = forward_backward(t1, "xyxxy")
        np.testing.assert_allclose(post.color_post.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(post.pair_post.sum(axis=(1, 2)), 1.0, atol=1e-9)

    def test_matches_enumeration_on_t1(self, t1):
        for n in range(1, 5):
            for obs in itertools.product(range(2), repeat=n):
                seq = "".join("xy"[i] for i in obs)
                post = forward_backward(t1, seq)
                z, cp, pp = _oracles.posteriors(t1, list(obs))
                assert math.exp(post.log_likelihood) == pytest.approx(z, rel=1e-12)
                np.testing.assert_allclose(post.color_post, cp, rtol=1e-12, atol=0)
                if n > 1:
                    np.testing.assert_allclose(post.pair_post, pp, rtol=1e-12, atol=0)

    def test_matches_enumeration_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n_states = int(rng.integers(2, 5))
            hmm = random_model(rng, n_states=n_states,
                               n_colors=int(rng.integers(2, min(4, n_states + 1))),
                               n_symbols=3, sparsity=0.3)
            seq = random_seq(rng, hmm.alphabet, int(rng.integers(1, 6)))
            post = forward_backward(hmm, seq)
            z, cp, pp = _oracles.posteriors(hmm, hmm.encode(seq).tolist())
            assert math.exp(post.log_likelihood) == pytest.approx(z, rel=1e-10)
            np.testing.assert_allclose(post.color_post, cp, rtol=1e-10, atol=1e-15)
            if len(seq) > 1:
                np.testing.assert_allclose(post.pair_post, pp, rtol=1e-10, atol=1e-15)

    def test_unscaled_product_constant(self, t1):
        # sum_u fwd(j, u) * bwd(j, u) = Pr(X) at every position j: scaled,
        # each row of alphahat * betahat, summed into colors, sums to 1, on
        # chunks of 1 gap, 3 gaps and n - 1 gaps of the fused backward pass.
        # A chunk that restarted betahat at 1 would keep the identity, so the
        # posteriors must also match those of one chunk.
        seq = "xyxyyxxyx"
        obs = t1.encode(seq)
        _, scales = _transition.operator_of(t1).dense_forward(obs)
        posts = []
        for m in (len(obs) - 1, 3, 1):
            with mock.patch.object(_transition, "CHUNK_BYTES", 8 * m * t1.n_states):
                posts.append(forward_backward(t1, seq))
        for post in posts:
            np.testing.assert_allclose(post.color_post.sum(axis=1), 1.0, rtol=1e-12)
            assert post.log_likelihood == float(np.log(scales).sum())
            np.testing.assert_allclose(post.color_post, posts[0].color_post, rtol=1e-12)

    def test_memory_of_a_long_query(self):
        # alphahat alone takes 7.7 MB here; a second (n, S) betahat array
        # took the peak to 22.1 MB.
        rng = np.random.default_rng(9)
        hmm = random_model(rng, n_states=48, n_colors=4, n_symbols=4)
        seq = random_seq(rng, hmm.alphabet, 20_000)
        _transition.operator_of(hmm)
        tracemalloc.start()
        try:
            forward_backward(hmm, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14e6, f"peak traced memory {peak / 1e6:.2f} MB"

    def test_foreign_symbol(self, t1):
        with pytest.raises(ValueError, match="not in model alphabet"):
            forward_backward(t1, "xq")

    def test_foreign_symbol_names_position(self, t1):
        with pytest.raises(ValueError,
                           match="symbol 'q' at position 2 not in model alphabet"):
            forward_backward(t1, "xq")
        with pytest.raises(ValueError, match="'Q' at position 3"):
            forward_backward(t1, "XyQx")

    def test_upper_case_query_same_posteriors(self):
        msa = synthetic_subtypes(2, 30, divergence=0.2, seed=4)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.05, pseudocount=0.5))
        seq = msa.groups[msa.names[0]][0][:12] + msa.groups[msa.names[1]][0][12:]
        lower, upper = forward_backward(hmm, seq), forward_backward(hmm, seq.upper())
        assert upper.log_likelihood == lower.log_likelihood
        np.testing.assert_array_equal(upper.color_post, lower.color_post)
        np.testing.assert_array_equal(upper.pair_post, lower.pair_post)

    def test_zero_likelihood(self):
        spec = t1_spec()
        spec["states"][0]["emission"] = {"x": 1.0}
        spec["states"][1]["emission"] = {"x": 1.0}
        hmm = build_hmm(spec)
        with pytest.raises(ZeroLikelihoodError):
            forward_backward(hmm, "xyx")

    def test_dropped_mass(self, t1):
        assert forward_backward(t1, "xyxxy").dropped_mass == 0.0
        msa = synthetic_subtypes(3, 150, divergence=0.15, seed=3)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        seq = random_recombinants(msa, 1, seed=4, min_segment=30, mutation_rate=0.05)[0].seq
        post = forward_backward(hmm, seq)
        assert 0.0 <= post.dropped_mass < len(seq) * hmm.n_states * _transition.CUT

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(17)
        hmm = random_model(rng, n_states=5, n_colors=3, n_symbols=3, sparsity=0.4)
        hmm_sp = sparse_kernel_copy(hmm)
        seq = random_seq(rng, hmm.alphabet, 30)
        a = forward_backward(hmm, seq)
        b = forward_backward(hmm_sp, seq)
        assert a.log_likelihood == pytest.approx(b.log_likelihood, rel=1e-12)
        np.testing.assert_allclose(a.color_post, b.color_post, rtol=1e-11, atol=1e-15)
        np.testing.assert_allclose(a.pair_post, b.pair_post, rtol=1e-11, atol=1e-15)


class TestViterbi:
    def test_t1_xy(self, t1):
        ann, logp = viterbi_decode(t1, "xy")
        assert ann == Annotation([1, 1])
        assert logp == pytest.approx(math.log(0.064), rel=1e-12)

    def test_one_state(self, one_state):
        ann, logp = viterbi_decode(one_state, "xx")
        assert ann == Annotation([0, 0])
        assert logp == pytest.approx(2 * math.log(1.0), abs=1e-15)

    def test_deterministic_emissions_read_off(self):
        spec = t1_spec()
        spec["states"][0]["emission"] = {"x": 1.0}
        spec["states"][1]["emission"] = {"y": 1.0}
        hmm = build_hmm(spec)
        ann, _ = viterbi_decode(hmm, "xyyx")
        assert ann == Annotation([0, 1, 1, 0])

    def test_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            hmm = random_model(rng, n_states=int(rng.integers(2, 5)),
                               n_colors=2, n_symbols=2, sparsity=0.2)
            seq = random_seq(rng, hmm.alphabet, int(rng.integers(1, 7)))
            ann, logp = viterbi_decode(hmm, seq)
            best_logp, best_colors = _oracles.best_path(hmm, hmm.encode(seq).tolist())
            assert logp == pytest.approx(best_logp, rel=1e-10)

    def test_at_least_as_good_as_sampled_paths(self, t1):
        seq_states, seq = sample_path(t1, 40, seed=1)
        _, logp = viterbi_decode(t1, seq)
        obs = t1.encode(seq)
        log_t = np.log(t1.transitions_dense())
        log_e = np.log(t1.emissions)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            states = rng.integers(t1.n_states, size=len(obs))
            lp = math.log(t1.initial[states[0]]) + log_e[states[0], obs[0]]
            lp += log_t[states[:-1], states[1:]].sum()
            lp += log_e[states[1:], obs[1:]].sum()
            assert logp >= lp - 1e-9

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            hmm = random_model(rng, n_states=6, n_colors=3, n_symbols=3, sparsity=0.5)
            hmm_sp = sparse_kernel_copy(hmm)
            seq = random_seq(rng, hmm.alphabet, 25)
            a, lp_a = viterbi_decode(hmm, seq)
            b, lp_b = viterbi_decode(hmm_sp, seq)
            assert lp_a == pytest.approx(lp_b, rel=1e-12)
            assert a == b


class TestPosteriorDecode:
    def test_t1_xy(self, t1):
        post = forward_backward(t1, "xy")
        assert posterior_decode(post) == Annotation([0, 1])

    def test_disagrees_with_viterbi_on_t1_xy(self, t1):
        vit, _ = viterbi_decode(t1, "xy")
        pd = posterior_decode(forward_backward(t1, "xy"))
        assert vit != pd

    def test_tie_breaks_to_smallest_color(self):
        spec = t1_spec()
        spec["states"][0]["emission"] = {"x": 0.5, "y": 0.5}
        spec["states"][1]["emission"] = {"x": 0.5, "y": 0.5}
        spec["initial"] = {"s_A": 0.5, "s_B": 0.5}
        spec["transitions"] = {
            "s_A": {"s_A": 0.5, "s_B": 0.5},
            "s_B": {"s_A": 0.5, "s_B": 0.5},
        }
        hmm = build_hmm(spec)
        post = forward_backward(hmm, "xyx")
        np.testing.assert_allclose(post.color_post, 0.5)
        assert posterior_decode(post) == Annotation([0, 0, 0])

    def test_one_state(self, one_state):
        post = forward_backward(one_state, "xx")
        assert posterior_decode(post) == Annotation([0, 0])

    def test_maximizes_pointwise_posterior_sum(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            hmm = random_model(rng, n_states=4, n_colors=3, n_symbols=2)
            seq = random_seq(rng, hmm.alphabet, int(rng.integers(2, 8)))
            post = forward_backward(hmm, seq)
            got = post.color_post[np.arange(post.length),
                                  posterior_decode(post).colors].sum()
            best = max(
                post.color_post[np.arange(post.length), list(cand)].sum()
                for cand in itertools.product(range(3), repeat=post.length))
            assert got == pytest.approx(best, rel=1e-12)


class TestImpossiblePosition:
    """Both decoders name the first position no state path can explain."""

    @pytest.mark.parametrize("sparse_kernels", [False, True])
    def test_same_position_in_both_messages(self, sparse_kernels):
        # s_A only emits x and never leaves itself, so "xxyx" dies at 3.
        spec = t1_spec()
        spec["states"][0]["emission"] = {"x": 1.0}
        spec["states"][1]["emission"] = {"y": 1.0}
        spec["initial"] = {"s_A": 1.0}
        spec["transitions"] = {"s_A": {"s_A": 1.0}, "s_B": {"s_B": 1.0}}
        hmm = build_hmm(spec)
        if sparse_kernels:
            hmm = sparse_kernel_copy(hmm)
        message = "sequence impossible under model at position 3"
        with pytest.raises(ZeroLikelihoodError, match=message):
            forward_backward(hmm, "xxyx")
        with pytest.raises(ZeroLikelihoodError, match=message):
            viterbi_decode(hmm, "xxyx")

    def test_first_position(self):
        spec = t1_spec()
        spec["initial"] = {"s_A": 1.0}
        spec["states"][0]["emission"] = {"x": 1.0}
        hmm = build_hmm(spec)
        for decode in (forward_backward, viterbi_decode):
            with pytest.raises(ZeroLikelihoodError, match="at position 1$"):
                decode(hmm, "yx")


def sparse_kernel_copy(hmm):
    """A copy of the model that decodes with the sparse kernels at any size.

    The operator is built on the copy's first decode and cached, so
    building it here with the dense limit patched to 0 fixes its kernels.
    """
    twin = Hmm(hmm.state_ids, hmm.state_colors, hmm.color_names, hmm.alphabet,
               hmm.initial, hmm.transitions, hmm.emissions)
    with mock.patch.object(_transition, "DENSE_STATE_LIMIT", 0):
        assert _transition.operator_of(twin).is_sparse
    return twin


def assert_matches_reference(hmm, seq):
    """Viterbi equal to the reference; posteriors within 1e-12 of it."""
    ann, logp = viterbi_decode(hmm, seq)
    ref_ann, ref_logp = _oracles.reference_viterbi(hmm, seq)
    assert ann == ref_ann
    assert logp == ref_logp
    assert_posteriors_match_reference(hmm, seq)


def assert_posteriors_match_reference(hmm, seq, log_lik_abs=0.0):
    """forward_backward within 1e-12 of the reference, pair sums included;
    log-likelihoods within 1e-12 relative or log_lik_abs."""
    post = forward_backward(hmm, seq)
    ref = _oracles.reference_forward_backward(hmm, seq)
    assert post.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-12, abs=log_lik_abs)
    np.testing.assert_allclose(post.color_post, ref.color_post, rtol=0, atol=1e-12)
    np.testing.assert_allclose(post.pair_post, ref.pair_post, rtol=0, atol=1e-12)
    assert np.all(post.pair_post >= 0.0)
    np.testing.assert_allclose(post.pair_post.sum(axis=2), post.color_post[:-1],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(post.pair_post.sum(axis=1), post.color_post[1:],
                               rtol=0, atol=1e-12)


# Every probability is a sum of these, so equal-scoring paths are common.
QUARTER_ROWS = ([0.5, 0.5], [0.5, 0.25, 0.25], [0.25] * 4)


def quarter_rows(rng, n_rows, width):
    """Rows of 0.25/0.5 entries summing to 1, on random columns."""
    options = [p for p in QUARTER_ROWS if len(p) <= width]
    out = np.zeros((n_rows, width))
    for i in range(n_rows):
        probs = options[rng.integers(len(options))]
        out[i, rng.choice(width, size=len(probs), replace=False)] = probs
    return out


def quarter_model(rng, n_states, n_colors, n_symbols, as_csr):
    """Random model with scattered colors and 0.25/0.5 probabilities."""
    colors = np.concatenate([np.arange(n_colors),
                             rng.integers(n_colors, size=n_states - n_colors)])
    rng.shuffle(colors)
    trans = quarter_rows(rng, n_states, n_states)
    return Hmm([f"s{i}" for i in range(n_states)], colors,
               [f"c{c}" for c in range(n_colors)],
               [chr(ord("a") + i) for i in range(n_symbols)],
               quarter_rows(rng, 1, n_states)[0],
               sparse.csr_array(trans) if as_csr else trans,
               quarter_rows(rng, n_states, n_symbols))


@st.composite
def decode_instances(draw):
    """(model, sequence sampled from it) on the dense and the sparse kernels."""
    kind = draw(st.sampled_from(["dense", "csr", "csr_large", "jumping", "jumping_csr"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind.startswith("jumping"):
        msa = synthetic_subtypes(int(rng.integers(2, 4)), int(rng.integers(3, 7)),
                                 divergence=0.3, seed=int(rng.integers(1 << 30)))
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(
            jump_prob=float(rng.choice([0.25, 0.5])), pseudocount=0.5))
    else:
        n_states = int(rng.integers(257, 300) if kind == "csr_large" else rng.integers(2, 10))
        hmm = quarter_model(rng, n_states, int(rng.integers(1, min(4, n_states) + 1)),
                            int(rng.integers(2, 5)), as_csr=kind != "dense")
    if kind in ("csr", "jumping_csr"):
        hmm = sparse_kernel_copy(hmm)
    assert _transition.operator_of(hmm).is_sparse == (kind != "dense" and kind != "jumping")
    length = draw(st.integers(min_value=1, max_value=40))
    _, seq = sample_path(hmm, length, seed=int(rng.integers(1 << 30)))
    return hmm, seq


# State renumberings, by state count: the kernels run in file order. A
# jumping model's own column-major order makes every transition but the
# self-loops point forward and windows short; reversed, every one points
# backward; shuffled, windows are wide.
ORDERS = {"identity": np.arange,
          "reversed": lambda n: np.arange(n)[::-1].copy(),
          "shuffled": lambda n: np.random.default_rng(n).permutation(n)}

# CHUNK_BYTES per state that make the dense backward pass take one gap
# per chunk, or three.
CHUNKS = {"one gap": 8, "few gaps": 24}


class TestAgainstReference:
    """The operator kernels against the decoders they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(decode_instances(), st.sampled_from(sorted(ORDERS)),
           st.sampled_from(["default", "one gap", "few gaps"]))
    def test_matches_reference(self, instance, order, chunk):
        hmm, seq = instance
        renumbered = permuted(hmm, ORDERS[order](hmm.n_states))
        hmm = sparse_kernel_copy(renumbered) if _transition.operator_of(hmm).is_sparse \
            else renumbered
        if chunk == "default":
            assert_matches_reference(hmm, seq)
            return
        with mock.patch.object(_transition, "CHUNK_BYTES", CHUNKS[chunk] * hmm.n_states):
            assert_matches_reference(hmm, seq)

    def test_flush_on_long_jumping_query(self):
        # A query four times the profile length drives the scaled forward
        # probabilities of early-column states far below the cut.
        msa = synthetic_subtypes(3, 150, divergence=0.15, seed=3)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        op = _transition.operator_of(hmm)
        assert op.is_sparse
        recs = random_recombinants(msa, 4, seed=4, breakpoint_range=(1, 2),
                                   min_segment=30, mutation_rate=0.05)
        seq = "".join(r.seq for r in recs)
        obs = hmm.encode(seq)
        ref_alpha, _, ref_scales = _oracles.reference_scaled_forward_backward(hmm, obs)
        below = (ref_alpha > 0) & (ref_alpha <= _transition.CUT)
        assert np.count_nonzero(below) > 1000

        lat = op.ragged_forward(obs)
        # every window starts and ends at an entry above the cut
        assert np.all(np.array([row[0] for row in lat.rows]) > _transition.CUT)
        assert np.all(np.array([row[-1] for row in lat.rows]) > _transition.CUT)
        assert sum(row.size for row in lat.rows) < ref_alpha.size / 10
        assert 0.0 < lat.dropped < ref_alpha.size * _transition.CUT
        np.testing.assert_array_equal(lat.scales, ref_scales)
        assert_matches_reference(hmm, seq)


def attempt(f, *args):
    """f(*args), or the message of the ZeroLikelihoodError it raises."""
    try:
        return f(*args)
    except ZeroLikelihoodError as e:
        return str(e)


def assert_scatter_matches_gather(hmm, seq):
    """The sparse kernels, which scatter each window's rows of T, equal (`==`)
    to the gather kernels they replaced: forward windows at the cut and at
    the subnormal flush, beam rows at the beam and with none, posteriors,
    and Viterbi paths, reruns included."""
    op = _transition.operator_of(hmm)
    assert op.is_sparse
    obs = hmm.encode(seq)

    pptr, preds, pdata, plog = _oracles.reference_predecessors(hmm)
    real = pdata > 0  # not the self entry of a state with no predecessor
    np.testing.assert_array_equal(op.pred[0], np.concatenate(([0], np.cumsum(real)))[pptr])
    np.testing.assert_array_equal(op.pred[1], preds[real])
    np.testing.assert_array_equal(op.pred[2], plog[real])
    for got, want in zip(op.reach, _oracles.reference_reach(hmm)):
        np.testing.assert_array_equal(got, want)

    for cut in (_transition.CUT, np.finfo(np.float64).tiny):
        lat = attempt(op._forward_windows, obs, cut)
        ref = attempt(_oracles.reference_forward_windows, hmm, obs, cut)
        if isinstance(ref, str):
            assert lat == ref
            continue
        np.testing.assert_array_equal(lat.lo, ref.lo)
        np.testing.assert_array_equal(lat.scales, ref.scales)
        assert len(lat.rows) == len(ref.rows)
        for got, want in zip(lat.rows, ref.rows):
            np.testing.assert_array_equal(got, want)
        assert lat.dropped == ref.dropped
    for width in (-np.log(_transition.CUT), np.inf):
        rows = attempt(op._beam_scores, obs, width)
        ref = attempt(_oracles.reference_beam_scores, hmm, obs, width)
        if isinstance(ref, str):
            assert rows == ref
            continue
        assert [start for start, _ in rows] == [start for start, _ in ref]
        for (_, got), (_, want) in zip(rows, ref):
            np.testing.assert_array_equal(got, want)

    post, path = attempt(op.posteriors, obs), attempt(op.viterbi_path, obs)
    with mock.patch.object(op, "_forward_windows",
                           partial(_oracles.reference_forward_windows, hmm)), \
            mock.patch.object(op, "_beam_scores", partial(_oracles.reference_beam_scores, hmm)), \
            mock.patch.object(op, "_beam_traceback",
                              partial(_oracles.reference_beam_traceback, hmm)):
        ref_post, ref_path = attempt(op.posteriors, obs), attempt(op.viterbi_path, obs)
    for got, want in ((post, ref_post), (path, ref_path)):
        if isinstance(want, str):
            assert got == want
            continue
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestScatterKernels:
    """The sparse kernels against the gather kernels they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 40), st.sampled_from([0.0, 0.5]),
           st.sampled_from([0.01, 0.5]), st.sampled_from(["column-major", "profile-major",
                                                          "shuffled"]),
           st.integers(1, 80), st.integers(0, 2**30))
    def test_jumping_models(self, n_profiles, length, delete_self, jump_prob, order, n, seed):
        msa = synthetic_subtypes(n_profiles, length, divergence=0.3, seed=seed)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=jump_prob, pseudocount=0.5,
                                                    delete_self=delete_self))
        if order == "profile-major":
            hmm = permuted(hmm, np.argsort(column_major(n_profiles, 2 * length + 1)))
        elif order == "shuffled":
            hmm = permuted(hmm, ORDERS["shuffled"](hmm.n_states))
        hmm = sparse_kernel_copy(hmm)
        assert_scatter_matches_gather(hmm, sample_path(hmm, n, seed=seed)[1])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 300), st.integers(1, 4), st.integers(2, 4), st.booleans(),
           st.integers(1, 60), st.integers(0, 2**30))
    def test_shuffled_sparse_models(self, n_states, n_colors, n_symbols, sampled, n, seed):
        # Random columns leave some states with no predecessor; a random
        # query is often impossible.
        rng = np.random.default_rng(seed)
        hmm = quarter_model(rng, n_states, min(n_colors, n_states), n_symbols, as_csr=True)
        hmm = sparse_kernel_copy(permuted(hmm, rng.permutation(n_states)))
        seq = sample_path(hmm, n, seed=seed)[1] if sampled else random_seq(rng, hmm.alphabet, n)
        assert_scatter_matches_gather(hmm, seq)

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_cut_and_beam_reruns(self, order):
        hmm = TestCutFallback.model(order)
        obs = hmm.encode("xxxy")
        op = _transition.operator_of(hmm)
        for run in (lambda: op._forward_windows(obs, _transition.CUT),
                    lambda: op._beam_scores(obs, -np.log(_transition.CUT))):
            with pytest.raises(ZeroLikelihoodError):
                run()
        assert_scatter_matches_gather(hmm, "xxxy")

    def test_long_query_and_profile_major_file(self):
        msa = synthetic_subtypes(3, 150, divergence=0.15, seed=3)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        recs = random_recombinants(msa, 4, seed=4, breakpoint_range=(1, 2),
                                   min_segment=30, mutation_rate=0.05)
        seq = "".join(r.seq for r in recs)
        assert_scatter_matches_gather(hmm, seq)
        assert_scatter_matches_gather(permuted(hmm, np.argsort(column_major(3, 301))),
                                      recs[0].seq)


class TestPublicLoops:
    """Without scipy's private loops the kernels run on its public sparse arrays."""

    @pytest.mark.parametrize("kind", ["jumping", "shuffled"])
    def test_fallback_matches_fast_path(self, monkeypatch, kind):
        rng = np.random.default_rng(13)
        if kind == "jumping":
            msa = synthetic_subtypes(3, 120, divergence=0.15, seed=13)
            hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
            seqs = [r.seq for r in random_recombinants(msa, 3, seed=14, min_segment=20,
                                                       mutation_rate=0.05)]
        else:
            hmm = permuted(quarter_model(rng, 280, 3, 3, as_csr=True), rng.permutation(280))
            seqs = [sample_path(hmm, 60, seed=seed)[1] for seed in range(3)]
        fast = _transition.operator_of(sparse_kernel_copy(hmm))
        calls = {}

        def counted(name, loop):
            def run(*args):
                calls[name] = calls.get(name, 0) + 1
                return loop(*args)
            return run

        for name, loop in zip(("_csr_matvec", "_csc_matvec", "_csr_tocsc"),
                              _transition._public_loops()):
            monkeypatch.setattr(_transition, name, counted(name, loop))
        public = _transition.operator_of(sparse_kernel_copy(hmm))
        for table, want in zip(public.pred, fast.pred):
            np.testing.assert_array_equal(table, want)
        for seq in seqs:
            obs = hmm.encode(seq)
            scales, color_post, pair_post, dropped = public.posteriors(obs)
            ref = fast.posteriors(obs)
            np.testing.assert_allclose(scales, ref[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(color_post, ref[1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(pair_post, ref[2], rtol=0, atol=1e-12)
            assert dropped == pytest.approx(ref[3], rel=1e-12, abs=1e-300)
            path, logp = public.viterbi_path(obs)
            np.testing.assert_array_equal(path, fast.viterbi_path(obs)[0])
            assert logp == pytest.approx(fast.viterbi_path(obs)[1], rel=1e-12)
        assert set(calls) == {"_csr_matvec", "_csc_matvec", "_csr_tocsc"}


class TestColumnMajor:
    """Jumping models are laid out column-major, the order the sparse
    kernels run in: slot j of profile p at j * P + p, so each state comes
    after its predecessors (self-loops aside). Models in any other order
    decode alike."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 60),
           st.sampled_from([0.0, 0.999]) | st.floats(0.0, 0.999),
           st.sampled_from([0.0, 0.01, 0.5]), st.integers(0, 2**30))
    def test_jumping_models_run_forward(self, n_profiles, length, delete_self, jump_prob, seed):
        msa = synthetic_subtypes(n_profiles, length, divergence=0.3, seed=seed)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=jump_prob, pseudocount=0.5,
                                                    delete_self=delete_self))
        # I0 of every profile, then M1 of every profile, I1, ...
        slots = ["I0"] + [f"{k}{col}" for col in range(1, length + 1) for k in "MI"]
        assert hmm.state_ids == [f"{name}:{slot}" for slot in slots for name in msa.names]
        t = hmm.transitions
        rows = np.repeat(np.arange(hmm.n_states), np.diff(t.indptr))
        assert np.all(t.indices >= rows)

    def test_profile_major_file_decodes_alike(self):
        msa = synthetic_subtypes(3, 200, divergence=0.15, seed=5)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        other = permuted(hmm, np.argsort(column_major(3, 401)))
        assert other.state_ids[:2] == ["A:I0", "A:M1"]
        params = GainParams(window=10, gamma=1.0)
        for rec in random_recombinants(msa, 3, seed=6, min_segment=40, mutation_rate=0.05):
            a, b = forward_backward(hmm, rec.seq), forward_backward(other, rec.seq)
            assert a.log_likelihood == pytest.approx(b.log_likelihood, rel=1e-12, abs=0)
            assert posterior_decode(a) == posterior_decode(b)
            assert viterbi_decode(hmm, rec.seq)[0] == viterbi_decode(other, rec.seq)[0]
            assert gain_decode(hmm, rec.seq, params)[0] == gain_decode(other, rec.seq, params)[0]

    def test_ring_fed_from_later_states(self):
        # States 0..299 form a ring with self-loops, 300..339 a chain that
        # leaves it, and 340..349 are sources feeding it.
        n = 350
        trans = np.zeros((n, n))
        ring = np.arange(300)
        trans[ring, ring] = 0.5
        trans[ring, (ring + 1) % 300] = 0.5
        trans[150, 151] = trans[150, 300] = 0.25
        chain = np.arange(300, 339)
        trans[chain, chain + 1] = 1.0
        trans[339, 339] = 1.0
        trans[340:, 5] = 1.0
        initial = np.zeros(n)
        initial[[0, 340]] = 0.5
        rng = np.random.default_rng(3)
        hmm = Hmm([f"s{i}" for i in range(n)], np.arange(n) % 3, ["a", "b", "c"], ["x", "y"],
                  initial, sparse.csr_array(trans), quarter_rows(rng, n, 2))
        assert _transition.operator_of(hmm).is_sparse
        for seed in range(3):
            assert_matches_reference(hmm, sample_path(hmm, 80, seed=seed)[1])

    def test_ties_on_a_layered_quarter_model(self):
        # 30 layers of 10 states under shuffled indices: every state stays
        # with 0.5 and moves to two states of the next layer (the last
        # layer: of itself) with 0.25 each, and with quarter-probability
        # emissions many paths score exactly alike. Decoded as shuffled
        # and renumbered layer by layer.
        rng = np.random.default_rng(7)
        n_layers, width = 30, 10
        n = n_layers * width
        layers = rng.permutation(n).reshape(n_layers, width)
        trans = np.zeros((n, n))
        for layer, nxt in zip(layers, np.vstack((layers[1:], layers[-1:]))):
            for u in layer:
                trans[u, u] = 0.5
                trans[u, rng.choice(nxt, size=2, replace=False)] += 0.25
        initial = np.zeros(n)
        initial[layers[0, :4]] = 0.25
        hmm = Hmm([f"s{i}" for i in range(n)], rng.integers(3, size=n), ["a", "b", "c"],
                  ["x", "y", "z"], initial, sparse.csr_array(trans), quarter_rows(rng, n, 3))
        for model in (hmm, permuted(hmm, layers.ravel())):
            assert _transition.operator_of(model).is_sparse
            for seed in range(10):
                _, seq = sample_path(model, 60, seed=seed)
                ann, logp = viterbi_decode(model, seq)
                ref_ann, ref_logp = _oracles.reference_viterbi(model, seq)
                assert ann == ref_ann
                assert logp == ref_logp


class TestPosteriorProperties:
    @settings(max_examples=100, deadline=None)
    @given(decode_instances())
    def test_rows_sum_to_one(self, instance):
        post = forward_backward(*instance)
        np.testing.assert_allclose(post.pair_post.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.color_post.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(decode_instances())
    def test_decoders_ignore_query_case(self, instance):
        hmm, seq = instance
        assert all(s.islower() for s in hmm.alphabet)
        params = GainParams(window=2, gamma=0.5)
        lower, upper = (
            (viterbi_decode(hmm, s)[0], posterior_decode(forward_backward(hmm, s)),
             gain_decode(hmm, s, params)[0])
            for s in (seq, seq.upper()))
        assert lower == upper


class TestDenseKernels:
    """The dense forward and backward passes: one product by a per-symbol
    table and one division per step, each forward table carrying its
    column sums as the row that gives the step's scale."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([1, 2, 4, 20]),
           st.one_of(st.integers(1, 6), st.sampled_from([48, 255, 256]),
                     st.integers(1, _transition.DENSE_STATE_LIMIT)),
           st.integers(1, 4), st.sampled_from([0.0, 0.5]), st.sampled_from([1, 2, 3, 7]),
           st.sampled_from(["1", "2", "m", "m + 1", "m + 2", "2m + 1", "3m"]),
           st.integers(0, 2**30))
    def test_matches_reference(self, n_symbols, n_states, n_colors, sparsity, m, length, seed):
        # m gaps per backward chunk; the lengths fall on and around its ends.
        rng = np.random.default_rng(seed)
        hmm = random_model(rng, n_states, min(n_colors, n_states), n_symbols, sparsity)
        op = _transition.operator_of(hmm)
        assert not op.is_sparse
        n = {"1": 1, "2": 2, "m": m, "m + 1": m + 1, "m + 2": m + 2, "2m + 1": 2 * m + 1,
             "3m": 3 * m}[length]
        _, seq = sample_path(hmm, n, seed=seed)
        alphahat, _ = op.dense_forward(hmm.encode(seq))
        assert alphahat.shape == (n, n_states)
        np.testing.assert_allclose(alphahat.sum(axis=1), 1.0, rtol=0, atol=1e-13)
        # With one symbol Pr(X) = 1: each log scale is 0 to within its rounding.
        log_lik_abs = n * 1e-15 if n_symbols == 1 else 0.0
        with mock.patch.object(_transition, "CHUNK_BYTES", 8 * m * n_states):
            assert_posteriors_match_reference(hmm, seq, log_lik_abs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seq, position", [("yxxxx", 1), ("xxyxx", 3), ("xxxxy", 5)])
    def test_dead_position_named(self, seq, position):
        # s_A emits only x and never leaves itself: its tables' column sums
        # are 0 against every y, so the scale is 0 where the row is.
        spec = t1_spec()
        spec["states"][0]["emission"] = {"x": 1.0}
        spec["states"][1]["emission"] = {"y": 1.0}
        spec["initial"] = {"s_A": 1.0}
        spec["transitions"] = {"s_A": {"s_A": 1.0}, "s_B": {"s_B": 1.0}}
        hmm = build_hmm(spec)
        assert not _transition.operator_of(hmm).is_sparse
        for decode in (forward_backward, viterbi_decode):
            with pytest.raises(ZeroLikelihoodError, match=f"at position {position}$"):
                decode(hmm, seq)


class TestDenseViterbi:
    """Viterbi's dense kernel, which keeps uint8 back-pointers, against the
    reference decoder."""

    @pytest.mark.parametrize("n_states, n_colors, seed", [(5, 2, 1), (40, 3, 2), (256, 4, 0)])
    def test_quarter_models_match_reference(self, n_states, n_colors, seed):
        rng = np.random.default_rng(seed)
        hmm = quarter_model(rng, n_states, n_colors, 3, as_csr=False)
        op = _transition.operator_of(hmm)
        assert not op.is_sparse
        _, seq = sample_path(hmm, 400, seed=seed)
        ann, logp = viterbi_decode(hmm, seq)
        ref_ann, ref_logp = _oracles.reference_viterbi(hmm, seq)
        assert ann == ref_ann
        assert logp == ref_logp
        if n_states == 256:
            # the largest index a uint8 back-pointer holds is read back
            assert 255 in op.viterbi_path(hmm.encode(seq))[0][:-1].tolist()

    def test_late_death_names_position(self):
        # s_A emits only x and never leaves itself; the first y is at 150.
        spec = t1_spec()
        spec["states"][0]["emission"] = {"x": 1.0}
        spec["initial"] = {"s_A": 1.0}
        spec["transitions"]["s_A"] = {"s_A": 1.0}
        hmm = build_hmm(spec)
        seq = "x" * 149 + "y" + "x" * 50
        for decode in (forward_backward, viterbi_decode):
            with pytest.raises(ZeroLikelihoodError, match="at position 150$"):
                decode(hmm, seq)

    def test_memory_of_a_long_query(self):
        # An (n, S) float64 score array alone would take 7.7 MB here.
        rng = np.random.default_rng(9)
        hmm = random_model(rng, n_states=48, n_colors=4, n_symbols=4)
        seq = random_seq(rng, hmm.alphabet, 20_000)
        _transition.operator_of(hmm)
        tracemalloc.start()
        try:
            viterbi_decode(hmm, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"peak traced memory {peak / 1e6:.2f} MB"


class TestCutFallback:
    """A path the cut or the beam removes is recovered when it alone survives."""

    @staticmethod
    def model(order):
        # s_B starts with mass 1e-25, far below the cut and the beam, and
        # is the only state that emits y.
        spec = t1_spec()
        spec["states"][0]["emission"] = {"x": 1.0}
        spec["states"][1]["emission"] = {"x": 0.5, "y": 0.5}
        spec["initial"] = {"s_A": 1.0, "s_B": 1e-25}
        spec["transitions"] = {"s_A": {"s_A": 1.0}, "s_B": {"s_B": 1.0}}
        return sparse_kernel_copy(permuted(build_hmm(spec), ORDERS[order](2)))

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_decoders_match_oracles(self, order):
        hmm, seq = self.model(order), "xxxy"
        assert_matches_reference(hmm, seq)
        post = forward_backward(hmm, seq)
        ann, logp = viterbi_decode(hmm, seq)
        z, cp, pp = _oracles.posteriors(hmm, hmm.encode(seq).tolist())
        assert math.exp(post.log_likelihood) == pytest.approx(z, rel=1e-10)
        np.testing.assert_allclose(post.color_post, cp, rtol=1e-10, atol=1e-15)
        np.testing.assert_allclose(post.pair_post, pp, rtol=1e-10, atol=1e-15)
        best_logp, best_colors = _oracles.best_path(hmm, hmm.encode(seq).tolist())
        assert ann == Annotation(best_colors) == Annotation([1, 1, 1, 1])
        assert logp == pytest.approx(best_logp, rel=1e-12)


class TestSparseWindowMemory:
    def test_peak_near_the_kept_windows(self):
        # The alphahat windows are the one lattice the sparse kernels keep;
        # a second, flat copy of them took the peak to 2.1 times their bytes.
        msa = synthetic_subtypes(3, 1000, divergence=0.15, seed=11)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        rec = random_recombinants(msa, 1, seed=12, breakpoint_range=(1, 3),
                                  min_segment=100, mutation_rate=0.05)[0]
        op = _transition.operator_of(hmm)
        assert op.is_sparse
        kept = sum(row.nbytes for row in op.ragged_forward(hmm.encode(rec.seq)).rows)
        tracemalloc.start()
        try:
            forward_backward(hmm, rec.seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * kept, \
            f"peak traced memory {peak / 1e6:.2f} MB, windows {kept / 1e6:.2f} MB"


class TestBoundedMemory:
    def test_five_subtypes_by_3000_columns(self):
        # alphahat and betahat as (n, S) arrays would need 1.44 GB here.
        msa = synthetic_subtypes(5, 3000, divergence=0.15, seed=11)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        assert hmm.n_states == 30005
        a, b, c, d, _ = msa.names
        rec = simulate_recombinant(
            msa, [(a, (1, 1100)), (d, (1101, 2000)), (b, (2001, 3000))],
            mutation_rate=0.05, seed=12)
        assert len(rec.seq) == 3000
        tracemalloc.start()
        try:
            post = forward_backward(hmm, rec.seq)
            vit, _ = viterbi_decode(hmm, rec.seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150e6, f"peak traced memory {peak / 1e6:.0f} MB"
        herd, _ = decode_from_posteriors(post, window_scores(post, 10), GainParams(10, 1.0),
                                         color_graph(hmm))
        assert (boundary_metrics(herd, rec.truth, 10).f1
                >= boundary_metrics(vit, rec.truth, 10).f1)


class TestSharedOperator:
    def test_two_threads_byte_identical(self):
        def make():
            msa = synthetic_subtypes(3, 100, divergence=0.15, seed=21)
            return msa, build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01,
                                                              pseudocount=0.1))

        msa, hmm = make()
        seq = random_recombinants(msa, 1, seed=22, min_segment=20,
                                  mutation_rate=0.05)[0].seq
        barrier = threading.Barrier(2, timeout=30)

        def decode(model, wait=True):
            if wait:
                barrier.wait()  # both threads reach the unbuilt operator together
            post = forward_backward(model, seq)
            ann, logp = viterbi_decode(model, seq)
            return (post.log_likelihood, post.color_post.tobytes(),
                    post.pair_post.tobytes(), ann.colors.tobytes(), logp)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(decode, hmm) for _ in range(2)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert results[0] == results[1]
        assert results[0] == decode(make()[1], wait=False)
