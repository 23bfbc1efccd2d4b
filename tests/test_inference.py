import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from gainhmm import (
    Annotation,
    Hmm,
    JumpingHmmSpec,
    ZeroLikelihoodError,
    build_hmm,
    build_jumping_hmm,
    forward_backward,
    posterior_decode,
    random_recombinants,
    synthetic_subtypes,
    viterbi_decode,
)
from gainhmm import _transition
from gainhmm.simulate import sample_path
import _oracles
from conftest import random_model, random_seq, t1_spec

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
        # sum_u fwd(j, u) * bwd(j, u) must equal Pr(X) at every position.
        obs = t1.encode("xyxyy")
        alphahat, betahat, scales = _transition.operator_of(t1).scaled_passes(obs)
        lik = np.prod(scales)
        for j in range(len(obs)):
            fwd = alphahat[j] * np.prod(scales[: j + 1])
            bwd = betahat[j] * np.prod(scales[j + 1:])
            assert float(fwd @ bwd) == pytest.approx(lik, rel=1e-9)

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

    post = forward_backward(hmm, seq)
    ref = _oracles.reference_forward_backward(hmm, seq)
    assert post.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-12, abs=0)
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


class TestAgainstReference:
    """The operator kernels against the decoders they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(decode_instances())
    def test_matches_reference(self, instance):
        assert_matches_reference(*instance)

    def test_flush_on_long_jumping_query(self):
        # A query four times the profile length drives the scaled forward
        # probabilities of early-column states through the subnormal range.
        msa = synthetic_subtypes(3, 150, divergence=0.15, seed=3)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        assert _transition.operator_of(hmm).is_sparse
        recs = random_recombinants(msa, 4, seed=4, breakpoint_range=(1, 2),
                                   min_segment=30, mutation_rate=0.05)
        seq = "".join(r.seq for r in recs)
        obs = hmm.encode(seq)
        tiny = np.finfo(np.float64).tiny
        ref_alpha, _, ref_scales = _oracles.reference_scaled_forward_backward(hmm, obs)
        assert np.count_nonzero((ref_alpha > 0) & (ref_alpha < tiny)) > 1000

        alphahat, betahat, scales = _transition.operator_of(hmm).scaled_passes(obs)
        for arr in (alphahat, betahat):
            assert not np.any((arr > 0) & (arr < tiny))
        np.testing.assert_array_equal(scales, ref_scales)
        assert_matches_reference(hmm, seq)


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
