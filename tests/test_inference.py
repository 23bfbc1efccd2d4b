import itertools
import math

import numpy as np
import pytest
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
    synthetic_subtypes,
    viterbi_decode,
)
from gainhmm.inference import _scaled_forward_backward
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
        alphahat, betahat, scales = _scaled_forward_backward(t1, obs)
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
        hmm_sp = Hmm(hmm.state_ids, hmm.state_colors, hmm.color_names,
                     hmm.alphabet, hmm.initial,
                     sparse.csr_array(hmm.transitions), hmm.emissions)
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
        log_t = np.log(t1.transitions)
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
            hmm_sp = Hmm(hmm.state_ids, hmm.state_colors, hmm.color_names,
                         hmm.alphabet, hmm.initial,
                         sparse.csr_array(hmm.transitions), hmm.emissions)
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
