import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gainhmm import (
    Annotation,
    ColorGraph,
    GainParams,
    PosteriorSet,
    color_graph,
    decode_from_posteriors,
    expected_gain,
    forward_backward,
    gain_decode,
    posterior_decode,
    viterbi_decode,
    window_scores,
)
from gainhmm.oracles import (
    brute_force_best_annotation,
    brute_force_expected_gain,
    coloring_distribution,
    feasible_colorings,
)
import _oracles
from conftest import random_model, random_seq

B01 = 0.036 / 0.1425
B10 = 0.002 / 0.1425


def small_instance(rng, max_len=8):
    n_states = int(rng.integers(2, 5))
    n_colors = int(rng.integers(2, min(4, n_states + 1)))
    hmm = random_model(rng, n_states=n_states, n_colors=n_colors,
                       n_symbols=2, sparsity=float(rng.random() * 0.5))
    seq = random_seq(rng, hmm.alphabet, int(rng.integers(2, max_len + 1)))
    params = GainParams(
        window=int(rng.choice([0, 1, 2])),
        gamma=float(rng.choice([0.0, 0.2, 1.0, 5.0])),
        alpha=float(rng.choice([0.0, 0.1])),
    )
    return hmm, seq, params


class TestGainParams:
    def test_defaults(self):
        p = GainParams(window=3, gamma=0.5)
        assert p.alpha == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"window": -1, "gamma": 0.1},
        {"window": 0.5, "gamma": 0.1},
        {"window": 0, "gamma": -0.1},
        {"window": 0, "gamma": 0.1, "alpha": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GainParams(**kwargs)


class TestWindowScores:
    def test_w0_is_identity(self, t1):
        post = forward_backward(t1, "xyxy")
        ws = window_scores(post, 0)
        off = ~np.eye(2, dtype=bool)
        np.testing.assert_allclose(
            ws.scores[:, off], post.pair_post[:, off], rtol=1e-12, atol=1e-16)

    def test_t1_xy_clamped_window(self, t1):
        post = forward_backward(t1, "xy")
        ws = window_scores(post, 5)
        assert ws.score(1, 0, 1) == pytest.approx(B01, rel=1e-12)

    def test_zero_pair_stays_zero(self, t1):
        post = forward_backward(t1, "xxxx")
        pair = post.pair_post.copy()
        pair[:, 1, 0] = 0.0
        doctored = type(post)(length=post.length,
                              log_likelihood=post.log_likelihood,
                              color_post=post.color_post, pair_post=pair)
        ws = window_scores(doctored, 2)
        np.testing.assert_array_equal(ws.scores[:, 1, 0], 0.0)

    def test_matches_direct_sums(self, t1):
        rng = np.random.default_rng(3)
        seq = random_seq(rng, t1.alphabet, 12)
        post = forward_backward(t1, seq)
        for window in (0, 1, 3, 20):
            ws = window_scores(post, window)
            n = post.length
            for k in range(n - 1):
                lo, hi = max(0, k - window), min(n - 2, k + window)
                direct = post.pair_post[lo:hi + 1].sum(axis=0)
                for c, c2 in itertools.permutations(range(2), 2):
                    assert ws.scores[k, c, c2] == pytest.approx(
                        direct[c, c2], rel=1e-12, abs=1e-15)

    def test_bounded_by_window_size(self, t1):
        post = forward_backward(t1, "xyxyxyyx")
        for window in (0, 1, 2):
            ws = window_scores(post, window)
            assert ws.scores.min() >= 0.0
            assert ws.scores.max() <= 2 * window + 1


class TestGainDecode:
    def test_t1_xy_boundary_chosen(self, t1):
        ann, value = gain_decode(t1, "xy", GainParams(window=0, gamma=0.2))
        assert ann == Annotation([0, 1])
        assert value == pytest.approx(1.2 * B01 - 0.2, rel=1e-12)

    def test_t1_xy_boundary_suppressed_at_high_gamma(self, t1):
        ann, value = gain_decode(t1, "xy", GainParams(window=0, gamma=1.0))
        assert ann == Annotation([0, 0])
        assert value == 0.0

    def test_t1_xy_alpha_bonus(self, t1):
        ann, value = gain_decode(t1, "xy", GainParams(window=0, gamma=0.2, alpha=0.1))
        assert ann == Annotation([0, 1])
        p0_1, p0_2 = 0.0765 / 0.1425, 0.0425 / 0.1425
        want = (1.2 * B01 - 0.2) + 0.1 * (p0_1 + (1 - p0_2))
        assert value == pytest.approx(want, rel=1e-12)

    def test_single_position(self, t1):
        ann, value = gain_decode(t1, "x", GainParams(window=0, gamma=0.2))
        assert len(ann) == 1
        assert value == 0.0

    def test_respects_color_graph(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            hmm, seq, params = small_instance(rng)
            graph = color_graph(hmm)
            ann, _ = gain_decode(hmm, seq, params)
            assert graph.allows(ann)

    def test_deterministic(self, t1):
        rng = np.random.default_rng(43)
        seq = random_seq(rng, t1.alphabet, 50)
        params = GainParams(window=2, gamma=0.3, alpha=0.05)
        first = gain_decode(t1, seq, params)
        second = gain_decode(t1, seq, params)
        assert first[0] == second[0]
        assert first[1] == second[1]


# Coarse posterior values make many DP candidates tie exactly.
COARSE = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def dp_instances(draw):
    """(post, windows, params, graph) over random ColorGraphs, some infeasible."""
    n_colors = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=40))
    start = draw(arrays(bool, n_colors))
    pairs = draw(arrays(bool, (n_colors, n_colors)))
    color_post = draw(arrays(float, (n, n_colors), elements=COARSE))
    pair_post = draw(arrays(float, (n - 1, n_colors, n_colors), elements=COARSE))
    params = GainParams(window=draw(st.integers(min_value=0, max_value=5)),
                        gamma=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
                        alpha=draw(st.sampled_from([0.0, 1.0])))
    post = PosteriorSet(length=n, log_likelihood=0.0,
                        color_post=color_post, pair_post=pair_post)
    return post, window_scores(post, params.window), params, ColorGraph(start, pairs)


def dp_outcome(decode, instance):
    """(colors, value) of one decode, or ("error", message) if it raised."""
    try:
        colors, value = decode(*instance)
    except ValueError as e:
        return "error", str(e)
    return list(colors), value


def fast_dp(*instance):
    annotation, value = decode_from_posteriors(*instance)
    return annotation.colors.tolist(), value


class TestReferenceDp:
    """The vectorised decoder against the per-position reference loop, with ==."""

    @settings(max_examples=400, deadline=None)
    @given(dp_instances())
    def test_matches_reference(self, instance):
        assert dp_outcome(fast_dp, instance) == \
            dp_outcome(_oracles.reference_gain_dp, instance)

    def single_color_instance(self, n, start, stay):
        post = PosteriorSet(length=n, log_likelihood=0.0, color_post=np.full((n, 1), 0.5),
                            pair_post=np.ones((n - 1, 1, 1)))
        graph = ColorGraph(np.array([start]), np.array([[stay]]))
        return post, window_scores(post, 1), GainParams(1, 0.5, alpha=1.0), graph

    def test_single_position(self):
        instance = self.single_color_instance(1, True, False)
        assert dp_outcome(fast_dp, instance) == ([0], 0.5)
        assert dp_outcome(_oracles.reference_gain_dp, instance) == ([0], 0.5)

    @pytest.mark.parametrize("start, stay, message", [
        (False, True, "no allowed start color"),
        (True, False, "no color sequence is feasible under the ColorGraph"),
    ])
    def test_error_parity_on_infeasible_graph(self, start, stay, message):
        instance = self.single_color_instance(3, start, stay)
        assert dp_outcome(fast_dp, instance) == ("error", message)
        assert dp_outcome(_oracles.reference_gain_dp, instance) == ("error", message)


class TestExpectedGain:
    def test_evaluator_matches_dp_objective(self, t1):
        rng = np.random.default_rng(47)
        for _ in range(20):
            hmm, seq, params = small_instance(rng)
            ann, value = gain_decode(hmm, seq, params)
            post = forward_backward(hmm, seq)
            ws = window_scores(post, params.window)
            assert expected_gain(ann, post, ws, params) == pytest.approx(
                value, abs=1e-12)

    def test_t1_xy_wrong_direction_boundary(self, t1):
        post = forward_backward(t1, "xy")
        ws = window_scores(post, 0)
        got = expected_gain(Annotation([1, 0]), post, ws, GainParams(0, 0.2))
        assert got == pytest.approx(1.2 * B10 - 0.2, rel=1e-12)

    def test_no_boundaries_no_alpha_is_zero(self, t1):
        post = forward_backward(t1, "xyxy")
        ws = window_scores(post, 1)
        assert expected_gain(Annotation([1, 1, 1, 1]), post, ws,
                             GainParams(1, 0.7)) == 0.0

    def test_length_mismatch(self, t1):
        post = forward_backward(t1, "xy")
        ws = window_scores(post, 0)
        with pytest.raises(ValueError, match="length"):
            expected_gain(Annotation([0, 1, 0]), post, ws, GainParams(0, 0.2))


class TestColoringDistribution:
    def test_matches_pure_python(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            hmm, seq, _ = small_instance(rng, max_len=6)
            support, weights = coloring_distribution(hmm, seq)
            want = _oracles.coloring_weights(hmm, hmm.encode(seq).tolist())
            got = {tuple(c): w for c, w in zip(support.tolist(), weights)}
            assert set(got) == set(want)
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-10)

    def test_rejects_oversized(self, t1):
        with pytest.raises(ValueError, match="too large"):
            coloring_distribution(t1, "x" * 30)


class TestFeasibleColorings:
    def test_full_graph_gets_all(self, t1):
        graph = color_graph(t1)
        cands = feasible_colorings(graph, 4)
        assert cands.shape == (16, 4)

    def test_respects_missing_edges(self):
        from gainhmm import build_hmm
        from conftest import t1_spec
        spec = t1_spec()
        spec["transitions"]["s_B"] = {"s_B": 1.0}
        spec["initial"] = {"s_A": 1.0}
        graph = color_graph(build_hmm(spec))
        cands = {tuple(c) for c in feasible_colorings(graph, 3).tolist()}
        assert cands == {(0, 0, 0), (0, 0, 1), (0, 1, 1)}

    def test_rejects_oversized(self, t1):
        with pytest.raises(ValueError, match="too large"):
            feasible_colorings(color_graph(t1), 25)


class TestBruteForce:
    def test_t1_xy_indicator_example(self, t1):
        got = brute_force_expected_gain(
            t1, "xy", Annotation([0, 1]), GainParams(0, 0.2), "indicator")
        assert got == pytest.approx(1.0 * B01 - 0.2 * (1 - B01), rel=1e-12)

    def test_t1_xy_counting_coincides(self, t1):
        params = GainParams(0, 0.2)
        counting = brute_force_expected_gain(t1, "xy", Annotation([0, 1]), params)
        indicator = brute_force_expected_gain(
            t1, "xy", Annotation([0, 1]), params, "indicator")
        assert counting == pytest.approx(indicator, abs=1e-12)

    def test_no_boundary_zero(self, t1):
        for kind in ("counting", "indicator"):
            assert brute_force_expected_gain(
                t1, "xyx", Annotation([1, 1, 1]), GainParams(2, 0.4), kind) == 0.0

    def test_unknown_kind(self, t1):
        with pytest.raises(ValueError, match="kind"):
            brute_force_expected_gain(t1, "xy", Annotation([0, 1]),
                                      GainParams(0, 0.2), "exotic")

    def test_matches_pure_python_expectation(self):
        rng = np.random.default_rng(59)
        for _ in range(12):
            hmm, seq, params = small_instance(rng, max_len=6)
            n = len(seq)
            cand = Annotation(rng.integers(hmm.n_colors, size=n))
            for kind in ("counting", "indicator"):
                got = brute_force_expected_gain(hmm, seq, cand, params, kind)
                want = _oracles.expected_gain(
                    hmm, hmm.encode(seq).tolist(), tuple(cand.colors.tolist()),
                    params.window, params.gamma, params.alpha, kind)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_best_annotation_t1_example(self, t1):
        ann, value = brute_force_best_annotation(t1, "xy", GainParams(0, 0.2))
        assert ann == Annotation([0, 1])
        assert value == pytest.approx(1.2 * B01 - 0.2, rel=1e-12)

    def test_best_annotation_large_gamma_no_boundary(self, t1):
        ann, value = brute_force_best_annotation(t1, "xy", GainParams(0, 10.0))
        assert not ann.boundaries
        assert value == 0.0

    def test_best_matches_pure_python(self):
        rng = np.random.default_rng(61)
        for _ in range(6):
            hmm, seq, params = small_instance(rng, max_len=5)
            for kind in ("counting", "indicator"):
                got_ann, got_v = brute_force_best_annotation(hmm, seq, params, kind)
                cands = feasible_colorings(color_graph(hmm), len(seq))
                _, want_v = _oracles.best_coloring(
                    hmm, hmm.encode(seq).tolist(), cands.tolist(),
                    params.window, params.gamma, params.alpha, kind)
                assert got_v == pytest.approx(want_v, rel=1e-9, abs=1e-12)
                attained = _oracles.expected_gain(
                    hmm, hmm.encode(seq).tolist(), tuple(got_ann.colors.tolist()),
                    params.window, params.gamma, params.alpha, kind)
                assert attained == pytest.approx(want_v, rel=1e-9, abs=1e-12)


class TestDecoderOptimality:
    def test_dp_matches_brute_force(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            hmm, seq, params = small_instance(rng)
            ann, value = gain_decode(hmm, seq, params)
            _, best = brute_force_best_annotation(hmm, seq, params, "counting")
            assert value == pytest.approx(best, abs=1e-9)
            attained = brute_force_expected_gain(hmm, seq, ann, params, "counting")
            assert attained == pytest.approx(best, abs=1e-9)

    def test_suppression(self):
        rng = np.random.default_rng(71)
        seen = 0
        for _ in range(60):
            hmm, seq, params = small_instance(rng)
            post = forward_backward(hmm, seq)
            ws = window_scores(post, params.window)
            off = ~np.eye(hmm.n_colors, dtype=bool)
            if np.all((1 + params.gamma) * ws.scores[:, off] - params.gamma < 0):
                seen += 1
                flat = GainParams(params.window, params.gamma, 0.0)
                ann, _ = gain_decode(hmm, seq, flat)
                assert not ann.boundaries
        assert seen > 0

    def test_dominance_over_baselines(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            hmm, seq, params = small_instance(rng)
            graph = color_graph(hmm)
            post = forward_backward(hmm, seq)
            ws = window_scores(post, params.window)
            _, value = gain_decode(hmm, seq, params)
            rivals = [viterbi_decode(hmm, seq)[0], posterior_decode(post)]
            for rival in rivals:
                if graph.allows(rival):
                    assert value >= expected_gain(rival, post, ws, params) - 1e-9
