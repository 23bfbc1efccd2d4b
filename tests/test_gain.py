import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gainhmm import (
    Annotation,
    ColorGraph,
    GainParams,
    JumpingHmmSpec,
    PosteriorSet,
    build_jumping_hmm,
    color_graph,
    decode_from_posteriors,
    decode_grid,
    expected_gain,
    forward_backward,
    gain_decode,
    posterior_decode,
    simulate_recombinant,
    synthetic_subtypes,
    viterbi_decode,
    window_scores,
)
from gainhmm import gain
from _brute_force import (
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
        {"window": 0, "gamma": float("nan")},
        {"window": 0, "gamma": float("inf")},
        {"window": 0, "gamma": 0.1, "alpha": float("nan")},
        {"window": 0, "gamma": 0.1, "alpha": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GainParams(**kwargs)

    def test_nan_named(self):
        with pytest.raises(ValueError, match=r"^gamma must be a finite number >= 0, not nan$"):
            GainParams(window=1, gamma=float("nan"))


class TestWindowScores:
    def test_w0_is_identity(self, t1):
        post = forward_backward(t1, "xyxy")
        ws = window_scores(post, 0)
        off = ~np.eye(2, dtype=bool)
        np.testing.assert_allclose(
            ws.sums(0, 3)[:, off], post.pair_post[:, off], rtol=1e-12, atol=1e-16)

    def test_negative_window_rejected(self, t1):
        with pytest.raises(ValueError, match="^window must be a finite number >= 0, not -1$"):
            window_scores(forward_backward(t1, "xy"), -1)

    @pytest.mark.parametrize("window, message", [
        (np.int64(-1), "^window must be a finite number >= 0, not -1$"),
        (2.5, "^window must be an integer >= 0, not 2.5$"),
        (2.0, "^window must be an integer >= 0, not 2.0$"),
        (float("nan"), "^window must be an integer >= 0, not nan$"),
        (float("inf"), "^window must be an integer >= 0, not inf$"),
    ])
    def test_one_window_rule(self, t1, window, message):
        # window_scores refuses what GainParams refuses, with its message.
        post = forward_backward(t1, "xy")
        with pytest.raises(ValueError, match=message):
            GainParams(window, 0.5)
        with pytest.raises(ValueError, match=message):
            window_scores(post, window)

    def test_diagonal_of_the_table_is_zero(self, t1):
        post = forward_backward(t1, "xyxyyx")
        assert post.pair_post[:, 0, 0].any()
        cum = window_scores(post, 1).cum
        np.testing.assert_array_equal(cum[:, [0, 1], [0, 1]], 0.0)
        off = ~np.eye(2, dtype=bool)
        assert cum[1:, off].tobytes() == np.cumsum(post.pair_post, axis=0)[:, off].tobytes()

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
        np.testing.assert_array_equal(ws.sums(0, 3)[:, 1, 0], 0.0)

    def test_matches_direct_sums(self, t1):
        rng = np.random.default_rng(3)
        seq = random_seq(rng, t1.alphabet, 12)
        post = forward_backward(t1, seq)
        for window in (0, 1, 3, 20):
            n = post.length
            scores = window_scores(post, window).sums(0, n - 1)
            for k in range(n - 1):
                lo, hi = max(0, k - window), min(n - 2, k + window)
                direct = post.pair_post[lo:hi + 1].sum(axis=0)
                for c, c2 in itertools.permutations(range(2), 2):
                    assert scores[k, c, c2] == pytest.approx(
                        direct[c, c2], rel=1e-12, abs=1e-15)

    def test_bounded_by_window_size(self, t1):
        post = forward_backward(t1, "xyxyxyyx")
        for window in (0, 1, 2):
            scores = window_scores(post, window).sums(0, post.length - 1)
            assert scores.min() >= 0.0
            assert scores.max() <= 2 * window + 1

    def test_window_beyond_the_record(self, t1):
        # Every W >= n - 1 covers the whole record, up to W = 2**64.
        post = forward_backward(t1, "xyxyyxy")
        m = post.length - 1
        whole = window_scores(post, m).sums(0, m)
        for window in (post.length, 2**63 - 8, 2**64):
            ws = window_scores(post, window)
            assert ws.window == window
            np.testing.assert_array_equal(ws.sums(0, m), whole)

    def test_memory_of_a_long_query(self):
        # The prefix sums take 2.56 MB here and are all there is: a scores
        # array per W took the peak to 5.1 MB, and gathering cum[hi] and
        # cum[lo] before that to 8.2 MB.
        rng = np.random.default_rng(9)
        hmm = random_model(rng, n_states=48, n_colors=4, n_symbols=4)
        post = forward_backward(hmm, random_seq(rng, hmm.alphabet, 20_000))
        tracemalloc.start()
        try:
            window_scores(post, 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"peak traced memory {peak / 1e6:.2f} MB"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_range_sums_are_the_whole_tables_rows(self, data):
        # Any [lo, hi), empty or touching either end of the record, reads
        # the same bits as the rows of the whole (m, C, C) table, at every
        # W up to 2**64.
        n = data.draw(st.integers(1, 40), label="n")
        n_colors = data.draw(st.integers(1, 3), label="C")
        m = n - 1
        pair = data.draw(arrays(np.float64, (m, n_colors, n_colors),
                                elements=st.floats(0.0, 1.0)), label="pair")
        post = PosteriorSet(length=n, log_likelihood=0.0,
                            color_post=np.full((n, n_colors), 1.0 / n_colors),
                            pair_post=pair)
        window = data.draw(st.one_of(st.integers(0, m + 5), st.sampled_from([2**63 - 8, 2**64])),
                           label="W")
        ws = window_scores(post, window)
        whole = _oracles.reference_window_scores(ws.cum, window)
        assert ws.sums(0, m).tobytes() == whole.tobytes()
        lo = data.draw(st.integers(0, m), label="lo")
        hi = data.draw(st.integers(lo, m), label="hi")
        part = ws.sums(lo, hi)
        assert part.shape == (hi - lo, n_colors, n_colors)
        assert part.tobytes() == whole[lo:hi].tobytes()
        for k in range(lo, hi):
            for c, c2 in itertools.product(range(n_colors), repeat=2):
                assert ws.score(k + 1, c, c2) == whole[k, c, c2]


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
def dp_posteriors(draw):
    """(post, graph) over random ColorGraphs, some infeasible."""
    n_colors = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(min_value=1, max_value=40)))
    start = draw(arrays(bool, n_colors))
    pairs = draw(arrays(bool, (n_colors, n_colors)))
    color_post = draw(arrays(float, (n, n_colors), elements=COARSE))
    pair_post = draw(arrays(float, (n - 1, n_colors, n_colors), elements=COARSE))
    post = PosteriorSet(length=n, log_likelihood=0.0,
                        color_post=color_post, pair_post=pair_post)
    return post, ColorGraph(start, pairs)


GAIN_PARAMS = st.builds(GainParams, window=st.integers(min_value=0, max_value=5),
                        gamma=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                        alpha=st.sampled_from([0.0, 1.0]))


@st.composite
def dp_instances(draw):
    """(post, windows, params, graph) over random ColorGraphs, some infeasible."""
    post, graph = draw(dp_posteriors())
    params = draw(GAIN_PARAMS)
    return post, window_scores(post, params.window), params, graph


@st.composite
def grid_instances(draw):
    """(post, params, graph, gaps per chunk): 1-6 points mixing W, gamma and alpha."""
    post, graph = draw(dp_posteriors())
    params = draw(st.lists(GAIN_PARAMS, min_size=1, max_size=6))
    gaps = draw(st.integers(min_value=1, max_value=max(1, post.length - 1)))
    return post, params, graph, gaps


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
        post, _, params, graph = instance
        with pytest.raises(ValueError, match=message):
            decode_grid(post, [params, GainParams(1, 2.0)], graph)


class TestDecodeGrid:
    """Every grid point against the one-point decoder and the reference loop, with ==."""

    @settings(max_examples=300, deadline=None)
    @given(grid_instances())
    def test_points_match_one_point_decode_and_reference(self, instance):
        post, points, graph, gaps = instance
        one_point = [(post, window_scores(post, p.window), p, graph) for p in points]
        singles = [dp_outcome(fast_dp, inst) for inst in one_point]
        assert singles == [dp_outcome(_oracles.reference_gain_dp, inst) for inst in one_point]
        # A chunk of `gaps` gaps, down to one, so records span several chunks.
        chunk_bytes = gaps * 8 * len(points) * post.n_colors ** 2
        with mock.patch.object(gain, "CHUNK_BYTES", chunk_bytes):
            try:
                got = [(a.colors.tolist(), v) for a, v in decode_grid(post, points, graph)]
            except ValueError as e:
                got = "error", str(e)
        assert got == (singles[0] if singles[0][0] == "error" else singles)

    def test_no_points(self, t1):
        post = forward_backward(t1, "xy")
        assert decode_grid(post, [], color_graph(t1)) == []

    def test_memory_of_a_long_query(self):
        # Four points on a 20 kb query: back-pointers of one byte take
        # 0.32 MB here, where int64 ones took 2.56 MB. The peak, 7.1 MB,
        # includes the 2.56 MB prefix table that decode_grid builds.
        rng = np.random.default_rng(9)
        hmm = random_model(rng, n_states=48, n_colors=4, n_symbols=4)
        post = forward_backward(hmm, random_seq(rng, hmm.alphabet, 20_000))
        points = [GainParams(w, g) for w in (10, 25) for g in (0.5, 4.0)]
        graph = color_graph(hmm)
        tracemalloc.start()
        try:
            decode_grid(post, points, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak traced memory {peak / 1e6:.2f} MB"


@st.composite
def sparse_grid_instances(draw):
    """(post, params, graph, gaps per chunk) with boundary mass at a few gaps.

    Long stretches where no score changes are what the value pass skips;
    coarse values make ties at the spikes. The grid holds 1-6 points, with
    alpha 0 at every point or mixed.
    """
    n_colors = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    color_post = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, n_colors))
    pair_post = np.zeros((n - 1, n_colors, n_colors))
    if n > 1:
        spikes = draw(st.lists(st.integers(min_value=0, max_value=n - 2), max_size=6))
        for gap in spikes:
            pair_post[gap] = draw(arrays(float, (n_colors, n_colors), elements=COARSE))
    post = PosteriorSet(length=n, log_likelihood=0.0,
                        color_post=color_post, pair_post=pair_post)
    graph = ColorGraph(draw(arrays(bool, n_colors)), draw(arrays(bool, (n_colors, n_colors))))
    params = draw(st.lists(st.builds(GainParams, window=st.integers(min_value=0, max_value=30),
                                     gamma=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                     alpha=st.sampled_from([0.0, 1.0])),
                           min_size=1, max_size=6))
    if draw(st.booleans()):
        params = [GainParams(p.window, p.gamma) for p in params]
    gaps = draw(st.integers(min_value=1, max_value=max(1, n - 1)))
    return post, params, graph, gaps


class TestSkipAhead:
    """The value pass's skips over stable stretches change no result (==)."""

    @settings(max_examples=100, deadline=None)
    @given(sparse_grid_instances())
    def test_points_match_one_point_decode_and_reference(self, instance):
        post, points, graph, gaps = instance
        one_point = [(post, window_scores(post, p.window), p, graph) for p in points]
        singles = [dp_outcome(fast_dp, inst) for inst in one_point]
        assert singles == [dp_outcome(_oracles.reference_gain_dp, inst) for inst in one_point]
        chunk_bytes = gaps * 8 * len(points) * post.n_colors ** 2
        with mock.patch.object(gain, "CHUNK_BYTES", chunk_bytes):
            try:
                got = [(a.colors.tolist(), v) for a, v in decode_grid(post, points, graph)]
            except ValueError as e:
                got = "error", str(e)
        assert got == (singles[0] if singles[0][0] == "error" else singles)

    def test_long_stable_stretches(self):
        # Spikes 700 gaps apart: from _BLOCK_START = 4, the block doubles to
        # its cap of 256 gaps after 4 + 8 + ... + 128 = 252 stable gaps.
        rng = np.random.default_rng(5)
        n, n_colors = 3000, 3
        pair_post = np.zeros((n - 1, n_colors, n_colors))
        for gap in (700, 1400, 2100, 2800):
            pair_post[gap] = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n_colors, n_colors))
        post = PosteriorSet(length=n, log_likelihood=0.0,
                            color_post=rng.choice([0.25, 0.5], size=(n, n_colors)),
                            pair_post=pair_post)
        graph = ColorGraph(np.ones(n_colors, bool), np.ones((n_colors, n_colors), bool))
        points = [GainParams(w, g) for w in (0, 3) for g in (0.0, 0.5)]
        plain = mock.Mock(wraps=gain._plain_pass)
        with mock.patch.object(gain, "_plain_pass", plain):
            got = [(a.colors.tolist(), v) for a, v in decode_grid(post, points, graph)]
        assert sum(len(c.args[0]) for c in plain.call_args_list) < (n - 1) / 10
        for params, outcome in zip(points, got):
            instance = (post, window_scores(post, params.window), params, graph)
            assert outcome == dp_outcome(fast_dp, instance)
            assert outcome == dp_outcome(_oracles.reference_gain_dp, instance)
        assert any(len(set(colors)) > 1 for colors, _ in got)


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

    def test_window_mismatch(self, t1):
        post = forward_backward(t1, "xy")
        ws = window_scores(post, 0)
        with pytest.raises(ValueError, match="W = 0 .* W = 3"):
            expected_gain(Annotation([0, 1]), post, ws, GainParams(3, 0.2))
        with pytest.raises(ValueError, match="W = 0 .* W = 3"):
            decode_from_posteriors(post, ws, GainParams(3, 0.2), color_graph(t1))

    def test_table_of_another_posterior(self):
        # A 3 x 300 jumping model: a table summed over the first 150 nt of
        # a query, or over a two-color posterior, fits no other posterior.
        msa = synthetic_subtypes(3, 300, 0.15, seed=1)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec())
        rec = simulate_recombinant(msa, [(msa.names[0], (1, 150)), (msa.names[1], (151, 300))],
                                   mutation_rate=0.05, seed=1)
        post = forward_backward(hmm, rec.seq)
        params, graph = GainParams(5, 1.0), color_graph(hmm)
        two_colors = PosteriorSet(length=300, log_likelihood=0.0,
                                  color_post=np.full((300, 2), 0.5),
                                  pair_post=np.full((299, 2, 2), 0.25))
        for other, shape in [(forward_backward(hmm, rec.seq[:150]), r"\(150, 3, 3\)"),
                             (two_colors, r"\(300, 2, 2\)")]:
            ws = window_scores(other, params.window)
            message = f"^window scores of shape {shape} do not fit a posterior " \
                      "of 300 positions and 3 colors$"
            with pytest.raises(ValueError, match=message):
                decode_from_posteriors(post, ws, params, graph)
            with pytest.raises(ValueError, match=message):
                expected_gain(Annotation([0] * 300), post, ws, params)
        # the table of the query itself passes both checks
        ws = window_scores(post, params.window)
        annotation, value = decode_from_posteriors(post, ws, params, graph)
        assert expected_gain(annotation, post, ws, params) == pytest.approx(value, abs=1e-9)

    def test_length_mismatch(self, t1):
        post = forward_backward(t1, "xy")
        ws = window_scores(post, 0)
        with pytest.raises(ValueError, match="length"):
            expected_gain(Annotation([0, 1, 0]), post, ws, GainParams(0, 0.2))

    def test_unknown_color(self, t1):
        post = forward_backward(t1, "xy")
        ws = window_scores(post, 0)
        with pytest.raises(ValueError, match="^annotation uses a color unknown to the posterior$"):
            expected_gain(Annotation([0, 2]), post, ws, GainParams(0, 0.2))


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
            scores = ws.sums(0, post.length - 1)
            if np.all((1 + params.gamma) * scores[:, off] - params.gamma < 0):
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
