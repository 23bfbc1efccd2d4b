"""Brute-force oracles for the gain decoder.

These evaluate the defining expectation of the gain by full path
enumeration and certify the fast path in `gain`; they are exponential
and guarded by instance-size limits, so they are not part of the runtime
API.
"""

from __future__ import annotations

import numpy as np

from .model import Annotation, color_graph

MAX_ORACLE_PATHS = 10_000_000
MAX_ORACLE_COLORINGS = 1_000_000


def coloring_distribution(hmm, seq, max_paths=MAX_ORACLE_PATHS):
    """Exact posterior over colorings by full path enumeration.

    Returns (colorings, weights): the distinct colorings with positive
    probability as an (M, n) int array and their conditional
    probabilities, summing to 1. Oracle-scale only.
    """
    obs = hmm.encode(seq)
    n, n_states = obs.size, hmm.n_states
    if n_states ** n > max_paths:
        raise ValueError(
            f"instance too large: {n_states}^{n} paths exceeds {max_paths}")
    trans = hmm.transitions_dense()
    emis = hmm.emissions

    # probs enumerates all state paths in lexicographic order, last state
    # varying fastest.
    probs = hmm.initial * emis[:, obs[0]]
    for t in range(1, n):
        step = trans * emis[:, obs[t]][None, :]
        probs = (probs.reshape(-1, n_states)[:, :, None] * step[None, :, :]).ravel()

    total = probs.sum()
    if total <= 0.0:
        raise ValueError("sequence impossible under model")

    idx = np.arange(n_states ** n)
    colorings = np.empty((idx.size, n), dtype=np.int16)
    for t in range(n):
        digit = (idx // (n_states ** (n - 1 - t))) % n_states
        colorings[:, t] = hmm.state_colors[digit]

    uniq, inverse = np.unique(colorings, axis=0, return_inverse=True)
    weights = np.bincount(inverse, weights=probs, minlength=uniq.shape[0])
    keep = weights > 0.0
    return uniq[keep].astype(np.int64), weights[keep] / total


def feasible_colorings(graph, length, max_colorings=MAX_ORACLE_COLORINGS):
    """All ColorGraph-feasible colorings of the given length, lexicographic."""
    n_colors = graph.n_colors
    if n_colors ** length > max_colorings:
        raise ValueError(
            f"instance too large: {n_colors}^{length} colorings exceeds {max_colorings}")
    out = []
    prefix = np.empty(length, dtype=np.int64)

    def extend(pos):
        if pos == length:
            out.append(prefix.copy())
            return
        allowed = graph.start if pos == 0 else graph.pairs[prefix[pos - 1]]
        for c in range(n_colors):
            if allowed[c]:
                prefix[pos] = c
                extend(pos + 1)

    extend(0)
    return np.array(out, dtype=np.int64).reshape(len(out), length)


def _gains_against(support, annotation, params, kind):
    """Gain of `annotation` against every support coloring, literally.

    counting rewards each matching true boundary inside the window;
    indicator rewards at most one. Both charge gamma for an unmatched
    predicted boundary and add alpha per agreeing position.
    """
    if kind not in ("counting", "indicator"):
        raise ValueError(f"unknown gain kind {kind!r}")
    n_support, n = support.shape
    gamma, alpha, window = params.gamma, params.alpha, params.window
    gains = np.zeros(n_support)
    for k, c, c2 in annotation.boundaries:
        k0 = k - 1
        lo, hi = max(0, k0 - window), min(n - 2, k0 + window)
        count = np.zeros(n_support, dtype=np.int64)
        for m in range(lo, hi + 1):
            count += (support[:, m] == c) & (support[:, m + 1] == c2)
        if kind == "counting":
            gains += (1.0 + gamma) * count - gamma
        else:
            gains += np.where(count > 0, 1.0, -gamma)
    if alpha != 0.0:
        gains += alpha * (support == annotation.colors[None, :]).sum(axis=1)
    return gains


def brute_force_expected_gain(hmm, seq, annotation, params, kind="counting"):
    """Defining expectation of the gain, by explicit enumeration.

    Sums gain(annotation, A') * P(A' | seq) over every coloring A' with
    positive probability. Independent of the posterior machinery; used to
    certify the fast objective.
    """
    support, weights = coloring_distribution(hmm, seq)
    if len(annotation) != support.shape[1]:
        raise ValueError("annotation length does not match sequence length")
    gains = _gains_against(support, annotation, params, kind)
    return float(gains @ weights)


def _support_tables(support, weights, window, n_colors):
    """Windowed boundary-match expectations over an enumerated support.

    Returns (count_tab, any_tab, color_marg): per (gap, pair) the expected
    number of matches in the window and the probability of at least one,
    plus per-position color marginals. Pure re-association of the literal
    sums in _gains_against.
    """
    n_support, n = support.shape
    count_tab = np.zeros((max(n - 1, 0), n_colors, n_colors))
    any_tab = np.zeros_like(count_tab)
    for c in range(n_colors):
        for c2 in range(n_colors):
            if c == c2:
                continue
            pres = (support[:, :-1] == c) & (support[:, 1:] == c2)
            cum = np.zeros((n_support, n), dtype=np.int64)
            np.cumsum(pres, axis=1, out=cum[:, 1:])
            gaps = np.arange(n - 1)
            hi = np.minimum(gaps + window + 1, n - 1)
            lo = np.maximum(gaps - window, 0)
            win_count = cum[:, hi] - cum[:, lo]
            count_tab[:, c, c2] = weights @ win_count
            any_tab[:, c, c2] = weights @ (win_count > 0)
    color_marg = np.zeros((n, n_colors))
    for c in range(n_colors):
        color_marg[:, c] = weights @ (support == c)
    return count_tab, any_tab, color_marg


def brute_force_best_annotation(hmm, seq, params, kind="counting",
                                max_colorings=MAX_ORACLE_COLORINGS):
    """Exhaustive argmax of the expected gain over feasible colorings.

    Enumerates every ColorGraph-feasible coloring and scores it against
    the enumerated coloring distribution. Ties resolve to the
    lexicographically smallest coloring. Returns (annotation, value).
    """
    if kind not in ("counting", "indicator"):
        raise ValueError(f"unknown gain kind {kind!r}")
    obs = hmm.encode(seq)
    n = obs.size
    graph = color_graph(hmm)
    candidates = feasible_colorings(graph, n, max_colorings=max_colorings)
    if candidates.shape[0] == 0:
        raise ValueError("no feasible coloring exists")

    support, weights = coloring_distribution(hmm, seq)
    count_tab, any_tab, color_marg = _support_tables(
        support, weights, params.window, hmm.n_colors)
    tab = count_tab if kind == "counting" else any_tab

    frm, to = candidates[:, :-1], candidates[:, 1:]
    is_boundary = frm != to
    gap_ids = np.arange(n - 1)[None, :]
    per_gap = (1.0 + params.gamma) * tab[gap_ids, frm, to] - params.gamma
    values = (per_gap * is_boundary).sum(axis=1)
    if params.alpha != 0.0:
        values = values + params.alpha * color_marg[
            np.arange(n)[None, :], candidates].sum(axis=1)

    best = int(np.argmax(values))
    return Annotation(candidates[best]), float(values[best])
