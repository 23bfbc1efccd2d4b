"""Boundary-tolerant maximum expected gain decoding.

The decoder scores a candidate coloring by its expected gain under the
model posterior: every boundary earns the posterior mass of matching
boundaries (same ordered color pair) within a window of half-width W,
scaled so that a certain match is worth +1 and a hopeless one -gamma, and
an optional per-position bonus alpha rewards expected correct colors.
Because the expectation is linear in per-gap boundary posteriors, the
optimum is found exactly by a dynamic program that runs in time linear in
the sequence length once posteriors are known.

The brute-force companions evaluate the defining expectation by full path
enumeration and exist as oracles for the fast path; they are exponential
and guarded by instance-size limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import forward_backward
from .model import Annotation, color_graph

MAX_ORACLE_PATHS = 10_000_000
MAX_ORACLE_COLORINGS = 1_000_000


@dataclass(frozen=True)
class GainParams:
    """Knobs of the boundary gain function.

    window: half-width W of the tolerance window, in positions
    gamma: penalty for a predicted boundary with no matching mass
    alpha: per-position bonus for expected correct colors (0 disables)
    """

    window: int
    gamma: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.window, (int, np.integer)) and self.window >= 0):
            raise ValueError("window must be an integer >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


@dataclass(frozen=True)
class WindowScores:
    """Windowed boundary posterior mass per gap and ordered color pair.

    scores[k, c, c2] sums the boundary posterior of pair (c, c2) over the
    gaps within `window` of gap k+1 (1-based), clamped at the sequence
    ends. Diagonal entries are zero; a boundary needs two colors.
    """

    scores: np.ndarray
    window: int

    def score(self, k, c_from, c_to):
        """Windowed mass for a boundary (c_from -> c_to) at gap k, 1-based."""
        return float(self.scores[k - 1, c_from, c_to])


def window_scores(post, window):
    """Clamped window sums of boundary posteriors, via prefix sums."""
    if window < 0:
        raise ValueError("window must be >= 0")
    pair = post.pair_post
    m, n_colors = pair.shape[0], pair.shape[1]
    cum = np.zeros((m + 1, n_colors, n_colors))
    np.cumsum(pair, axis=0, out=cum[1:])
    gaps = np.arange(m)
    hi = np.minimum(gaps + window + 1, m)
    lo = np.maximum(gaps - window, 0)
    scores = cum[hi] - cum[lo]
    diag = np.arange(n_colors)
    scores[:, diag, diag] = 0.0
    return WindowScores(scores=scores, window=int(window))


def expected_gain(annotation, post, windows, params):
    """Expected gain of a fixed coloring under the posterior.

    This is the exact objective the decoder maximizes: for every boundary
    (k, c, c2) of the coloring it adds (1 + gamma) * S[k, c, c2] - gamma,
    plus alpha times the summed posterior of the chosen colors.
    """
    if len(annotation) != post.length:
        raise ValueError("annotation length does not match posterior length")
    if annotation.colors.max() >= post.n_colors:
        raise ValueError("annotation uses a color unknown to the posterior")
    total = 0.0
    scores = windows.scores
    for k, c, c2 in annotation.boundaries:
        total += (1.0 + params.gamma) * scores[k - 1, c, c2] - params.gamma
    if params.alpha != 0.0:
        picked = post.color_post[np.arange(post.length), annotation.colors]
        total += params.alpha * float(picked.sum())
    return float(total)


def decode_from_posteriors(post, windows, params, graph):
    """Maximize expected gain by dynamic programming over colors.

    Transitions are restricted to the ColorGraph. Ties prefer continuing
    the current color over placing a boundary, then the smallest
    predecessor color id; the final color breaks ties toward the smallest
    id. Returns (annotation, objective value).

    Runs in two exact passes: a per-position loop that keeps only the best
    scores, then one vectorised argmax that recovers every back-pointer.
    """
    if not graph.start.any():
        raise ValueError("no allowed start color")
    bonus = params.alpha * post.color_post
    n, n_colors = bonus.shape
    gamma = params.gamma

    # step[j, c2, c] is what moving from color c to c2 across gap j+1
    # earns: the boundary reward where the graph allows it, 0 for an
    # allowed stay, -inf otherwise.
    step = np.empty((n - 1, n_colors, n_colors))
    np.multiply(windows.scores.transpose(0, 2, 1), 1.0 + gamma, out=step)
    step -= gamma
    diag = np.arange(n_colors)
    step[:, diag, diag] = 0.0
    step[:, ~graph.pairs.T] = -np.inf

    # Value pass: only the best score per (position, color). A maximum does
    # not depend on candidate order, so ties need no care here.
    score = np.empty((n, n_colors))
    score[0] = np.where(graph.start, bonus[0], -np.inf)
    buf = np.empty((n_colors, n_colors))
    for gap_step, prev, row, row_bonus in zip(step, score, score[1:], bonus[1:]):
        np.add(gap_step, prev, out=buf)
        np.maximum.reduce(buf, axis=1, out=row)
        row += row_bonus

    end = int(np.argmax(score[n - 1]))
    value = float(score[n - 1, end])
    if value == -np.inf:
        raise ValueError("no color sequence is feasible under the ColorGraph")

    # Back-pointers for all gaps at once. Every candidate is the same single
    # addition as in the value pass, so it reproduces those maxima exactly.
    # Each target color lists its candidates stay first, then the other
    # colors ascending, so the first maximum prefers continuation and then
    # the smallest predecessor.
    step += score[:-1, None, :]
    order = np.array([[c2] + [c for c in range(n_colors) if c != c2]
                      for c2 in range(n_colors)], dtype=np.int64)
    cand = step[:, diag[:, None], order]
    back = order[diag, cand.argmax(axis=2)].tolist()

    colors = [end]
    for gap_back in reversed(back):
        colors.append(gap_back[colors[-1]])
    return Annotation(colors[::-1]), value


def gain_decode(hmm, seq, params):
    """Boundary-tolerant maximum expected gain decoding of one sequence.

    Computes posteriors, windowed boundary scores, and the color DP.
    Returns (annotation, objective value). Total work after the posterior
    pass is O(n * C^2).
    """
    post = forward_backward(hmm, seq)
    windows = window_scores(post, params.window)
    return decode_from_posteriors(post, windows, params, color_graph(hmm))


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
