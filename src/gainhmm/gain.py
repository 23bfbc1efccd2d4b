"""Boundary-tolerant maximum expected gain decoding.

The decoder scores a candidate coloring by its expected gain under the
model posterior: every boundary earns the posterior mass of matching
boundaries (same ordered color pair) within a window of half-width W,
scaled so that a certain match is worth +1 and a hopeless one -gamma, and
an optional per-position bonus alpha rewards expected correct colors.
Because the expectation is linear in per-gap boundary posteriors, the
optimum is found exactly by a dynamic program that runs in time linear in
the sequence length once posteriors are known.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import forward_backward
from .model import Annotation, color_graph


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
