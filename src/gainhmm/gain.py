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

import math
from dataclasses import dataclass

import numpy as np

from ._transition import CHUNK_BYTES
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
        if not isinstance(self.window, (int, np.integer)):
            raise ValueError("window must be an integer >= 0")
        for name in ("window", "gamma", "alpha"):
            check_nonnegative(name, getattr(self, name))


def check_nonnegative(name, value):
    """Raise ValueError naming `name` unless `value` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, not {value}")


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
    """Clamped window sums of boundary posteriors, via prefix sums.

    Gap k sums cum[min(k + W + 1, m)] - cum[max(k - W, 0)] over the m gaps,
    written by slices with W clipped to m (any W >= m gives W = m's sums);
    cum[0] is 0, so the first W gaps subtract nothing."""
    if window < 0:
        raise ValueError("window must be >= 0")
    pair = post.pair_post
    m, n_colors = pair.shape[0], pair.shape[1]
    cum = np.zeros((m + 1, n_colors, n_colors))
    np.cumsum(pair, axis=0, out=cum[1:])
    w = min(int(window), m)
    scores = np.empty((m, n_colors, n_colors))
    scores[:m - w] = cum[w + 1:]
    scores[m - w:] = cum[m]
    scores[w:] -= cum[:m - w]
    diag = np.arange(n_colors)
    scores[:, diag, diag] = 0.0
    return WindowScores(scores=scores, window=int(window))


def _check_window(windows, params):
    if windows.window != params.window:
        raise ValueError(f"window scores for W = {windows.window} "
                         f"do not match the parameters' W = {params.window}")


def expected_gain(annotation, post, windows, params):
    """Expected gain of a fixed coloring under the posterior.

    This is the exact objective the decoder maximizes: for every boundary
    (k, c, c2) of the coloring it adds (1 + gamma) * S[k, c, c2] - gamma,
    plus alpha times the summed posterior of the chosen colors. windows
    must be summed at params.window.
    """
    _check_window(windows, params)
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
    id. windows must be summed at params.window. Returns (annotation,
    objective value).

    This is decode_grid at one grid point.
    """
    return decode_grid(post, [(windows, params)], graph)[0]


def _plain_pass(steps, rows, buf, bonus_rows=None):
    """rows[j + 1] = max over axis 1 of (steps[j] + rows[j]), + bonus_rows[j].

    The gain DP's per-position loop: rows[0] is known and the pass fills
    the rest; bonus_rows None adds nothing. Out arguments are passed by
    position: keyword parsing costs about 5 % here.
    """
    add, best = np.add, np.maximum.reduce
    prev = rows[0]
    if bonus_rows is None:
        for gap_step, row in zip(steps, rows[1:]):
            add(gap_step, prev, buf)
            best(buf, 1, None, row)
            prev = row
    else:
        for gap_step, row, row_bonus in zip(steps, rows[1:], bonus_rows):
            add(gap_step, prev, buf)
            best(buf, 1, None, row)
            add(row, row_bonus, row)
            prev = row


# Block sizes of _skip_pass: a block test starts at _BLOCK_START gaps and
# doubles up to _BLOCK_CAP while no score changes; after a change the plain
# loop runs a burst of _BURST gaps or more. On two 20 kb segmenter_long
# queries (C = 4, 2 vCPU), where 3-17 % of gaps change a score at
# W in {10, 25} and gamma in {0.5, 4}, these took a one-point decode at
# alpha = 0 from 30 to 10 ms; halving or doubling any one of them moved
# that by under 10 %.
_BLOCK_START, _BLOCK_CAP, _BURST = 4, 256, 8


def _skip_pass(steps, rows, buf):
    """The rows of _plain_pass with no bonus, skipping stretches where no
    score changes.

    From a known row v = rows[j] one block test takes max(steps[j:j+b] + v)
    for the next b gaps. Each block row up to the first that differs from
    v had v as its predecessor, so it is the per-position loop's own
    single addition and maximum: those rows are stored and the pass jumps
    past them.
    """
    m, j, size, burst = len(steps), 0, _BLOCK_START, _BURST
    while j < m:
        v = rows[j]
        block = np.maximum.reduce(steps[j:j + size] + v, 2)
        changed = (block != v).reshape(len(block), -1).any(1)
        k = int(changed.argmax())
        if not changed[k]:
            rows[j + 1:j + 1 + len(block)] = block
            j += len(block)
            size = min(2 * size, _BLOCK_CAP)
            continue
        rows[j + 1:j + k + 2] = block[:k + 1]
        j += k + 1
        # A test that changed at its first row skipped nothing, so the next
        # burst is _BURST gaps longer: where scores change at most gaps (as
        # with many grid points), tests become rare.
        burst = min(burst + _BURST, _BLOCK_CAP) if k == 0 else _BURST
        _plain_pass(steps[j:j + burst], rows[j:j + burst + 1], buf)
        j += burst
        size = _BLOCK_START


def decode_grid(post, points, graph):
    """Gain DP at many grid points of one posterior set, in one pass.

    points is a sequence of (WindowScores, GainParams) pairs; each
    WindowScores must be summed at its params.window. Returns one
    (annotation, objective value) per point, each equal to what
    decode_from_posteriors gives at that point, ties broken the same way,
    and raises its errors. This is the cheap way to sweep W, gamma and
    alpha on cached posteriors: every point shares one loop over positions.

    Runs in two exact passes per chunk of gaps: a per-position loop that
    keeps only the best scores of all points (skipping, when no point has
    an alpha bonus, the stretches where no score changes), then one
    vectorised argmax that recovers the chunk's back-pointers.
    """
    points = list(points)
    for windows, params in points:
        _check_window(windows, params)
    if not graph.start.any():
        raise ValueError("no allowed start color")
    if not points:
        return []
    n, n_colors = post.color_post.shape
    n_points = len(points)
    gammas = np.array([params.gamma for _, params in points])
    alphas = np.array([params.alpha for _, params in points])

    # score[j, c, g]: best objective of point g over colorings of positions
    # 1..j+1 that end in color c. The point axis is innermost, so each numpy
    # call of the loop below runs over all points at once. The alpha bonus
    # is added only when some point has one: no score is ever -0.0, so
    # adding 0.0 would change nothing.
    score = np.empty((n, n_colors, n_points))
    bonus = None
    if alphas.any():
        bonus = post.color_post[:, :, None] * alphas
        score[0] = np.where(graph.start[:, None], bonus[0], -np.inf)
    else:
        score[0] = np.where(graph.start[:, None], 0.0, -np.inf)
    back = np.empty((n_points, n - 1, n_colors), dtype=np.min_scalar_type(n_colors - 1))

    diag = np.arange(n_colors)
    blocked = ~graph.pairs.T
    # Each target color lists its candidates stay first, then the other
    # colors ascending, so the first maximum prefers continuation and then
    # the smallest predecessor.
    order = np.array([[c2] + [c for c in range(n_colors) if c != c2]
                      for c2 in range(n_colors)], dtype=np.int64)
    buf = np.empty((n_colors, n_colors, n_points))
    size = max(1, CHUNK_BYTES // (8 * n_points * n_colors * n_colors))
    for lo in range(0, n - 1, size):
        hi = min(lo + size, n - 1)
        # step[j, c2, c, g] is what moving from color c to c2 across gap
        # lo+j+1 earns at point g: the boundary reward where the graph
        # allows it, 0 for an allowed stay, -inf otherwise.
        step = np.empty((hi - lo, n_colors, n_colors, n_points))
        for g, ((windows, _), gamma) in enumerate(zip(points, gammas)):
            np.multiply(windows.scores[lo:hi].transpose(0, 2, 1), 1.0 + gamma,
                        out=step[..., g])
        step -= gammas
        step[:, diag, diag] = 0.0
        step[:, blocked] = -np.inf

        # Value pass: only the best score per (position, color, point). A
        # maximum does not depend on candidate order, so ties need no care.
        # One point loops over 2-d rows: numpy's cost per call grows with
        # the number of axes. With no bonus most gaps change no score, and
        # the pass skips them.
        loop = [step, score[lo:hi + 1], buf]
        if bonus is not None:
            loop.append(bonus[lo + 1:hi + 1])
        if n_points == 1:
            loop = [a[..., 0] for a in loop]
        if bonus is None:
            _skip_pass(*loop)
        else:
            _plain_pass(*loop)

        # Back-pointers of the chunk. Every candidate is the same single
        # addition as in the value pass, so it reproduces those maxima
        # exactly.
        step += score[lo:hi, None]
        cand = step[:, diag[:, None], order]
        picked = order[diag[:, None], cand.argmax(axis=2)]
        back[:, lo:hi] = picked.transpose(2, 0, 1)

    ends = np.argmax(score[n - 1], axis=0)
    values = score[n - 1, ends, np.arange(n_points)]
    if (values == -np.inf).any():
        raise ValueError("no color sequence is feasible under the ColorGraph")

    # The traceback visits only the gaps whose back-pointers leave some
    # color; between two of them every position keeps its successor's
    # color. Their rows go into one flat list, not one list per gap.
    out = []
    moves = (back != diag).any(axis=2)
    for end, value, point_back, point_moves in zip(ends.tolist(), values.tolist(), back, moves):
        moving = point_moves.nonzero()[0]
        flat = point_back[moving[::-1]].ravel().tolist()
        runs = [end]
        for row in range(0, len(flat), n_colors):
            runs.append(flat[row + runs[-1]])
        edges = np.concatenate(([-1], moving, [n - 1]))
        out.append((Annotation(np.array(runs[::-1]).repeat(edges[1:] - edges[:-1])), value))
    return out


def gain_decode(hmm, seq, params):
    """Boundary-tolerant maximum expected gain decoding of one sequence.

    Computes posteriors, windowed boundary scores, and the color DP.
    Returns (annotation, objective value). Total work after the posterior
    pass is O(n * C^2).
    """
    post = forward_backward(hmm, seq)
    windows = window_scores(post, params.window)
    return decode_from_posteriors(post, windows, params, color_graph(hmm))
