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
        _check_window(self.window)
        for name in ("gamma", "alpha"):
            check_nonnegative(name, getattr(self, name))


def check_nonnegative(name, value):
    """Raise ValueError naming `name` unless `value` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, not {value}")


def _check_window(window):
    """Raise ValueError unless the half-width W is an integer >= 0."""
    if not isinstance(window, (int, np.integer)):
        raise ValueError(f"window must be an integer >= 0, not {window}")
    check_nonnegative("window", window)


@dataclass(frozen=True)
class WindowScores:
    """Windowed boundary posterior mass per gap and ordered color pair.

    cum[j] sums the pair posteriors of the first j of the m = n - 1 gaps,
    and its diagonal is zero: a boundary needs two colors.
    """

    cum: np.ndarray
    window: int

    def sums(self, lo, hi):
        """The scores of gaps lo..hi-1 (0-based), shape (hi - lo, C, C)."""
        return _rows(self.cum, self.window, np.arange(lo, hi))

    def score(self, k, c_from, c_to):
        """Windowed mass for a boundary (c_from -> c_to) at gap k, 1-based."""
        return float(self.sums(k - 1, k)[0, c_from, c_to])


def _rows(cum, window, gaps):
    """cum[min(k + W + 1, m)] - cum[max(k - W, 0)] for each 0-based gap k in
    `gaps`: the mass within `window` of it, clamped by take's clip mode."""
    w = min(int(window), len(cum) - 1)
    return cum.take(gaps + w + 1, 0, mode="clip") - cum.take(gaps - w, 0, mode="clip")


def window_scores(post, window):
    """Clamped window sums of boundary posteriors, as one prefix-sum table."""
    _check_window(window)
    pair = post.pair_post
    cum = np.zeros((len(pair) + 1,) + pair.shape[1:])
    np.cumsum(pair, axis=0, out=cum[1:])
    diag = np.arange(cum.shape[1])
    cum[:, diag, diag] = 0.0
    return WindowScores(cum=cum, window=int(window))


def _check_table(post, windows, params):
    """Raise ValueError unless windows is window_scores(post, params.window)."""
    if windows.window != params.window:
        raise ValueError(f"window scores for W = {windows.window} "
                         f"do not match the parameters' W = {params.window}")
    if windows.cum.shape != (post.length, post.n_colors, post.n_colors):
        raise ValueError(f"window scores of shape {windows.cum.shape} do not fit a posterior "
                         f"of {post.length} positions and {post.n_colors} colors")


def expected_gain(annotation, post, windows, params):
    """Expected gain of a fixed coloring under the posterior.

    This is the exact objective the decoder maximizes: for every boundary
    (k, c, c2) of the coloring it adds (1 + gamma) * S[k, c, c2] - gamma,
    plus alpha times the summed posterior of the chosen colors. windows
    must be window_scores(post, params.window).
    """
    _check_table(post, windows, params)
    if len(annotation) != post.length:
        raise ValueError("annotation length does not match posterior length")
    if annotation.colors.max() >= post.n_colors:
        raise ValueError("annotation uses a color unknown to the posterior")
    cols = annotation.colors
    k = np.flatnonzero(cols[1:] != cols[:-1])
    total = 0.0
    masses = _rows(windows.cum, params.window, k)[np.arange(k.size), cols[k], cols[k + 1]]
    for mass in masses.tolist():
        total += (1.0 + params.gamma) * mass - params.gamma
    if params.alpha != 0.0:
        picked = post.color_post[np.arange(post.length), annotation.colors]
        total += params.alpha * float(picked.sum())
    return float(total)


def decode_from_posteriors(post, windows, params, graph):
    """Maximize expected gain by dynamic programming over colors.

    Transitions are restricted to the ColorGraph. Ties prefer continuing
    the current color over placing a boundary, then the smallest
    predecessor color id; the final color breaks ties toward the smallest
    id. windows must be window_scores(post, params.window). Returns
    (annotation, objective value).

    This is decode_grid at one grid point.
    """
    _check_table(post, windows, params)
    return _grid_dp(post, windows.cum, [params], graph)[0]


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


def decode_grid(post, params, graph):
    """Gain DP at many grid points of one posterior set, in one pass.

    params is a sequence of GainParams, any mix of W, gamma and alpha,
    and every width reads the posterior's one prefix table. Returns one
    (annotation, objective value) per point, each equal to what
    decode_from_posteriors gives at that point, ties broken the same way,
    and raises its errors. This is the cheap way to sweep W, gamma and
    alpha on cached posteriors: every point shares one loop over positions.

    Runs in two exact passes per chunk of gaps: a per-position loop that
    keeps only the best scores of all points (skipping, when no point has
    an alpha bonus, the stretches where no score changes), then one
    vectorised argmax that recovers the chunk's back-pointers.
    """
    return _grid_dp(post, window_scores(post, 0).cum, list(params), graph)


def _grid_dp(post, cum, points, graph):
    """decode_grid on the prefix table cum of post's pair posteriors."""
    if not graph.start.any():
        raise ValueError("no allowed start color")
    if not points:
        return []
    n, n_colors = post.color_post.shape
    n_points = len(points)
    gammas = np.array([p.gamma for p in points])
    alphas = np.array([p.alpha for p in points])

    # score[j, c, g]: best objective of point g over colorings of positions
    # 1..j+1 that end in color c. The point axis is innermost, so each numpy
    # call of the loop below runs over all points at once. The alpha bonus
    # is added only when some point has one: no score is ever -0.0, so
    # adding 0.0 would change nothing.
    bonus = post.color_post[:, :, None] * alphas if alphas.any() else None
    score = np.empty((n, n_colors, n_points))
    score[0] = np.where(graph.start[:, None], 0.0 if bonus is None else bonus[0], -np.inf)
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
        # allows it, 0 for an allowed stay, -inf otherwise. Points of one
        # width share the chunk's window sums.
        step = np.empty((hi - lo, n_colors, n_colors, n_points))
        gaps = np.arange(lo, hi)
        sums = {w: _rows(cum, w, gaps).transpose(0, 2, 1) for w in {p.window for p in points}}
        for g, (point, gamma) in enumerate(zip(points, gammas)):
            np.multiply(sums[point.window], 1.0 + gamma, out=step[..., g])
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
        (_skip_pass if bonus is None else _plain_pass)(*loop)

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
    # color. Their rows are read as one flat memoryview, not one list per gap.
    out = []
    moves = (back != diag).any(axis=2)
    for end, value, point_back, point_moves in zip(ends.tolist(), values.tolist(), back, moves):
        moving = point_moves.nonzero()[0]
        flat = memoryview(point_back[moving[::-1]].ravel())
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
