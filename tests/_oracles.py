"""Reference implementations for the test suite.

The enumeration oracles are written naively with itertools and plain
floats, on purpose: they define expected values for the fast numpy paths
and must not share code with them. `reference_gain_dp` is the gain DP as
a plain per-position loop, kept as the exactness reference for the
vectorised decoder.
"""

import itertools
import math

import numpy as np


def unpack(hmm):
    """Plain-list view (init, trans, emis, colors, n_colors) of a model."""
    return (
        hmm.initial.tolist(),
        hmm.transitions_dense().tolist(),
        hmm.emissions.tolist(),
        hmm.state_colors.tolist(),
        hmm.n_colors,
    )


def enumerate_paths(init, trans, emis, obs):
    """Yield (state path, joint probability) over all state paths."""
    n_states = len(init)
    for path in itertools.product(range(n_states), repeat=len(obs)):
        p = init[path[0]] * emis[path[0]][obs[0]]
        for t in range(1, len(obs)):
            p *= trans[path[t - 1]][path[t]] * emis[path[t]][obs[t]]
        yield path, p


def likelihood(hmm, obs):
    init, trans, emis, _, _ = unpack(hmm)
    return sum(p for _, p in enumerate_paths(init, trans, emis, obs))


def best_path(hmm, obs):
    """(best log probability, colors of the argmax path)."""
    init, trans, emis, colors, _ = unpack(hmm)
    best_p, best = -1.0, None
    for path, p in enumerate_paths(init, trans, emis, obs):
        if p > best_p:
            best_p, best = p, path
    return math.log(best_p), [colors[s] for s in best]


def posteriors(hmm, obs):
    """(likelihood, color posteriors, full color-pair posteriors per gap)."""
    init, trans, emis, colors, n_colors = unpack(hmm)
    n = len(obs)
    z = 0.0
    cp = [[0.0] * n_colors for _ in range(n)]
    pp = [[[0.0] * n_colors for _ in range(n_colors)] for _ in range(max(n - 1, 0))]
    for path, p in enumerate_paths(init, trans, emis, obs):
        if p == 0.0:
            continue
        z += p
        for j, s in enumerate(path):
            cp[j][colors[s]] += p
        for k in range(n - 1):
            pp[k][colors[path[k]]][colors[path[k + 1]]] += p
    cp = [[v / z for v in row] for row in cp]
    pp = [[[v / z for v in row] for row in mat] for mat in pp]
    return z, cp, pp


def coloring_weights(hmm, obs):
    """Posterior over colorings as a dict {coloring tuple: probability}."""
    init, trans, emis, colors, _ = unpack(hmm)
    acc = {}
    z = 0.0
    for path, p in enumerate_paths(init, trans, emis, obs):
        if p == 0.0:
            continue
        z += p
        key = tuple(colors[s] for s in path)
        acc[key] = acc.get(key, 0.0) + p
    return {k: v / z for k, v in acc.items()}


def boundaries(coloring):
    """Boundaries of a color tuple as (gap k 1-based, from, to)."""
    return [(k + 1, coloring[k], coloring[k + 1])
            for k in range(len(coloring) - 1) if coloring[k] != coloring[k + 1]]


def gain(pred, true, window, gamma, alpha, kind):
    """The boundary gain of `pred` against one concrete annotation `true`."""
    total = 0.0
    true_b = boundaries(true)
    for k, c, c2 in boundaries(pred):
        matches = sum(1 for kt, ct, ct2 in true_b
                      if (ct, ct2) == (c, c2) and abs(kt - k) <= window)
        if kind == "counting":
            total += (1.0 + gamma) * matches - gamma
        else:
            total += 1.0 if matches > 0 else -gamma
    total += alpha * sum(1 for a, b in zip(pred, true) if a == b)
    return total


def expected_gain(hmm, obs, pred, window, gamma, alpha, kind):
    """Defining expectation of the gain over the enumerated posterior."""
    return sum(w * gain(tuple(pred), true, window, gamma, alpha, kind)
               for true, w in coloring_weights(hmm, obs).items())


def best_coloring(hmm, obs, feasible, window, gamma, alpha, kind):
    """Exhaustive argmax of expected_gain over the given colorings."""
    best_v, best = None, None
    for cand in feasible:
        v = expected_gain(hmm, obs, tuple(cand), window, gamma, alpha, kind)
        if best_v is None or v > best_v:
            best_v, best = v, tuple(cand)
    return best, best_v


def reference_gain_dp(post, windows, params, graph):
    """Gain DP one position at a time, resolving ties inside the loop.

    Ties prefer continuing the current color over placing a boundary, then
    the smallest predecessor color id; the final color breaks ties toward
    the smallest id. Returns (colors as a list, objective value) and
    raises the decoder's errors on an infeasible ColorGraph.
    """
    if not graph.start.any():
        raise ValueError("no allowed start color")
    p = post.color_post
    n, n_colors = p.shape
    gamma, alpha = params.gamma, params.alpha

    cross_ok = graph.pairs.copy()
    np.fill_diagonal(cross_ok, False)
    stay_ok = np.diag(graph.pairs).copy()
    color_ids = np.arange(n_colors)

    score = np.where(graph.start, alpha * p[0], -np.inf)
    back = np.empty((n, n_colors), dtype=np.int64)
    back[0] = -1
    for j in range(1, n):
        move = (1.0 + gamma) * windows.scores[j - 1] - gamma
        cand = score[:, None] + np.where(cross_ok, move, -np.inf)
        best_prev = np.argmax(cand, axis=0)
        best_cross = cand[best_prev, color_ids]
        stay = np.where(stay_ok, score, -np.inf)
        use_stay = stay >= best_cross
        score = alpha * p[j] + np.where(use_stay, stay, best_cross)
        back[j] = np.where(use_stay, color_ids, best_prev)

    end = int(np.argmax(score))
    value = float(score[end])
    if value == -np.inf:
        raise ValueError("no color sequence is feasible under the ColorGraph")

    colors = np.empty(n, dtype=np.int64)
    colors[n - 1] = end
    for j in range(n - 1, 0, -1):
        colors[j - 1] = back[j, colors[j]]
    return colors.tolist(), value
