"""Reference implementations for the test suite.

The enumeration oracles are written naively with itertools and plain
floats, on purpose: they define expected values for the fast numpy paths
and must not share code with them. `reference_gain_dp` is the gain DP as
a plain per-position loop, kept as the exactness reference for the
vectorised decoder. `reference_forward_backward` and `reference_viterbi`
are the decoders as they were before the cached transition operator:
full (n, S) emission and pair-weight arrays, every transition nonzero in
the pair posteriors, gradual underflow, and `maximum.reduceat` for the
sparse max-product. `reference_predecessors`,
`reference_reach`, `reference_forward_windows`, `reference_beam_scores` and
`reference_beam_traceback` are the sparse window kernels as they were
before they scattered each window's own rows of T: every step gathered
the predecessor rows of every state the window reaches, from a
predecessor table sorted by a stable argsort. `full_jumping_graph`, `silent_closure` and
`reference_assemble_jumping_hmm` are the jumping-model assembly as it
was before the closed-form delete chains: the full state graph with
silent delete states, a generic closure over it, and a merge.
`reference_build_hmm` is the model-file reader as it was before the bulk
one: one loop step per probability, one `float` each.
`reference_model_json` is the model file as the `json` module writes it,
from a dict built one entry at a time.
"""

import itertools
import json
import math

import numpy as np
from scipy import sparse

from gainhmm import Annotation, Hmm, InvalidModelError, PosteriorSet, ZeroLikelihoodError
from gainhmm._transition import Ragged, _csr_matvec, operator_of
from gainhmm.jumping import DNA, SILENT_CLOSURE_EPS


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


def reference_scaled_forward_backward(hmm, obs):
    """(alphahat, betahat, scales) with no flush of subnormal entries."""
    t_mat = hmm.transitions
    t_t = t_mat.T if isinstance(t_mat, np.ndarray) else sparse.csr_array(t_mat.T)
    emis = hmm.emissions
    n, n_states = obs.size, hmm.n_states

    eseq = emis[:, obs].T  # (n, S)
    alphahat = np.empty((n, n_states))
    scales = np.empty(n)

    a = hmm.initial * eseq[0]
    scales[0] = a.sum()
    if scales[0] <= 0.0:
        raise ZeroLikelihoodError("sequence impossible under model at position 1")
    alphahat[0] = a / scales[0]
    for t in range(1, n):
        a = (t_t @ alphahat[t - 1]) * eseq[t]
        scales[t] = a.sum()
        if scales[t] <= 0.0:
            raise ZeroLikelihoodError(f"sequence impossible under model at position {t + 1}")
        alphahat[t] = a / scales[t]

    betahat = np.empty((n, n_states))
    betahat[n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        betahat[t] = (t_mat @ (eseq[t + 1] * betahat[t + 1])) / scales[t + 1]

    return alphahat, betahat, scales


def _color_selectors(hmm):
    out = []
    for c in range(hmm.n_colors):
        idx = hmm.states_of_color(c)
        if idx.size and idx[-1] - idx[0] + 1 == idx.size:
            out.append(slice(int(idx[0]), int(idx[-1]) + 1))
        else:
            out.append(idx)
    return out


def reference_forward_backward(hmm, seq):
    """PosteriorSet with pair posteriors summed over every transition."""
    obs = hmm.encode(seq)
    alphahat, betahat, scales = reference_scaled_forward_backward(hmm, obs)
    n = obs.size
    n_colors = hmm.n_colors

    ind = hmm.color_indicator()
    color_post = (alphahat * betahat) @ ind

    pair_post = np.zeros((n - 1, n_colors, n_colors))
    if n > 1:
        sel = _color_selectors(hmm)
        w = hmm.emissions[:, obs[1:]].T * betahat[1:] / scales[1:, None]
        t_mat = hmm.transitions
        t_csc = t_mat.tocsc() if sparse.issparse(t_mat) else None
        for c2 in range(n_colors):
            cols = sel[c2]
            if t_csc is not None:
                sub = t_csc[:, cols]
                r = (sub @ np.ascontiguousarray(w[:, cols].T)).T  # (n-1, S)
            else:
                r = w[:, cols] @ t_mat[:, cols].T
            weighted = alphahat[:-1] * r
            for c1 in range(n_colors):
                pair_post[:, c1, c2] = weighted[:, sel[c1]].sum(axis=1)

    return PosteriorSet(
        length=n,
        log_likelihood=float(np.log(scales).sum()),
        color_post=color_post,
        pair_post=pair_post,
    )


def reference_viterbi(hmm, seq):
    """(annotation, log probability) with ties toward the smallest state index."""
    obs = hmm.encode(seq)
    n, n_states = obs.size, hmm.n_states
    with np.errstate(divide="ignore"):
        log_eseq = np.log(hmm.emissions[:, obs].T)
        log_start = np.log(hmm.initial)

    t_mat = hmm.transitions
    scores = np.empty((n, n_states))
    scores[0] = log_start + log_eseq[0]
    if sparse.issparse(t_mat):
        t_t = sparse.csr_array(t_mat.T)
        t_t.sort_indices()
        indptr, indices = t_t.indptr, t_t.indices
        with np.errstate(divide="ignore"):
            log_data = np.log(t_t.data)
        # reduceat over the nonempty rows only: their starts increase
        # strictly, so each segment ends where the next nonempty row begins
        nonempty = np.diff(indptr) > 0
        starts = indptr[:-1][nonempty]
        for t in range(1, n):
            best = np.full(n_states, -np.inf)
            if indices.size:
                cand = scores[t - 1][indices] + log_data
                best[nonempty] = np.maximum.reduceat(cand, starts)
            scores[t] = best + log_eseq[t]

        def predecessor(t, state):
            lo, hi = indptr[state], indptr[state + 1]
            cand = scores[t - 1][indices[lo:hi]] + log_data[lo:hi]
            return int(indices[lo:hi][np.argmax(cand)])
    else:
        with np.errstate(divide="ignore"):
            log_t = np.log(t_mat)
        for t in range(1, n):
            scores[t] = np.max(scores[t - 1][:, None] + log_t, axis=0) + log_eseq[t]

        def predecessor(t, state):
            return int(np.argmax(scores[t - 1] + log_t[:, state]))

    best_end = int(np.argmax(scores[n - 1]))
    best_logp = float(scores[n - 1, best_end])
    if best_logp == -np.inf:
        raise ZeroLikelihoodError("sequence impossible under model")

    path = np.empty(n, dtype=np.int64)
    path[n - 1] = best_end
    for t in range(n - 1, 0, -1):
        path[t - 1] = predecessor(t, path[t])
    return Annotation(hmm.state_colors[path]), best_logp


def reference_predecessors(hmm):
    """(indptr, indices, data, log data) of T transposed, each row listing
    its states by index; a state with no predecessor lists itself at 0, so
    every row has an entry."""
    t, n_states = hmm.transitions, hmm.n_states
    ptr = t.indptr.astype(np.int64)
    r, c, v = np.repeat(np.arange(n_states), np.diff(ptr)), t.indices.astype(np.int64), t.data
    at = np.arange(n_states + 1)
    lone = np.flatnonzero(np.bincount(c, minlength=n_states) == 0)
    pr, pc = np.concatenate((r, lone)), np.concatenate((c, lone))
    by_pred = np.argsort(pc, kind="stable")
    pv = np.concatenate((v, np.zeros(lone.size)))[by_pred]
    with np.errstate(divide="ignore"):
        return np.searchsorted(pc[by_pred], at), pr[by_pred], pv, np.log(pv)


def reference_reach(hmm):
    """(floor, ceil): rows u and later of T reach no state below floor[u],
    rows up to u none from ceil[u] on; each row's own state counts too."""
    t, n_states = hmm.transitions, hmm.n_states
    ptr, c, at = t.indptr.astype(np.int64), t.indices.astype(np.int64), np.arange(n_states)
    low = np.minimum(np.minimum.reduceat(c, ptr[:-1]), at)
    high = np.maximum(np.maximum.reduceat(c, ptr[:-1]), at) + 1
    return np.minimum.accumulate(low[::-1])[::-1], np.maximum.accumulate(high)


def reference_forward_windows(hmm, obs, cut):
    """`Ragged` rows of the windows of alphahat above `cut`, each step a
    CSR product over the predecessor rows of every state the window
    reaches."""
    op = operator_of(hmm)
    (ptr, preds, data, _), (floor, ceil) = reference_predecessors(hmm), reference_reach(hmm)
    emis, n_states = op.emis_rows, op.initial.size
    full = np.zeros(n_states)  # the last window's alphahat, then the step's row
    los, rows, scales, dropped = [], [], [], 0.0
    for t, sym in enumerate(obs.tolist()):
        if t:
            # every state the window reaches; the rest of full is 0
            base, top = floor[lo], ceil[hi - 1]
            full[lo:hi] = x
            a = np.zeros(top - base)
            _csr_matvec(top - base, n_states, ptr[base:top + 1], preds, data, full, a)
            full[lo:hi] = 0.0
            a *= emis[sym][base:top]
        else:
            base, top, a = 0, n_states, op.initial * emis[sym]
        # the scale sums a row of all S states, as a product over all S would
        full[base:top] = a
        scale = np.add.reduce(full)
        full[base:top] = 0.0
        if scale <= 0.0:
            raise ZeroLikelihoodError(f"sequence impossible under model at position {t + 1}")
        scales.append(scale)
        a /= scale
        keep = a > cut
        first, end = int(keep.argmax()), a.size - int(keep[::-1].argmax())
        dropped += np.add.reduce(a[:first]) + np.add.reduce(a[end:])
        lo, hi, x = base + first, base + end, a[first:end].copy()
        los.append(lo)
        rows.append(x)
    return Ragged(np.array(los), rows, np.array(scales), float(dropped))


def reference_beam_scores(hmm, obs, width):
    """Max-product windows, (lo - 1, scores with one -inf on either side)
    per position, each step a `np.fmax.reduceat` over the predecessor rows
    of every state the window reaches."""
    op = operator_of(hmm)
    (pptr, preds, _, plog), (floor, ceil) = reference_predecessors(hmm), reference_reach(hmm)
    pptr_list, log_emis, pad = pptr.tolist(), op.log_emis_rows, [-np.inf]
    full = np.full(op.initial.size, -np.inf)  # the last window's scores
    rows = []
    for t, sym in enumerate(obs.tolist()):
        if t:
            # best predecessor of every state the window reaches
            base, top = floor[lo], ceil[hi - 1]
            full[lo:hi] = score[1:-1]
            s, e = pptr_list[base], pptr_list[top]
            row = np.fmax.reduceat(full.take(preds[s:e]) + plog[s:e], pptr[base:top] - s)
            full[lo:hi] = -np.inf
            row += log_emis[sym][base:top]
        else:
            base, row = 0, op.log_initial + log_emis[sym]
        best = row.max()
        if best == -np.inf:
            raise ZeroLikelihoodError(f"sequence impossible under model at position {t + 1}")
        keep = row > best - width
        first, end = int(keep.argmax()), row.size - int(keep[::-1].argmax())
        lo, hi, score = base + first, base + end, np.concatenate((pad, row[first:end], pad))
        rows.append((lo - 1, score))
    return rows


def reference_beam_traceback(hmm, rows):
    """(path, log probability) from the windows of `reference_beam_scores`,
    each predecessor the first maximum along its predecessor row."""
    pptr, preds, _, plog = reference_predecessors(hmm)
    bounds = pptr.tolist()
    start, score = rows[-1]
    best_logp = float(score.max())
    v = start + int(score.argmax())
    path = [v]
    for start, score in rows[-2::-1]:
        s, e = bounds[v], bounds[v + 1]
        # states outside the window clip to its -inf ends
        cand = score.take(preds[s:e] - start, mode="clip") + plog[s:e]
        v = int(preds[s + int(cand.argmax())])
        path.append(v)
    return np.array(path[::-1], dtype=np.int64), best_logp


def full_jumping_graph(profiles, spec):
    """Full state graph of the jumping model, delete states included.

    The transition priors and P_j come from the JumpingHmmSpec `spec`.
    Returns (state_ids, colors, silent mask, initial, transition dict,
    emission rows) with transitions as {from: {to: prob}} over state
    indices. Match rows at columns < L carry (1 - P_j) of their
    within-profile mass plus P_j split over the other profiles' next
    match states; everything at column L funnels into that profile's
    terminal insert state, which absorbs.
    """
    n_prof = len(profiles)
    if n_prof < 2:
        raise ValueError("need at least two profiles")
    length = profiles[0].length
    for p in profiles:
        if p.length != length:
            raise ValueError(
                f"profile {p.name!r} has {p.length} columns, expected {length}")
    insert_emission = np.full(len(DNA), 1.0 / len(DNA))

    state_ids, colors, silent, emit_rows = [], [], [], []
    index = {}

    def add(sid, color, is_silent, emission):
        index[sid] = len(state_ids)
        state_ids.append(sid)
        colors.append(color)
        silent.append(is_silent)
        emit_rows.append(emission)

    for p_i, prof in enumerate(profiles):
        add(f"{prof.name}:I0", p_i, False, insert_emission)
        for col in range(1, length + 1):
            add(f"{prof.name}:M{col}", p_i, False, prof.match_emission[col - 1])
            add(f"{prof.name}:I{col}", p_i, False, insert_emission)
            add(f"{prof.name}:D{col}", p_i, True, None)

    trans = {i: {} for i in range(len(state_ids))}

    def put(frm, to, p):
        if p > 0.0:
            trans[frm][to] = trans[frm].get(to, 0.0) + p

    keep = 1.0 - spec.jump_prob
    jump_each = spec.jump_prob / (n_prof - 1)
    for p_i, prof in enumerate(profiles):
        name = prof.name
        terminal = index[f"{name}:I{length}"]
        for col in range(1, length + 1):
            m = index[f"{name}:M{col}"]
            if col < length:
                put(m, index[f"{name}:M{col + 1}"], spec.match_advance * keep)
                put(m, index[f"{name}:I{col}"], spec.match_insert * keep)
                put(m, index[f"{name}:D{col + 1}"], spec.match_delete * keep)
                for q in profiles:
                    if q.name != name:
                        put(m, index[f"{q.name}:M{col + 1}"], jump_each)
            else:
                put(m, terminal, 1.0)
            d = index[f"{name}:D{col}"]
            if col < length:
                put(d, index[f"{name}:D{col + 1}"], spec.delete_self)
                put(d, index[f"{name}:M{col + 1}"], 1.0 - spec.delete_self)
            else:
                put(d, terminal, 1.0)
        for col in range(0, length + 1):
            i = index[f"{name}:I{col}"]
            if col < length:
                put(i, i, spec.insert_self)
                put(i, index[f"{name}:M{col + 1}"], 1.0 - spec.insert_self)
            else:
                put(i, i, 1.0)

    initial = np.zeros(len(state_ids))
    share = 1.0 / n_prof
    for prof in profiles:
        initial[index[f"{prof.name}:M1"]] = spec.match_advance * share
        initial[index[f"{prof.name}:I0"]] = spec.match_insert * share
        initial[index[f"{prof.name}:D1"]] = spec.match_delete * share

    return state_ids, np.array(colors), np.array(silent), initial, trans, emit_rows


def silent_closure(trans, silent, eps=SILENT_CLOSURE_EPS):
    """Emitting-state reach distribution of every silent state.

    Silent states must form an acyclic graph (deletes only advance), so
    an iterative post-order pass resolves each one exactly once. Entries
    below eps are dropped. Returns {silent index: {emitting index: prob}}.
    """
    closure = {}
    in_progress = set()
    for s0 in np.flatnonzero(silent):
        stack = [(int(s0), False)]
        while stack:
            s, ready = stack.pop()
            if s in closure:
                continue
            if ready:
                reach = {}
                for t, p in trans[s].items():
                    if silent[t]:
                        for e, q in closure[t].items():
                            reach[e] = reach.get(e, 0.0) + p * q
                    else:
                        reach[t] = reach.get(t, 0.0) + p
                closure[s] = {e: q for e, q in reach.items() if q > eps}
                in_progress.discard(s)
                continue
            if s in in_progress:
                raise ValueError("cycle among silent states")
            in_progress.add(s)
            stack.append((s, True))
            stack.extend((t, False) for t in trans[s] if silent[t] and t not in closure)
    return closure


def reference_assemble_jumping_hmm(profiles, spec, eps=SILENT_CLOSURE_EPS):
    """One labeled HMM from per-subtype profiles plus jump transitions.

    Every state of profile p carries color p; the initial distribution is
    uniform over profiles. Delete states are closed out, so the result
    contains only emitting states and passes full model validation.
    """
    if not 0.0 <= spec.jump_prob < 1.0:
        raise ValueError("jump probability must be in [0, 1)")
    state_ids, colors, silent, initial, trans, emit_rows = full_jumping_graph(
        profiles, spec)
    closure = silent_closure(trans, silent, eps)

    emitting = np.flatnonzero(~silent)
    new_index = {int(old): i for i, old in enumerate(emitting)}

    rows, cols, vals = [], [], []
    for u in emitting:
        merged = {}
        for t, p in trans[int(u)].items():
            if silent[t]:
                for e, q in closure[t].items():
                    merged[e] = merged.get(e, 0.0) + p * q
            else:
                merged[t] = merged.get(t, 0.0) + p
        for t, p in merged.items():
            rows.append(new_index[int(u)])
            cols.append(new_index[t])
            vals.append(p)

    new_initial = np.zeros(emitting.size)
    for s, p in enumerate(initial):
        if p == 0.0:
            continue
        if silent[s]:
            for e, q in closure[s].items():
                new_initial[new_index[e]] += p * q
        else:
            new_initial[new_index[s]] += p

    n = emitting.size
    return Hmm(
        state_ids=[state_ids[int(i)] for i in emitting],
        state_colors=colors[emitting],
        color_names=[p.name for p in profiles],
        alphabet=list(DNA),
        initial=new_initial,
        transitions=sparse.coo_array((vals, (rows, cols)), shape=(n, n)),
        emissions=np.array([emit_rows[int(i)] for i in emitting]),
    )


def reference_build_hmm(spec):
    """A validated Hmm from a parsed model description, one entry at a time."""
    try:
        alphabet = list(spec["alphabet"])
        colors = spec["colors"]
        states = spec["states"]
        initial = spec["initial"]
        transitions = spec["transitions"]
    except KeyError as e:
        raise InvalidModelError(f"model file missing key {e.args[0]!r}") from None
    if not alphabet:
        raise InvalidModelError("empty alphabet")

    color_ids = [c["id"] for c in colors]
    if color_ids != list(range(len(color_ids))):
        raise InvalidModelError("color ids must be 0..C-1 in order")
    color_names = [str(c["name"]) for c in colors]

    state_ids = [s["id"] for s in states]
    index = {sid: i for i, sid in enumerate(state_ids)}
    n = len(state_ids)
    if n == 0:
        raise InvalidModelError("model has no states")

    state_colors = []
    emissions = np.zeros((n, len(alphabet)))
    sym_index = {s: j for j, s in enumerate(alphabet)}
    for i, s in enumerate(states):
        c = s["color"]
        if not (isinstance(c, int) and 0 <= c < len(color_names)):
            raise InvalidModelError(f"unknown color reference {c!r} for state {s['id']}")
        state_colors.append(c)
        for sym, p in s.get("emission", {}).items():
            if sym not in sym_index:
                raise InvalidModelError(
                    f"emission symbol {sym!r} of state {s['id']} not in alphabet")
            emissions[i, sym_index[sym]] = float(p)

    init = np.zeros(n)
    for sid, p in initial.items():
        if sid not in index:
            raise InvalidModelError(f"unknown state {sid!r} in initial")
        init[index[sid]] = float(p)

    rows, cols, vals = [], [], []
    for sid, row in transitions.items():
        if sid not in index:
            raise InvalidModelError(f"unknown state {sid!r} in transitions")
        for tid, p in row.items():
            if tid not in index:
                raise InvalidModelError(f"unknown state {tid!r} in transitions")
            rows.append(index[sid])
            cols.append(index[tid])
            vals.append(float(p))
    trans = sparse.coo_array((vals, (rows, cols)), shape=(n, n))

    return Hmm(state_ids, state_colors, color_names, alphabet, init, trans, emissions)


def reference_model_json(hmm):
    """The model file text, json.dumps(..., indent=1) of a dict built entry by entry."""
    ids = hmm.state_ids
    states = [{"id": sid, "color": color,
               "emission": {sym: p for sym, p in zip(hmm.alphabet, row) if p != 0.0}}
              for sid, color, row in zip(ids, hmm.state_colors.tolist(),
                                         hmm.emissions.tolist())]
    t = hmm.transitions
    transitions = {}
    for sid, lo, hi in zip(ids, t.indptr.tolist(), t.indptr[1:].tolist()):
        transitions[sid] = {ids[j]: p for j, p in zip(t.indices[lo:hi].tolist(),
                                                      t.data[lo:hi].tolist())}
    return json.dumps({
        "alphabet": hmm.alphabet,
        "colors": [{"id": i, "name": name} for i, name in enumerate(hmm.color_names)],
        "states": states,
        "initial": {sid: p for sid, p in zip(ids, hmm.initial.tolist()) if p != 0.0},
        "transitions": transitions,
    }, indent=1) + "\n"
