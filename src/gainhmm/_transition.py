"""The transition operator the decoders run on, built once per model.

Everything the per-position loops of `inference` read that depends only
on the model lives here: the transitions in the layout each pass wants,
the emission table with one contiguous row per symbol, and the
cross-color transitions the pair posteriors are summed from.
`operator_of` builds it on a model's first decode and caches it on the
model, which is immutable, so every later call and every thread shares
one copy.

Models store their transitions as CSR whatever their size; this module
alone decides how to run the passes and Viterbi. Up to DENSE_STATE_LIMIT
states the operator densifies the matrix once and runs dense kernels:
forward and backward fill (n, S) arrays in place with BLAS products and
gradual underflow, and Viterbi's forward loop records every state's best
predecessor in an (n, S) uint8 array, which the traceback follows. At
S = 48 CSR kernels cost more than dense ones: scipy's per-call dispatch
more than doubles the forward loop's time.

Above the limit the operator keeps its tables in a state order of its
own (`_level_order`); inputs and outputs stay in file order. On a
jumping model that order is the column-major layout (I0 of every
profile, then M1 of every profile, ...), every transition points
forward, and the states active at one position lie in one short window
[lo, hi) of positions. Each step works on one slice of CSR rows, so
memory grows with the windows, not with n * S:

- Forward keeps the window from the first to the last scaled entry
  alphahat[t, v] above CUT, a cut relative to the row (alphahat rows
  sum to 1); `dropped` adds up what falls outside. Each entry sums its
  predecessor row in file index order and each scale a row laid out by
  file index, so the scales equal those of a product over all S states
  in file order, bit for bit. Backward computes betahat on the same
  windows, so the posteriors are those of the cut lattice.
- Viterbi keeps the window from the first to the last score within
  -ln(CUT) of the position's best (a beam), each score the maximum over
  its predecessor row. Those rows list states by file index, so the
  traceback, which re-derives each predecessor from the stored windows,
  keeps the dense kernels' tie rule.
- Neither cut is provably exact: a path can sink below the cut and later
  carry the sequence alone. When the cut empties a forward step, the
  record is run again at the smallest normal double (a subnormal flush);
  when the beam empties a Viterbi step, Viterbi runs again with no beam.
  Only a position that still has no path raises ZeroLikelihoodError.

Both kernel families hand their passes to one posterior assembly. It
sums the pair posteriors from the cross-color transitions over chunks of
gaps copied state-major into buffers (all S states for dense passes, the
chunk's windows for sparse ones) and takes the color posteriors of the
same rows.
"""

from __future__ import annotations

import threading
from array import array
from collections import namedtuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .model import ZeroLikelihoodError

# State count above which the operator runs sparse kernels.
DENSE_STATE_LIMIT = 256

# Relative cut of the sparse kernels: a window ends at the scaled forward
# entries above it, and the Viterbi beam is -ln(CUT) wide.
CUT = 1e-20

# Bytes per state-major position buffer in the dense posterior assembly.
CHUNK_BYTES = 1 << 20

# Bytes per window buffer in the sparse posterior assembly.
WINDOW_CHUNK_BYTES = 1 << 19

_BUILD_LOCK = threading.Lock()

# scipy's loop behind CSR @ vector; it checks no index, so only the operator's
# own tables go in. (n_rows, n_cols, indptr, indices, data, x, out) adds
# data[j] * x[indices[j]] to out[i], j = indptr[i] .. indptr[i + 1] - 1 in order.
_csr_matvec = _sparsetools.csr_matvec

# Window rows: row t holds the states at positions lo[t] .. lo[t] + k - 1
# of the operator's order, k = indptr[t + 1] - indptr[t], with alphahat,
# betahat and w = emis[., obs[t]] * betahat there (w is 0 in row 0);
# dropped is the alphahat mass outside the windows over the record.
Ragged = namedtuple("Ragged", "indptr lo alpha beta w scales dropped")


def operator_of(hmm):
    """The model's TransitionOperator, built on first use."""
    op = hmm._operator
    if op is None:
        with _BUILD_LOCK:
            op = hmm._operator
            if op is None:
                op = hmm._operator = TransitionOperator(hmm)
    return op


def _window_chunks(lo, ends, n_gaps, budget):
    """Gap ranges (k0, k1) of the sparse assembly, at least one gap each.

    Gaps k0 .. k1 - 1 fill two (top - base + 1, k1 - k0 + 1) buffers,
    base and top the least start and the greatest end of the windows of
    rows k0 .. k1. Each range takes the most gaps that keep a buffer
    within `budget` entries: windows drift along the state order, so a
    long range spans far more states than one window.
    """
    k0 = 0
    while True:
        cap = min(n_gaps - k0, max(1, budget // (ends[k0] - lo[k0] + 1) - 1))
        rows = slice(k0, k0 + cap + 1)
        span = np.maximum.accumulate(ends[rows]) - np.minimum.accumulate(lo[rows]) + 1
        fits = np.searchsorted(span * np.arange(1, cap + 2), budget, side="right")
        k1 = k0 + min(cap, max(1, fits - 1))
        yield k0, k1
        if k1 >= n_gaps:
            return
        k0 = k1


def _level_order(t):
    """State indices by longest-path level over t minus its self-loops.

    Kahn's algorithm; ties go by index, and the states it leaves (on or
    behind a cycle) come last, in index order. When self-loops are the
    only cycles, every transition goes to the same or a later position.
    """
    n = t.shape[0]
    rows = np.repeat(np.arange(n), np.diff(t.indptr))
    off = rows != t.indices
    succ = array("q", t.indices[off].astype(np.int64).tobytes())  # half a list's memory
    ptr = np.searchsorted(rows[off], np.arange(n + 1)).tolist()
    indeg = np.bincount(t.indices[off], minlength=n).tolist()
    queue = [v for v in range(n) if not indeg[v]]
    level = [n if d else 0 for d in indeg]  # states Kahn's algorithm leaves keep n
    # The queue runs level by level, so the predecessor that frees a state
    # last has its deepest level.
    for u in queue:
        nxt = level[u] + 1
        for v in succ[ptr[u]:ptr[u + 1]]:
            indeg[v] -= 1
            if not indeg[v]:
                level[v] = nxt
                queue.append(v)
    return np.argsort(level, kind="stable")


def _impossible(t):
    return ZeroLikelihoodError(f"sequence impossible under model at position {t + 1}")


class TransitionOperator:
    """Read-only per-model tables for forward, backward, pair sums and Viterbi.

    Attributes:
        is_sparse: the model has more than DENSE_STATE_LIMIT states; turns
            on the window kernels
        order: the file index of the state at each position of the
            tables below (the identity for dense kernels)
        initial: the model's initial distribution
        emis_rows: (A, S) emissions, row a holds every state's
            probability of symbol a
        log_emis_rows, log_initial: their logarithms
        colors: each state's color
        n_colors: the number of colors
        diag_colors: colors c whose block T[c, c] has a nonzero
        cross: (c1, c2, src, dst, val) per ordered color pair c1 != c2
            with transitions between them: the entries T[src, dst] = val
            from c1 to c2, src ascending
        forward_t, backward_t, log_t_t, color_indicator: (dense kernels)
            T transposed, T, log T transposed (C-ordered), and the (S, C)
            0/1 map of states onto colors
        cross_blocks: (dense kernels) `cross` as (c1, c2, rows, block):
            rows are the states of c1 that reach c2 (a slice when in one
            run), block the (rows, S) CSR matrix of their transitions to c2
        succ, pred: (sparse kernels) (indptr, indices, data) of T and
            (indptr, indices, data, log data) of T transposed, each row
            listing its states by file index; a state with no predecessor
            lists itself at 0
        reach: (sparse kernels) (floor, ceil): rows u and later reach
            no position below floor[u], rows up to u none from ceil[u] on
    """

    def __init__(self, hmm):
        t, n_states = hmm.transitions, hmm.n_states
        self.is_sparse = n_states > DENSE_STATE_LIMIT
        self.order = order = _level_order(t) if self.is_sparse else np.arange(n_states)
        self.initial = hmm.initial[order]
        self.emis_rows = np.ascontiguousarray(hmm.emissions[order].T)
        with np.errstate(divide="ignore"):
            self.log_emis_rows = np.log(self.emis_rows)
            self.log_initial = np.log(self.initial)
        self.colors = colors = hmm.state_colors[order]
        self.n_colors = n_colors = hmm.n_colors
        rank = np.empty_like(order)
        rank[order] = np.arange(n_states)
        # t's entries in its own (row-major) order, as positions
        r = rank[np.repeat(np.arange(n_states), np.diff(t.indptr))]
        c, v = rank[t.indices], t.data
        at = np.arange(n_states + 1)
        if self.is_sparse:
            # Stable sorts keep t's order within each row: file index order. A
            # state with no predecessor gets itself at 0, so every max has one.
            lone = np.flatnonzero(np.bincount(c, minlength=n_states) == 0)
            pr, pc = np.concatenate((r, lone)), np.concatenate((c, lone))
            by_pred = np.argsort(pc, kind="stable")
            pv = np.concatenate((v, np.zeros(lone.size)))[by_pred]
            with np.errstate(divide="ignore"):
                self.pred = (np.searchsorted(pc[by_pred], at), pr[by_pred], pv, np.log(pv))
            by_row = np.argsort(r, kind="stable")
            r, c, v = r[by_row], c[by_row], v[by_row]
            ptr = np.searchsorted(r, at)
            self.succ = (ptr, c, v)
            low = np.minimum(np.minimum.reduceat(c, ptr[:-1]), at[:-1])
            high = np.maximum(np.maximum.reduceat(c, ptr[:-1]), at[:-1]) + 1
            self.reach = (np.minimum.accumulate(low[::-1])[::-1], np.maximum.accumulate(high))
        same = colors[r] == colors[c]
        self.diag_colors = np.flatnonzero(np.bincount(colors[r[same]], minlength=n_colors)).tolist()
        pair = colors[r] * n_colors + colors[c]
        keys = np.bincount(pair[~same], minlength=n_colors * n_colors)
        self.cross = [(key // n_colors, key % n_colors, r[e], c[e], v[e])
                      for key in np.flatnonzero(keys).tolist() for e in [pair == key]]
        if not self.is_sparse:
            self.backward_t = t.toarray()
            self.forward_t = self.backward_t.T
            with np.errstate(divide="ignore"):
                # row v lists log T[u, v] over the predecessors u
                self.log_t_t = np.ascontiguousarray(np.log(self.forward_t))
            self.color_indicator = hmm.color_indicator()
            # Block products beat the sparse assembly's per-entry gathers on
            # dense chunks: 30-40 against 90 ms on a 20 kb, 48-state query.
            self.cross_blocks = []
            for c1, c2, src, dst, val in self.cross:
                rows = np.unique(src)
                run = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] < rows.size else rows
                self.cross_blocks.append((c1, c2, run, sparse.csr_array(
                    (val, (np.searchsorted(rows, src), dst)), shape=(rows.size, n_states))))

    # -- posteriors -----------------------------------------------------

    def posteriors(self, obs):
        """(scales, color_post, pair_post, dropped) of encoded symbols.

        log Pr(X) = sum(log scales); color_post and pair_post are as in
        `PosteriorSet`; dropped is the alphahat mass the sparse kernels'
        cut removed (0.0 on dense kernels). Raises ZeroLikelihoodError
        naming the first position no state path can explain.
        """
        if self.is_sparse:
            lat = self.ragged_passes(obs)
            scales, dropped = lat.scales, lat.dropped
        else:
            lat = self.scaled_passes(obs)
            scales, dropped = lat[2], 0.0
        return (scales, *self._chunked_posteriors(obs, lat, scales), dropped)

    def scaled_passes(self, obs):
        """Dense scaled forward and backward passes over encoded symbols.

        Returns (alphahat, betahat, scales) where alphahat[t] is the
        filtered state distribution, scales[t] the per-position
        normalizers with log Pr(X) = sum(log scales), and
        alphahat[t] * betahat[t] the smoothed state posteriors.
        """
        t_t, t_mat, emis = self.forward_t, self.backward_t, self.emis_rows
        n, n_states = obs.size, self.initial.size
        syms = obs.tolist()
        dot, mul, div, total = np.dot, np.multiply, np.divide, np.add.reduce

        # Each step runs in place in its own output row: no step allocates.
        alphahat = np.empty((n, n_states))
        scales = np.empty(n)
        mul(self.initial, emis[syms[0]], alphahat[0])
        prev = None
        for t, (sym, row) in enumerate(zip(syms, alphahat)):
            if t:
                dot(t_t, prev, row)
                mul(row, emis[sym], row)
            scale = total(row)
            if scale <= 0.0:
                raise _impossible(t)
            scales[t] = scale
            div(row, scale, row)
            prev = row

        betahat = np.empty((n, n_states))
        betahat[n - 1] = 1.0
        buf = np.empty(n_states)
        # rows n-2 .. 0, each from row t+1 with symbol and scale t+1
        for row, nxt, sym, scale in zip(betahat[-2::-1], betahat[:0:-1], syms[:0:-1],
                                        scales.tolist()[:0:-1]):
            mul(emis[sym], nxt, buf)
            dot(t_mat, buf, row)
            div(row, scale, row)

        return alphahat, betahat, scales

    def ragged_passes(self, obs):
        """Sparse forward and backward passes as `Ragged` window rows.

        Runs at CUT and, when the cut empties a step, once more at the
        smallest normal double.
        """
        try:
            fwd = self._ragged_forward(obs, CUT)
        except ZeroLikelihoodError:
            fwd = self._ragged_forward(obs, np.finfo(np.float64).tiny)
        indptr, lo, alpha, scales, dropped = fwd
        beta, w = self._ragged_backward(obs, indptr, lo, scales)
        return Ragged(indptr, lo, alpha, beta, w, scales, dropped)

    def _ragged_forward(self, obs, cut):
        """(indptr, lo, alpha, scales, dropped) of the windows of alphahat above `cut`."""
        (ptr, preds, data, _), (floor, ceil) = self.pred, self.reach
        emis, order, n_states = self.emis_rows, self.order, self.initial.size
        full = np.zeros(n_states)  # the last window's alphahat
        file_row = np.zeros(n_states)
        los, rows, scales, dropped = [], [], [], 0.0
        for t, sym in enumerate(obs.tolist()):
            if t:
                # every position the window reaches; the rest of full is 0
                base, top = floor[lo], ceil[hi - 1]
                full[lo:hi] = x
                a = np.zeros(top - base)
                _csr_matvec(top - base, n_states, ptr[base:top + 1], preds, data, full, a)
                full[lo:hi] = 0.0
                a *= emis[sym][base:top]
            else:
                base, top, a = 0, file_row.size, self.initial * emis[sym]
            at = order[base:top]
            file_row[at] = a
            scale = np.add.reduce(file_row)
            file_row[at] = 0.0
            if scale <= 0.0:
                raise _impossible(t)
            scales.append(scale)
            a /= scale
            keep = a > cut
            first, end = int(keep.argmax()), a.size - int(keep[::-1].argmax())
            dropped += np.add.reduce(a[:first]) + np.add.reduce(a[end:])
            lo, hi, x = base + first, base + end, a[first:end].copy()
            los.append(lo)
            rows.append(x)
        indptr = np.zeros(obs.size + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=indptr[1:])
        return indptr, np.array(los), np.concatenate(rows), np.array(scales), float(dropped)

    def _ragged_backward(self, obs, indptr, lo, scales):
        """(beta, w) on alphahat's windows, in the layout of alpha.

        w holds emis[v, obs[t]] * betahat[t, v], the weight the pair
        posteriors read; it is 0 in row 0, which no gap reads.
        """
        ptr, succ, data = self.succ
        emis, n_states = self.emis_rows, self.initial.size
        beta, w = np.zeros(indptr[-1]), np.empty(indptr[-1])
        beta[indptr[-2]:] = 1.0
        w[:indptr[1]] = 0.0
        y = np.zeros(n_states)
        bounds, los, syms, scale_list = indptr.tolist(), lo.tolist(), obs.tolist(), scales.tolist()
        for t in range(obs.size - 2, -1, -1):
            p0, p1, p2 = bounds[t], bounds[t + 1], bounds[t + 2]
            lo0, lo1 = los[t], los[t + 1]
            nxt = slice(lo1, lo1 + p2 - p1)
            y[nxt] = np.multiply(emis[syms[t + 1]][nxt], beta[p1:p2], out=w[p1:p2])
            _csr_matvec(p1 - p0, n_states, ptr[lo0:lo0 + p1 - p0 + 1], succ, data, y,
                        beta[p0:p1])
            y[nxt] = 0.0
            beta[p0:p1] /= scale_list[t + 1]
        return beta, w

    def _chunked_posteriors(self, obs, lat, scales):
        """(color_post, pair_post) from `Ragged` rows or dense passes.

        lat is a `Ragged` or the (alphahat, betahat, scales) of
        `scaled_passes`. The off-diagonal pair sums run over chunks of m
        gaps, each buffer about CHUNK_BYTES (dense) or WINDOW_CHUNK_BYTES
        (window rows, see `_window_chunks`): the alphahat and w =
        emis[., obs[t]] * betahat rows k0..k0+m go state-major into two
        (states, m + 1) buffers; gap k pairs column k - k0 of alpha with
        column k - k0 + 1 of w. Dense rows fill all S states, and their
        color posteriors are (alphahat * betahat) times the color
        indicator. Window rows fill the chunk's windows plus one zero row
        for every state outside them, and their color posteriors take one
        bincount. Each diagonal pair entry follows from the backward
        identity sum_c2 pair[k, c, c2] = color_post[k, c], clamped at 0.
        """
        n, n_colors, n_states = obs.size, self.n_colors, self.initial.size
        ragged = isinstance(lat, Ragged)
        color_post = np.empty((n, n_colors))
        pair = np.zeros((max(n - 1, 0), n_colors, n_colors))
        if ragged:
            indptr, counts = lat.indptr, np.diff(lat.indptr)
            # entry i of row t is at position i - shift[t] of the order
            shift, ends = indptr[:-1] - lat.lo, lat.lo + counts
            chunks = _window_chunks(lat.lo, ends, n - 1, WINDOW_CHUNK_BYTES // 8)
        else:
            m = max(1, min(n - 1, CHUNK_BYTES // (8 * n_states)))
            a_buf, w_buf = np.zeros((n_states, m + 1)), np.zeros((n_states, m + 1))
            chunks = ((k0, min(k0 + m, n - 1)) for k0 in range(0, max(n - 1, 1), m))
        for k0, k1 in chunks:
            mm = k1 - k0
            if ragged:
                first, last, rows = indptr[k0], indptr[k1 + 1], slice(k0, k1 + 1)
                base, top = lat.lo[rows].min(), ends[rows].max()
                col = np.repeat(np.arange(mm + 1), counts[rows])
                # each entry's row in the buffers, whose last row stays 0
                at = np.arange(first, last) - np.repeat(shift[rows] + base, counts[rows])
                color_post[rows] = np.bincount(
                    col * n_colors + self.colors[at + base],
                    lat.alpha[first:last] * lat.beta[first:last],
                    minlength=(mm + 1) * n_colors).reshape(-1, n_colors)
                a_buf, w_buf = np.zeros((2, top - base + 1, mm + 1))
                a_buf[at, col] = lat.alpha[first:last]
                w_buf[at, col] = lat.w[first:last]
                for c1, c2, src, dst, val in self.cross:
                    i0, i1 = np.searchsorted(src, (base, top))
                    to = np.clip(dst[i0:i1] - base, -1, top - base)
                    pair[k0:k1, c1, c2] = val[i0:i1] @ (a_buf[src[i0:i1] - base, :mm]
                                                        * w_buf[to, 1:])
            else:
                alpha, beta = lat[0][k0:k1 + 1], lat[1][k0:k1 + 1]
                a_buf[:, :mm + 1] = alpha.T
                w_buf[:, :mm + 1] = (self.emis_rows[obs[k0:k1 + 1]] * beta).T
                color_post[k0:k1 + 1] = (alpha * beta) @ self.color_indicator
                for c1, c2, rows, block in self.cross_blocks:
                    pair[k0:k1, c1, c2] = np.einsum("rk,rk->k", a_buf[rows][:, :mm],
                                                    (block @ w_buf)[:, 1:mm + 1])
        pair /= scales[1:, None, None]
        if self.diag_colors:
            off = pair.sum(axis=2)
            for c in self.diag_colors:
                pair[:, c, c] = np.maximum(color_post[:-1, c] - off[:, c], 0.0)
        return color_post, pair

    # -- Viterbi --------------------------------------------------------

    def viterbi_path(self, obs):
        """(state path, log probability) of the best path over encoded symbols.

        DP ties break toward the smallest state index: the dense forward
        loop records each first-argmax predecessor as it goes, and the
        sparse traceback re-derives each predecessor as the first argmax
        over the stored windows along a predecessor row in index order.
        Raises ZeroLikelihoodError naming the first position at which
        every state scores -inf.
        """
        if self.is_sparse:
            try:
                rows = self._beam_scores(obs, -np.log(CUT))
            except ZeroLikelihoodError:
                rows = self._beam_scores(obs, np.inf)
            return self._beam_traceback(rows)
        return self._dense_viterbi(obs)

    def _dense_viterbi(self, obs):
        """Dense max-product with back-pointers kept by the forward loop.

        Step t adds the previous score row to log T transposed, so row v of
        an (S, S) buffer holds each predecessor's candidate score for v
        along its contiguous axis, and the first argmax of that row is the
        smallest best predecessor. Back-pointers take the smallest unsigned
        type that holds a state index: at S <= 256, (n, S) bytes in all.
        """
        log_t_t, log_emis, n_states = self.log_t_t, self.log_emis_rows, self.log_initial.size
        syms = obs.tolist()
        back = np.empty((obs.size, n_states), dtype=np.min_scalar_type(n_states - 1))
        buf = np.empty((n_states, n_states))
        flat, best = buf.reshape(-1), np.empty(n_states, dtype=np.intp)
        row_starts = np.arange(0, n_states * n_states, n_states)
        add, argmax = np.add, np.argmax
        row = self.log_initial + log_emis[syms[0]]
        for back_row, sym in zip(back[1:], syms[1:]):
            add(log_t_t, row, buf)
            argmax(buf, 1, best)
            back_row[...] = best
            add(best, row_starts, best)
            row = flat[best]
            add(row, log_emis[sym], row)

        end = int(np.argmax(row))
        best_logp = float(row[end])
        if best_logp == -np.inf:
            raise _impossible(self._dense_first_dead(obs))
        pointers = memoryview(back.reshape(-1))
        path = [end]
        for at in range(n_states * (obs.size - 1), 0, -n_states):
            path.append(pointers[at + path[-1]])
        return np.array(path[::-1], dtype=np.int64), best_logp

    def _dense_first_dead(self, obs):
        """The first position at which every dense Viterbi score is -inf.

        Replays the scores with a check at every step, so only a record
        with no path at all pays for it; obs must be such a record.
        """
        row = self.log_initial + self.log_emis_rows[obs[0]]
        t = 0
        while row.max() > -np.inf:
            t += 1
            row = np.max(self.log_t_t + row, axis=1) + self.log_emis_rows[obs[t]]
        return t

    def _beam_scores(self, obs, width):
        """Max-product windows: per position (lo - 1, scores) over the states
        lo .. hi - 1, the first to the last within `width` of the position's
        best score, with one -inf on either side."""
        (pptr, preds, _, plog), (floor, ceil) = self.pred, self.reach
        pptr_list, log_emis, pad = pptr.tolist(), self.log_emis_rows, [-np.inf]
        full = np.full(self.initial.size, -np.inf)  # the last window's scores
        rows = []
        for t, sym in enumerate(obs.tolist()):
            if t:
                # best predecessor of every position the window reaches
                base, top = floor[lo], ceil[hi - 1]
                full[lo:hi] = score[1:-1]
                s, e = pptr_list[base], pptr_list[top]
                row = np.fmax.reduceat(full.take(preds[s:e]) + plog[s:e], pptr[base:top] - s)
                full[lo:hi] = -np.inf
                row += log_emis[sym][base:top]
            else:
                base, row = 0, self.log_initial + log_emis[sym]
            best = row.max()
            if best == -np.inf:
                raise _impossible(t)
            keep = row > best - width
            first, end = int(keep.argmax()), row.size - int(keep[::-1].argmax())
            lo, hi, score = base + first, base + end, np.concatenate((pad, row[first:end], pad))
            rows.append((lo - 1, score))
        return rows

    def _beam_traceback(self, rows):
        """(path, log probability) from the windows of `_beam_scores`, as
        file indices. Each predecessor is the first maximum over the
        predecessor row (file index order), with every state outside the
        window at -inf; ties at the end go to the smallest file index."""
        pptr, preds, _, plog = self.pred
        bounds, order = pptr.tolist(), self.order
        start, score = rows[-1]
        best_logp = score.max()
        ties = np.flatnonzero(score == best_logp) + start
        v = int(ties[np.argmin(order[ties])])
        path = [v]
        for start, score in rows[-2::-1]:
            s, e = bounds[v], bounds[v + 1]
            # positions outside the window clip to its -inf ends
            cand = score.take(preds[s:e] - start, mode="clip") + plog[s:e]
            v = int(preds[s + int(cand.argmax())])
            path.append(v)
        return order[path[::-1]], float(best_logp)
