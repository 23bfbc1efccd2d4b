"""The transition operator the decoders run on, built once per model.

Everything the per-position loops of `inference` read that depends only
on the model lives here: the transition matrix and its transpose in the
layout each pass wants, the emission table with one contiguous row per
symbol, and the cross-color transition blocks the pair posteriors are
summed from. `operator_of` builds it on a model's first decode and caches
it on the model, which is immutable, so every later call and every thread
shares one copy.

Models store their transitions as CSR whatever their size; this module
alone decides how to run the passes and Viterbi. Up to DENSE_STATE_LIMIT
states the operator densifies the matrix once and runs dense kernels:
forward and backward fill (n, S) arrays in place with BLAS products and
gradual underflow, and Viterbi's forward loop records every state's best
predecessor in an (n, S) uint8 array, which the traceback follows. At
S = 48 CSR kernels cost more than dense ones: scipy's per-call dispatch
more than doubles the forward loop's time.

Above the limit the kernels keep only the active states of each position,
as ragged rows, so memory grows with the active entries, not with n * S:

- Forward keeps a scaled entry alphahat[t, v] only when it is above CUT,
  a cut relative to the row (alphahat rows sum to 1); `dropped` adds up
  what it removes. Backward computes betahat on alphahat's support
  alone, so the posteriors are those of the cut lattice.
- Viterbi keeps the scores within -ln(CUT) of each position's best (a
  beam). The traceback re-derives each predecessor from the stored
  ragged scores with the dense kernels' tie rule.
- Each forward and backward step picks its product from the out-degree
  sum of the active states: below GATHER_SHARE of the nonzeros it
  gathers over their CSR rows, otherwise it runs the full CSR product on
  the cut row as one dense vector.
- Neither cut is provably exact: a path can sink below the cut and later
  carry the sequence alone. When the cut empties a forward step, the
  record is run again at the smallest normal double (a subnormal flush);
  when the beam empties a Viterbi step, Viterbi runs again with no beam.
  Only a position that still has no path raises ZeroLikelihoodError.

Both kernel families hand their passes to one posterior assembly. It
sums the pair posteriors from the cross-color blocks, as CSR (rows, S)
products over chunks of gaps copied state-major into buffers of about
CHUNK_BYTES, and takes the color posteriors of the same rows.
"""

from __future__ import annotations

import threading
from collections import namedtuple

import numpy as np
from scipy import sparse

from .model import ZeroLikelihoodError

# State count above which the operator runs sparse kernels.
DENSE_STATE_LIMIT = 256

# Relative cut of the sparse kernels: scaled forward entries at or below
# it are dropped, and the Viterbi beam is -ln(CUT) wide.
CUT = 1e-20

# A sparse forward or backward step gathers over the active states' rows
# when they hold fewer than this share of the nonzeros.
GATHER_SHARE = 1 / 16

# Bytes per state-major position buffer in the posterior assembly.
CHUNK_BYTES = 1 << 20

_BUILD_LOCK = threading.Lock()

# Ragged rows: row t holds states idx[indptr[t]:indptr[t + 1]] (ascending)
# with alphahat, betahat and w = emis[., obs[t]] * betahat there (w is 0 in
# row 0); dropped is the alphahat mass the cut removed over the record.
Ragged = namedtuple("Ragged", "indptr idx alpha beta w scales dropped")


def operator_of(hmm):
    """The model's TransitionOperator, built on first use."""
    op = hmm._operator
    if op is None:
        with _BUILD_LOCK:
            op = hmm._operator
            if op is None:
                op = hmm._operator = TransitionOperator(hmm)
    return op


def _selector(idx):
    """A sorted state index array as a slice when it is evenly spaced.

    Slicing gives a view, where an index array would copy; jumping
    models keep each profile's match states two apart.
    """
    if idx.size == 1:
        return slice(int(idx[0]), int(idx[0]) + 1)
    if idx.size > 1:
        step = int(idx[1] - idx[0])
        if np.all(np.diff(idx) == step):
            return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _spans(indptr, rows, counts):
    """Positions of the CSR entries of `rows`, row after row.

    counts[i] is the entry count of rows[i]; rows must not be empty.
    """
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(indptr[rows] - ends + counts, counts)


def _impossible(t):
    return ZeroLikelihoodError(f"sequence impossible under model at position {t + 1}")


class TransitionOperator:
    """Read-only per-model tables for forward, backward, pair sums and Viterbi.

    Attributes:
        is_sparse: the model has more than DENSE_STATE_LIMIT states; turns
            on the ragged kernels
        forward_t: T transposed (CSR for sparse kernels, an ndarray view
            for dense ones); rows list each state's predecessors in
            ascending order
        backward_t: T itself
        initial: the model's initial distribution
        emis_rows: (A, S) emissions, row a holds every state's
            probability of symbol a
        log_emis_rows, log_initial: their logarithms
        colors: each state's color
        n_colors: the number of colors
        color_indicator: (S, C) 0/1 map of states onto colors (dense
            kernels only)
        cross: (c1, c2, rows, block) per ordered color pair c1 != c2 with
            transitions between them: rows are the states of c1 that reach
            c2 (a slice when evenly spaced), and block is a (rows, S) CSR
            matrix holding T[rows[i], v] for the states v of c2, so it
            multiplies the (S, m) buffers of the posterior assembly
        diag_colors: colors c whose block T[c, c] has a nonzero
    """

    def __init__(self, hmm):
        t = hmm.transitions
        self.is_sparse = hmm.n_states > DENSE_STATE_LIMIT
        self.initial = hmm.initial
        self.emis_rows = np.ascontiguousarray(hmm.emissions.T)
        with np.errstate(divide="ignore"):
            self.log_emis_rows = np.log(self.emis_rows)
            self.log_initial = np.log(hmm.initial)
        self.colors = colors = hmm.state_colors
        self.n_colors = hmm.n_colors

        if self.is_sparse:
            self.backward_t = t
            # rows of the transpose list each state's predecessors in
            # ascending order, so first-max ties pick the smallest index
            self.forward_t = sparse.csr_array(t.T)
            self.forward_t.sort_indices()
            self.out_degree = np.diff(t.indptr)
            self.out_degree_f = self.out_degree.astype(np.float64)
            with np.errstate(divide="ignore"):
                self.log_t_data = np.log(t.data)
                self.pred_log = np.log(self.forward_t.data)
        else:
            self.backward_t = t.toarray()
            self.forward_t = self.backward_t.T
            with np.errstate(divide="ignore"):
                # row v lists log T[u, v] over the predecessors u
                self.log_t_t = np.ascontiguousarray(np.log(self.forward_t))
            self.color_indicator = hmm.color_indicator()
        r = np.repeat(np.arange(hmm.n_states), np.diff(t.indptr))
        c, v = t.indices, t.data
        same = colors[r] == colors[c]
        self.diag_colors = np.unique(colors[r[same]]).tolist()
        self.cross = self._cross_blocks(hmm, r[~same], c[~same], v[~same])

    @staticmethod
    def _cross_blocks(hmm, r, c, v):
        """The `cross` table from the cross-color entries T[r, c] = v."""
        pair = hmm.state_colors[c] * hmm.n_colors + hmm.state_colors[r]
        out = []
        for key in np.unique(pair).tolist():
            c2, c1 = divmod(key, hmm.n_colors)
            e = pair == key
            rows = np.unique(r[e])
            block = sparse.csr_array((v[e], (np.searchsorted(rows, r[e]), c[e])),
                                     shape=(rows.size, hmm.n_states))
            out.append((c1, c2, _selector(rows), block))
        return out

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
        """Sparse forward and backward passes as `Ragged` rows.

        Runs at CUT and, when the cut empties a step, once more at the
        smallest normal double.
        """
        try:
            fwd = self._ragged_forward(obs, CUT)
        except ZeroLikelihoodError:
            fwd = self._ragged_forward(obs, np.finfo(np.float64).tiny)
        indptr, idx, alpha, scales, gathered, dropped = fwd
        beta, w = self._ragged_backward(obs, indptr, idx, scales, gathered)
        return Ragged(indptr, idx, alpha, beta, w, scales, dropped)

    def _ragged_forward(self, obs, cut):
        """(indptr, idx, alpha, scales, gathered, dropped) keeping alphahat above `cut`.

        gathered[t] records whether the product out of row t gathered.
        """
        t_t, t_mat, emis = self.forward_t, self.backward_t, self.emis_rows
        n_states = self.initial.size
        limit = GATHER_SHARE * t_mat.nnz
        x, keep_f, dropped = np.zeros(n_states), np.empty(n_states), np.zeros(n_states)
        idx_rows, val_rows, scales, gathered = [], [], [], []
        a = self.initial.copy()
        for t, sym in enumerate(obs.tolist()):
            if t:
                if gather:
                    counts = self.out_degree[idx]
                    pos = _spans(t_mat.indptr, idx, counts)
                    a = np.bincount(t_mat.indices[pos], t_mat.data[pos] * np.repeat(val, counts),
                                    minlength=n_states)
                else:
                    a = t_t @ x
            a *= emis[sym]
            scale = a.sum()
            if scale <= 0.0:
                raise _impossible(t)
            scales.append(scale)
            a /= scale
            keep = a > cut
            idx = keep.nonzero()[0]
            val = a[idx]
            idx_rows.append(idx)
            val_rows.append(val)
            # keep as 0.0/1.0: one dot product gives the out-degree sum of
            # the active states, one multiply the cut row
            np.copyto(keep_f, keep)
            gather = bool(self.out_degree_f.dot(keep_f) < limit)
            gathered.append(gather)
            if gather:
                a[idx] = 0.0
            else:
                np.multiply(a, keep_f, out=x)  # input of the next product
                a -= x  # exactly the entries at or below the cut
            dropped += a
        indptr = np.zeros(obs.size + 1, dtype=np.int64)
        np.cumsum([r.size for r in idx_rows], out=indptr[1:])
        return (indptr, np.concatenate(idx_rows), np.concatenate(val_rows), np.array(scales),
                gathered, float(dropped.sum()))

    def _ragged_backward(self, obs, indptr, idx, scales, gathered):
        """(beta, w) on alphahat's support, in the layout of `idx`.

        w holds emis[v, obs[t]] * betahat[t, v], the weight the pair
        posteriors read; it is 0 in row 0, which no gap reads.
        """
        t_mat, emis, out_degree = self.backward_t, self.emis_rows, self.out_degree
        beta, w = np.empty(idx.size), np.empty(idx.size)
        beta[indptr[-2]:] = 1.0
        w[:indptr[1]] = 0.0
        y = np.zeros(self.initial.size)
        bounds, syms, scale_list = indptr.tolist(), obs.tolist(), scales.tolist()
        for t in range(obs.size - 2, -1, -1):
            lo, mid, hi = bounds[t], bounds[t + 1], bounds[t + 2]
            nxt, rows = idx[mid:hi], idx[lo:mid]
            y[nxt] = np.multiply(emis[syms[t + 1]][nxt], beta[mid:hi], out=w[mid:hi])
            if gathered[t]:
                counts = out_degree[rows]
                pos = _spans(t_mat.indptr, rows, counts)
                b = np.add.reduceat(t_mat.data[pos] * y[t_mat.indices[pos]],
                                    np.cumsum(counts) - counts)
            else:
                b = (t_mat @ y)[rows]
            y[nxt] = 0.0
            np.divide(b, scale_list[t + 1], out=beta[lo:mid])
        return beta, w

    def _chunked_posteriors(self, obs, lat, scales):
        """(color_post, pair_post) from `Ragged` rows or dense passes.

        lat is a `Ragged` or the (alphahat, betahat, scales) of
        `scaled_passes`. The off-diagonal pair sums run over chunks of m
        gaps: the alphahat and w = emis[., obs[t]] * betahat rows
        k0..k0+m go state-major into two (S, m + 1) buffers of about
        CHUNK_BYTES, so every block product and dot product runs on
        contiguous rows; gap k pairs column k - k0 of alpha with column
        k - k0 + 1 of the block product of w. Ragged rows are scattered
        into zeroed buffers and their color posteriors take one bincount;
        dense rows are copied in transposed and their color posteriors are
        (alphahat * betahat) times the color indicator. Each diagonal pair
        entry follows from the backward identity
        sum_c2 pair[k, c, c2] = color_post[k, c], clamped at 0.
        """
        n, n_colors, n_states = obs.size, self.n_colors, self.initial.size
        ragged = isinstance(lat, Ragged)
        color_post = np.empty((n, n_colors))
        pair = np.zeros((max(n - 1, 0), n_colors, n_colors))
        m = max(1, min(n - 1, CHUNK_BYTES // (8 * n_states)))
        a_buf, w_buf = np.zeros((n_states, m + 1)), np.zeros((n_states, m + 1))
        a_flat, w_flat = a_buf.reshape(-1), w_buf.reshape(-1)
        for k0 in range(0, max(n - 1, 1), m):
            k1 = min(k0 + m, n - 1)
            if ragged:
                indptr, idx = lat.indptr, lat.idx
                lo, hi = indptr[k0], indptr[k1 + 1]
                col = np.repeat(np.arange(k1 - k0 + 1), np.diff(indptr[k0:k1 + 2]))
                key = col * n_colors + self.colors[idx[lo:hi]]
                color_post[k0:k1 + 1] = np.bincount(
                    key, lat.alpha[lo:hi] * lat.beta[lo:hi],
                    minlength=(k1 - k0 + 1) * n_colors).reshape(-1, n_colors)
                at = idx[lo:hi] * (m + 1) + col
                a_flat[at] = lat.alpha[lo:hi]
                w_flat[at] = lat.w[lo:hi]
            else:
                alpha, beta = lat[0][k0:k1 + 1], lat[1][k0:k1 + 1]
                a_buf[:, :k1 - k0 + 1] = alpha.T
                w_buf[:, :k1 - k0 + 1] = (self.emis_rows[obs[k0:k1 + 1]] * beta).T
                color_post[k0:k1 + 1] = (alpha * beta) @ self.color_indicator
            for c1, c2, rows, block in self.cross:
                pair[k0:k1, c1, c2] = np.einsum("rk,rk->k", a_buf[rows][:, :k1 - k0],
                                                (block @ w_buf)[:, 1:k1 - k0 + 1])
            if ragged:
                a_flat[at] = 0.0
                w_flat[at] = 0.0
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
        over the stored scores. Raises ZeroLikelihoodError naming the
        first position at which every state scores -inf.
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
        """Ragged max-product scores: per position (states, scores) of the
        states within `width` of the position's best score."""
        t_mat, log_emis = self.backward_t, self.log_emis_rows
        best = np.empty(self.initial.size)
        row = self.log_initial.copy()
        rows = []
        for t, sym in enumerate(obs.tolist()):
            if t:
                counts = self.out_degree[idx]
                pos = _spans(t_mat.indptr, idx, counts)
                best.fill(-np.inf)
                np.maximum.at(best, t_mat.indices[pos],
                              np.repeat(score, counts) + self.log_t_data[pos])
                row = best
            row += log_emis[sym]
            top = row.max()
            if top == -np.inf:
                raise _impossible(t)
            idx = (row > top - width).nonzero()[0]
            score = row[idx]
            rows.append((idx, score))
        return rows

    def _beam_traceback(self, rows):
        """(path, log probability) from ragged scores; states missing from
        a row score -inf there."""
        idx, score = rows[-1]
        n = len(rows)
        path = np.empty(n, dtype=np.int64)
        end = int(np.argmax(score))
        path[n - 1], best_logp = idx[end], float(score[end])
        indptr, indices = self.forward_t.indptr, self.forward_t.indices
        for t in range(n - 1, 0, -1):
            lo, hi = indptr[path[t]], indptr[path[t] + 1]
            preds = indices[lo:hi]
            idx, score = rows[t - 1]
            at = np.minimum(np.searchsorted(idx, preds), idx.size - 1)
            cand = np.where(idx[at] == preds, score[at], -np.inf) + self.pred_log[lo:hi]
            path[t - 1] = preds[np.argmax(cand)]
        return path, best_logp
