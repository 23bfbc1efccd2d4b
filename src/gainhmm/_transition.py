"""The transition operator the decoders run on, built once per model.

Everything the per-position loops of `inference` read that depends only
on the model lives here: the transition matrix and its transpose in the
layout each pass wants, the emission table with one contiguous row per
symbol, the cross-color transition blocks the pair posteriors are summed
from, and the in-degree buckets of the sparse max-product. `operator_of`
builds it on a model's first decode and caches it on the model, which is
immutable, so every later call and every thread shares one copy.

Models store their transitions as CSR whatever their size; this module
alone decides how to run them. Up to DENSE_STATE_LIMIT states the
operator densifies the matrix once and runs dense kernels (BLAS products,
a dense max, gradual underflow); above it, sparse kernels (CSR products,
a subnormal flush, a degree-bucketed max). At S = 48 CSR kernels cost
more than dense ones: scipy's per-call dispatch more than doubles the
forward loop's time.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import sparse

from .model import ZeroLikelihoodError

# Smallest normal double. Sparse forward/backward zero the scaled entries
# below it: subnormal operands slow every later sparse product, and what
# they carry lies below any posterior the decoders report.
TINY = np.finfo(np.float64).tiny

# State count above which the operator runs sparse kernels.
DENSE_STATE_LIMIT = 256

_BUILD_LOCK = threading.Lock()


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


class TransitionOperator:
    """Read-only per-model tables for forward, backward, pair sums and Viterbi.

    Attributes:
        is_sparse: the model has more than DENSE_STATE_LIMIT states; turns
            on CSR products, the subnormal flush and the bucketed
            max-product
        forward_t: T transposed (CSR for sparse kernels, an ndarray view
            for dense ones), so that forward_t @ alphahat is one forward
            step
        backward_t: T itself, for the backward step
        initial: the model's initial distribution
        emis_rows: (A, S) emissions, row a holds every state's
            probability of symbol a
        log_emis_rows, log_initial: their logarithms
        color_sel: per-color state selectors (slices when evenly spaced)
        cross: per target color c2 with cross-color transitions into it,
            (c2, cols, emis_cols, blocks) with cols the states of c2 that
            other colors reach and emis_cols their emission table; each
            block is (c1, rows, block_t), where block_t[j, i] is
            T[rows[i], cols[j]] over the states rows of c1 that reach c2
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
        colors = hmm.state_colors
        self.color_sel = [_selector(np.flatnonzero(colors == c))
                          for c in range(hmm.n_colors)]

        if self.is_sparse:
            self.backward_t = t
            # rows of the transpose list each state's predecessors in
            # ascending order, so first-max ties pick the smallest index
            self.forward_t = sparse.csr_array(t.T)
            self.forward_t.sort_indices()
        else:
            self.backward_t = t.toarray()
            self.forward_t = self.backward_t.T
        r = np.repeat(np.arange(hmm.n_states), np.diff(t.indptr))
        c, v = t.indices, t.data
        same = colors[r] == colors[c]
        self.diag_colors = np.unique(colors[r[same]]).tolist()
        self.cross = self._cross_blocks(hmm, r[~same], c[~same], v[~same])
        self._init_viterbi()

    def _cross_blocks(self, hmm, r, c, v):
        """The `cross` table from the cross-color entries T[r, c] = v."""
        from_color, to_color = hmm.state_colors[r], hmm.state_colors[c]
        out = []
        for c2 in np.unique(to_color).tolist():
            into = to_color == c2
            cols = np.unique(c[into])
            blocks = []
            for c1 in np.unique(from_color[into]).tolist():
                e = into & (from_color == c1)
                rows = np.unique(r[e])
                ri, ci = np.searchsorted(rows, r[e]), np.searchsorted(cols, c[e])
                if self.is_sparse:
                    block_t = sparse.csr_array((v[e], (ci, ri)), shape=(cols.size, rows.size))
                else:
                    block_t = np.zeros((cols.size, rows.size))
                    block_t[ci, ri] = v[e]
                blocks.append((c1, _selector(rows), block_t))
            out.append((c2, _selector(cols),
                        np.ascontiguousarray(self.emis_rows[:, cols]), blocks))
        return out

    def _init_viterbi(self):
        """Log weights, and for sparse models the in-degree buckets.

        A bucket holds the states whose in-degree rounds up to the same
        power of two k, as (states, idx, logw) with (k, len(states))
        tables of predecessor index and log weight; padding entries point
        at state 0 with weight -inf, so they never win a maximum.
        """
        self.buckets = []
        if not self.is_sparse:
            with np.errstate(divide="ignore"):
                self.log_t = np.log(self.backward_t)
            return
        t_t = self.forward_t
        self.pred_indptr, self.pred_indices = t_t.indptr, t_t.indices
        with np.errstate(divide="ignore"):
            self.pred_log = np.log(t_t.data)
        deg = np.diff(self.pred_indptr)
        width = np.zeros_like(deg)
        has = deg > 0
        width[has] = 1 << np.ceil(np.log2(deg[has])).astype(np.int64)
        self.no_pred = np.flatnonzero(~has)
        for k in np.unique(width[has]).tolist():
            states = np.flatnonzero(width == k)
            offs = np.arange(k)[:, None]
            valid = offs < deg[states]
            pos = np.where(valid, self.pred_indptr[states] + offs, 0)
            idx = np.where(valid, self.pred_indices[pos], 0)
            logw = np.where(valid, self.pred_log[pos], -np.inf)
            self.buckets.append((_selector(states), idx, logw))

    def scaled_passes(self, obs):
        """Scaled forward and backward passes over encoded symbols.

        Returns (alphahat, betahat, scales) where alphahat[t] is the
        filtered state distribution, scales[t] the per-position
        normalizers with log Pr(X) = sum(log scales), and
        alphahat[t] * betahat[t] the smoothed state posteriors. Sparse
        kernels set every stored entry below the smallest normal double
        to zero. Raises ZeroLikelihoodError naming the first position no
        state path can explain.
        """
        t_t, t_mat, emis = self.forward_t, self.backward_t, self.emis_rows
        flush = self.is_sparse
        n, n_states = obs.size, self.initial.size

        alphahat = np.empty((n, n_states))
        scales = np.empty(n)
        a = self.initial * emis[obs[0]]
        for t in range(n):
            if t:
                a = (t_t @ alphahat[t - 1]) * emis[obs[t]]
            scales[t] = a.sum()
            if scales[t] <= 0.0:
                raise ZeroLikelihoodError(f"sequence impossible under model at position {t + 1}")
            row = alphahat[t]
            np.divide(a, scales[t], out=row)
            if flush:
                row[row < TINY] = 0.0

        betahat = np.empty((n, n_states))
        betahat[n - 1] = 1.0
        for t in range(n - 2, -1, -1):
            row = betahat[t]
            np.divide(t_mat @ (emis[obs[t + 1]] * betahat[t + 1]), scales[t + 1], out=row)
            if flush:
                row[row < TINY] = 0.0

        return alphahat, betahat, scales

    def viterbi_scores(self, obs):
        """(n, S) max-product scores.

        scores[t, v] is the log probability of the best state path that
        emits obs[:t+1] and ends in state v.
        """
        log_emis = self.log_emis_rows
        scores = np.empty((obs.size, self.log_initial.size))
        scores[0] = self.log_initial + log_emis[obs[0]]
        # per-call scratch, reused at every position: fresh arrays this
        # size would page-fault on each step
        work = [(states, idx, logw, np.empty(idx.shape), np.empty(idx.shape[1]))
                for states, idx, logw in self.buckets]
        for t in range(1, obs.size):
            prev, row = scores[t - 1], scores[t]
            if self.is_sparse:
                row[self.no_pred] = -np.inf
                for states, idx, logw, cand, best in work:
                    np.take(prev, idx, out=cand, mode="clip")
                    cand += logw
                    row[states] = cand.max(axis=0, out=best)
            else:
                np.max(prev[:, None] + self.log_t, axis=0, out=row)
            row += log_emis[obs[t]]
        return scores

    def predecessor(self, prev, state):
        """First argmax over predecessors u of prev[u] + log T[u, state]."""
        if not self.is_sparse:
            return int(np.argmax(prev + self.log_t[:, state]))
        lo, hi = self.pred_indptr[state], self.pred_indptr[state + 1]
        preds = self.pred_indices[lo:hi]
        return int(preds[np.argmax(prev[preds] + self.pred_log[lo:hi])])

    def color_posteriors(self, alphahat, betahat):
        """(n, C) color posteriors as per-color sums of alphahat * betahat."""
        out = np.empty((alphahat.shape[0], len(self.color_sel)))
        for c, sel in enumerate(self.color_sel):
            out[:, c] = np.einsum("ij,ij->i", alphahat[:, sel], betahat[:, sel])
        return out

    def pair_posteriors(self, obs, alphahat, betahat, scales, color_post):
        """(n-1, C, C) color-pair posteriors from the cross-color blocks.

        The off-diagonal entry (c1, c2) at gap k is the dot product of
        alphahat[k, rows] with (w[k, cols] @ block_t), where
        w[k, v] = emis[v, obs[k+1]] betahat[k+1, v] / scales[k+1]. Each
        diagonal entry follows from the backward identity
        sum_c2 pair[k, c, c2] = color_post[k, c], clamped at 0.
        """
        n = obs.size
        n_colors = len(self.color_sel)
        pair = np.zeros((max(n - 1, 0), n_colors, n_colors))
        if n < 2:
            return pair
        nxt, a = obs[1:], alphahat[:-1]
        for c2, cols, emis_cols, blocks in self.cross:
            w = emis_cols[nxt]
            w *= betahat[1:, cols]
            for c1, rows, block_t in blocks:
                pair[:, c1, c2] = np.einsum("kr,kr->k", a[:, rows], w @ block_t)
        pair /= scales[1:, None, None]
        if self.diag_colors:
            off = pair.sum(axis=2)
            for c in self.diag_colors:
                pair[:, c, c] = np.maximum(color_post[:-1, c] - off[:, c], 0.0)
        return pair
