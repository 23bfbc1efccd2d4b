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
states the operator densifies the matrix once and runs dense kernels.
Their passes read one table per symbol a, the (S + 1, S) matrix
diag(e_a) T transposed with its column sums as row S: one BLAS product
by the previous alphahat row gives a forward step's emission-weighted row
and, in its last entry, the step's scale, and the table's first S rows
read transposed, T diag(e_a), give a backward step. So a step of either
pass is one product and one division, with gradual underflow; the tables
take A (S + 1) S doubles, 75 KB at S = 48 and 2.1 MB at S = 256 over four
symbols. Forward fills an (n, S) array in place, backward one chunk of
rows at a time, and Viterbi's forward loop records every state's best
predecessor in an (n, S) uint8 array, which the traceback follows. At
S = 48 CSR kernels cost more than dense ones: scipy's per-call dispatch
more than doubles the forward loop's time.

Above the limit the kernels keep, per position, one window [lo, hi) of
state indices. They are exact in any state order, and fast when
transitions point forward and the states active at one position lie close
together, as in a jumping model's column-major layout (I0 of every
profile, then M1 of every profile, ...). A jumping model stored in another
order decodes alike on windows many times wider. Each step works on the
window's own rows of T, one slice of CSR rows, so memory grows with the
windows, not with n * S:

- Forward keeps the window from the first to the last scaled entry
  alphahat[t, v] above CUT, a cut relative to the row (alphahat rows
  sum to 1); `dropped` adds up what falls outside. Each step scatters
  the window's rows of T, times its alphahat, into one zero row of all
  S states. Each entry then adds its predecessors in index order, and
  each scale sums that row, so the scales equal those of a product over
  all S states, bit for bit. The alphahat windows, one array per
  position as the step copies it out, are the only lattice kept.
- Backward computes betahat on the same windows, so the posteriors are
  those of the cut lattice. It keeps one betahat row, and sums each
  gap's pair posteriors and each position's color posteriors as it
  goes, from the cross-color transitions out of the window.
- Viterbi keeps the window from the first to the last score within
  -ln(CUT) of the position's best (a beam). Each step scatters the
  window's scores plus their rows of log T into one -inf row by maximum,
  which is exact in any order. Only the traceback reads T transposed:
  its rows list predecessors by index, and it re-derives each one as the
  first maximum over the stored windows, which keeps the dense kernels'
  tie rule.
- Neither cut is provably exact: a path can sink below the cut and later
  carry the sequence alone. When the cut empties a forward step, the
  record is run again at the smallest normal double (a subnormal flush);
  when the beam empties a Viterbi step, Viterbi runs again with no beam.
  Only a position that still has no path raises ZeroLikelihoodError.

The dense kernels keep only alphahat for the whole record: the backward
pass sums each chunk's pair posteriors as it is made, its gaps copied
state-major into buffers, one sparse product per target color. Both
families take each diagonal pair entry from the backward identity.
"""

from __future__ import annotations

import threading
from collections import namedtuple

import numpy as np
from scipy import sparse

from .model import ZeroLikelihoodError

# State count above which the operator runs sparse kernels.
DENSE_STATE_LIMIT = 256

# Relative cut of the sparse kernels: a window ends at the scaled forward
# entries above it, and the Viterbi beam is -ln(CUT) wide.
CUT = 1e-20

# Bytes per chunk: the dense backward pass's betahat rows, gain.decode_grid's steps.
CHUNK_BYTES = 1 << 18

_BUILD_LOCK = threading.Lock()


def _public_loops():
    """Stand-ins for scipy's private loops, built on its public sparse arrays."""
    def csr_matvec(n_rows, n_cols, indptr, indices, data, x, out):
        s, e = indptr[0], indptr[-1]
        out += sparse.csr_array((data[s:e], indices[s:e], indptr - s), (n_rows, n_cols)) @ x

    def csc_matvec(n_rows, n_cols, indptr, indices, data, x, out):
        s, e = indptr[0], indptr[-1]
        out += sparse.csc_array((data[s:e], indices[s:e], indptr - s), (n_rows, n_cols)) @ x

    def csr_tocsc(n_rows, n_cols, indptr, indices, data, t_indptr, t_indices, t_data):
        t = sparse.csr_array((data, indices, indptr), (n_rows, n_cols)).tocsc()
        t_indptr[:], t_indices[:], t_data[:] = t.indptr, t.indices, t.data

    return csr_matvec, csc_matvec, csr_tocsc


# scipy's loops behind CSR @ vector, CSC @ vector and CSR -> CSC. They check no
# index, so only the operator's own tables go in; they are private, so a scipy
# without them gets the public stand-ins. With j running over
# indptr[i] .. indptr[i + 1] - 1 in order, (n_rows, n_cols, indptr, indices,
# data, x, out) adds data[j] * x[indices[j]] to out[i] (csr_matvec) or
# data[j] * x[i] to out[indices[j]] (csc_matvec), and csr_tocsc writes the
# transpose's (indptr, indices, data) into its last three arguments, each of
# its rows listing its entries in index order.
try:
    from scipy.sparse._sparsetools import csc_matvec as _csc_matvec, \
        csr_matvec as _csr_matvec, csr_tocsc as _csr_tocsc
except ImportError:  # pragma: no cover - depends on the scipy build
    _csr_matvec, _csc_matvec, _csr_tocsc = _public_loops()

# Forward windows as the pass makes them: rows[t] holds alphahat of the states
# lo[t] .. lo[t] + rows[t].size - 1; dropped is the alphahat mass outside the
# windows over the record.
Ragged = namedtuple("Ragged", "lo rows scales dropped")


def operator_of(hmm):
    """The model's TransitionOperator, built on first use."""
    op = hmm._operator
    if op is None:
        with _BUILD_LOCK:
            op = hmm._operator
            if op is None:
                op = hmm._operator = TransitionOperator(hmm)
    return op


def _impossible(t):
    return ZeroLikelihoodError(f"sequence impossible under model at position {t + 1}")


class TransitionOperator:
    """Read-only per-model tables for forward, backward, pair sums and Viterbi.

    Attributes:
        is_sparse: the model has more than DENSE_STATE_LIMIT states; turns
            on the window kernels
        initial: the model's initial distribution
        emis_rows: (A, S) emissions, row a holds every state's
            probability of symbol a
        log_emis_rows, log_initial: their logarithms
        colors: each state's color
        n_colors: the number of colors
        diag_colors: colors c whose block T[c, c] has a nonzero
        cross: (src, dst, val, key) of the cross-color transitions
            T[src, dst] = val, key = c1 * n_colors + c2 their pair of
            colors, src ascending
        forward_tables: (dense kernels) (A, S + 1, S), [a, v, u] =
            e_a[v] T[u, v] for v < S, and row S of each table its column
            sums
        backward_tables: (dense kernels) the first S rows of each forward
            table read transposed, [a, u, v] = T[u, v] e_a[v]
        log_t_t, color_indicator: (dense kernels) log T transposed
            (C-ordered), and the (S, C) 0/1 map of states onto colors
        cross_into: (dense kernels) per color c2, the (S, S) CSR matrix
            of the `cross` entries into c2
        succ: (sparse kernels) (indptr, indices, data, log data) of T,
            each row listing its states by index
        pred: (sparse kernels, read by the Viterbi traceback alone)
            (indptr, indices, log data) of T transposed, each row listing
            its states by index
        reach: (sparse kernels) (floor, ceil): rows u and later reach
            no state below floor[u], rows up to u none from ceil[u] on
    """

    def __init__(self, hmm):
        t, n_states = hmm.transitions, hmm.n_states
        self.is_sparse = n_states > DENSE_STATE_LIMIT
        self.initial = hmm.initial
        self.emis_rows = np.ascontiguousarray(hmm.emissions.T)
        with np.errstate(divide="ignore"):
            self.log_emis_rows = np.log(self.emis_rows)
            self.log_initial = np.log(self.initial)
        self.colors = colors = hmm.state_colors
        self.n_colors = n_colors = hmm.n_colors
        # t's entries in row-major order, column indices ascending in a row
        ptr, c, v = t.indptr, t.indices, t.data
        if self.is_sparse:
            log_v = np.log(v)
            self.succ = (ptr, c, v, log_v)
            self.pred = (np.empty(n_states + 1, np.int64), np.empty(c.size, np.int64),
                         np.empty(c.size))
            _csr_tocsc(n_states, n_states, ptr, c, log_v, *self.pred)
            # each row is nonempty (T is row-stochastic) and ascending
            at = np.arange(n_states)
            low, high = np.minimum(c[ptr[:-1]], at), np.maximum(c[ptr[1:] - 1], at) + 1
            self.reach = (np.minimum.accumulate(low[::-1])[::-1], np.maximum.accumulate(high))
        r_colors, c_colors = np.repeat(colors, np.diff(ptr)), colors[c]
        same = r_colors == c_colors
        self.diag_colors = np.flatnonzero(np.bincount(r_colors[same], minlength=n_colors)).tolist()
        x = np.flatnonzero(~same)
        # each cross entry's row: the last row starting at or before it
        self.cross = src, dst, val, key = (np.searchsorted(ptr, x, "right") - 1, c[x], v[x],
                                           r_colors[x] * n_colors + c_colors[x])
        if not self.is_sparse:
            dense = t.toarray()
            with np.errstate(divide="ignore"):
                # row v lists log T[u, v] over the predecessors u
                self.log_t_t = np.ascontiguousarray(np.log(dense.T))
            # [a, v, u] = e_a[v] T[u, v], and row S its column sums
            fwd = self.forward_tables = np.empty((len(self.emis_rows), n_states + 1, n_states))
            np.multiply(self.emis_rows[:, :, None], dense.T, fwd[:, :n_states])
            fwd[:, n_states] = fwd[:, :n_states].sum(axis=1)
            # [a, u, v] = T[u, v] e_a[v], the same memory read transposed
            self.backward_tables = fwd[:, :n_states].transpose(0, 2, 1)
            self.color_indicator = hmm.color_indicator()
            # Block products over chunks of gaps beat the sparse kernels' sums
            # per gap here: 29 against 265 ms on a 20 kb, 48-state query.
            self.cross_into = [sparse.csr_array((val[e], (src[e], dst[e])), (n_states, n_states))
                               for e in (key % n_colors == c2 for c2 in range(n_colors))]

    # -- posteriors -----------------------------------------------------

    def posteriors(self, obs):
        """(scales, color_post, pair_post, dropped) of encoded symbols.

        log Pr(X) = sum(log scales); color_post and pair_post are as in
        `PosteriorSet`; dropped is the alphahat mass the sparse kernels'
        cut removed (0.0 on dense kernels). Raises ZeroLikelihoodError
        naming the first position no state path can explain.
        """
        if self.is_sparse:
            lat = self.ragged_forward(obs)
            scales, dropped = lat.scales, lat.dropped
            color_post, pair = self._ragged_backward(obs, lat)
        else:
            alphahat, scales = self.dense_forward(obs)
            color_post, pair = self._dense_posteriors(obs, alphahat, scales)
            dropped = 0.0
        pair /= scales[1:, None, None]
        if self.diag_colors:
            # the backward identity sum_c2 pair[k, c, c2] = color_post[k, c], clamped at 0
            off = pair.sum(axis=2)
            for c in self.diag_colors:
                pair[:, c, c] = np.maximum(color_post[:-1, c] - off[:, c], 0.0)
        return scales, color_post, pair, dropped

    def dense_forward(self, obs):
        """Dense scaled forward pass over encoded symbols.

        Returns (alphahat, scales): alphahat[t] is the filtered state
        distribution and scales[t] the per-position normalizer, with
        log Pr(X) = sum(log scales).
        """
        # Each step is one product into buf, the emission-weighted row and
        # its sum, then one division into its own output row: no step
        # allocates. Bound ndarray.dot methods skip the Python-level
        # dispatch that every np.dot call pays.
        dots = [table.dot for table in self.forward_tables]
        n_states, syms, div = self.initial.size, obs.tolist(), np.divide
        alphahat = np.empty((obs.size, n_states))
        scales = np.empty(obs.size)
        buf = np.empty(n_states + 1)
        head = buf[:n_states]
        np.multiply(self.initial, self.emis_rows[syms[0]], head)
        buf[n_states] = np.add.reduce(head)
        prev = None
        for t, (sym, row) in enumerate(zip(syms, alphahat)):
            if t:
                dots[sym](prev, buf)
            scale = buf[n_states]
            if scale <= 0.0:
                raise _impossible(t)
            scales[t] = scale
            div(head, scale, row)
            prev = row
        return alphahat, scales

    def ragged_forward(self, obs):
        """Sparse forward pass as `Ragged` window rows.

        Runs at CUT and, when the cut empties a step, once more at the
        smallest normal double.
        """
        try:
            return self._forward_windows(obs, CUT)
        except ZeroLikelihoodError:
            return self._forward_windows(obs, np.finfo(np.float64).tiny)

    def _forward_windows(self, obs, cut):
        """`Ragged` rows of the windows of alphahat above `cut`.

        Each step scatters the window's rows of T into one zero row of all
        S states: every state they reach lies in [base, top), and each
        entry adds its predecessors in index order, as a product over all S
        states does. The step scales that row in place and copies out only
        its window, which is kept as it is made.
        """
        (ptr, succ, data, _), (floor, ceil) = self.succ, self.reach
        emis, n_states = self.emis_rows, self.initial.size
        full = np.zeros(n_states)  # the step's row; 0 outside [base, top) between steps
        los, rows, scales, dropped = [], [], [], 0.0
        for t, sym in enumerate(obs.tolist()):
            if t:
                base, top = floor[lo], ceil[hi - 1]
                _csc_matvec(n_states, hi - lo, ptr[lo:hi + 1], succ, data, x, full)
                step = full[base:top]
                step *= emis[sym][base:top]
            else:
                base, top = 0, n_states
                np.multiply(self.initial, emis[sym], full)
            # the scale sums a row of all S states, as a product over all S would
            scale = np.add.reduce(full)
            if scale <= 0.0:
                raise _impossible(t)
            scales.append(scale)
            a = full[base:top]
            a /= scale
            keep = a > cut
            first, end = int(keep.argmax()), a.size - int(keep[::-1].argmax())
            dropped += np.add.reduce(a[:first]) + np.add.reduce(a[end:])
            lo, hi, x = base + first, base + end, a[first:end].copy()
            full[base:top] = 0.0
            los.append(lo)
            rows.append(x)
        return Ragged(np.array(los), rows, np.array(scales), float(dropped))

    def _ragged_backward(self, obs, lat):
        """(color_post, pair_post times scales[1:]) from betahat on `lat`'s windows.

        Step t holds y = emis[., obs[t + 1]] * betahat[t + 1] in an S-length
        row, 0 outside window t + 1. From it come betahat[t] and gap t's
        cross-color sums alphahat[t, src] * T[src, dst] * y[dst] by color
        pair, alphahat[t] read from window row t at src - lo[t]; only the
        current betahat row is kept. Diagonal pair entries are left 0.
        """
        ptr, succ, data, _ = self.succ
        src, dst, val, key = self.cross
        emis, colors, n_colors, rows = self.emis_rows, self.colors, self.n_colors, lat.rows
        n, n_states = obs.size, self.initial.size
        # cross entries from window t: first[t] .. last[t] - 1
        first = np.searchsorted(src, lat.lo).tolist()
        last = np.searchsorted(src, lat.lo + [r.size for r in rows]).tolist()
        color_post, pair = np.empty((n, n_colors)), np.empty((n - 1, n_colors * n_colors))
        y, scales = np.zeros(n_states), lat.scales.tolist()
        los, syms = lat.lo.tolist(), obs.tolist()
        beta = np.ones(rows[-1].size)
        for t in range(n - 1, -1, -1):
            alpha = rows[t]
            window = slice(los[t], los[t] + alpha.size)
            color_post[t] = np.bincount(colors[window], alpha * beta, minlength=n_colors)
            if not t:
                break
            y[window] = emis[syms[t]][window] * beta
            lo, prev = los[t - 1], rows[t - 1]
            beta = np.zeros(prev.size)
            _csr_matvec(prev.size, n_states, ptr[lo:lo + prev.size + 1], succ, data, y, beta)
            beta /= scales[t]
            e = slice(first[t - 1], last[t - 1])
            pair[t - 1] = np.bincount(key[e], val[e] * (prev[src[e] - lo] * y[dst[e]]),
                                      minlength=n_colors * n_colors)
            y[window] = 0.0
        return color_post, pair.reshape(n - 1, n_colors, n_colors)

    def _dense_posteriors(self, obs, alphahat, scales):
        """(color_post, pair_post times scales[1:]) from dense betahat.

        Backward runs over chunks of m gaps, newest first, m + 1 betahat
        rows of about CHUNK_BYTES in one reused buffer; only row k0 carries
        over, as the next chunk's last row. Each chunk's sums are taken as
        it is made: its alphahat and w = emis[., obs[t]] * betahat rows
        k0..k0+m go state-major into two (S, m + 1) buffers, and gap k
        pairs column k - k0 of alpha with column k - k0 + 1 of w, summed
        into each color c2 through `cross_into[c2]` and out of each color
        by the color indicator, as are the color posteriors
        alphahat * betahat. Diagonal pair entries are left 0.
        """
        dots, div = [table.dot for table in self.backward_tables], np.divide
        emis, ind, n, n_colors = self.emis_rows, self.color_indicator, obs.size, self.n_colors
        n_states, syms, scale_list = self.initial.size, obs.tolist(), scales.tolist()
        color_post = np.empty((n, n_colors))
        pair = np.zeros((max(n - 1, 0), n_colors, n_colors))
        m = max(1, min(n - 1, CHUNK_BYTES // (8 * n_states)))
        beta = np.empty((m + 1, n_states))
        a_buf, w_buf = np.zeros((n_states, m + 1)), np.zeros((n_states, m + 1))
        for k0 in reversed(range(0, max(n - 1, 1), m)):
            k1 = min(k0 + m, n - 1)
            mm, rows = k1 - k0, beta[:k1 - k0 + 1]
            # row 0 still holds the newer chunk's row k0, this chunk's k1
            rows[-1] = 1.0 if k1 == n - 1 else rows[0]
            # rows k1-1 .. k0, each from row t+1 with symbol and scale t+1
            for row, nxt, sym, scale in zip(rows[-2::-1], rows[:0:-1], syms[k1:k0:-1],
                                            scale_list[k1:k0:-1]):
                dots[sym](nxt, row)
                div(row, scale, row)
            alpha = alphahat[k0:k1 + 1]
            a_buf[:, :mm + 1] = alpha.T
            w_buf[:, :mm + 1] = (emis[obs[k0:k1 + 1]] * rows).T
            # row k1 went in as the newer chunk's row k0, unless it is the last
            top = mm + 1 if k1 == n - 1 else mm
            color_post[k0:k0 + top] = ((alpha * rows) @ ind)[:top]
            for c2, block in enumerate(self.cross_into):
                pair[k0:k1, :, c2] = (a_buf[:, :mm] * (block @ w_buf)[:, 1:mm + 1]).T @ ind
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
        add, argmax = np.add, buf.argmax
        row = self.log_initial + log_emis[syms[0]]
        for back_row, sym in zip(back[1:], syms[1:]):
            add(log_t_t, row, buf)
            argmax(1, best)
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
        best score, with one -inf on either side.

        Each step scatters the window's rows of log T, each added to its
        state's score, into one -inf row of all S states by maximum. A
        maximum is exact in any order, so each state gets the best score
        over its predecessors in the window.
        """
        (ptr, succ, _, log_data), (floor, ceil) = self.succ, self.reach
        ptr_list, degree = ptr.tolist(), np.diff(ptr)
        log_emis, pad = self.log_emis_rows, [-np.inf]
        full = np.full(self.initial.size, -np.inf)  # the step's best scores
        rows = []
        for t, sym in enumerate(obs.tolist()):
            if t:
                base, top = floor[lo], ceil[hi - 1]
                s, e = ptr_list[lo], ptr_list[hi]
                np.maximum.at(full, succ[s:e],
                              np.repeat(score[1:-1], degree[lo:hi]) + log_data[s:e])
                row = full[base:top] + log_emis[sym][base:top]
                full[base:top] = -np.inf
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
        """(path, log probability) from the windows of `_beam_scores`. Each
        predecessor is the first maximum over the predecessor row (index
        order), with every state outside the window at -inf; ties at the
        end go to the smallest index."""
        pptr, preds, plog = self.pred
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
