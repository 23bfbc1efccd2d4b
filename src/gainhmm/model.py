"""Labeled hidden Markov models.

A model here is an ordinary discrete HMM whose states additionally carry a
color (a label class). Many states may share one color, and the object a
decoder returns is a coloring of the sequence positions, not a state path.
This module holds the model container, its validation and JSON
serialization, the position-coloring type, and the color-level feasibility
graph that decoders consult.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

# Row sums within ACCEPT of 1 are kept bit-for-bit; within REPAIR they are
# silently renormalized (decimal-text rounding); beyond REPAIR they are
# rejected as genuine mistakes.
ROW_SUM_ACCEPT = 1e-9
ROW_SUM_REPAIR = 1e-6

# State count above which assembled models keep a sparse transition matrix.
DENSE_STATE_LIMIT = 256


class InvalidModelError(ValueError):
    """A model description violates a structural invariant."""


class ZeroLikelihoodError(ValueError):
    """The observed sequence has probability zero under the model."""


def _fix_row(row, what, name):
    """Validate one probability row in place; return the repaired row.

    `row` is a dense 1-D float array. Raises InvalidModelError on negative
    entries or a row sum further than ROW_SUM_REPAIR from 1.
    """
    if np.any(row < 0.0):
        raise InvalidModelError(f"negative probability in {what} for {name}")
    s = float(row.sum())
    dev = abs(s - 1.0)
    if dev > ROW_SUM_REPAIR:
        raise InvalidModelError(f"{what} row sum {s:g} for state {name}")
    if dev > ROW_SUM_ACCEPT:
        row /= s
    return row


class Hmm:
    """Validated labeled HMM with dense or sparse transitions.

    Attributes:
        state_ids: state identifier strings, index order is canonical
        state_colors: int array, color id of each state
        color_names: name per color id
        alphabet: ordered emission symbols
        initial: (S,) initial distribution
        transitions: (S, S) row-stochastic matrix, ndarray or csr_array
        emissions: (S, A) row-stochastic emission matrix

    Instances are immutable after construction and safe to share across
    concurrent decoding calls. The first decode builds the tables the
    decoders derive from the model, once, and caches them on the instance.
    """

    def __init__(self, state_ids, state_colors, color_names, alphabet,
                 initial, transitions, emissions):
        if len(alphabet) == 0:
            raise InvalidModelError("empty alphabet")
        if len(state_ids) == 0:
            raise InvalidModelError("model has no states")
        if len(set(alphabet)) != len(alphabet):
            raise InvalidModelError("duplicate symbol in alphabet")
        if len(set(state_ids)) != len(state_ids):
            raise InvalidModelError("duplicate state id")

        self.state_ids = list(state_ids)
        self.color_names = list(color_names)
        self.alphabet = list(alphabet)
        self.state_colors = np.asarray(state_colors, dtype=np.int64)

        n_colors = len(self.color_names)
        for sid, c in zip(self.state_ids, self.state_colors):
            if not 0 <= c < n_colors:
                raise InvalidModelError(f"unknown color {c} for state {sid}")

        self.initial = np.asarray(initial, dtype=np.float64).copy()
        self.emissions = np.asarray(emissions, dtype=np.float64).copy()
        _fix_row(self.initial, "initial", "<initial>")
        for i, sid in enumerate(self.state_ids):
            _fix_row(self.emissions[i], "emission", sid)

        if sparse.issparse(transitions):
            self.transitions = sparse.csr_array(transitions, dtype=np.float64)
            self.transitions.sort_indices()
            sums = np.asarray(self.transitions.sum(axis=1)).ravel()
            mn = self.transitions.data.min() if self.transitions.nnz else 0.0
            if mn < 0.0:
                bad = np.where((self.transitions < 0).sum(axis=1) > 0)[0][0]
                raise InvalidModelError(
                    f"negative probability in transition for {self.state_ids[bad]}")
            for i, s in enumerate(sums):
                dev = abs(s - 1.0)
                if dev > ROW_SUM_REPAIR:
                    raise InvalidModelError(
                        f"transition row sum {s:g} for state {self.state_ids[i]}")
                if dev > ROW_SUM_ACCEPT:
                    lo, hi = self.transitions.indptr[i], self.transitions.indptr[i + 1]
                    self.transitions.data[lo:hi] /= s
        else:
            self.transitions = np.asarray(transitions, dtype=np.float64).copy()
            for i, sid in enumerate(self.state_ids):
                _fix_row(self.transitions[i], "transition", sid)

        # A symbol's other case decodes as the symbol itself unless that
        # case is a symbol of its own, so `ACGT` reads like `acgt`.
        self._symbol_index = {s: i for i, s in enumerate(self.alphabet)}
        for i, s in enumerate(self.alphabet):
            if isinstance(s, str):
                self._symbol_index.setdefault(s.swapcase(), i)
        for arr in (self.initial, self.emissions, self.state_colors):
            arr.flags.writeable = False
        if isinstance(self.transitions, np.ndarray):
            self.transitions.flags.writeable = False
        # Decoding tables derived from the above, built on the first decode
        # (`_transition.operator_of`); read-only once built.
        self._operator = None

    @property
    def n_states(self):
        return len(self.state_ids)

    @property
    def n_colors(self):
        return len(self.color_names)

    def states_of_color(self, color):
        """Indices of the states carrying the given color id."""
        return np.flatnonzero(self.state_colors == color)

    def color_indicator(self):
        """(S, C) 0/1 matrix mapping states onto their colors."""
        m = np.zeros((self.n_states, self.n_colors))
        m[np.arange(self.n_states), self.state_colors] = 1.0
        return m

    def encode(self, seq):
        """Map a symbol sequence (string or iterable) to symbol indices.

        A symbol's other case is accepted where it is not itself a symbol.
        """
        idx = self._symbol_index
        symbols = list(seq)
        try:
            out = np.fromiter((idx[s] for s in symbols), dtype=np.int64,
                              count=len(symbols))
        except KeyError as e:
            bad = e.args[0]
            raise ValueError(f"symbol {bad!r} at position {symbols.index(bad) + 1} "
                             "not in model alphabet") from None
        if out.size == 0:
            raise ValueError("empty sequence")
        return out

    def transitions_dense(self):
        if isinstance(self.transitions, np.ndarray):
            return self.transitions
        return self.transitions.toarray()


@dataclass(frozen=True)
class ColorGraph:
    """Color-level feasibility derived from positive model entries.

    pairs[c, c2] is True iff some state of color c has a positive
    transition to some state of color c2 (the diagonal covers same-color
    continuation). start[c] is True iff some state of color c has positive
    initial probability. This is a necessary condition for an annotation
    to have positive probability, not a sufficient one.
    """

    start: np.ndarray
    pairs: np.ndarray

    @property
    def n_colors(self):
        return len(self.start)

    def allows_start(self, c):
        return bool(self.start[c])

    def allows_pair(self, c, c2):
        return bool(self.pairs[c, c2])

    def allows(self, annotation):
        """True if the coloring only uses allowed starts and adjacencies."""
        cols = annotation.colors
        if not self.start[cols[0]]:
            return False
        return bool(np.all(self.pairs[cols[:-1], cols[1:]]))


def color_graph(hmm):
    """Build the ColorGraph of a validated model."""
    ind = hmm.color_indicator()
    pos = (hmm.transitions > 0).astype(np.float64)
    reach = np.asarray(pos @ ind)  # (S, C): positive edges leaving each state per color
    pairs = (ind.T @ reach) > 0
    start = (ind.T @ (hmm.initial > 0)) > 0
    return ColorGraph(start=start, pairs=pairs)


class Annotation:
    """A color per sequence position, with derived maximal segments.

    Positions are 1-based in the segment and boundary views. A boundary
    lives in the gap k between positions k and k+1 and is identified by
    its ordered color pair.
    """

    def __init__(self, colors):
        self.colors = np.asarray(colors, dtype=np.int64).copy()
        if self.colors.ndim != 1 or self.colors.size == 0:
            raise ValueError("annotation needs at least one position")
        if np.any(self.colors < 0):
            raise ValueError("negative color id")
        self.colors.flags.writeable = False

    @classmethod
    def from_segments(cls, segments, length=None):
        """Build from (start, end, color) triples, 1-based inclusive.

        The triples must tile [1, length] in order; same-color neighbours
        are legal and simply merge.
        """
        if not segments:
            raise ValueError("no segments")
        expect = 1
        parts = []
        for start, end, color in segments:
            if start != expect or end < start:
                raise ValueError(f"segments do not tile the sequence at {start}")
            parts.append(np.full(end - start + 1, color, dtype=np.int64))
            expect = end + 1
        if length is not None and expect != length + 1:
            raise ValueError(f"segments cover [1,{expect - 1}], expected [1,{length}]")
        return cls(np.concatenate(parts))

    def __len__(self):
        return int(self.colors.size)

    def __eq__(self, other):
        return isinstance(other, Annotation) and np.array_equal(self.colors, other.colors)

    def __hash__(self):
        return hash(self.colors.tobytes())

    def __repr__(self):
        return f"Annotation({self.colors.tolist()})"

    @property
    def segments(self):
        """Maximal same-color runs as (start, end, color), 1-based inclusive."""
        cols = self.colors
        cuts = np.flatnonzero(cols[1:] != cols[:-1])
        starts = np.concatenate(([0], cuts + 1))
        ends = np.concatenate((cuts, [cols.size - 1]))
        return [(int(s + 1), int(e + 1), int(cols[s])) for s, e in zip(starts, ends)]

    @property
    def boundaries(self):
        """Boundaries as (gap k, color before, color after), k 1-based."""
        cols = self.colors
        ks = np.flatnonzero(cols[1:] != cols[:-1])
        return [(int(k + 1), int(cols[k]), int(cols[k + 1])) for k in ks]


def build_hmm(spec):
    """Construct a validated Hmm from a parsed model description.

    `spec` is the dict form of the model file: keys alphabet, colors,
    states (list of {id, color, emission}), initial (state -> prob) and
    transitions (state -> {state: prob}). Omitted probabilities are zero.
    """
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

    if n > DENSE_STATE_LIMIT:
        rows, cols_, vals = [], [], []
        for sid, row in transitions.items():
            if sid not in index:
                raise InvalidModelError(f"unknown state {sid!r} in transitions")
            for tid, p in row.items():
                if tid not in index:
                    raise InvalidModelError(f"unknown state {tid!r} in transitions")
                rows.append(index[sid])
                cols_.append(index[tid])
                vals.append(float(p))
        trans = sparse.csr_array(
            sparse.coo_array((vals, (rows, cols_)), shape=(n, n)))
    else:
        trans = np.zeros((n, n))
        for sid, row in transitions.items():
            if sid not in index:
                raise InvalidModelError(f"unknown state {sid!r} in transitions")
            for tid, p in row.items():
                if tid not in index:
                    raise InvalidModelError(f"unknown state {tid!r} in transitions")
                trans[index[sid], index[tid]] = float(p)

    return Hmm(state_ids, state_colors, color_names, alphabet, init, trans, emissions)


def hmm_to_dict(hmm):
    """Serializable dict form of a model; zero probabilities are omitted."""
    states = []
    for i, sid in enumerate(hmm.state_ids):
        emis = {sym: float(p) for sym, p in zip(hmm.alphabet, hmm.emissions[i]) if p != 0.0}
        states.append({"id": sid, "color": int(hmm.state_colors[i]), "emission": emis})
    initial = {sid: float(p) for sid, p in zip(hmm.state_ids, hmm.initial) if p != 0.0}
    trans = {}
    t = hmm.transitions
    if sparse.issparse(t):
        indptr, indices, data = t.indptr, t.indices, t.data
        for i, sid in enumerate(hmm.state_ids):
            row = {hmm.state_ids[j]: float(v)
                   for j, v in zip(indices[indptr[i]:indptr[i + 1]],
                                   data[indptr[i]:indptr[i + 1]]) if v != 0.0}
            trans[sid] = row
    else:
        for i, sid in enumerate(hmm.state_ids):
            trans[sid] = {hmm.state_ids[j]: float(v)
                          for j, v in enumerate(t[i]) if v != 0.0}
    return {
        "alphabet": list(hmm.alphabet),
        "colors": [{"id": i, "name": n} for i, n in enumerate(hmm.color_names)],
        "states": states,
        "initial": initial,
        "transitions": trans,
    }


def save_model(hmm, path):
    """Write the model file (JSON, probabilities as decimal text)."""
    with open(path, "w") as fh:
        json.dump(hmm_to_dict(hmm), fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Read and validate a model file written by save_model."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidModelError(f"{path}:{e.lineno}: {e.msg}") from None
    return build_hmm(spec)
