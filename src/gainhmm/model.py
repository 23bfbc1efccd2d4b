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


class InvalidModelError(ValueError):
    """A model description violates a structural invariant."""


class ZeroLikelihoodError(ValueError):
    """The observed sequence has probability zero under the model."""


def _row_divisors(sums, negative, what, names):
    """Divisors that repair the rows of one probability table.

    `sums` and `negative` give each row's sum and whether it holds a
    negative entry. Raises InvalidModelError naming the first row, in
    order, with a negative entry or a sum further than ROW_SUM_REPAIR
    from 1; within one row the negative entry is named. Rows within
    ROW_SUM_ACCEPT of 1 get divisor 1, which keeps them bit for bit.
    """
    dev = np.abs(sums - 1.0)
    bad = np.flatnonzero(negative | (dev > ROW_SUM_REPAIR))
    if bad.size:
        i = bad[0]
        if negative[i]:
            raise InvalidModelError(f"negative probability in {what} for {names[i]}")
        raise InvalidModelError(f"{what} row sum {sums[i]:g} for state {names[i]}")
    return np.where(dev > ROW_SUM_ACCEPT, sums, 1.0)


def _canonical_transitions(transitions, state_ids):
    """Validated float64 CSR copy of a transition matrix, rows repaired.

    `transitions` is an ndarray or a scipy sparse matrix. The copy has
    sorted indices, summed duplicates and no stored zeros.
    """
    n = len(state_ids)
    t = sparse.csr_array(transitions, dtype=np.float64, copy=True)
    if t.shape != (n, n):
        raise InvalidModelError(f"transition matrix of shape {t.shape} for {n} states")
    t.sum_duplicates()
    t.eliminate_zeros()
    row_of = np.repeat(np.arange(n), np.diff(t.indptr))
    negative = np.zeros(n, dtype=bool)
    negative[row_of[t.data < 0.0]] = True
    sums = np.bincount(row_of, weights=t.data, minlength=n)
    t.data /= _row_divisors(sums, negative, "transition", state_ids)[row_of]
    return t


class Hmm:
    """Validated labeled HMM.

    `transitions` may be given as an ndarray or as any scipy sparse
    matrix; it is stored in one form, CSR, whatever the model's size.

    Attributes:
        state_ids: state identifier strings, index order is canonical
        state_colors: int array, color id of each state
        color_names: name per color id
        alphabet: ordered emission symbols
        initial: (S,) initial distribution
        transitions: (S, S) row-stochastic float64 csr_array with sorted
            indices, no duplicates, no stored zeros and read-only data,
            indices and indptr;
            transitions_dense() gives it as an ndarray
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
        self.initial /= _row_divisors(
            self.initial.sum(keepdims=True), np.any(self.initial < 0.0, keepdims=True),
            "initial", ["<initial>"])
        self.emissions = np.asarray(emissions, dtype=np.float64).copy()
        self.emissions /= _row_divisors(
            self.emissions.sum(axis=1), np.any(self.emissions < 0.0, axis=1),
            "emission", self.state_ids)[:, None]

        self.transitions = _canonical_transitions(transitions, self.state_ids)

        # A symbol's other case decodes as the symbol itself unless that
        # case is a symbol of its own, so `ACGT` reads like `acgt`.
        self._symbol_index = {s: i for i, s in enumerate(self.alphabet)}
        for i, s in enumerate(self.alphabet):
            if isinstance(s, str):
                self._symbol_index.setdefault(s.swapcase(), i)
        t = self.transitions
        for arr in (self.initial, self.emissions, self.state_colors,
                    t.data, t.indices, t.indptr):
            arr.flags.writeable = False
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
        """The transition matrix as a new (S, S) ndarray."""
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
    t, colors = hmm.transitions, hmm.state_colors
    rows = np.repeat(np.arange(hmm.n_states), np.diff(t.indptr))
    pairs = np.zeros((hmm.n_colors, hmm.n_colors), dtype=bool)
    pairs[colors[rows], colors[t.indices]] = True
    start = np.zeros(hmm.n_colors, dtype=bool)
    start[colors[hmm.initial > 0.0]] = True
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


def hmm_to_dict(hmm):
    """Serializable dict form of a model; zero probabilities are omitted."""
    states = []
    for i, sid in enumerate(hmm.state_ids):
        emis = {sym: float(p) for sym, p in zip(hmm.alphabet, hmm.emissions[i]) if p != 0.0}
        states.append({"id": sid, "color": int(hmm.state_colors[i]), "emission": emis})
    initial = {sid: float(p) for sid, p in zip(hmm.state_ids, hmm.initial) if p != 0.0}
    ids, t = hmm.state_ids, hmm.transitions
    indptr, indices, data = t.indptr.tolist(), t.indices.tolist(), t.data.tolist()
    trans = {}
    for i, sid in enumerate(ids):
        lo, hi = indptr[i], indptr[i + 1]
        trans[sid] = {ids[j]: p for j, p in zip(indices[lo:hi], data[lo:hi])}
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
