"""Labeled hidden Markov models.

A model here is an ordinary discrete HMM whose states additionally carry a
color (a label class). Many states may share one color, and the object a
decoder returns is a coloring of the sequence positions, not a state path.
This module holds the model container, its validation and JSON
serialization, the position-coloring type, and the color-level feasibility
graph that decoders consult.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from collections.abc import Hashable
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np
from scipy import sparse

from ._files import create

# Row sums within ACCEPT of 1 are kept bit-for-bit; within REPAIR they are
# silently renormalized (decimal-text rounding); beyond REPAIR they are
# rejected as genuine mistakes.
ROW_SUM_ACCEPT = 1e-9
ROW_SUM_REPAIR = 1e-6

# Table entries per piece of model-file text that `save_model` joins at once.
WRITE_BLOCK = 1 << 14

# save_model writes next to each model file a sidecar, `<file>.arrays`: .npy
# records holding SIDECAR_FORMAT followed by the model file's SHA-256, the
# JSON text of [alphabet, color names, state ids], and then the state
# colors, initial, emissions and the CSR indptr, indices and data of the
# transitions. load_model reads a model from the sidecar that carries its
# file's hash; a new SIDECAR_FORMAT makes every older sidecar ignored.
SIDECAR_SUFFIX = ".arrays"
SIDECAR_FORMAT = b"gainhmm-arrays/2"

# Bytes of the model file that load_model hashes at a time.
HASH_BLOCK = 1 << 16


class InvalidModelError(ValueError):
    """A model description violates a structural invariant."""


class ZeroLikelihoodError(ValueError):
    """The observed sequence has probability zero under the model."""


def _row_divisors(sums, negative, what, names):
    """Divisors that repair the rows of one probability table.

    `sums` and `negative` give each row's sum and whether it holds a
    negative entry. Raises InvalidModelError naming the first row, in
    order, with a negative entry or a sum that is not finite or is further
    than ROW_SUM_REPAIR from 1; within one row the negative entry is
    named. Rows within ROW_SUM_ACCEPT of 1 get divisor 1, which keeps
    them bit for bit.
    """
    dev = np.abs(sums - 1.0)
    bad = np.flatnonzero(negative | ~np.isfinite(sums) | (dev > ROW_SUM_REPAIR))
    if bad.size:
        i = bad[0]
        if negative[i]:
            raise InvalidModelError(f"negative probability in {what} for {names[i]}")
        raise InvalidModelError(f"{what} row sum {sums[i]:g} for state {names[i]}")
    return np.where(dev > ROW_SUM_ACCEPT, sums, 1.0)


def _canonical_transitions(transitions, state_ids, copy=True):
    """Validated float64 CSR form of a transition matrix, rows repaired.

    `transitions` is an ndarray or a scipy sparse matrix. The result has
    int64 index arrays, sorted indices, summed duplicates and no stored
    zeros. With copy=False it may share and rewrite the arrays of a CSR
    `transitions`, which the caller must own.
    """
    n = len(state_ids)
    t = sparse.csr_array(transitions, dtype=np.float64, copy=copy)
    if t.shape != (n, n):
        raise InvalidModelError(f"transition matrix of shape {t.shape} for {n} states")
    try:  # the row sums below index by t.indices; scipy checks no index unless asked
        t.check_format(full_check=True)
    except ValueError as e:
        raise InvalidModelError(f"transition matrix: {e}") from None
    t.indptr = t.indptr.astype(np.int64, copy=False)
    t.indices = t.indices.astype(np.int64, copy=False)
    t.sum_duplicates()
    t.eliminate_zeros()
    negative = np.zeros(n, dtype=bool)
    negative[np.searchsorted(t.indptr, np.flatnonzero(t.data < 0.0), "right") - 1] = True
    # each row summed in index order, as CSR times a vector of ones does
    divisors = _row_divisors(t @ np.ones(n), negative, "transition", state_ids)
    if np.any(divisors != 1.0):
        t.data /= np.repeat(divisors, np.diff(t.indptr))
    return t


class Hmm:
    """Validated labeled HMM.

    `transitions` may be given as an ndarray or as any scipy sparse
    matrix; it is stored in one form, CSR, whatever the model's size.

    Attributes:
        state_ids: state identifier strings, index order is canonical
        state_colors: int array, color id of each state
        color_names: name string per color id
        alphabet: ordered emission symbols, one character each
        initial: (S,) initial distribution
        transitions: (S, S) row-stochastic float64 csr_array with int64
            index arrays, sorted indices, no duplicates, no stored zeros
            and read-only data, indices and indptr;
            transitions_dense() gives it as an ndarray
        emissions: (S, A) row-stochastic emission matrix

    Instances are immutable after construction and safe to share across
    concurrent decoding calls. The first decode builds the tables the
    decoders derive from the model, once, and caches them on the instance.
    """

    def __init__(self, state_ids, state_colors, color_names, alphabet,
                 initial, transitions, emissions, *, _owned=False):
        if len(alphabet) == 0:
            raise InvalidModelError("empty alphabet")
        if len(state_ids) == 0:
            raise InvalidModelError("model has no states")
        # Names are strings, as JSON object keys are, and a symbol is one
        # character of a sequence's text.
        for what, values in (("state id", state_ids), ("alphabet symbol", alphabet),
                             ("color name", color_names)):
            for i, value in enumerate(values, 1):
                if not isinstance(value, str):
                    raise InvalidModelError(f"{what} {i} is {value!r}, not a string")
        for i, symbol in enumerate(alphabet, 1):
            if len(symbol) != 1:
                raise InvalidModelError(f"alphabet symbol {i} is {symbol!r}, not one character")
        for what, values in (("alphabet symbol", alphabet), ("state id", state_ids)):
            if len(set(values)) != len(values):
                first = {}
                for i, value in enumerate(values, 1):
                    if first.setdefault(value, i) != i:
                        raise InvalidModelError(f"duplicate {what} {value!r} "
                                                f"at positions {first[value]} and {i}")

        self.state_ids = list(state_ids)
        self.color_names = list(color_names)
        self.alphabet = list(alphabet)
        self.state_colors = np.asarray(state_colors, dtype=np.int64)
        self.initial = np.asarray(initial, dtype=np.float64).copy()
        self.emissions = np.asarray(emissions, dtype=np.float64).copy()
        n, n_symbols = len(self.state_ids), len(self.alphabet)
        for what, arr, shape in (("state colors", self.state_colors, (n,)),
                                 ("initial", self.initial, (n,)),
                                 ("emission table", self.emissions, (n, n_symbols))):
            if arr.shape != shape:
                raise InvalidModelError(
                    f"{what} of shape {arr.shape} for {n} states and {n_symbols} symbols")

        bad = np.flatnonzero((self.state_colors < 0)
                             | (self.state_colors >= len(self.color_names)))
        if bad.size:
            i = bad[0]
            raise InvalidModelError(
                f"unknown color {self.state_colors[i]} for state {self.state_ids[i]}")

        self.initial /= _row_divisors(
            self.initial.sum(keepdims=True), np.any(self.initial < 0.0, keepdims=True),
            "initial", ["<initial>"])
        self.emissions /= _row_divisors(
            self.emissions.sum(axis=1), np.any(self.emissions < 0.0, axis=1),
            "emission", self.state_ids)[:, None]

        # A sidecar reader's arrays (_owned) are kept; a caller's are copied.
        self.transitions = _canonical_transitions(transitions, self.state_ids, copy=not _owned)

        # A symbol's other case decodes as the symbol itself unless that
        # case is a symbol of its own, so `ACGT` reads like `acgt`.
        self._symbol_index = {s: i for i, s in enumerate(self.alphabet)}
        for i, s in enumerate(self.alphabet):
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


def _probability(p, what):
    """float(p), or InvalidModelError naming `what` when p is not a number."""
    try:
        return float(p)
    except (TypeError, ValueError, OverflowError):
        shown = "null" if p is None else repr(p)
        raise InvalidModelError(f"{what} is {shown}, not a number") from None


def _items(table, what):
    """table.items(), or InvalidModelError when `table` is not an object."""
    try:
        return table.items()
    except AttributeError:
        raise InvalidModelError(f"{what} is not a JSON object") from None


def _rows(rows, lookup):
    """(entries per row, key indices, probabilities) of {key: probability} objects.

    Reads the list `rows` in bulk, with no Python step per entry, each key
    through dict `lookup`. np.fromiter converts as float() does, except
    that it reads null as NaN. Raises KeyError, TypeError, ValueError or
    OverflowError where a row is not an object, a key is not in `lookup`
    or a probability is not a number.
    """
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    total = int(counts.sum())
    keys = np.fromiter(map(lookup.__getitem__, chain.from_iterable(rows)), np.int64, total)
    probs = np.fromiter(chain.from_iterable(map(dict.values, rows)), np.float64, total)
    return counts, keys, probs


def _bad_states(states):
    """The InvalidModelError for states whose ids cannot be read."""
    if isinstance(states, (list, tuple)):
        for i, s in enumerate(states, 1):
            if not isinstance(s, dict):
                return InvalidModelError(f"state {i} is not a JSON object")
            if "id" not in s:
                return InvalidModelError(f"state {i} has no 'id'")
    return InvalidModelError("states is not a JSON array")


def _positions(keys, what):
    """{key: position in keys}, the last position for a repeated key."""
    try:
        return dict(zip(keys, range(len(keys))))
    except TypeError:
        bad = next(i for i, key in enumerate(keys) if not isinstance(key, Hashable))
        raise InvalidModelError(f"{what} {bad + 1} is {keys[bad]!r}, not a string") from None


def _check_tables(states, initial, transitions, n_colors, index, sym_index):
    """Raise InvalidModelError for the first entry the bulk reads cannot take.

    Walks each state's color and then its emissions, then the initial and
    the transition probabilities, in file order, and builds nothing. A
    NaN is a number here: Hmm rejects its row by the row sum.
    """
    for s in states:
        sid = s["id"]
        try:
            c = s["color"]
        except KeyError:
            raise InvalidModelError(f"state {sid} has no 'color'") from None
        if not (isinstance(c, int) and 0 <= c < n_colors):
            raise InvalidModelError(f"unknown color reference {c!r} for state {sid}")
        for sym, p in _items(s.get("emission", {}), f"emission of state {sid}"):
            if sym not in sym_index:
                raise InvalidModelError(f"emission symbol {sym!r} of state {sid} not in alphabet")
            _probability(p, f"emission {sym!r} of state {sid}")
    for sid, p in _items(initial, "initial"):
        if sid not in index:
            raise InvalidModelError(f"unknown state {sid!r} in initial")
        _probability(p, f"initial probability of state {sid!r}")
    for sid, row in _items(transitions, "transitions"):
        if sid not in index:
            raise InvalidModelError(f"unknown state {sid!r} in transitions")
        for tid, p in _items(row, f"transition row of state {sid!r}"):
            if tid not in index:
                raise InvalidModelError(f"unknown state {tid!r} in transitions")
            _probability(p, f"transition {sid!r} -> {tid!r}")


def build_hmm(spec):
    """Construct a validated Hmm from a parsed model description.

    `spec` is the dict form of the model file: keys alphabet, colors,
    states (list of {id, color, emission}), initial (state -> prob) and
    transitions (state -> {state: prob}). Omitted probabilities are zero.
    A probability is anything float() takes, numeric strings included.

    The state colors and the three tables are read in bulk, with no Python
    step per entry. Where a read fails or finds a NaN, one ordered check
    walks the states (color, then emissions), the initial and the
    transitions in file order and raises InvalidModelError for the first
    offender. It finds none only where the NaN is in the file as a number;
    the tables already read then go to Hmm, whose row-sum check rejects it.
    """
    try:
        alphabet = spec["alphabet"]
        colors = spec["colors"]
        states = spec["states"]
        initial = spec["initial"]
        transitions = spec["transitions"]
    except KeyError as e:
        raise InvalidModelError(f"model file missing key {e.args[0]!r}") from None
    except TypeError:
        raise InvalidModelError("model description is not a JSON object") from None
    try:
        alphabet = list(alphabet)
    except TypeError:
        raise InvalidModelError("alphabet is not a JSON array") from None
    if not alphabet:
        raise InvalidModelError("empty alphabet")

    try:
        color_ids = [c["id"] for c in colors]
        if color_ids != list(range(len(color_ids))):
            raise InvalidModelError("color ids must be 0..C-1 in order")
        color_names = [str(c["name"]) for c in colors]
    except (KeyError, TypeError):
        raise InvalidModelError("colors is not a JSON array of {id, name} objects") from None

    try:
        state_ids = list(map(itemgetter("id"), states))
    except (KeyError, TypeError):
        raise _bad_states(states) from None
    index = _positions(state_ids, "id of state")
    n = len(state_ids)
    if n == 0:
        raise InvalidModelError("model has no states")
    sym_index = _positions(alphabet, "alphabet symbol")

    n_colors = len(color_names)
    try:
        refs = list(map(itemgetter("color"), states))
        state_colors = np.fromiter(refs, np.int64, n)
        emission = _rows([s.get("emission", {}) for s in states], sym_index)
        start = _rows([initial], index)
        sources = np.fromiter(map(index.__getitem__, transitions), np.int64, len(transitions))
        moves = _rows(list(transitions.values()), index)
        read = (all(map(isinstance, refs, repeat(int)))
                and not np.any((state_colors < 0) | (state_colors >= n_colors))
                and not any(np.isnan(probs).any() for _, _, probs in (emission, start, moves)))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        read = False
    if not read:
        # Every failed read has an offender, so this returns only on a NaN.
        _check_tables(states, initial, transitions, n_colors, index, sym_index)

    counts, cols, probs = emission
    emissions = np.zeros((n, len(alphabet)))
    emissions[np.repeat(np.arange(n), counts), cols] = probs
    _, at, probs = start
    init = np.zeros(n)
    init[at] = probs
    counts, cols, probs = moves
    trans = sparse.coo_array((probs, (np.repeat(sources, counts), cols)), shape=(n, n))

    return Hmm(state_ids, state_colors, color_names, alphabet, init, trans, emissions)


def hmm_to_dict(hmm):
    """Dict form of the file save_model writes; zero probabilities omitted."""
    return json.loads("".join(_model_json(hmm)))


def _rows_json(heads, indptr, keys, key_of, values, sep, tail):
    """Pieces of the text of a table of `key: value` rows, none of them empty.

    Row r is heads[r], then its items `keys[key_of[e]] + repr(values[e])`,
    e = indptr[r] .. indptr[r + 1] - 1, joined by `sep`, then `tail`.
    Each distinct value is formatted once; the text is joined WRITE_BLOCK
    items at a time, so no temporary is the size of the table.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    texts = np.array([repr(v) for v in distinct.tolist()], dtype=object)
    starts = indptr[:-1]
    heads = heads.copy()
    heads[1:] = tail + heads[1:]
    pieces = []
    for lo in range(0, values.size, WRITE_BLOCK):
        hi = min(lo + WRITE_BLOCK, values.size)
        block = np.empty((hi - lo, 3), dtype=object)
        block[:, 0] = sep
        r0, r1 = np.searchsorted(starts, (lo, hi))
        block[starts[r0:r1] - lo, 0] = heads[r0:r1]
        block[:, 1] = keys[key_of[lo:hi]]
        block[:, 2] = texts[inverse[lo:hi]]
        pieces.append("".join(block.ravel().tolist()))
    pieces.append(tail)
    return pieces


def _model_json(hmm):
    """The model file text, as json.dumps(..., indent=1) + "\n" writes it, in pieces.

    json.dumps with an indent never takes the C encoder, and the pure-Python
    one spent most of save_model's time. Here every string is encoded and
    every distinct probability formatted (float repr, as json writes it)
    once, and the text is joined from arrays of them, with no Python step
    per probability.
    """
    ids, symbols = ([*map(encode_basestring_ascii, v)] for v in (hmm.state_ids, hmm.alphabet))
    n, n_symbols = hmm.n_states, len(hmm.alphabet)
    id_keys = np.array([sid + ": " for sid in ids], dtype=object)
    sym_keys = np.array([sym + ": " for sym in symbols], dtype=object)
    header = json.dumps({"alphabet": hmm.alphabet, "colors": [
        {"id": i, "name": name} for i, name in enumerate(hmm.color_names)]}, indent=1)
    pieces = [header.removesuffix("\n}") + ',\n "states": [']
    # Every row of a model's tables sums to 1, so none is empty.
    row_seps = ["\n  "] + [",\n  "] * (n - 1)
    heads = np.array([f'{sep}{{\n   "id": {sid},\n   "color": {c},'
                      '\n   "emission": {\n    '
                      for sep, sid, c in zip(row_seps, ids, hmm.state_colors.tolist())],
                     dtype=object)
    emis = hmm.emissions.ravel()
    at = np.flatnonzero(emis)
    indptr = np.searchsorted(at, np.arange(n + 1) * n_symbols)
    pieces += _rows_json(heads, indptr, sym_keys, at % n_symbols, emis[at],
                         ",\n    ", "\n   }\n  }")
    at = np.flatnonzero(hmm.initial)
    pieces.append('\n ],\n "initial": ')
    pieces += _rows_json(np.array(["{\n  "], dtype=object), np.array([0, at.size]), id_keys, at,
                         hmm.initial[at], ",\n  ", "\n }")
    pieces.append(',\n "transitions": {')
    t = hmm.transitions
    heads = np.array(row_seps, dtype=object) + id_keys + "{\n   "
    pieces += _rows_json(heads, t.indptr, id_keys, t.indices, t.data, ",\n   ", "\n  }")
    pieces.append("\n }\n}\n")
    return pieces


def sidecar_path(path):
    """The path of model file `path`'s sidecar."""
    return os.fspath(path) + SIDECAR_SUFFIX


def save_model(hmm, path):
    """Write the model file (JSON, probabilities as decimal text) and its sidecar."""
    digest = hashlib.sha256()
    with create(path, "wb") as fh:
        for piece in _model_json(hmm):
            data = piece.encode()
            digest.update(data)
            fh.write(data)
    header = np.frombuffer(SIDECAR_FORMAT + digest.digest(), np.uint8)
    names = np.frombuffer(
        json.dumps([hmm.alphabet, hmm.color_names, hmm.state_ids]).encode(), np.uint8)
    t = hmm.transitions
    with create(sidecar_path(path), "wb") as fh:
        for arr in (header, names, hmm.state_colors, hmm.initial, hmm.emissions,
                    t.indptr, t.indices, t.data):
            np.lib.format.write_array(fh, arr, allow_pickle=False)


def _read_sidecar(path, digest):
    """The model in the sidecar of model file `path`, or None.

    None where the sidecar is missing, unreadable or truncated, has another
    SIDECAR_FORMAT or another file's hash than `digest`, or holds what Hmm
    rejects. The model is built as build_hmm builds it, so the two are
    equal field for field, array dtypes included.
    """
    read = partial(np.lib.format.read_array, allow_pickle=False)
    try:
        with open(sidecar_path(path), "rb") as fh:
            if read(fh).tobytes() != SIDECAR_FORMAT + digest:
                return None
            alphabet, color_names, state_ids = json.loads(read(fh).tobytes())
            colors, initial, emissions, indptr, indices, data = (read(fh) for _ in range(6))
        n = len(state_ids)
        trans = sparse.csr_array((data, indices, indptr), shape=(n, n))
        return Hmm(state_ids, colors, color_names, alphabet, initial, trans, emissions,
                   _owned=True)
    except (OSError, ValueError, TypeError):
        return None


def load_model(path):
    """Read and validate a model file written by save_model.

    The model comes from the file's sidecar where that carries the file's
    SHA-256, and from the JSON otherwise. Errors name the file.
    """
    digest, block = hashlib.sha256(), bytearray(HASH_BLOCK)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            digest.update(memoryview(block)[:size])
    hmm = _read_sidecar(path, digest.digest())
    if hmm is not None:
        return hmm
    try:
        with open(path, encoding="utf-8") as fh:
            return build_hmm(json.load(fh))
    except json.JSONDecodeError as e:
        raise InvalidModelError(f"{path}:{e.lineno}: {e.msg}") from None
    except (UnicodeDecodeError, InvalidModelError) as e:
        raise InvalidModelError(f"{path}: {e}") from None
