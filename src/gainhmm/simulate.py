"""Ground-truth generation: model sampling and recombinant splicing.

Everything here is deterministic given its seed (numpy PCG64 via
default_rng); seeds are recorded in the emitted records so runs replay
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jumping import DNA, make_alignment
from .model import Annotation


@dataclass(frozen=True)
class TruthRecord:
    """A simulated query with its true coloring.

    breakpoints are the gap positions of the truth annotation (1-based,
    between positions k and k+1); provenance carries enough to replay the
    simulation.
    """

    seq: str
    truth: Annotation
    breakpoints: tuple
    provenance: dict = field(default_factory=dict)


def sample_path(hmm, length, seed):
    """Sample a state path and emitted symbols from the model.

    Returns (states, symbols): the state path and the emitted symbols as
    a string.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    trans = hmm.transitions

    states = np.empty(length, dtype=np.int64)
    u = rng.choice(hmm.n_states, p=hmm.initial)
    states[0] = u
    for t in range(1, length):
        # a choice over the stored entries draws what one over the full
        # row would: zeros add nothing to the cumulative sums it searches
        lo, hi = trans.indptr[u], trans.indptr[u + 1]
        u = trans.indices[lo + rng.choice(hi - lo, p=trans.data[lo:hi])]
        states[t] = u

    sym_idx = np.empty(length, dtype=np.int64)
    for t in range(length):
        sym_idx[t] = rng.choice(len(hmm.alphabet), p=hmm.emissions[states[t]])
    return states, "".join([hmm.alphabet[i] for i in sym_idx.tolist()])


def _mutate(seq, rate, rng, alphabet=DNA):
    """Flip each symbol to a uniformly chosen different one with prob rate."""
    chars = list(seq)
    hits = np.flatnonzero(rng.random(len(chars)) < rate)
    for i in hits:
        options = [s for s in alphabet if s != chars[i]]
        chars[i] = options[rng.integers(len(options))]
    return "".join(chars)


def _check_rate(mutation_rate):
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError(f"mutation_rate must be in [0, 1], not {mutation_rate}")


def simulate_recombinant(msa, segments, mutation_rate, seed):
    """Splice a recombinant query from subtype representatives.

    segments lists (subtype, (start_col, end_col)) spans, 1-based
    inclusive, tiling all alignment columns with different subtypes on
    adjacent spans. The representative (first) sequence of each subtype
    supplies its span; gap columns are stripped after splicing and the
    truth colors follow the surviving positions. Each surviving symbol
    then mutates independently with the given rate.
    """
    _check_rate(mutation_rate)
    name_index = {n: i for i, n in enumerate(msa.names)}
    expect, prev = 1, None
    for subtype, (start, end) in segments:
        if subtype not in name_index:
            raise ValueError(f"unknown subtype {subtype!r}")
        if start != expect or end < start:
            raise ValueError(f"segment spans do not tile the alignment at column {start}")
        if prev == subtype:
            raise ValueError("adjacent segments use the same subtype")
        expect, prev = end + 1, subtype
    if expect != msa.length + 1:
        raise ValueError(
            f"segment spans cover [1,{expect - 1}], alignment has {msa.length} columns")

    aligned = "".join(msa.groups[s][0][a - 1:b] for s, (a, b) in segments).lower()
    keep = np.frombuffer(aligned.encode("ascii"), np.uint8) != ord("-")
    if not keep.any():
        raise ValueError("spliced query is all gaps")
    base = aligned.replace("-", "")
    colors = np.repeat([name_index[s] for s, _ in segments],
                       [b - a + 1 for _, (a, b) in segments])[keep]

    rng = np.random.default_rng(seed)
    seq = _mutate(base, mutation_rate, rng)
    truth = Annotation(colors)
    return TruthRecord(
        seq=seq,
        truth=truth,
        breakpoints=tuple(k for k, _c, _c2 in truth.boundaries),
        provenance={
            "segments": [(s, (int(a), int(b))) for s, (a, b) in segments],
            "mutation_rate": float(mutation_rate),
            "seed": seed,
        },
    )


def synthetic_subtypes(n_subtypes, length, divergence, seed, names=None):
    """Ungapped subtype alignment with roughly the given pairwise divergence.

    Subtypes descend independently from one random ancestor; each site
    mutates on each branch with probability divergence / 2, which puts
    the expected pairwise difference close to `divergence` for small
    values.
    """
    if n_subtypes < 2:
        raise ValueError("need at least two subtypes")
    rng = np.random.default_rng(seed)
    ancestor = "".join(DNA[i] for i in rng.integers(len(DNA), size=length))
    if names is None:
        names = [chr(ord("A") + i) for i in range(n_subtypes)]
    groups = {name: [_mutate(ancestor, divergence / 2.0, rng)] for name in names}
    return make_alignment(groups)


def check_recombinant_args(count, breakpoint_range, min_segment, mutation_rate):
    """Raise ValueError naming the first argument random_recombinants refuses, msa aside."""
    lo, hi = breakpoint_range
    for name, value, low in (("count", count, 0), ("breakpoint_range[0]", lo, 1),
                             ("breakpoint_range[1]", hi, lo), ("min_segment", min_segment, 1)):
        if value < low:
            raise ValueError(f"{name} must be an integer >= {low}, not {value}")
    _check_rate(mutation_rate)


def random_recombinants(msa, count, seed, breakpoint_range=(1, 3),
                        min_segment=100, mutation_rate=0.05):
    """Simulated recombinant queries with random breakpoints and subtypes.

    Breakpoint columns keep every span at least min_segment columns wide;
    adjacent spans always switch subtype. Each record is seeded
    independently off the master seed.
    """
    check_recombinant_args(count, breakpoint_range, min_segment, mutation_rate)
    rng = np.random.default_rng(seed)
    lo, hi = breakpoint_range
    if (hi + 1) * min_segment > msa.length:
        raise ValueError(f"alignment has {msa.length} columns; {hi} breakpoints with "
                         f"spans of at least {min_segment} columns need {(hi + 1) * min_segment}")
    records = []
    for _ in range(count):
        n_breaks = int(rng.integers(lo, hi + 1))
        # shifted order statistics: slack spread over cuts keeps every
        # segment at least min_segment wide without rejection loops
        slack = msa.length - (n_breaks + 1) * min_segment
        offsets = np.sort(rng.integers(0, slack + 1, size=n_breaks))
        cuts = [int(offsets[i] + (i + 1) * min_segment) for i in range(n_breaks)]
        edges = [0] + cuts + [msa.length]
        subtypes = []
        for _span in range(len(edges) - 1):
            options = [n for n in msa.names if not subtypes or n != subtypes[-1]]
            subtypes.append(options[rng.integers(len(options))])
        segments = [(subtypes[i], (edges[i] + 1, edges[i + 1]))
                    for i in range(len(edges) - 1)]
        records.append(simulate_recombinant(
            msa, segments, mutation_rate, seed=int(rng.integers(2 ** 63))))
    return records
