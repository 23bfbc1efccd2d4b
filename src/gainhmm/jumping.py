"""Jumping profile HMMs for recombination detection.

One profile HMM is built per subtype from a shared multiple alignment;
the profiles are then connected by jump transitions between match states
of adjacent columns, with total jump mass P_j split uniformly over the
other profiles. Every state of a profile carries that profile's color, so
a decoded coloring reads directly as a subtype segmentation and a color
change as a candidate recombination breakpoint.

The assembled model holds emitting states only, column-major: slot j of
profile p (slots I0, M1, I1, ..., ML, IL) is state j * P + p, so every
transition is index arithmetic on that layout and every one but a
self-loop points to a later state. Delete states are
silent and never built: a delete chain only advances, D_c -> D_{c+1} with
probability delete_self and D_c -> M_{c+1} otherwise, so the mass it hands
to each later match state and to the terminal insert is a geometric
sequence. Terms of these sequences at or below SILENT_CLOSURE_EPS (and all
terms after them) are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .model import Hmm

DNA = ("a", "c", "g", "t")

# Delete-chain reach terms not above this are dropped; the lost row mass
# stays far below the model validator's 1e-9 acceptance band.
SILENT_CLOSURE_EPS = 1e-13


def check_sequence(seq, length, subtype, number, label=None):
    """Raise ValueError unless `seq` is `length` columns of DNA letters and gaps.

    Letters may be of either case. The message names sequence `number`
    (1-based) of `subtype`, and the column of a bad character; `label`,
    where given, leads it, followed by ": ".
    """
    where = f"{label}: " if label else ""
    if len(seq) != length:
        raise ValueError(f"{where}sequence {number} in subtype {subtype!r} has length "
                         f"{len(seq)}, alignment has {length} columns")
    if not set(seq.lower()) <= {*DNA, "-"}:
        col = next(j for j, ch in enumerate(seq) if ch != "-" and ch.lower() not in DNA)
        raise ValueError(f"{where}illegal character {seq[col]!r} in subtype {subtype!r} "
                         f"sequence {number} at column {col + 1}")


@dataclass(frozen=True)
class SubtypeAlignment:
    """Aligned sequences grouped by subtype, all of one column count.

    names fixes the subtype order; it is also the color order of any
    model assembled from this alignment.
    """

    names: tuple
    groups: dict
    length: int

    def __post_init__(self):
        if len(self.names) < 2:
            raise ValueError("need at least two subtypes")
        for name in self.names:
            seqs = self.groups.get(name, [])
            if not seqs:
                raise ValueError(f"subtype {name!r} has no sequences")
            for i, s in enumerate(seqs, 1):
                check_sequence(s, self.length, name, i)


def make_alignment(groups):
    """SubtypeAlignment from a name -> sequences mapping, insertion order."""
    names = tuple(groups)
    if not names:
        raise ValueError("empty alignment")
    length = len(next(iter(groups.values()))[0]) if next(iter(groups.values())) else 0
    return SubtypeAlignment(names=names, groups=dict(groups), length=length)


@dataclass(frozen=True)
class JumpingHmmSpec:
    """Every setting of a jumping model: jump probability, smoothing, priors.

    build_profile reads the pseudocount, assemble_jumping_hmm the rest.
    The prior fields describe one profile column before jump scaling:
    a match state advances, inserts, or deletes; insert and delete states
    self-continue with their prior and otherwise advance to the next
    match state.
    """

    jump_prob: float = 0.01
    pseudocount: float = 1.0
    match_advance: float = 0.97
    match_insert: float = 0.015
    match_delete: float = 0.015
    insert_self: float = 0.3
    delete_self: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.jump_prob < 1.0:
            raise ValueError(f"jump_prob must be in [0, 1), not {self.jump_prob}")
        if not 0.0 < self.pseudocount < np.inf:
            raise ValueError(f"pseudocount must be a finite number > 0, not {self.pseudocount}")
        for name in ("match_advance", "match_insert", "match_delete"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], not {p}")
        s = self.match_advance + self.match_insert + self.match_delete
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"match priors sum to {s:g}, expected 1")
        if not 0.0 <= self.insert_self < 1.0 or not 0.0 <= self.delete_self < 1.0:
            raise ValueError("self-continuation priors must be in [0, 1)")


@dataclass(frozen=True)
class ProfileHmm:
    """Match/insert/delete profile over the alignment columns of one subtype.

    match_emission[i] is the smoothed symbol distribution of column i+1;
    insert states emit uniformly, which the assembly writes. `n_states`
    counts L match, L delete and L + 1 insert states (3L + 1); the assembly
    folds the deletes away, leaving 2L + 1.
    """

    name: str
    length: int
    match_emission: np.ndarray

    @property
    def n_states(self):
        return 3 * self.length + 1


def build_profile(name, group, spec):
    """Profile HMM fragment for one subtype's aligned sequences.

    Match emissions use additive smoothing: (count + pseudocount) /
    (non-gap count + 4 * pseudocount) per column.
    """
    if not group:
        raise ValueError(f"subtype {name!r} has no sequences")
    length = len(group[0])
    if length == 0:
        raise ValueError(f"subtype {name!r} has zero alignment columns")
    for k, s in enumerate(group, 1):
        check_sequence(s, length, name, k)
    # every character is now a DNA letter or a gap: one ASCII byte each
    columns = np.frombuffer("".join(group).lower().encode(), np.uint8).reshape(-1, length)
    symbols = np.frombuffer("".join(DNA).encode(), np.uint8)
    counts = (columns[:, :, None] == symbols).sum(axis=0, dtype=np.float64)
    nongap = counts.sum(axis=1, keepdims=True)
    emission = (counts + spec.pseudocount) / (nongap + len(DNA) * spec.pseudocount)
    return ProfileHmm(name=name, length=length, match_emission=emission)


def build_profiles(msa, spec):
    """One profile per subtype, in the alignment's name order."""
    return [build_profile(name, msa.groups[name], spec) for name in msa.names]


def _geometric(first, ratio, limit):
    """first, ratio * first, ... by repeated multiplication, as an array.

    Stops after `limit` terms or at the first term not above
    SILENT_CLOSURE_EPS; with 0 <= ratio < 1 no later term is above it.
    """
    terms = []
    while first > SILENT_CLOSURE_EPS and len(terms) < limit:
        terms.append(first)
        first = ratio * first
    return np.array(terms)


def assemble_jumping_hmm(profiles, spec):
    """One labeled HMM from per-subtype profiles plus jump transitions.

    Every transition prior and the jump probability P_j come from `spec`.
    Slot j of profile p (I0, M1, I1, ..., ML, IL) is state j * P + p and
    carries color p; the initial distribution is uniform over profiles.
    Match rows at columns < L keep (1 - P_j) of their within-profile mass
    and split P_j over the other profiles' next match states; M_L funnels
    into the terminal insert I_L, which absorbs. Delete states are never
    built: the mass a match state (or the start) sends into D_{c+1} goes
    straight to where the delete chain emits.
    """
    n_prof = len(profiles)
    if n_prof < 2:
        raise ValueError("need at least two profiles")
    length = profiles[0].length
    for p in profiles:
        if p.length != length:
            raise ValueError(f"profile {p.name!r} has {p.length} columns, expected {length}")
    keep, block = 1.0 - spec.jump_prob, 2 * length + 1

    # A delete chain entered at D_d hands to_match[j] to M_{d+1+j} and
    # to_end[L-d] to I_L, products taken in the order that resolving the
    # chain one delete state at a time takes them. chain_* list those
    # (d, target, mass) triples as slots: I_c is slot 2c, M_c slot 2c-1.
    ds = spec.delete_self
    to_match, to_end = _geometric(1.0 - ds, ds, length - 1), _geometric(1.0, ds, length)
    d = np.arange(1, length + 1)
    hit_d, hit_j = np.nonzero(np.arange(to_match.size) < (length - d)[:, None])
    end_d = d[length - d < to_end.size]
    chain_d = np.concatenate((d[hit_d], end_d))
    chain_to = np.concatenate((2 * (d[hit_d] + hit_j) + 1, np.full(end_d.size, block - 1)))
    chain_q = np.concatenate((to_match[hit_j], to_end[length - end_d]))
    from_m, ins, mat = chain_d > 1, 2 * d - 2, 2 * d[:-1] - 1

    def at(slot, prof=np.arange(n_prof)[:, None]):
        return slot * n_prof + prof

    src, dst = (q[:, None] for q in np.nonzero(~np.eye(n_prof, dtype=bool)))
    edges = [  # (from, to, probability); zero entries are dropped by Hmm
        (at(ins), at(ins), spec.insert_self),
        (at(ins), at(ins + 1), 1.0 - spec.insert_self),
        (at(block - 1), at(block - 1), 1.0),
        (at(mat), at(mat + 2), spec.match_advance * keep),
        (at(mat), at(mat + 1), spec.match_insert * keep),
        (at(block - 2), at(block - 1), 1.0),
        (at(2 * chain_d[from_m] - 3), at(chain_to[from_m]),
         (spec.match_delete * keep) * chain_q[from_m]),
        (at(mat, src), at(mat + 2, dst), spec.jump_prob / (n_prof - 1)),
    ]
    rows, cols, vals = (np.concatenate([a.ravel() for a in part])
                        for part in zip(*(np.broadcast_arrays(*e) for e in edges)))

    share = 1.0 / n_prof
    start = np.zeros(block)
    start[:2] = spec.match_insert * share, spec.match_advance * share
    start[chain_to[~from_m]] = (spec.match_delete * share) * chain_q[~from_m]

    emissions = np.empty((block, n_prof, len(DNA)))
    emissions[0::2] = 1.0 / len(DNA)  # insert states emit uniformly
    emissions[1::2] = np.array([p.match_emission for p in profiles]).transpose(1, 0, 2)
    layout = ["I0"] + [f"{k}{col}" for col in range(1, length + 1) for k in "MI"]
    n = n_prof * block
    return Hmm(
        state_ids=[f"{p.name}:{state}" for state in layout for p in profiles],
        state_colors=np.tile(np.arange(n_prof), block),
        color_names=[p.name for p in profiles],
        alphabet=list(DNA),
        initial=np.repeat(start, n_prof),
        transitions=sparse.coo_array((vals, (rows, cols)), shape=(n, n)),
        emissions=emissions.reshape(n, len(DNA)),
    )


def build_jumping_hmm(msa, spec):
    """Profiles plus assembly in one step, colors in msa.names order."""
    return assemble_jumping_hmm(build_profiles(msa, spec), spec)
