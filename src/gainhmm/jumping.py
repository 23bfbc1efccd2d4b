"""Jumping profile HMMs for recombination detection.

One profile HMM is built per subtype from a shared multiple alignment;
the profiles are then connected by jump transitions between match states
of adjacent columns, with total jump mass P_j split uniformly over the
other profiles. Every state of a profile carries that profile's color, so
a decoded coloring reads directly as a subtype segmentation and a color
change as a candidate recombination breakpoint.

Delete states are silent. They are eliminated at assembly time by closing
transition probabilities over silent chains, so the decoders only ever
see emitting states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .model import Hmm

DNA = ("a", "c", "g", "t")

# Closure entries below this are dropped; the lost row mass stays far
# below the model validator's 1e-9 acceptance band.
SILENT_CLOSURE_EPS = 1e-13


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
            for s in seqs:
                if len(s) != self.length:
                    raise ValueError(
                        f"sequence of length {len(s)} in subtype {name!r}, "
                        f"alignment has {self.length} columns")
                bad = set(s.lower()) - set(DNA) - {"-"}
                if bad:
                    raise ValueError(
                        f"illegal character {bad.pop()!r} in subtype {name!r}")


def make_alignment(groups):
    """SubtypeAlignment from a name -> sequences mapping, insertion order."""
    names = tuple(groups)
    if not names:
        raise ValueError("empty alignment")
    length = len(next(iter(groups.values()))[0]) if next(iter(groups.values())) else 0
    return SubtypeAlignment(names=names, groups=dict(groups), length=length)


@dataclass(frozen=True)
class JumpingHmmSpec:
    """Assembly parameters: jump probability, smoothing, transition priors.

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
            raise ValueError("jump probability must be in [0, 1)")
        if self.pseudocount <= 0.0:
            raise ValueError("pseudocount must be > 0")
        s = self.match_advance + self.match_insert + self.match_delete
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"match priors sum to {s:g}, expected 1")
        if not 0.0 <= self.insert_self < 1.0 or not 0.0 <= self.delete_self < 1.0:
            raise ValueError("self-continuation priors must be in [0, 1)")


@dataclass(frozen=True)
class ProfileHmm:
    """Match/insert/delete profile over the alignment columns of one subtype.

    match_emission[i] is the smoothed symbol distribution of column i+1;
    insert emissions are uniform. The fragment has 3L + 1 states: L match,
    L delete, and L + 1 insert states counting the one before column 1.
    """

    name: str
    length: int
    match_emission: np.ndarray
    spec: JumpingHmmSpec

    @property
    def n_states(self):
        return 3 * self.length + 1

    @property
    def insert_emission(self):
        return np.full(len(DNA), 1.0 / len(DNA))


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
    sym_index = {s: i for i, s in enumerate(DNA)}
    counts = np.zeros((length, len(DNA)))
    for s in group:
        if len(s) != length:
            raise ValueError(f"ragged alignment in subtype {name!r}")
        for i, ch in enumerate(s.lower()):
            if ch != "-":
                counts[i, sym_index[ch]] += 1.0
    nongap = counts.sum(axis=1, keepdims=True)
    emission = (counts + spec.pseudocount) / (nongap + len(DNA) * spec.pseudocount)
    return ProfileHmm(name=name, length=length, match_emission=emission, spec=spec)


def build_profiles(msa, spec):
    """One profile per subtype, in the alignment's name order."""
    return [build_profile(name, msa.groups[name], spec) for name in msa.names]


def _assemble_full(profiles, jump_prob):
    """Full state graph of the jumping model, delete states included.

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
    spec = profiles[0].spec

    state_ids, colors, silent, emit_rows = [], [], [], []
    index = {}

    def add(sid, color, is_silent, emission):
        index[sid] = len(state_ids)
        state_ids.append(sid)
        colors.append(color)
        silent.append(is_silent)
        emit_rows.append(emission)

    for p_i, prof in enumerate(profiles):
        add(f"{prof.name}:I0", p_i, False, prof.insert_emission)
        for col in range(1, length + 1):
            add(f"{prof.name}:M{col}", p_i, False, prof.match_emission[col - 1])
            add(f"{prof.name}:I{col}", p_i, False, prof.insert_emission)
            add(f"{prof.name}:D{col}", p_i, True, None)

    trans = {i: {} for i in range(len(state_ids))}

    def put(frm, to, p):
        if p > 0.0:
            trans[frm][to] = trans[frm].get(to, 0.0) + p

    keep = 1.0 - jump_prob
    jump_each = jump_prob / (n_prof - 1)
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


def _silent_closure(trans, silent, eps=SILENT_CLOSURE_EPS):
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


def assemble_jumping_hmm(profiles, jump_prob):
    """One labeled HMM from per-subtype profiles plus jump transitions.

    Every state of profile p carries color p; the initial distribution is
    uniform over profiles. Delete states are closed out, so the result
    contains only emitting states and passes full model validation.
    """
    if not 0.0 <= jump_prob < 1.0:
        raise ValueError("jump probability must be in [0, 1)")
    state_ids, colors, silent, initial, trans, emit_rows = _assemble_full(
        profiles, jump_prob)
    closure = _silent_closure(trans, silent)

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


def build_jumping_hmm(msa, spec):
    """Profiles plus assembly in one step, colors in msa.names order."""
    return assemble_jumping_hmm(build_profiles(msa, spec), spec.jump_prob)
