import copy
import os

import numpy as np
import pytest
from hypothesis import settings
from scipy import sparse

from gainhmm import Hmm, build_hmm

# On CI (GitHub Actions sets CI) a failing example prints the
# @reproduce_failure blob that replays it, and no example database is kept.
# Everything else, example counts and deadlines included, comes from the
# profile already loaded (recent Hypothesis versions load their own "ci"
# profile when they detect CI).
settings.register_profile("ci", settings.default, print_blob=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

# Two-state two-color fixture used throughout; all four length-2 state
# paths have distinct probabilities, so decoder disagreements are visible.
T1_SPEC = {
    "alphabet": ["x", "y"],
    "colors": [{"id": 0, "name": "A"}, {"id": 1, "name": "B"}],
    "states": [
        {"id": "s_A", "color": 0, "emission": {"x": 0.9, "y": 0.1}},
        {"id": "s_B", "color": 1, "emission": {"x": 0.2, "y": 0.8}},
    ],
    "initial": {"s_A": 0.5, "s_B": 0.5},
    "transitions": {
        "s_A": {"s_A": 0.9, "s_B": 0.1},
        "s_B": {"s_A": 0.2, "s_B": 0.8},
    },
}

ONE_STATE_SPEC = {
    "alphabet": ["x"],
    "colors": [{"id": 0, "name": "only"}],
    "states": [{"id": "s", "color": 0, "emission": {"x": 1.0}}],
    "initial": {"s": 1.0},
    "transitions": {"s": {"s": 1.0}},
}


def _set(path, value):
    """A mutation of ONE_STATE_SPEC that puts `value` at the key path."""
    def mutate(spec):
        node = spec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return spec
    return mutate


def _drop_state_id(spec):
    del spec["states"][0]["id"]
    return spec


# Malformed one-state model files: (mutation of ONE_STATE_SPEC, the
# message that load_model must raise as InvalidModelError).
MALFORMED = {
    "null-transition": (_set(["transitions", "s", "s"], None),
                        r"^transition 's' -> 's' is null, not a number$"),
    "null-emission": (_set(["states", 0, "emission", "x"], None),
                      r"^emission 'x' of state s is null, not a number$"),
    "null-initial": (_set(["initial", "s"], None),
                     r"^initial probability of state 's' is null, not a number$"),
    "word-probability": (_set(["transitions", "s", "s"], "one"),
                         r"^transition 's' -> 's' is 'one', not a number$"),
    "fractional-color": (_set(["states", 0, "color"], 0.5),
                         r"^unknown color reference 0\.5 for state s$"),
    "string-color": (_set(["states", 0, "color"], "0"),
                     r"^unknown color reference '0' for state s$"),
    "row-as-list": (_set(["transitions", "s"], [1.0]),
                    r"^transition row of state 's' is not a JSON object$"),
    "state-without-id": (_drop_state_id, r"^state 1 has no 'id'$"),
    "state-as-number": (_set(["states", 0], 5), r"^state 1 is not a JSON object$"),
    "unknown-transition-target": (_set(["transitions", "s", "ghost"], 0.5),
                                  r"^unknown state 'ghost' in transitions$"),
    "states-as-object": (lambda spec: {**spec, "states": {"s": spec["states"][0]}},
                         r"^states is not a JSON array$"),
    "top-level-array": (lambda spec: [spec], r"^model description is not a JSON object$"),
}


def malformed_spec(name):
    return MALFORMED[name][0](copy.deepcopy(ONE_STATE_SPEC))


# Malformed segment tables for a 10-position record q1: (rows after the
# header, the ValueError message of read_segments with {path} for the file).
BAD_TRUTH = {
    "word-start": ("q1\tx\t10\t0\tA\n", "{path}:2: start is 'x', not an integer >= 0"),
    "fractional-end": ("q1\t1\t10.0\t0\tA\n",
                       "{path}:2: end is '10.0', not an integer >= 0"),
    "negative-color": ("q1\t1\t10\t-1\tA\n",
                       "{path}:2: color_id is '-1', not an integer >= 0"),
    "bad-later-line": ("q1\t1\t4\t0\tA\n\nq1\t5\t1O\t1\tB\n",
                       "{path}:4: end is '1O', not an integer >= 0"),
    "gap": ("q1\t1\t6\t0\tA\nq1\t8\t10\t1\tB\n",
            "{path}: record 'q1': segments do not tile the sequence at 8"),
    "backwards": ("q1\t5\t3\t0\tA\n",
                  "{path}: record 'q1': segments do not tile the sequence at 5"),
}


def bad_truth(tmp_path, case):
    """(path of the BAD_TRUTH table `case`, its expected message)."""
    rows, message = BAD_TRUTH[case]
    path = tmp_path / "truth.tsv"
    path.write_text("seq_id\tstart\tend\tcolor_id\tcolor_name\n" + rows)
    return path, message.format(path=path)


def t1_spec():
    return copy.deepcopy(T1_SPEC)


@pytest.fixture
def t1():
    return build_hmm(t1_spec())


@pytest.fixture
def one_state():
    return build_hmm(copy.deepcopy(ONE_STATE_SPEC))


def random_model(rng, n_states, n_colors, n_symbols=2, sparsity=0.0):
    """Random valid model; the first n_colors states cover every color.

    sparsity zeroes a fraction of transition entries (keeping rows
    stochastic), which makes the ColorGraph non-trivial.
    """
    assert n_states >= n_colors
    colors = list(range(n_colors))
    colors += [int(rng.integers(n_colors)) for _ in range(n_states - n_colors)]
    trans = rng.dirichlet(np.ones(n_states), size=n_states)
    if sparsity > 0.0:
        mask = rng.random((n_states, n_states)) < sparsity
        keep_one = rng.integers(n_states, size=n_states)
        mask[np.arange(n_states), keep_one] = False
        trans = np.where(mask, 0.0, trans)
        trans /= trans.sum(axis=1, keepdims=True)
    emis = rng.dirichlet(np.ones(n_symbols), size=n_states)
    init = rng.dirichlet(np.ones(n_states))
    symbols = [chr(ord("a") + i) for i in range(n_symbols)]
    spec = {
        "alphabet": symbols,
        "colors": [{"id": c, "name": f"c{c}"} for c in range(n_colors)],
        "states": [
            {"id": f"s{i}", "color": colors[i],
             "emission": {s: float(p) for s, p in zip(symbols, emis[i])}}
            for i in range(n_states)
        ],
        "initial": {f"s{i}": float(p) for i, p in enumerate(init)},
        "transitions": {
            f"s{i}": {f"s{j}": float(p) for j, p in enumerate(trans[i])}
            for i in range(n_states)
        },
    }
    return build_hmm(spec)


def random_seq(rng, alphabet, length):
    return "".join(alphabet[i] for i in rng.integers(len(alphabet), size=length))


def permuted(hmm, order):
    """The model with its states renumbered: state i is hmm's state order[i]."""
    t = hmm.transitions
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rows = np.repeat(np.arange(hmm.n_states), np.diff(t.indptr))
    return Hmm([hmm.state_ids[i] for i in order], hmm.state_colors[order], hmm.color_names,
               hmm.alphabet, hmm.initial[order],
               sparse.coo_array((t.data, (rank[rows], rank[t.indices])), shape=t.shape),
               hmm.emissions[order])


def column_major(n_profiles, block):
    """The profile-major index (p * block + j) of each state of a jumping
    model's column-major layout (j * n_profiles + p), block = 2L + 1."""
    return (np.arange(block)[:, None] + block * np.arange(n_profiles)).ravel()
