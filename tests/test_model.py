import copy
import hashlib
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse

from gainhmm import (
    Annotation,
    Hmm,
    InvalidModelError,
    JumpingHmmSpec,
    build_hmm,
    build_jumping_hmm,
    color_graph,
    hmm_to_dict,
    load_model,
    sample_path,
    save_model,
    synthetic_subtypes,
)
from gainhmm import model as model_module
from gainhmm.model import SIDECAR_SUFFIX
import _oracles
from conftest import MALFORMED, ONE_STATE_SPEC, malformed_spec, random_model, t1_spec


def with_transitions(hmm, transitions):
    """The model rebuilt from the same fields with `transitions` in place."""
    return Hmm(hmm.state_ids, hmm.state_colors, hmm.color_names, hmm.alphabet,
               hmm.initial, transitions, hmm.emissions)


def assert_same_hmm(a, b, dtypes=True):
    """Equal models, field for field, array dtypes included unless `dtypes` is false.

    A model built from an ndarray may hold int32 CSR indices where one read
    from a file holds int64.
    """
    assert (a.state_ids, a.color_names, a.alphabet) == (b.state_ids, b.color_names, b.alphabet)
    pairs = [(getattr(a, f), getattr(b, f)) for f in ("state_colors", "initial", "emissions")]
    pairs += [(getattr(a.transitions, f), getattr(b.transitions, f))
              for f in ("data", "indices", "indptr")]
    for x, y in pairs:
        assert x.dtype == y.dtype or not dtypes
        np.testing.assert_array_equal(x, y)


def assert_builds_like_reference(spec):
    """build_hmm gives the reference's model, or its InvalidModelError message.

    Where the reference fails with another exception, build_hmm raises
    InvalidModelError.
    """
    try:
        expected = _oracles.reference_build_hmm(copy.deepcopy(spec))
    except InvalidModelError as e:
        with pytest.raises(InvalidModelError) as got:
            build_hmm(spec)
        assert str(got.value) == str(e)
    except (TypeError, KeyError, AttributeError, ValueError, OverflowError):
        with pytest.raises(InvalidModelError):
            build_hmm(spec)
    else:
        assert_same_hmm(build_hmm(spec), expected)


def in_file(path, pattern):
    """The anchored message `pattern` as load_model raises it for the file `path`."""
    return f"^{re.escape(str(path))}: {pattern.removeprefix('^')}"


def repeated_model(rng, n_states, n_colors, n_symbols):
    """Random valid model whose tables repeat a few values along both axes.

    Transition rows split evenly over 1-4 successors, emission rows are
    permutations of one row, and the initial distribution is uniform.
    """
    colors = [i % n_colors for i in range(n_states)]
    trans = np.zeros((n_states, n_states))
    for row in trans:
        k = int(rng.integers(1, min(n_states, 4) + 1))
        row[rng.choice(n_states, k, replace=False)] = 1.0 / k
    base = np.full(n_symbols, 0.5 / max(n_symbols - 1, 1))
    base[0] = 0.5 if n_symbols > 1 else 1.0
    emis = rng.permuted(np.tile(base, (n_states, 1)), axis=1)
    return Hmm([f"s{i}" for i in range(n_states)], colors,
               [f"c{c}" for c in range(n_colors)], ["a", "b", "c", "d"][:n_symbols],
               np.full(n_states, 1.0 / n_states), trans, emis)


def drawn_model(seed, n_states, shape, names, zero_initial, alphabet):
    """A random valid model: dense, sparse or with repeated values, renamed."""
    rng = np.random.default_rng(seed)
    n_colors = int(rng.integers(1, n_states + 1))
    if shape == "repeated":
        hmm = repeated_model(rng, n_states, n_colors, n_symbols=3)
    else:
        hmm = random_model(rng, n_states, n_colors, n_symbols=3,
                           sparsity=0.5 if shape == "sparse" else 0.0)
    ids, color_names = hmm.state_ids, hmm.color_names
    if names == "unicode":
        ids = [f"\u00e9tat-{i}\u2192\U0001f600\"\\" for i in range(n_states)]
        color_names = [f"n\u00e9v {c}\t\u00e9" for c in range(n_colors)]
    elif names == "numbers":
        ids = list(range(n_states))
    initial = hmm.initial.copy()
    if zero_initial and n_states > 1:
        initial[rng.permutation(n_states)[:n_states - 1]] = 0.0
        initial[initial > 0.0] = 1.0
    return Hmm(ids, hmm.state_colors, color_names, alphabet or hmm.alphabet, initial,
               hmm.transitions, hmm.emissions)


MODEL_DRAWS = dict(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 12),
                   shape=st.sampled_from(["dense", "sparse", "repeated"]),
                   names=st.sampled_from(["plain", "unicode"]),
                   zero_initial=st.booleans(),
                   alphabet=st.sampled_from([None, ["\u00e9", "x", "\x7f"]]))
# Drawn models save_model refuses: numeric state ids, a non-string alphabet, or both.
REFUSED_DRAWS = dict(MODEL_DRAWS, names=st.sampled_from(["plain", "numbers"]),
                     alphabet=st.sampled_from([None, [0, 1, 2], [0.5, True, None]]))

JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from([0.5, -0.5, 1e300, float("inf"), float("nan"), 10**30]),
    st.sampled_from(["s", "s_A", "s_B", "x", "y", "0.5", "1.0", "one", ""]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=2),
    st.dictionaries(st.sampled_from(["s", "s_A", "x", "id", "color", "name"]), inner,
                    max_size=2)), max_leaves=4)


@st.composite
def mutated_specs(draw):
    """A valid model description with one or two values replaced, dropped or added."""
    spec = copy.deepcopy(draw(st.sampled_from([
        ONE_STATE_SPEC, t1_spec(),
        hmm_to_dict(random_model(np.random.default_rng(3), 5, 2, n_symbols=2,
                                 sparsity=0.5)),
        hmm_to_dict(build_jumping_hmm(synthetic_subtypes(2, 3, divergence=0.3, seed=4),
                                      JumpingHmmSpec()))])))
    for _ in range(draw(st.integers(1, 2))):
        parent, key, node = None, None, spec
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)):
            parent, key = node, draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["s", "s_A", "x", "ghost", "emission"]))] = draw(JSON_VALUES)
        elif action == "add" and isinstance(node, list):
            node.append(draw(JSON_VALUES))
        elif parent is None:
            spec = draw(JSON_VALUES)
        elif action == "drop":
            del parent[key]
        else:
            parent[key] = draw(JSON_VALUES)
    return spec


class TestBuildHmm:
    def test_one_state(self, one_state):
        assert one_state.n_states == 1
        assert one_state.n_colors == 1
        assert one_state.alphabet == ["x"]

    def test_t1(self, t1):
        assert t1.n_states == 2
        assert t1.state_ids == ["s_A", "s_B"]
        assert t1.state_colors.tolist() == [0, 1]
        assert t1.transitions[0, 1] == 0.1

    def test_row_sum_violation_reports_row(self):
        spec = t1_spec()
        spec["transitions"]["s_A"] = {"s_A": 0.95, "s_B": 0.1}
        with pytest.raises(InvalidModelError, match=r"row sum 1\.05 for state s_A"):
            build_hmm(spec)

    def test_bad_initial_sum(self):
        spec = t1_spec()
        spec["initial"] = {"s_A": 0.7, "s_B": 0.7}
        with pytest.raises(InvalidModelError, match="initial"):
            build_hmm(spec)

    def test_bad_emission_sum(self):
        spec = t1_spec()
        spec["states"][0]["emission"] = {"x": 0.5, "y": 0.1}
        with pytest.raises(InvalidModelError, match="emission"):
            build_hmm(spec)

    def test_unknown_color(self):
        spec = t1_spec()
        spec["states"][0]["color"] = 7
        with pytest.raises(InvalidModelError, match="unknown color"):
            build_hmm(spec)

    def test_empty_alphabet(self):
        spec = t1_spec()
        spec["alphabet"] = []
        with pytest.raises(InvalidModelError, match="empty alphabet"):
            build_hmm(spec)

    @pytest.mark.parametrize("ids", [[1, 0], [0, 2], [1, 2], [0, 0]])
    def test_color_ids_out_of_order(self, ids):
        spec = t1_spec()
        spec["colors"] = [{"id": i, "name": f"c{k}"} for k, i in enumerate(ids)]
        with pytest.raises(InvalidModelError, match=r"^color ids must be 0\.\.C-1 in order$"):
            build_hmm(spec)

    def test_no_states(self):
        # Every key is present, and the initial and the transitions name
        # states the empty list lacks: the empty list is what is reported.
        spec = t1_spec()
        spec["states"] = []
        assert spec["initial"] and spec["transitions"]
        with pytest.raises(InvalidModelError, match="^model has no states$"):
            build_hmm(spec)

    def test_unknown_state_in_transitions(self):
        spec = t1_spec()
        spec["transitions"]["s_ghost"] = {"s_A": 1.0}
        with pytest.raises(InvalidModelError, match="s_ghost"):
            build_hmm(spec)

    def test_negative_probability(self):
        spec = t1_spec()
        spec["transitions"]["s_A"] = {"s_A": 1.1, "s_B": -0.1}
        with pytest.raises(InvalidModelError, match="negative"):
            build_hmm(spec)

    def test_small_deviation_renormalized(self):
        spec = t1_spec()
        spec["transitions"]["s_A"] = {"s_A": 0.9 + 4e-7, "s_B": 0.1}
        hmm = build_hmm(spec)
        assert abs(hmm.transitions[0].sum() - 1.0) < 1e-12

    def test_large_deviation_rejected(self):
        spec = t1_spec()
        spec["transitions"]["s_A"] = {"s_A": 0.9 + 4e-6, "s_B": 0.1}
        with pytest.raises(InvalidModelError):
            build_hmm(spec)

    def test_encode_rejects_foreign_symbol(self, t1):
        with pytest.raises(ValueError, match="'z'"):
            t1.encode("xz")

    def test_encode_rejects_empty(self, t1):
        with pytest.raises(ValueError, match="^empty sequence$"):
            t1.encode("")

    def test_encode_accepts_other_case(self, t1):
        assert t1.encode("XyYx").tolist() == t1.encode("xyyx").tolist()

    def test_encode_keeps_case_distinct_symbols(self):
        spec = t1_spec()
        spec["alphabet"] = ["x", "X"]
        for state in spec["states"]:
            state["emission"] = {"x": 0.5, "X": 0.5}
        hmm = build_hmm(spec)
        assert hmm.encode("xX").tolist() == [0, 1]
        with pytest.raises(ValueError, match="'y' at position 1"):
            hmm.encode("y")

    @pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
    def test_immutable(self):
        spec = t1_spec()
        spec["transitions"]["s_B"] = {"s_B": 1.0}
        hmm = build_hmm(spec)
        with pytest.raises(ValueError):
            hmm.initial[0] = 0.3
        with pytest.raises(ValueError):
            hmm.transitions[0, 0] = 0.5
        with pytest.raises(ValueError):
            hmm.transitions[1, 0] = 0.5  # a structurally new entry


class TestMalformedFiles:
    """A malformed model file fails with InvalidModelError naming the culprit."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_named(self, tmp_path, case):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(malformed_spec(case)))
        with pytest.raises(InvalidModelError, match=in_file(path, MALFORMED[case][1])):
            load_model(path)

    def test_numeric_strings_load(self):
        spec = t1_spec()
        numbers = build_hmm(spec)
        spec["initial"] = {"s_A": "0.5", "s_B": " 5e-1 "}
        spec["states"][0]["emission"]["x"] = "0.9"
        spec["transitions"]["s_B"] = {"s_A": "0.2", "s_B": 0.8}
        assert_same_hmm(build_hmm(spec), numbers)

    @staticmethod
    def assert_repeat_named(tmp_path, spec, message):
        """build_hmm raises `message`, and load_model raises it after the file's path."""
        assert_builds_like_reference(spec)
        with pytest.raises(InvalidModelError, match=message):
            build_hmm(spec)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(InvalidModelError, match=in_file(path, message)):
            load_model(path)

    @pytest.mark.parametrize("alphabet", [["x", "y", "x"], ["x", "x", "y"]])
    def test_repeated_symbol(self, tmp_path, alphabet):
        spec = t1_spec()
        spec["alphabet"] = alphabet
        second = alphabet.index("x", 1) + 1
        message = f"^duplicate alphabet symbol 'x' at positions 1 and {second}$"
        self.assert_repeat_named(tmp_path, spec, message)
        with pytest.raises(InvalidModelError, match=message):
            Hmm(["a"], [0], ["c"], alphabet, [1.0], [[1.0]], [[0.5, 0.25, 0.25]])

    def test_repeated_state_id(self, tmp_path):
        spec = t1_spec()
        spec["states"].append({"id": "s_A", "color": 0, "emission": {"x": 1.0}})
        self.assert_repeat_named(tmp_path, spec,
                                 "^duplicate state id 's_A' at positions 1 and 3$")
        with pytest.raises(InvalidModelError,
                           match="^duplicate state id 'b' at positions 2 and 4$"):
            Hmm(["a", "b", "c", "b"], [0] * 4, ["c0"], ["x"], [1.0, 0.0, 0.0, 0.0],
                np.eye(4), np.ones((4, 1)))

    def test_first_bad_color_named(self):
        with pytest.raises(InvalidModelError, match=r"^unknown color 5 for state b$"):
            Hmm(["a", "b", "c"], [0, 5, -1], ["c0"], ["x"], [1.0, 0.0, 0.0],
                np.eye(3), np.ones((3, 1)))


class TestTransitionFormat:
    """An ndarray and a csr_array of the same matrix make the same model."""

    @pytest.fixture(params=["small", "jumping"])
    def model(self, request):
        if request.param == "small":
            return random_model(np.random.default_rng(5), n_states=6, n_colors=3,
                                n_symbols=3, sparsity=0.4)
        msa = synthetic_subtypes(3, 100, divergence=0.15, seed=8)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.5))
        assert hmm.n_states > 256
        return hmm

    def test_same_model_from_both_forms(self, tmp_path, model):
        dense = with_transitions(model, model.transitions_dense())
        csr = with_transitions(model, sparse.csr_array(model.transitions_dense()))
        for t in (dense.transitions, csr.transitions):
            assert isinstance(t, sparse.csr_array) and t.has_canonical_format
            assert t.indices.dtype == t.indptr.dtype == np.int64
        for a, b in ((dense.transitions, csr.transitions), (dense.transitions, model.transitions)):
            for field in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        save_model(dense, tmp_path / "dense.json")
        save_model(csr, tmp_path / "csr.json")
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "dense.json").read_bytes() == (tmp_path / "csr.json").read_bytes()
        assert (tmp_path / "dense.json").read_bytes() == (tmp_path / "model.json").read_bytes()
        for seed in range(5):
            (s_a, x_a), (s_b, x_b) = sample_path(dense, 60, seed), sample_path(csr, 60, seed)
            np.testing.assert_array_equal(s_a, s_b)
            assert x_a == x_b

    @pytest.mark.parametrize("as_csr", [False, True])
    def test_first_bad_state_named(self, as_csr):
        trans = np.array([[1.0, 0.0, 0.0],
                          [0.5, 0.5, 0.5],
                          [1.5, -0.5, 0.0]])
        with pytest.raises(InvalidModelError, match=r"row sum 1\.5 for state s1$"):
            Hmm(["s0", "s1", "s2"], [0, 0, 0], ["c"], ["x"], [1.0, 0.0, 0.0],
                sparse.csr_array(trans) if as_csr else trans, np.ones((3, 1)))


class TestRejectedTables:
    """Malformed tables fail at construction, naming what is wrong."""

    @staticmethod
    def two_state(**fields):
        args = dict(state_ids=["a", "b"], state_colors=[0, 0], color_names=["c"],
                    alphabet=["x", "y"], initial=[0.5, 0.5],
                    transitions=[[0.5, 0.5], [0.5, 0.5]], emissions=[[0.5, 0.5]] * 2)
        return Hmm(**{**args, **fields})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_transition(self, bad):
        with pytest.raises(InvalidModelError, match=r"transition row sum (nan|inf) for state a$"):
            self.two_state(transitions=[[bad, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("indices, indptr, message", [
        ([0, 2], [0, 1, 2], "indices must be < 2"),
        ([1, 0], [0, 2, 1], "indptr must be a non-decreasing sequence"),
    ], ids=["index-out-of-range", "indptr-decreasing"])
    def test_malformed_csr(self, indices, indptr, message):
        # Read unchecked, such a matrix would index past the row-sum vector.
        t = sparse.csr_array((np.ones(2), np.array(indices), np.array(indptr)), shape=(2, 2))
        with pytest.raises(InvalidModelError, match=f"^transition matrix: {message}$"):
            self.two_state(transitions=t)

    def test_non_finite_emission_and_initial(self):
        with pytest.raises(InvalidModelError, match=r"emission row sum nan for state b$"):
            self.two_state(emissions=[[0.5, 0.5], [np.nan, 0.5]])
        with pytest.raises(InvalidModelError, match=r"initial row sum nan"):
            self.two_state(initial=[np.nan, 0.5])

    def test_nan_in_model_file(self, tmp_path):
        path = tmp_path / "nan.json"
        save_model(build_hmm(t1_spec()), path)
        text = path.read_text()
        assert text.count('"s_A": 0.9') == 1  # the transition s_A -> s_A
        path.write_text(text.replace('"s_A": 0.9', '"s_A": NaN'))
        with pytest.raises(InvalidModelError, match=r"transition row sum nan for state s_A$"):
            load_model(path)
        # A NaN emission of s_A and a NaN initial probability of s_B: the
        # ordered check finds no offender and returns, and Hmm's row-sum
        # check rejects the row.
        for entry, message in [('"y": 0.1', r"^emission row sum nan for state s_A$"),
                               ('"s_B": 0.5', r"^initial row sum nan for state <initial>$")]:
            assert text.count(entry) == 1
            path.write_text(text.replace(entry, entry.split(":")[0] + ": NaN"))
            check = mock.patch.object(model_module, "_check_tables",
                                      wraps=model_module._check_tables)
            with check as spy, pytest.raises(InvalidModelError, match=in_file(path, message)):
                load_model(path)
            assert spy.call_count == 1
            assert_builds_like_reference(json.loads(path.read_text()))

    @pytest.mark.parametrize("fields, message", [
        ({"emissions": [[0.5, 0.5]] * 3}, r"emission table of shape \(3, 2\) for 2 states"),
        ({"emissions": [[1 / 3] * 3] * 2},
         r"emission table of shape \(2, 3\) for 2 states and 2 symbols"),
        ({"initial": [0.5, 0.25, 0.25]}, r"initial of shape \(3,\) for 2 states"),
        ({"state_colors": [0]}, r"state colors of shape \(1,\) for 2 states"),
        ({"transitions": [[1.0]]}, r"^transition matrix of shape \(1, 1\) for 2 states$"),
        ({"alphabet": []}, r"^empty alphabet$"),
        ({"state_ids": []}, r"^model has no states$"),
    ], ids=["emission-rows", "emission-columns", "initial", "state-colors", "transitions",
            "no-symbols", "no-states"])
    def test_shape_mismatch(self, fields, message):
        with pytest.raises(InvalidModelError, match=message):
            self.two_state(**fields)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, t1):
        path = tmp_path / "t1.json"
        save_model(t1, path)
        again = load_model(path)
        assert again.state_ids == t1.state_ids
        np.testing.assert_array_equal(again.initial, t1.initial)
        np.testing.assert_array_equal(again.transitions_dense(), t1.transitions_dense())
        np.testing.assert_array_equal(again.emissions, t1.emissions)

    def test_round_trip_random_models(self, tmp_path):
        rng = np.random.default_rng(11)
        for i in range(10):
            hmm = random_model(rng, n_states=4, n_colors=3, n_symbols=3, sparsity=0.4)
            path = tmp_path / f"m{i}.json"
            save_model(hmm, path)
            again = load_model(path)
            np.testing.assert_array_equal(again.initial, hmm.initial)
            np.testing.assert_array_equal(again.transitions_dense(),
                                          hmm.transitions_dense())
            np.testing.assert_array_equal(again.emissions, hmm.emissions)

    @settings(max_examples=80, deadline=None)
    @given(block=st.sampled_from([1, 2, 5, None]), **MODEL_DRAWS)
    def test_file_is_json_dumps_of_dict(self, tmp_path_factory, block, **draws):
        # Small write blocks split rows and tables across pieces.
        hmm = drawn_model(**draws)
        path = tmp_path_factory.mktemp("save") / "model.json"
        with mock.patch.object(model_module, "WRITE_BLOCK", block or model_module.WRITE_BLOCK):
            save_model(hmm, path)
        text = json.dumps(hmm_to_dict(hmm), indent=1) + "\n"
        assert text == _oracles.reference_model_json(hmm)
        assert path.read_bytes() == text.encode()

    def test_zero_entries_omitted(self, one_state):
        d = hmm_to_dict(one_state)
        assert d["states"][0]["emission"] == {"x": 1.0}

    def test_broken_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alphabet": ["x"],\n  broken\n}')
        with pytest.raises(InvalidModelError, match=str(path)):
            load_model(path)

    def test_missing_key(self):
        with pytest.raises(InvalidModelError, match="transitions"):
            build_hmm({"alphabet": ["x"], "colors": [], "states": [], "initial": {}})


def assert_refused(hmm, message, directory):
    """save_model and hmm_to_dict refuse `hmm` with `message`; no file is created or changed."""
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        hmm_to_dict(hmm)
    kept = directory / "kept.json"
    save_model(build_hmm(t1_spec()), kept)
    before = {p: p.read_bytes() for p in (kept, sidecar_of(kept))}
    for path in (kept, directory / "new.json"):
        with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
            save_model(hmm, path)
    assert {p: p.read_bytes() for p in directory.iterdir()} == before


class TestSaveRefusesNonStrings:
    """JSON object keys are strings, so save_model writes only string-keyed models."""

    @pytest.mark.parametrize("fields, message", [
        ({"state_ids": [0, 1]}, "state id 1 is 0, not a string"),
        ({"state_ids": ["s_A", 1.5]}, "state id 2 is 1.5, not a string"),
        ({"alphabet": [0, 1]}, "alphabet symbol 1 is 0, not a string"),
        ({"alphabet": ["x", None]}, "alphabet symbol 2 is None, not a string"),
        ({"color_names": [1, None]}, "color name 1 is 1, not a string"),
        ({"color_names": ["A", b"B"]}, "color name 2 is b'B', not a string"),
        ({"state_ids": ["s_A", 0], "alphabet": [True, "y"], "color_names": [None, "B"]},
         "state id 2 is 0, not a string"),
        ({"alphabet": [True, "y"], "color_names": [None, "B"]},
         "alphabet symbol 1 is True, not a string"),
    ], ids=["ids", "second-id", "symbols", "second-symbol", "color-names",
            "second-color-name", "ids-first", "symbols-before-color-names"])
    def test_refused(self, tmp_path, t1, fields, message):
        args = dict(state_ids=t1.state_ids, state_colors=t1.state_colors,
                    color_names=t1.color_names, alphabet=t1.alphabet, initial=t1.initial,
                    transitions=t1.transitions, emissions=t1.emissions)
        assert_refused(Hmm(**{**args, **fields}), message, tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(**REFUSED_DRAWS)
    def test_drawn_model_refused(self, tmp_path_factory, **draws):
        assume(draws["names"] == "numbers" or draws["alphabet"] is not None)
        hmm = drawn_model(**draws)
        first = ("state id", 0) if draws["names"] == "numbers" else \
            ("alphabet symbol", draws["alphabet"][0])
        assert_refused(hmm, "{} 1 is {!r}, not a string".format(*first),
                       tmp_path_factory.mktemp("refuse"))


class TestColorGraph:
    def test_t1_all_pairs(self, t1):
        g = color_graph(t1)
        assert g.start.tolist() == [True, True]
        assert g.pairs.all()

    def test_one_state(self, one_state):
        g = color_graph(one_state)
        assert g.start.tolist() == [True]
        assert g.pairs.tolist() == [[True]]

    def test_zeroed_edge_removes_pair(self):
        spec = t1_spec()
        spec["transitions"]["s_B"] = {"s_B": 1.0}
        g = color_graph(build_hmm(spec))
        assert not g.allows_pair(1, 0)
        assert g.allows_pair(0, 1)
        assert g.allows_pair(1, 1)

    def test_allows_annotation(self):
        spec = t1_spec()
        spec["transitions"]["s_B"] = {"s_B": 1.0}
        spec["initial"] = {"s_A": 1.0}
        g = color_graph(build_hmm(spec))
        assert g.allows(Annotation([0, 0, 1, 1]))
        assert not g.allows(Annotation([0, 1, 0]))
        assert not g.allows(Annotation([1, 1]))


class TestAnnotation:
    def test_segments_example(self):
        ann = Annotation([0, 0, 1, 1, 0])
        assert ann.segments == [(1, 2, 0), (3, 4, 1), (5, 5, 0)]
        assert ann.boundaries == [(2, 0, 1), (4, 1, 0)]

    def test_from_segments(self):
        ann = Annotation.from_segments([(1, 2, 0), (3, 4, 1)], length=4)
        assert ann == Annotation([0, 0, 1, 1])

    def test_from_segments_merges_same_color(self):
        ann = Annotation.from_segments([(1, 2, 0), (3, 4, 0)])
        assert ann.segments == [(1, 4, 0)]

    def test_from_segments_rejects_holes(self):
        with pytest.raises(ValueError):
            Annotation.from_segments([(1, 2, 0), (4, 5, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Annotation([])

    @pytest.mark.parametrize("make, message", [
        (lambda: Annotation([0, -1]), r"^negative color id$"),
        (lambda: Annotation.from_segments([]), r"^no segments$"),
        (lambda: Annotation.from_segments([(1, 2, 0), (3, 4, 1)], length=5),
         r"^segments cover \[1,4\], expected \[1,5\]$"),
    ], ids=["negative-color", "no-segments", "short-of-length"])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
    def test_segments_partition_positions(self, colors):
        ann = Annotation(colors)
        segs = ann.segments
        assert segs[0][0] == 1
        assert segs[-1][1] == len(colors)
        for (s1, e1, c1), (s2, e2, c2) in zip(segs, segs[1:]):
            assert s2 == e1 + 1
            assert c1 != c2
        rebuilt = Annotation.from_segments(segs, length=len(colors))
        assert rebuilt == ann

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
    def test_boundaries_match_color_changes(self, colors):
        ann = Annotation(colors)
        expect = [(k + 1, colors[k], colors[k + 1])
                  for k in range(len(colors) - 1) if colors[k] != colors[k + 1]]
        assert ann.boundaries == expect


class TestBulkModelFiles:
    """The bulk writer and reader against the per-entry references."""

    @settings(max_examples=80, deadline=None)
    @given(**MODEL_DRAWS)
    def test_build_equals_reference(self, **draws):
        hmm = drawn_model(**draws)
        assert_builds_like_reference(json.loads(_oracles.reference_model_json(hmm)))

    @settings(max_examples=300, deadline=None)
    @given(mutated_specs())
    def test_mutated_spec_fails_like_reference(self, spec):
        assert_builds_like_reference(spec)

    def test_model_larger_than_a_block(self, tmp_path):
        msa = synthetic_subtypes(3, 400, divergence=0.15, seed=12)
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1))
        assert hmm.transitions.nnz > 2 * model_module.WRITE_BLOCK
        path = tmp_path / "model.json"
        save_model(hmm, path)
        text = path.read_text()
        assert text == _oracles.reference_model_json(hmm)
        assert_builds_like_reference(json.loads(text))
        assert_same_hmm(load_model(path), hmm, dtypes=False)

    def test_emission_table_repeats_along_both_axes(self, tmp_path):
        # np.unique returns a 2-D inverse for a 2-D table on some numpy
        # versions and a flat one on others; the writer must not care.
        emis = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5],
                         [0.5, 0.25, 0.25]])
        hmm = Hmm(["a", "b", "c", "d"], [0, 0, 1, 1], ["A", "B"], ["x", "y", "z"],
                  np.full(4, 0.25), np.full((4, 4), 0.25), emis)
        path = tmp_path / "model.json"
        save_model(hmm, path)
        assert path.read_text() == _oracles.reference_model_json(hmm)
        assert_same_hmm(load_model(path), hmm, dtypes=False)
        sidecar_of(path).unlink()
        assert_same_hmm(load_from_json(path), hmm, dtypes=False)


def sidecar_of(path):
    return path.with_name(path.name + SIDECAR_SUFFIX)


def load_tracking_json(path):
    """(load_model(path), or the message of its InvalidModelError; whether build_hmm ran)."""
    with mock.patch.object(model_module, "build_hmm", wraps=model_module.build_hmm) as build:
        try:
            return load_model(path), build.called
        except InvalidModelError as e:
            return str(e), build.called


def load_from_sidecar(path):
    """load_model(path), failing if it reads the model from the JSON."""
    with mock.patch.object(model_module, "build_hmm",
                           side_effect=AssertionError("model read from the JSON")):
        return load_model(path)


def load_from_json(path):
    """load_model(path), failing unless it reads the model from the JSON."""
    hmm, from_json = load_tracking_json(path)
    assert from_json
    return hmm


def rewrite_sidecar(path, at, change):
    """Replace record `at` of the sidecar of `path` by change(record)."""
    with open(sidecar_of(path), "rb") as fh:
        records = [np.lib.format.read_array(fh) for _ in range(8)]
    records[at] = change(records[at])
    with open(sidecar_of(path), "wb") as fh:
        for r in records:
            np.lib.format.write_array(fh, r)


def corrupt(how, path):
    """Make the sidecar of the model file `path` unusable in the way `how` names."""
    sidecar = sidecar_of(path)
    data = sidecar.read_bytes()
    if how == "missing":
        sidecar.unlink()
    elif how.startswith("truncated"):
        sidecar.write_bytes(data[:{"header": 40, "names": 200, "table": len(data) // 2,
                                   "last-byte": len(data) - 1}[how.split("-", 1)[1]]])
    elif how == "random":
        sidecar.write_bytes(np.random.default_rng(5).bytes(len(data)))
    elif how == "other-model":
        other = path.with_name("other.json")
        save_model(random_model(np.random.default_rng(8), 6, 2, n_symbols=3), other)
        sidecar.write_bytes(sidecar_of(other).read_bytes())
    elif how == "other-version":
        with mock.patch.object(model_module, "SIDECAR_FORMAT", b"gainhmm-arrays/0"):
            save_model(load_model(path), path)
    elif how == "names-not-json":
        rewrite_sidecar(path, 1, lambda names: names[1:])
    elif how == "zero-initial":
        rewrite_sidecar(path, 3, np.zeros_like)
    elif how == "index-out-of-range":
        rewrite_sidecar(path, 6, lambda indices: indices + 6)
    else:
        raise ValueError(how)


class TestSidecar:
    """Model files read through the binary sidecar that save_model writes."""

    @settings(max_examples=80, deadline=None)
    @given(block=st.sampled_from([1, 2, 5, None]), **MODEL_DRAWS)
    def test_sidecar_json_and_reference_agree(self, tmp_path_factory, block, **draws):
        hmm = drawn_model(**draws)
        path = tmp_path_factory.mktemp("save") / "model.json"
        with mock.patch.object(model_module, "WRITE_BLOCK", block or model_module.WRITE_BLOCK):
            save_model(hmm, path)
        with_sidecar, from_json = load_tracking_json(path)
        sidecar_of(path).unlink()
        without = load_from_json(path)
        reference = _oracles.reference_build_hmm(json.loads(path.read_text()))
        assert not from_json
        assert_same_hmm(with_sidecar, reference)
        assert_same_hmm(without, reference)
        assert_same_hmm(without, hmm, dtypes=False)

    def test_load_does_not_hold_the_file(self, tmp_path):
        # The JSON text takes about 44 bytes per transition, the sidecar 16.
        msa = synthetic_subtypes(3, 300, divergence=0.15, seed=2)
        path = tmp_path / "model.json"
        save_model(build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1)), path)
        size = path.stat().st_size
        hashed = []
        read_sidecar = model_module._read_sidecar

        def spy(*args):
            hashed.append(tracemalloc.get_traced_memory()[1])  # the peak while hashing
            return read_sidecar(*args)

        with mock.patch.object(model_module, "_read_sidecar", spy):
            tracemalloc.start()
            try:
                load_from_sidecar(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert hashed[0] < size / 10, f"{hashed[0] / 1e6:.2f} MB while hashing"
        assert peak < 1.25 * size, f"peak {peak / 1e6:.2f} MB for a {size / 1e6:.2f} MB file"

    def test_load_keeps_the_sidecar_arrays(self, tmp_path):
        # The transitions read from the sidecar become the model's own: a
        # copy of them took the peak to 2.27 times the sidecar's size.
        msa = synthetic_subtypes(3, 1000, divergence=0.15, seed=2)
        path = tmp_path / "model.json"
        save_model(build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1)), path)
        size = sidecar_of(path).stat().st_size
        tracemalloc.start()
        try:
            load_from_sidecar(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * size, f"peak {peak / 1e6:.2f} MB for a {size / 1e6:.2f} MB sidecar"

    def test_caller_arrays_stay_the_callers(self):
        hmm = random_model(np.random.default_rng(3), n_states=6, n_colors=2, n_symbols=3)
        given_t = sparse.csr_array(hmm.transitions, copy=True)
        arrays = (given_t.data, given_t.indices, given_t.indptr)
        before = [a.copy() for a in arrays]
        built = with_transitions(hmm, given_t)
        t = built.transitions
        for a, b in zip(arrays, before):
            assert a.flags.writeable
            np.testing.assert_array_equal(a, b)
            assert not any(np.shares_memory(a, own) for own in (t.data, t.indices, t.indptr))
        given_t.data[:] = 0.0
        assert_same_hmm(built, hmm)

    def test_sidecar_holds_arrays_and_names(self, tmp_path):
        hmm = drawn_model(seed=2, n_states=5, shape="sparse", names="unicode",
                          zero_initial=True, alphabet=None)
        path = tmp_path / "model.json"
        save_model(hmm, path)
        with open(sidecar_of(path), "rb") as fh:
            records = [np.lib.format.read_array(fh, allow_pickle=False) for _ in range(8)]
            assert fh.read() == b""
        digest = hashlib.sha256(path.read_bytes()).digest()
        assert records[0].tobytes() == model_module.SIDECAR_FORMAT + digest
        assert json.loads(records[1].tobytes()) == [hmm.alphabet, hmm.color_names,
                                                    hmm.state_ids]
        t = hmm.transitions
        for got, want in zip(records[2:], (hmm.state_colors, hmm.initial, hmm.emissions,
                                           t.indptr, t.indices, t.data)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert_same_hmm(load_from_sidecar(path), hmm, dtypes=False)

    def test_version_1_sidecar_ignored(self, tmp_path):
        # Version 1 sidecars could give non-string names, which the JSON
        # reads as strings: [1, None] as ["1", "None"].
        spec = t1_spec()
        spec["colors"] = [{"id": 0, "name": 1}, {"id": 1, "name": None}]
        path = tmp_path / "t1.json"
        path.write_text(json.dumps(spec))
        hmm = load_from_json(path)
        with mock.patch.object(model_module, "SIDECAR_FORMAT", b"gainhmm-arrays/1"):
            save_model(hmm, path)
            rewrite_sidecar(path, 1, lambda names: np.frombuffer(json.dumps(
                [hmm.alphabet, [1, None], hmm.state_ids]).encode(), np.uint8))
            assert load_from_sidecar(path).color_names == [1, None]
        assert load_from_json(path).color_names == ["1", "None"]

    def test_color_names_read_as_strings(self, tmp_path):
        spec = t1_spec()
        spec["colors"] = [{"id": 0, "name": 1}, {"id": 1, "name": None}]
        path = tmp_path / "t1.json"
        path.write_text(json.dumps(spec))
        assert load_from_json(path).color_names == ["1", "None"]

    @pytest.mark.parametrize("how", [
        "missing", "truncated-header", "truncated-names", "truncated-table",
        "truncated-last-byte", "random", "other-model", "other-version",
        "names-not-json", "zero-initial", "index-out-of-range"])
    def test_json_read_when_sidecar_unusable(self, tmp_path, how):
        hmm = random_model(np.random.default_rng(7), 6, 3, n_symbols=3, sparsity=0.5)
        path = tmp_path / "model.json"
        save_model(hmm, path)
        corrupt(how, path)
        assert_same_hmm(load_from_json(path),
                        _oracles.reference_build_hmm(json.loads(path.read_text())))

    def test_edited_probability_read_from_json(self, tmp_path):
        hmm = random_model(np.random.default_rng(9), 6, 2, n_symbols=3)
        path = tmp_path / "model.json"
        save_model(hmm, path)
        text = path.read_text()
        p = repr(float(hmm.transitions.data[4]))
        assert len(p) > 12 and text.count(p) == 1
        edited = p[:-1] + ("1" if p[-1] != "1" else "2")
        path.write_text(text.replace(p, edited))
        got = load_from_json(path)
        assert_same_hmm(got, _oracles.reference_build_hmm(json.loads(path.read_text())))
        assert got.transitions.data[4] != hmm.transitions.data[4]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_with_stale_sidecar(self, tmp_path, case):
        path = tmp_path / "model.json"
        save_model(build_hmm(copy.deepcopy(ONE_STATE_SPEC)), path)
        path.write_text(json.dumps(malformed_spec(case)))
        with pytest.raises(InvalidModelError, match=in_file(path, MALFORMED[case][1])):
            load_model(path)

    def test_broken_json_with_stale_sidecar_names_line(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(build_hmm(copy.deepcopy(ONE_STATE_SPEC)), path)
        path.write_text('{"alphabet": ["x"],\n  broken\n}')
        with pytest.raises(InvalidModelError, match=f"^{re.escape(str(path))}:2: "):
            load_model(path)

    def test_load_writes_no_sidecar(self, tmp_path, t1):
        path = tmp_path / "t1.json"
        save_model(t1, path)
        sidecar_of(path).unlink()
        load_model(path)
        assert not sidecar_of(path).exists()
