import numpy as np
import pytest
from hypothesis import given, strategies as st
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
from conftest import random_model, t1_spec


def with_transitions(hmm, transitions):
    """The model rebuilt from the same fields with `transitions` in place."""
    return Hmm(hmm.state_ids, hmm.state_colors, hmm.color_names, hmm.alphabet,
               hmm.initial, transitions, hmm.emissions)


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
