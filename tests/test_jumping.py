import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gainhmm import (
    GainParams,
    JumpingHmmSpec,
    assemble_jumping_hmm,
    build_jumping_hmm,
    build_profile,
    build_profiles,
    color_graph,
    forward_backward,
    gain_decode,
    make_alignment,
    viterbi_decode,
)
from gainhmm import jumping
from conftest import column_major, permuted, random_seq
from _oracles import full_jumping_graph, reference_assemble_jumping_hmm


@pytest.fixture
def m1():
    return make_alignment({"A": ["aaaaaa"], "B": ["cccccc"], "C": ["gggggg"]})


def full_graph_likelihood(profiles, jump_prob, seq):
    """Likelihood by path enumeration over the assembly graph, silent
    states included; the oracle for silent-state elimination."""
    state_ids, colors, silent, initial, trans, emit_rows = full_jumping_graph(
        profiles, jump_prob)
    sym_index = {s: i for i, s in enumerate("acgt")}
    obs = [sym_index[ch] for ch in seq]
    n = len(obs)
    total = 0.0

    def walk(state, prob, consumed):
        nonlocal total
        if prob == 0.0:
            return
        if silent[state]:
            for nxt, q in trans[state].items():
                walk(nxt, prob * q, consumed)
            return
        prob *= emit_rows[state][obs[consumed]]
        consumed += 1
        if consumed == n:
            total += prob
            return
        for nxt, q in trans[state].items():
            walk(nxt, prob * q, consumed)

    for state, p in enumerate(initial):
        if p > 0.0:
            walk(state, p, 0)
    return total


class TestProfiles:
    def test_smoothed_emission(self):
        prof = build_profile("X", ["ac", "ac"], JumpingHmmSpec(pseudocount=1.0))
        np.testing.assert_allclose(
            prof.match_emission[0], [3 / 6, 1 / 6, 1 / 6, 1 / 6], rtol=1e-12)
        np.testing.assert_allclose(
            prof.match_emission[1], [1 / 6, 3 / 6, 1 / 6, 1 / 6], rtol=1e-12)

    def test_all_gap_column_is_uniform(self):
        prof = build_profile("X", ["a-"], JumpingHmmSpec(pseudocount=1.0))
        np.testing.assert_allclose(prof.match_emission[1], 0.25, rtol=1e-12)

    def test_heavy_smoothing_approaches_uniform(self):
        prof = build_profile("X", ["aaaa"], JumpingHmmSpec(pseudocount=1e9))
        np.testing.assert_allclose(prof.match_emission, 0.25, atol=1e-9)

    def test_fragment_state_count(self):
        prof = build_profile("X", ["acgt"], JumpingHmmSpec())
        assert prof.n_states == 3 * 4 + 1

    def test_illegal_symbol_names_subtype_and_column(self):
        with pytest.raises(ValueError, match=r"illegal character 'x' in subtype 'X' "
                                             r"sequence 1 at column 2$"):
            build_profile("X", ["axa"], JumpingHmmSpec())
        with pytest.raises(ValueError, match=r"illegal character 'N' in subtype 'B' "
                                             r"sequence 2 at column 4$"):
            build_profile("B", ["ac-g", "ac-N"], JumpingHmmSpec())
        # Named as the alignment names it.
        with pytest.raises(ValueError) as from_alignment:
            make_alignment({"A": ["acgt", "acxt"], "B": ["acgt"]})
        with pytest.raises(ValueError) as from_profile:
            build_profile("A", ["acgt", "acxt"], JumpingHmmSpec())
        assert str(from_profile.value) == str(from_alignment.value)

    def test_short_sequence_names_sequence_and_lengths(self):
        message = r"^sequence 2 in subtype 'A' has length 3, alignment has 4 columns$"
        with pytest.raises(ValueError, match=message) as from_alignment:
            make_alignment({"A": ["acgt", "acg"], "B": ["acgt"]})
        with pytest.raises(ValueError) as from_profile:
            build_profile("A", ["acgt", "acg"], JumpingHmmSpec())
        assert str(from_profile.value) == str(from_alignment.value)

    def test_empty_group(self):
        with pytest.raises(ValueError, match="no sequences"):
            build_profile("X", [], JumpingHmmSpec())

    def test_spec_validation(self):
        for fields, message in [
            (dict(jump_prob=1.5), "jump_prob must be in [0, 1), not 1.5"),
            (dict(jump_prob=1.0), "jump_prob must be in [0, 1), not 1.0"),
            (dict(jump_prob=math.nan), "jump_prob must be in [0, 1), not nan"),
            (dict(pseudocount=0.0), "pseudocount must be a finite number > 0, not 0.0"),
            (dict(pseudocount=math.inf), "pseudocount must be a finite number > 0, not inf"),
            (dict(pseudocount=math.nan), "pseudocount must be a finite number > 0, not nan"),
        ]:
            with pytest.raises(ValueError) as e:
                JumpingHmmSpec(**fields)
            assert str(e.value) == message

    def test_alignment_validation(self):
        with pytest.raises(ValueError, match="columns"):
            make_alignment({"A": ["aaa"], "B": ["cc"]})
        with pytest.raises(ValueError, match="at least two"):
            make_alignment({"A": ["aaa"]})
        with pytest.raises(ValueError, match="illegal"):
            make_alignment({"A": ["axa"], "B": ["ccc"]})

    def test_illegal_alignment_character_names_sequence_and_column(self):
        with pytest.raises(ValueError, match=r"illegal character 'x' in subtype 'A' "
                                             r"sequence 1 at column 3$"):
            make_alignment({"A": ["aaxa"], "B": ["cccc"]})
        with pytest.raises(ValueError, match=r"illegal character 'N' in subtype 'B' "
                                             r"sequence 2 at column 2$"):
            make_alignment({"A": ["aaaa"], "B": ["cccc", "cNcN"]})


class TestAssembly:
    def test_emitting_state_count_and_validity(self, m1):
        hmm = build_jumping_hmm(m1, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.5))
        length = 6
        assert hmm.n_states == 3 * (2 * length + 1)
        assert hmm.color_names == ["A", "B", "C"]
        trans = hmm.transitions_dense()
        np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(hmm.initial.sum(), 1.0, atol=1e-12)

    def test_initial_uniform_over_profiles(self, m1):
        hmm = build_jumping_hmm(m1, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.5))
        for color in range(3):
            share = hmm.initial[hmm.states_of_color(color)].sum()
            assert share == pytest.approx(1 / 3, rel=1e-12)

    def test_match_rows_carry_jump_mass(self):
        msa = make_alignment({"A": ["aaaa"], "B": ["cccc"]})
        hmm = build_jumping_hmm(msa, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.5))
        trans = hmm.transitions_dense()
        for col in (1, 2, 3):
            i = hmm.state_ids.index(f"A:M{col}")
            j = hmm.state_ids.index(f"B:M{col + 1}")
            assert trans[i, j] == pytest.approx(0.01, rel=1e-12)
            assert trans[i].sum() == pytest.approx(1.0, abs=1e-12)

    def test_three_profiles_split_jump_mass(self, m1):
        hmm = build_jumping_hmm(m1, JumpingHmmSpec(jump_prob=0.02, pseudocount=0.5))
        trans = hmm.transitions_dense()
        i = hmm.state_ids.index("A:M2")
        for other in ("B", "C"):
            j = hmm.state_ids.index(f"{other}:M3")
            assert trans[i, j] == pytest.approx(0.01, rel=1e-12)

    def test_no_jump_no_cross_color(self, m1):
        hmm = build_jumping_hmm(m1, JumpingHmmSpec(jump_prob=0.0, pseudocount=0.5))
        graph = color_graph(hmm)
        off = ~np.eye(3, dtype=bool)
        assert not graph.pairs[off].any()

    def test_no_jump_decodes_single_color(self, m1):
        hmm = build_jumping_hmm(m1, JumpingHmmSpec(jump_prob=0.0, pseudocount=0.5))
        rng = np.random.default_rng(2)
        for _ in range(5):
            seq = random_seq(rng, list("acgt"), 10)
            vit, _ = viterbi_decode(hmm, seq)
            assert len(set(vit.colors.tolist())) == 1
            herd, _ = gain_decode(hmm, seq, GainParams(window=2, gamma=0.2))
            assert len(set(herd.colors.tolist())) == 1

    def test_terminal_insert_absorbs_long_queries(self, m1):
        hmm = build_jumping_hmm(m1, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.5))
        post = forward_backward(hmm, "a" * 20)
        assert math.isfinite(post.log_likelihood)
        i = hmm.state_ids.index("A:M6")
        j = hmm.state_ids.index("A:I6")
        assert hmm.transitions_dense()[i, j] == pytest.approx(1.0, rel=1e-12)

    def test_column_count_mismatch(self):
        spec = JumpingHmmSpec()
        profiles = [build_profile("A", ["aaa"], spec), build_profile("B", ["cc"], spec)]
        with pytest.raises(ValueError, match="columns"):
            assemble_jumping_hmm(profiles, 0.01)

    def test_single_profile_rejected(self):
        prof = build_profile("A", ["aaa"], JumpingHmmSpec())
        with pytest.raises(ValueError, match="two profiles"):
            assemble_jumping_hmm([prof], 0.01)

    def test_jump_prob_out_of_range(self):
        spec = JumpingHmmSpec()
        profiles = [build_profile("A", ["aaa"], spec), build_profile("B", ["ccc"], spec)]
        with pytest.raises(ValueError, match="jump probability"):
            assemble_jumping_hmm(profiles, 1.0)


# (length, query length, delete_self, profiles); the two-profile cases at
# the default delete_self keep their short ids.
FULL_GRAPH_CASES = [
    pytest.param(length, n, ds, n_prof, id=f"{length}-{n}" if (ds, n_prof) == (0.3, 2)
                 else f"{length}-{n}-ds{ds}-{n_prof}prof")
    for length, n in [(1, 1), (2, 3), (3, 4)]
    for ds in (0.0, 0.3, 0.9)
    for n_prof in (2, 3)
]


def assembly_bytes(hmm):
    """Every array and list of an assembled model, as comparable bytes."""
    t = hmm.transitions
    arrays = (t.data, t.indices, t.indptr, hmm.initial, hmm.emissions, hmm.state_colors)
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            hmm.state_ids, hmm.color_names, hmm.alphabet)


@st.composite
def assembly_inputs(draw):
    """Profiles and a jump probability over the whole spec range."""
    n_prof, length = draw(st.integers(2, 5)), draw(st.integers(1, 60))
    some = st.floats(0.0, 0.2)
    insert, delete = draw(st.one_of(st.just(0.0), some)), draw(st.one_of(st.just(0.0), some))
    spec = JumpingHmmSpec(
        jump_prob=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
        pseudocount=draw(st.floats(0.01, 2.0)),
        match_advance=1.0 - insert - delete, match_insert=insert, match_delete=delete,
        insert_self=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999))),
        delete_self=draw(st.one_of(st.sampled_from([0.0, 0.5, 0.99, 0.999]),
                                   st.floats(0.0, 0.999))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = {f"S{i}": ["".join(rng.choice(list("acgt-"), length)) for _ in range(2)]
              for i in range(n_prof)}
    return build_profiles(make_alignment(groups), spec), spec.jump_prob


def reference_assembly(profiles, jump_prob, eps=jumping.SILENT_CLOSURE_EPS):
    """The reference assembly, profile-major, renumbered column-major."""
    ref = reference_assemble_jumping_hmm(profiles, jump_prob, eps)
    return permuted(ref, column_major(len(profiles), 2 * profiles[0].length + 1))


class TestAgainstSilentGraph:
    """Closed-form delete chains against closing the full silent graph."""

    @settings(max_examples=200, deadline=None)
    @given(assembly_inputs())
    def test_bytes_equal_reference(self, inputs):
        profiles, jump_prob = inputs
        assert (assembly_bytes(assemble_jumping_hmm(profiles, jump_prob))
                == assembly_bytes(reference_assembly(profiles, jump_prob)))

    def test_cut_is_strict(self, monkeypatch):
        # With delete_self = 0.5 every reach term is a power of two, so
        # terms fall exactly on a cut of 2**-40; both sides drop them.
        spec = JumpingHmmSpec(delete_self=0.5, match_advance=0.8, match_insert=0.1,
                              match_delete=0.1)
        msa = make_alignment({"A": ["acgt" * 15], "B": ["ttga" * 15]})
        profiles = build_profiles(msa, spec)
        uncut = assemble_jumping_hmm(profiles, 0.01)
        monkeypatch.setattr(jumping, "SILENT_CLOSURE_EPS", 2.0**-40)
        cut = assemble_jumping_hmm(profiles, 0.01)
        assert cut.transitions.nnz < uncut.transitions.nnz
        assert (assembly_bytes(cut)
                == assembly_bytes(reference_assembly(profiles, 0.01, 2.0**-40)))


class TestSilentElimination:
    @pytest.mark.parametrize("length,n,delete_self,n_prof", FULL_GRAPH_CASES)
    def test_likelihood_matches_full_graph(self, length, n, delete_self, n_prof):
        rng = np.random.default_rng(length * 10 + n)
        groups = {}
        for name in "ABC"[:n_prof]:
            groups[name] = ["".join("acgt"[i] for i in rng.integers(4, size=length))]
        msa = make_alignment(groups)
        spec = JumpingHmmSpec(jump_prob=0.05, pseudocount=0.3, delete_self=delete_self)
        profiles = build_profiles(msa, spec)
        hmm = assemble_jumping_hmm(profiles, spec.jump_prob)
        for _ in range(4):
            seq = random_seq(rng, list("acgt"), n)
            fast = math.exp(forward_backward(hmm, seq).log_likelihood)
            slow = full_graph_likelihood(profiles, spec.jump_prob, seq)
            assert fast == pytest.approx(slow, rel=1e-9)

    def test_no_silent_states_survive(self, m1):
        hmm = build_jumping_hmm(m1, JumpingHmmSpec(jump_prob=0.01, pseudocount=0.5))
        assert not any(":D" in sid for sid in hmm.state_ids)

    def test_delete_chain_reaches_downstream_matches(self, m1):
        # initial D1 mass must surface at M2 and deeper columns
        hmm = build_jumping_hmm(m1, JumpingHmmSpec(jump_prob=0.0, pseudocount=0.5))
        m2 = hmm.state_ids.index("A:M2")
        m3 = hmm.state_ids.index("A:M3")
        assert hmm.initial[m2] > 0.0
        assert hmm.initial[m3] > 0.0
        assert hmm.initial[m2] > hmm.initial[m3]
