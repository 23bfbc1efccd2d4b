import math
import re

import pytest

from gainhmm import (
    make_alignment,
    random_recombinants,
    sample_path,
    simulate_recombinant,
    synthetic_subtypes,
)
from gainhmm.simulate import check_recombinant_args


@pytest.fixture
def m1():
    return make_alignment({"A": ["aaaaaa"], "B": ["cccccc"], "C": ["gggggg"]})


class TestSamplePath:
    def test_one_state_degenerate(self, one_state):
        states, seq = sample_path(one_state, 3, seed=0)
        assert states.tolist() == [0, 0, 0]
        assert seq == "xxx"

    def test_deterministic(self, t1):
        a = sample_path(t1, 200, seed=9)
        b = sample_path(t1, 200, seed=9)
        assert type(a[1]) is str and len(a[1]) == 200
        assert a[0].tolist() == b[0].tolist()
        assert a[1] == b[1]

    def test_transition_frequency(self, t1):
        n = 100_000
        states, _ = sample_path(t1, n, seed=123)
        from_a = states[:-1] == 0
        n_a = from_a.sum()
        a_to_b = ((states[1:] == 1) & from_a).sum()
        sigma = math.sqrt(0.1 * 0.9 / n_a)
        assert abs(a_to_b / n_a - 0.1) < 3 * sigma

    def test_length_validated(self, t1):
        with pytest.raises(ValueError):
            sample_path(t1, 0, seed=0)


class TestSimulateRecombinant:
    def test_two_segment_splice(self, m1):
        rec = simulate_recombinant(m1, [("A", (1, 3)), ("B", (4, 6))], 0.0, seed=5)
        assert rec.seq == "aaaccc"
        assert rec.truth.segments == [(1, 3, 0), (4, 6, 1)]
        assert rec.breakpoints == (3,)

    def test_single_segment(self, m1):
        rec = simulate_recombinant(m1, [("C", (1, 6))], 0.0, seed=5)
        assert rec.seq == "gggggg"
        assert rec.breakpoints == ()

    def test_full_mutation_changes_everything(self, m1):
        rec = simulate_recombinant(m1, [("A", (1, 3)), ("B", (4, 6))], 1.0, seed=5)
        assert all(a != b for a, b in zip(rec.seq, "aaaccc"))
        assert rec.truth.segments == [(1, 3, 0), (4, 6, 1)]

    def test_gap_columns_are_stripped(self):
        msa = make_alignment({"A": ["aa--aa"], "B": ["cc-ccc"]})
        rec = simulate_recombinant(msa, [("A", (1, 3)), ("B", (4, 6))], 0.0, seed=5)
        assert rec.seq == "aaccc"
        assert rec.truth.segments == [(1, 2, 0), (3, 5, 1)]
        assert rec.breakpoints == (2,)

    def test_deterministic(self, m1):
        segs = [("A", (1, 2)), ("C", (3, 6))]
        a = simulate_recombinant(m1, segs, 0.3, seed=77)
        b = simulate_recombinant(m1, segs, 0.3, seed=77)
        assert a.seq == b.seq
        assert a.truth == b.truth

    def test_provenance_recorded(self, m1):
        segs = [("A", (1, 2)), ("C", (3, 6))]
        rec = simulate_recombinant(m1, segs, 0.25, seed=13)
        assert rec.provenance["seed"] == 13
        assert rec.provenance["mutation_rate"] == 0.25

    def test_mutation_fraction_statistics(self):
        n = 20_000
        msa = make_alignment({"A": ["a" * n], "B": ["c" * n]})
        rate = 0.05
        rec = simulate_recombinant(msa, [("A", (1, n))], rate, seed=3)
        frac = sum(1 for ch in rec.seq if ch != "a") / n
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(frac - rate) < 3 * sigma

    @pytest.mark.parametrize("segments,msg", [
        ([("A", (1, 3)), ("B", (5, 6))], "tile"),
        ([("A", (1, 3)), ("B", (3, 6))], "tile"),
        ([("A", (1, 3)), ("A", (4, 6))], "same subtype"),
        ([("Z", (1, 6))], "unknown subtype"),
        ([("A", (1, 4))], "cover"),
    ])
    def test_rejects_bad_segments(self, m1, segments, msg):
        with pytest.raises(ValueError, match=msg):
            simulate_recombinant(m1, segments, 0.0, seed=0)

    def test_rejects_all_gap_splice(self):
        msa = make_alignment({"A": ["--aa"], "B": ["cc--"]})
        with pytest.raises(ValueError, match="^spliced query is all gaps$"):
            simulate_recombinant(msa, [("A", (1, 2)), ("B", (3, 4))], 0.0, seed=0)


class TestSyntheticSubtypes:
    def test_pairwise_divergence(self):
        msa = synthetic_subtypes(3, 5000, divergence=0.15, seed=21)
        seqs = [msa.groups[n][0] for n in msa.names]
        for i in range(3):
            for j in range(i + 1, 3):
                diff = sum(1 for a, b in zip(seqs[i], seqs[j]) if a != b) / 5000
                assert 0.11 < diff < 0.19

    def test_shape(self):
        msa = synthetic_subtypes(4, 100, divergence=0.1, seed=1)
        assert msa.names == ("A", "B", "C", "D")
        assert msa.length == 100

    def test_needs_two_subtypes(self):
        with pytest.raises(ValueError, match="^need at least two subtypes$"):
            synthetic_subtypes(1, 100, divergence=0.1, seed=1)


class TestRandomRecombinants:
    def test_segments_respect_constraints(self):
        msa = synthetic_subtypes(3, 600, divergence=0.15, seed=2)
        recs = random_recombinants(msa, 25, seed=8, breakpoint_range=(1, 3),
                                   min_segment=100, mutation_rate=0.0)
        assert len(recs) == 25
        for rec in recs:
            assert 1 <= len(rec.breakpoints) <= 3
            spans = rec.provenance["segments"]
            for _, (a, b) in spans:
                assert b - a + 1 >= 100
            names = [s for s, _ in spans]
            assert all(x != y for x, y in zip(names, names[1:]))

    def test_deterministic(self):
        msa = synthetic_subtypes(3, 400, divergence=0.15, seed=2)
        a = random_recombinants(msa, 5, seed=4)
        b = random_recombinants(msa, 5, seed=4)
        assert [r.seq for r in a] == [r.seq for r in b]

    def test_too_short_alignment(self):
        msa = synthetic_subtypes(2, 150, divergence=0.1, seed=2)
        message = ("alignment has 150 columns; 3 breakpoints with spans of at least "
                   "100 columns need 400")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_recombinants(msa, 1, seed=0, breakpoint_range=(1, 3),
                                min_segment=100)

    @pytest.mark.parametrize("args, message", [
        (dict(count=-1), "count must be an integer >= 0, not -1"),
        (dict(breakpoint_range=(0, 2)), "breakpoint_range[0] must be an integer >= 1, not 0"),
        (dict(breakpoint_range=(2, 1)), "breakpoint_range[1] must be an integer >= 2, not 1"),
        (dict(min_segment=0), "min_segment must be an integer >= 1, not 0"),
        (dict(mutation_rate=math.nan), "mutation_rate must be in [0, 1], not nan"),
        (dict(count=0, mutation_rate=1.5), "mutation_rate must be in [0, 1], not 1.5"),
    ], ids=["count", "low-breakpoints", "high-breakpoints", "min-segment", "rate-nan",
            "rate-with-no-records"])
    def test_bad_argument_named(self, m1, args, message):
        # Checked before the alignment is used: m1 is too short for any draw.
        full = dict(count=1, breakpoint_range=(1, 3), min_segment=100, mutation_rate=0.0)
        full.update(args)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_recombinants(m1, seed=0, **full)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_recombinant_args(**full)
