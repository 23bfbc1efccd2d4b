"""The installed package: its public names, and no exponential-time code.

The brute-force oracles that certify the gain decoder live in
tests/_brute_force.py, outside the package.
"""

import importlib.util

import pytest

import gainhmm

PUBLIC = [
    "Annotation", "BoundaryReport", "ColorGraph", "GainParams", "Hmm",
    "InvalidModelError", "JumpingHmmSpec", "PosteriorSet", "ProfileHmm",
    "SubtypeAlignment", "TruthRecord", "WindowScores", "ZeroLikelihoodError",
    "aggregate", "assemble_jumping_hmm", "base_accuracy", "boundary_metrics",
    "boundary_report", "build_hmm", "build_jumping_hmm", "build_profile",
    "build_profiles", "color_graph", "decode_from_posteriors", "decode_grid",
    "expected_gain", "forward_backward", "gain_decode", "hmm_to_dict", "load_model",
    "make_alignment", "match_boundaries", "posterior_decode", "random_recombinants",
    "sample_path", "save_model", "simulate_recombinant", "synthetic_subtypes",
    "viterbi_decode", "window_scores",
]


def test_public_names():
    assert gainhmm.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(gainhmm, name) is not None


def test_no_oracles_module():
    assert importlib.util.find_spec("gainhmm.oracles") is None
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("gainhmm.oracles")
