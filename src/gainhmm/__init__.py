"""HMM sequence annotation under explicit gain functions.

The package decodes labeled HMMs three ways: Viterbi (most probable
path), posterior decoding (per-position argmax), and a boundary-tolerant
maximum expected gain decoder that rewards boundaries by the posterior
mass of matching boundaries within a window and penalizes unsupported
ones. A jumping profile-HMM builder, a recombinant simulator, and
boundary/base accuracy metrics round out the toolkit.
"""

from .gain import (
    GainParams,
    WindowScores,
    decode_from_posteriors,
    decode_grid,
    expected_gain,
    gain_decode,
    window_scores,
)
from .inference import PosteriorSet, forward_backward, posterior_decode, viterbi_decode
from .jumping import (
    JumpingHmmSpec,
    ProfileHmm,
    SubtypeAlignment,
    assemble_jumping_hmm,
    build_jumping_hmm,
    build_profile,
    build_profiles,
    make_alignment,
)
from .metrics import (
    BoundaryReport,
    aggregate,
    base_accuracy,
    boundary_metrics,
    boundary_report,
    match_boundaries,
)
from .model import (
    Annotation,
    ColorGraph,
    Hmm,
    InvalidModelError,
    ZeroLikelihoodError,
    build_hmm,
    color_graph,
    hmm_to_dict,
    load_model,
    save_model,
)
from .simulate import (
    TruthRecord,
    random_recombinants,
    sample_path,
    simulate_recombinant,
    synthetic_subtypes,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "BoundaryReport",
    "ColorGraph",
    "GainParams",
    "Hmm",
    "InvalidModelError",
    "JumpingHmmSpec",
    "PosteriorSet",
    "ProfileHmm",
    "SubtypeAlignment",
    "TruthRecord",
    "WindowScores",
    "ZeroLikelihoodError",
    "aggregate",
    "assemble_jumping_hmm",
    "base_accuracy",
    "boundary_metrics",
    "boundary_report",
    "build_hmm",
    "build_jumping_hmm",
    "build_profile",
    "build_profiles",
    "color_graph",
    "decode_from_posteriors",
    "decode_grid",
    "expected_gain",
    "forward_backward",
    "gain_decode",
    "hmm_to_dict",
    "load_model",
    "make_alignment",
    "match_boundaries",
    "posterior_decode",
    "random_recombinants",
    "sample_path",
    "save_model",
    "simulate_recombinant",
    "synthetic_subtypes",
    "viterbi_decode",
    "window_scores",
]
