"""Forward-backward posteriors and the two baseline decoders.

Forward-backward runs with per-position scaling constants (no logs in the
inner loop); Viterbi runs in log space. Both run on the model's cached
transition operator (`_transition`), which alone chooses dense or sparse
kernels from the model's size. Above DENSE_STATE_LIMIT states the posteriors
are those of the sparse kernels' cut lattice, and `dropped_mass` reports the
cut. Pair posteriors are summed over the cross-color transition blocks only.
All entry points are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._transition import operator_of
from .model import Annotation


@dataclass(frozen=True)
class PosteriorSet:
    """Color-level posterior quantities of one sequence under one model.

    color_post[j, c] is the posterior probability that position j carries
    color c. pair_post[k, c, c2] is the joint posterior of colors (c, c2)
    at positions (k+1, k+2), i.e. row k describes the gap after position
    k+1 (1-based). Off-diagonal entries of pair_post are the boundary
    posteriors; each pair_post row sums to 1 over all ordered pairs.
    dropped_mass is the total scaled forward mass (each position's
    filtered distribution sums to 1) that the sparse kernels' relative
    cut removed over the record; 0.0 on dense kernels.
    """

    length: int
    log_likelihood: float
    color_post: np.ndarray
    pair_post: np.ndarray
    dropped_mass: float = 0.0

    @property
    def n_colors(self):
        return self.color_post.shape[1]

    def boundary_post(self, k, c_from, c_to):
        """Posterior of a boundary with ordered pair (c_from, c_to) at gap k (1-based)."""
        if c_from == c_to:
            raise ValueError("a boundary needs two different colors")
        return float(self.pair_post[k - 1, c_from, c_to])


def forward_backward(hmm, seq):
    """Posterior color and color-pair probabilities of `seq` under `hmm`.

    Raises ValueError on symbols outside the model alphabet and
    ZeroLikelihoodError when the sequence has zero probability.
    """
    obs = hmm.encode(seq)
    scales, color_post, pair_post, dropped = operator_of(hmm).posteriors(obs)
    return PosteriorSet(
        length=obs.size,
        log_likelihood=float(np.log(scales).sum()),
        color_post=color_post,
        pair_post=pair_post,
        dropped_mass=dropped,
    )


def viterbi_decode(hmm, seq):
    """Most probable state path, reported as its coloring.

    Returns (annotation, log probability of the best path). DP ties break
    toward the smallest state index. On dense kernels the forward pass
    records each state's best predecessor (one byte per state and
    position) and the traceback follows them. On sparse kernels it keeps,
    per position, the run of state indices from the first to the last
    score within a beam of the best; the traceback re-derives each
    predecessor by argmax over the stored windows, with predecessors
    listed by state index, which reproduces the forward tie-break. A
    jumping model's column-major layout keeps those runs short.
    Raises ZeroLikelihoodError naming the first position at which every
    state scores -inf.
    """
    path, best_logp = operator_of(hmm).viterbi_path(hmm.encode(seq))
    return Annotation(hmm.state_colors[path]), best_logp


def posterior_decode(post):
    """Coloring that picks the highest-posterior color at every position.

    Ties break toward the smallest color id. The result maximizes the
    expected number of correctly colored positions but may be infeasible
    under the model's ColorGraph; check with graph.allows() if that
    matters downstream.
    """
    return Annotation(np.argmax(post.color_post, axis=1))
