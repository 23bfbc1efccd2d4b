"""Forward-backward posteriors and the two baseline decoders.

Forward-backward runs with per-position scaling constants (exact
posteriors, no logs in the inner loop); Viterbi runs in log space. Both
run on the model's cached transition operator (`_transition`), which
alone chooses dense or sparse kernels from the model's size. Pair
posteriors are summed over the cross-color transition blocks only. All
entry points are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._transition import operator_of
from .model import Annotation, ZeroLikelihoodError


@dataclass(frozen=True)
class PosteriorSet:
    """Color-level posterior quantities of one sequence under one model.

    color_post[j, c] is the posterior probability that position j carries
    color c. pair_post[k, c, c2] is the joint posterior of colors (c, c2)
    at positions (k+1, k+2), i.e. row k describes the gap after position
    k+1 (1-based). Off-diagonal entries of pair_post are the boundary
    posteriors; each pair_post row sums to 1 over all ordered pairs.
    """

    length: int
    log_likelihood: float
    color_post: np.ndarray
    pair_post: np.ndarray

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
    op = operator_of(hmm)
    alphahat, betahat, scales = op.scaled_passes(obs)
    color_post = op.color_posteriors(alphahat, betahat)
    return PosteriorSet(
        length=obs.size,
        log_likelihood=float(np.log(scales).sum()),
        color_post=color_post,
        pair_post=op.pair_posteriors(obs, alphahat, betahat, scales, color_post),
    )


def viterbi_decode(hmm, seq):
    """Most probable state path, reported as its coloring.

    Returns (annotation, log probability of the best path). DP ties break
    toward the smallest state index. The forward pass keeps per-position
    scores only; the traceback re-derives each predecessor by argmax over
    the stored scores, which reproduces the forward tie-break exactly.
    Raises ZeroLikelihoodError naming the first position at which every
    state scores -inf.
    """
    obs = hmm.encode(seq)
    op = operator_of(hmm)
    scores = op.viterbi_scores(obs)
    n = obs.size
    best_end = int(np.argmax(scores[n - 1]))
    best_logp = float(scores[n - 1, best_end])
    if best_logp == -np.inf:
        dead = int(np.argmax(scores.max(axis=1) == -np.inf))
        raise ZeroLikelihoodError(f"sequence impossible under model at position {dead + 1}")

    path = np.empty(n, dtype=np.int64)
    path[n - 1] = best_end
    for t in range(n - 1, 0, -1):
        path[t - 1] = op.predecessor(scores[t - 1], path[t])
    return Annotation(hmm.state_colors[path]), best_logp


def posterior_decode(post):
    """Coloring that picks the highest-posterior color at every position.

    Ties break toward the smallest color id. The result maximizes the
    expected number of correctly colored positions but may be infeasible
    under the model's ColorGraph; check with graph.allows() if that
    matters downstream.
    """
    return Annotation(np.argmax(post.color_post, axis=1))
