"""Forward-backward posteriors and the two baseline decoders.

Forward-backward runs with per-position scaling constants (exact
posteriors, no logs in the inner loop); Viterbi runs in log space. Both
run on the model's cached transition operator (`_transition`): dense
models keep a dense matrix and gradual underflow, while CSR models (the
assembled jumping models above 256 states) flush scaled entries below the
smallest normal double and take their max-product over in-degree
buckets. Pair posteriors are summed over the cross-color transition
blocks only. All entry points are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._transition import TINY, operator_of
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


def _scaled_forward_backward(hmm, obs):
    """Scaled forward/backward passes.

    Returns (alphahat, betahat, scales) where alphahat[t] is the filtered
    state distribution, scales[t] the per-position normalizers with
    log Pr(X) = sum(log scales), and alphahat[t] * betahat[t] the smoothed
    state posteriors. On CSR models every stored row has its entries
    below the smallest normal double set to zero.
    """
    op = operator_of(hmm)
    t_t, t_mat, emis = op.forward_t, op.backward_t, op.emis_rows
    flush = op.is_sparse
    n, n_states = obs.size, hmm.n_states

    alphahat = np.empty((n, n_states))
    scales = np.empty(n)
    a = hmm.initial * emis[obs[0]]
    for t in range(n):
        if t:
            a = (t_t @ alphahat[t - 1]) * emis[obs[t]]
        scales[t] = a.sum()
        if scales[t] <= 0.0:
            raise ZeroLikelihoodError(f"sequence impossible under model at position {t + 1}")
        row = alphahat[t]
        np.divide(a, scales[t], out=row)
        if flush:
            row[row < TINY] = 0.0

    betahat = np.empty((n, n_states))
    betahat[n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        row = betahat[t]
        np.divide(t_mat @ (emis[obs[t + 1]] * betahat[t + 1]), scales[t + 1], out=row)
        if flush:
            row[row < TINY] = 0.0

    return alphahat, betahat, scales


def forward_backward(hmm, seq):
    """Posterior color and color-pair probabilities of `seq` under `hmm`.

    Raises ValueError on symbols outside the model alphabet and
    ZeroLikelihoodError when the sequence has zero probability.
    """
    obs = hmm.encode(seq)
    alphahat, betahat, scales = _scaled_forward_backward(hmm, obs)
    op = operator_of(hmm)
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
