"""Accuracy metrics: boundary detection at a tolerance, base-level accuracy.

Boundary "specificity" is implemented as precision over predicted
boundaries; true negatives are not well defined for boundary events.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundaryReport:
    """Matched-boundary counts and the derived rates at one tolerance."""

    sensitivity: float
    precision: float
    f1: float
    matched: tuple
    tolerance: int
    n_pred: int
    n_truth: int


def _f1(p, r):
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def match_boundaries(pred_bounds, truth_bounds, tolerance):
    """Greedy one-to-one matching of (gap, from, to) boundary lists.

    A predicted boundary can match a truth boundary only if both share
    the same ordered color pair and their gap positions differ by at most
    `tolerance`. Candidate pairs are taken closest first (ties: smaller
    predicted gap, then smaller truth gap) and accepted while both ends
    are unmatched. Returns (pred gap, truth gap, distance) triples.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    candidates = []
    for i, (kp, cp, cp2) in enumerate(pred_bounds):
        for j, (kt, ct, ct2) in enumerate(truth_bounds):
            if (cp, cp2) == (ct, ct2) and abs(kp - kt) <= tolerance:
                candidates.append((abs(kp - kt), kp, kt, i, j))
    candidates.sort()

    used_pred, used_truth = set(), set()
    matched = []
    for dist, kp, kt, i, j in candidates:
        if i in used_pred or j in used_truth:
            continue
        used_pred.add(i)
        used_truth.add(j)
        matched.append((kp, kt, dist))
    return matched


def boundary_report(pred_bounds, truth_bounds, tolerance):
    """BoundaryReport over explicit boundary lists; see match_boundaries.

    Sensitivity is 1 when truth has no boundaries and precision is 1 when
    the prediction has none.
    """
    matched = match_boundaries(pred_bounds, truth_bounds, tolerance)
    sens = len(matched) / len(truth_bounds) if truth_bounds else 1.0
    prec = len(matched) / len(pred_bounds) if pred_bounds else 1.0
    return BoundaryReport(
        sensitivity=sens,
        precision=prec,
        f1=_f1(prec, sens),
        matched=tuple(matched),
        tolerance=int(tolerance),
        n_pred=len(pred_bounds),
        n_truth=len(truth_bounds),
    )


def boundary_metrics(pred, truth, tolerance):
    """Boundary detection accuracy of one annotation against the truth."""
    if len(pred) != len(truth):
        raise ValueError("annotations differ in length")
    return boundary_report(pred.boundaries, truth.boundaries, tolerance)


def base_accuracy(pred, truth):
    """Fraction of positions whose colors agree."""
    if len(pred) != len(truth):
        raise ValueError("annotations differ in length")
    return float(np.mean(pred.colors == truth.colors))


def aggregate(records, by=None):
    """Means and medians of numeric fields across report dicts.

    With `by`, records are additionally grouped on that key and a summary
    is produced per group. Raises on an empty record list.
    """
    records = list(records)
    if not records:
        raise ValueError("nothing to aggregate")
    keys = [k for k, v in records[0].items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)]
    summary = {
        "count": len(records),
        "mean": {k: statistics.fmean(r[k] for r in records) for k in keys},
        "median": {k: statistics.median(r[k] for r in records) for k in keys},
    }
    if by is not None:
        groups = {}
        for r in records:
            groups.setdefault(r[by], []).append(r)
        summary["groups"] = {g: aggregate(rs) for g, rs in groups.items()}
    return summary
