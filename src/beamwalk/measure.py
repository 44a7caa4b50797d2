"""Measurement-side statistics.

Distributions are taken by tracing out the coin: the power detected at a
site is the sum of its two coin-mode intensities, divided by the step's
total so every row sums to 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .apparatus import reachable_sites
from .state import WalkerState

__all__ = [
    "Distribution",
    "DistributionSeries",
    "position_distribution",
    "variance",
    "variance_series",
    "similarity",
    "bhattacharyya_partials",
    "ensemble_mean_series",
    "series_from_trajectory",
]


@dataclass(frozen=True, eq=False)
class Distribution:
    """Site occupation probabilities at one step.

    ``probs[j]`` belongs to ``reachable_sites(step)[j]``; sites of the
    wrong parity are structurally absent because they are always zero.
    """

    step: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        probs = np.array(self.probs, dtype=np.float64, copy=True)
        if probs.shape != (self.step + 1,):
            raise ValueError(
                f"step-{self.step} distribution needs {self.step + 1} entries, "
                f"got shape {probs.shape}"
            )
        # Written so that NaN fails both checks.
        if not np.all(probs >= 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities must sum to 1 (got {total!r})")
        object.__setattr__(self, "probs", probs)

    @property
    def sites(self) -> np.ndarray:
        return reachable_sites(self.step)


@dataclass(frozen=True, eq=False)
class DistributionSeries:
    """Distributions at an ordered selection of steps."""

    rows: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("a series needs at least one step")
        steps = [row.step for row in rows]
        if len(set(steps)) != len(steps) or steps != sorted(steps):
            raise ValueError(f"series steps must be strictly increasing, got {steps}")
        object.__setattr__(self, "rows", rows)

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(row.step for row in self.rows)


def position_distribution(state: WalkerState) -> Distribution:
    """Trace out the coin: P[i] = |p0[i]|^2 + |p1[i]|^2, over the row sum."""
    powers = (np.abs(state.amplitudes) ** 2).sum(axis=0)
    return Distribution(state.step_index, powers / float(powers.sum()))


def variance(dist: Distribution) -> float:
    """Second central moment of the site coordinate."""
    sites = dist.sites.astype(np.float64)
    mean = float((sites * dist.probs).sum())
    return float((sites * sites * dist.probs).sum() - mean * mean)


def variance_series(series: DistributionSeries) -> list[float]:
    """Variance per step, in series order."""
    return [variance(row) for row in series.rows]


def _check_same_steps(a: DistributionSeries, b: DistributionSeries) -> None:
    if a.steps != b.steps:
        raise ValueError(f"series cover different steps: {a.steps} vs {b.steps}")


def similarity(a: DistributionSeries, b: DistributionSeries) -> float:
    """Squared overlap between two step series:

        S = (sum_{j,i} sqrt(G_i(s_j) G'_i(s_j)))^2
            / ((sum_{j,i} G_i(s_j)) (sum_{j,i} G'_i(s_j)))

    1 exactly when the series coincide, 0 when every step has disjoint
    support.  The denominator is computed rather than taken as
    ``len(steps)**2``: each row sums to 1 only to within rounding, and
    computing it keeps the bytes of ``similarity.txt``.
    """
    _check_same_steps(a, b)
    overlap = sum(bhattacharyya_partials(a, b))
    total_a = sum(float(row.probs.sum()) for row in a.rows)
    total_b = sum(float(row.probs.sum()) for row in b.rows)
    return overlap**2 / (total_a * total_b)


def bhattacharyya_partials(a: DistributionSeries, b: DistributionSeries) -> list[float]:
    """Per-step overlap sums sum_i sqrt(G_i G'_i); their total squared is
    the numerator of ``similarity``."""
    _check_same_steps(a, b)
    return [
        float(np.sqrt(ra.probs * rb.probs).sum()) for ra, rb in zip(a.rows, b.rows)
    ]


def ensemble_mean_series(runs: Sequence[DistributionSeries]) -> DistributionSeries:
    """Pointwise arithmetic mean over realizations.

    Accumulates in realization-index order so ensemble outputs are
    bit-stable from run to run.
    """
    if len(runs) == 0:
        raise ValueError("cannot average an empty ensemble")
    first = runs[0]
    for other in runs[1:]:
        _check_same_steps(first, other)
    rows = []
    for j, row in enumerate(first.rows):
        acc = np.zeros_like(row.probs)
        for run in runs:
            acc += run.rows[j].probs
        rows.append(Distribution(row.step, acc / len(runs)))
    return DistributionSeries(tuple(rows))


def series_from_trajectory(
    trajectory: Sequence[WalkerState],
    steps: Iterable[int] | None = None,
) -> DistributionSeries:
    """Distributions at the selected steps of a trajectory (default: all)."""
    by_step = {state.step_index: state for state in trajectory}
    wanted = sorted(by_step) if steps is None else sorted(set(steps))
    missing = [k for k in wanted if k not in by_step]
    if missing:
        raise ValueError(f"trajectory has no states at steps {missing}")
    rows = tuple(position_distribution(by_step[k]) for k in wanted)
    return DistributionSeries(rows)
