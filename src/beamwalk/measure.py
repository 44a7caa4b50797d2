"""Measurement-side statistics.

Distributions are taken by tracing out the coin: the power detected at a
site is the sum of its two coin-mode intensities, divided by the step's
total so every row sums to 1.  A series measured here, or averaged by
``ensemble_mean_series``, keeps all its rows in one packed float64 array,
step after step, and each row is a read-only view of it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

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

    ``probs[j]`` belongs to ``reachable_sites(step)[j]``, where ``step`` is
    ``probs.size - 1``; sites of the wrong parity are structurally absent
    because they are always zero.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64, copy=True)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError(f"probs must have shape (step + 1,), got {probs.shape}")
        _check_probabilities(probs, probs.sum(keepdims=True))
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _owning(cls, probs: np.ndarray) -> Distribution:
        """A distribution that keeps ``probs``, a read-only float64 row
        its caller has checked as ``__post_init__`` would, without a copy."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "probs", probs)
        return dist

    @property
    def step(self) -> int:
        """The step this row belongs to: its length minus one."""
        return self.probs.size - 1

    @property
    def sites(self) -> np.ndarray:
        return reachable_sites(self.step)


def _check_probabilities(probs: np.ndarray, totals: np.ndarray) -> None:
    """Refuse a negative entry in ``probs`` or a row total in ``totals``
    off 1; written so that NaN fails both checks."""
    if not np.all(probs >= 0):
        raise ValueError("probabilities must be nonnegative")
    off = ~(np.abs(totals - 1.0) <= 1e-10)
    if off.any():
        raise ValueError(f"probabilities must sum to 1 (got {float(totals[off][0])!r})")


def _packed_rows(steps: Sequence[int], packed: np.ndarray) -> tuple[Distribution, ...]:
    """The rows of ``packed``, a new float64 array holding a step-s row of
    s + 1 entries for each s in ``steps``, end to end.  All rows are checked
    at once, as ``Distribution`` checks one, then handed out as read-only
    views."""
    bounds = list(accumulate((step + 1 for step in steps), initial=0))
    _check_probabilities(packed, np.add.reduceat(packed, bounds[:-1]))
    packed.flags.writeable = False
    return tuple(Distribution._owning(packed[start:stop])
                 for start, stop in zip(bounds, bounds[1:]))


def _measure(states: Sequence[WalkerState]) -> tuple[Distribution, ...]:
    """Each state's distribution, one row of a packed array per state."""
    steps = [state.step_index for state in states]
    packed = np.empty(sum(steps) + len(steps))
    stop = 0
    for state in states:
        start, stop = stop, stop + state.step_index + 1
        powers = (np.abs(state.amplitudes) ** 2).sum(axis=0)
        total = float(powers.sum())
        if not 0.0 < total < math.inf:
            raise ValueError(f"the step-{state.step_index} state has total power {total!r}; "
                             "its distribution needs a positive, finite one")
        np.divide(powers, total, out=packed[start:stop])
    return _packed_rows(steps, packed)


@dataclass(frozen=True, eq=False)
class DistributionSeries:
    """Distributions at an ordered selection of steps, and those steps."""

    rows: tuple[Distribution, ...]
    steps: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("a series needs at least one step")
        steps = tuple(row.step for row in rows)
        if len(set(steps)) != len(steps) or list(steps) != sorted(steps):
            raise ValueError(f"series steps must be strictly increasing, got {list(steps)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "steps", steps)


def position_distribution(state: WalkerState) -> Distribution:
    """Trace out the coin: P[i] = |p0[i]|^2 + |p1[i]|^2, over the row sum.
    A state with no power, or infinite or NaN power, is a ``ValueError``."""
    return _measure([state])[0]


def _spread(probs: np.ndarray) -> np.ndarray:
    """Second central moment of the site coordinate for each row along the
    last axis of ``probs``; a row of width k + 1 belongs to step k.  Each
    row is summed over a contiguous axis of its own length, so a row gives
    the same bits alone or in a stack of rows."""
    sites = reachable_sites(probs.shape[-1] - 1).astype(np.float64)
    mean = (sites * probs).sum(-1)
    return (sites * sites * probs).sum(-1) - mean * mean


def variance(dist: Distribution) -> float:
    """Second central moment of the site coordinate."""
    return float(_spread(dist.probs))


def _variance_table(runs: Sequence[DistributionSeries]) -> np.ndarray:
    """``table[r, i]`` is ``variance(runs[r].rows[i])``, bit for bit, taken
    from one ``(len(runs), step + 1)`` stack of rows per step: an ensemble's
    variances in one array pass per step, not one call per row."""
    first = runs[0]
    for other in runs[1:]:
        _check_same_steps(first, other)
    table = np.empty((len(runs), len(first.steps)))
    for i in range(len(first.steps)):
        table[:, i] = _spread(np.stack([run.rows[i].probs for run in runs]))
    return table


def variance_series(series: DistributionSeries) -> list[float]:
    """Variance per step, in series order."""
    # One series gains nothing from a stack: it would copy each row.
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
    bit-stable from run to run: each run's rows are laid end to end and
    added to one packed sum, entry by entry the row-by-row sum.
    """
    if len(runs) == 0:
        raise ValueError("cannot average an empty ensemble")
    first = runs[0]
    for other in runs[1:]:
        _check_same_steps(first, other)
    acc = np.zeros(sum(first.steps) + len(first.steps))
    for run in runs:
        acc += np.concatenate([row.probs for row in run.rows])
    acc /= len(runs)
    return DistributionSeries(_packed_rows(first.steps, acc))


def series_from_trajectory(trajectory: Sequence[WalkerState]) -> DistributionSeries:
    """Distributions of the given states, in order.  Slice the trajectory
    to choose steps: ``trajectory[1:]`` gives steps 1..N, ``trajectory[-1:]``
    the last; states whose steps do not strictly increase are a ``ValueError``,
    and so is a state ``position_distribution`` refuses."""
    return DistributionSeries(_measure(tuple(trajectory)))
