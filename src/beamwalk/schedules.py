"""Phase schedules: the relative phase applied at every mesh point.

An N-step walk traverses one beam splitter per occupied site per step.
A schedule assigns the phase-plate difference theta to each of those
mesh points; the ordered walk uses one constant everywhere, disordered
walks draw each mesh point independently from a seeded stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScheduleError

__all__ = [
    "BINARY_0_PI",
    "UNIFORM_0_2PI",
    "DISORDER_KINDS",
    "PhaseSchedule",
    "DisorderSpec",
    "ordered_schedule",
    "disordered_schedule",
    "ensemble_schedules",
]

BINARY_0_PI = "binary_0_pi"
UNIFORM_0_2PI = "uniform_0_2pi"
DISORDER_KINDS = (BINARY_0_PI, UNIFORM_0_2PI)


def _mesh_points(num_steps: int) -> int:
    """Splitters an ``num_steps``-step walk crosses: step k has k of them."""
    return num_steps * (num_steps + 1) // 2


@dataclass(frozen=True, eq=False)
class PhaseSchedule:
    """Per-step, per-site phase assignments of a walk.

    ``phases`` holds one phase (radians) per mesh point, packed in
    (step, site-ascending) order: step k (1-based) owns the k entries
    ``phases[k(k-1)/2 : k(k+1)/2]``, one for each site i with |i| <= k-1
    and i + k - 1 even.  N steps hold N(N+1)/2 phases, so ``num_steps``
    is derived from their count, and a count no N gives is refused.  The
    array is read-only; two schedules are equal when their phases are.
    Phases of one bit pattern (0.0 and -0.0 differ) are kept as a stride-0
    view of one copied phase, so ``phases.strides == (0,)`` marks a
    constant schedule; any other input is copied.  A stride-0 input is
    constant by construction and is never scanned.  ``np.ascontiguousarray``
    or ``.tobytes()`` gives the packed bytes either way.
    """

    phases: np.ndarray
    num_steps: int = field(init=False)

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=np.float64)
        num_steps = (math.isqrt(8 * phases.size + 1) - 1) // 2
        if phases.ndim != 1 or num_steps < 1 or _mesh_points(num_steps) != phases.size:
            raise ValueError("an N-step schedule needs a flat array of N(N+1)/2 phases, "
                             f"one per mesh point, for some N >= 1, got shape {phases.shape}")
        bits = phases.view(np.uint64)
        if phases.strides == (0,) or bits.min() == bits.max():
            phases = np.broadcast_to(phases[:1].copy(), phases.shape)
            finite = math.isfinite(phases[0])
        else:
            phases = phases.copy()
            phases.flags.writeable = False
            finite = np.all(np.isfinite(phases))
        if not finite:
            raise ValueError("schedule has a non-finite phase")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "num_steps", num_steps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseSchedule):
            return NotImplemented
        return np.array_equal(self.phases, other.phases)

    def row(self, step: int) -> np.ndarray:
        """Phases of ``step`` (1-based), one per site, sites ascending."""
        if not 1 <= step <= self.num_steps:
            raise ScheduleError(f"schedule covers {self.num_steps} steps, not step {step}")
        return self.phases[_mesh_points(step - 1):_mesh_points(step)]


@dataclass(frozen=True)
class DisorderSpec:
    """How to draw a disorder ensemble, and how large it is."""

    kind: str
    seed: int
    realization_count: int

    def __post_init__(self) -> None:
        if self.kind not in DISORDER_KINDS:
            raise ValueError(f"kind must be one of {DISORDER_KINDS}, got {self.kind!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a nonnegative 64-bit integer, got {self.seed}")
        if self.realization_count < 1:
            raise ValueError(
                f"realization_count must be >= 1, got {self.realization_count}"
            )


def ordered_schedule(num_steps: int, theta: float) -> PhaseSchedule:
    """Constant phase ``theta`` at every mesh point (the ordered walk): the
    one phase is stored once, as a stride-0 view, however many steps."""
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    return PhaseSchedule(np.broadcast_to(float(theta), (_mesh_points(num_steps),)))


def disordered_schedule(
    num_steps: int, spec: DisorderSpec, realization_index: int
) -> PhaseSchedule:
    """Draw one disorder realization.

    Realization ``j`` consumes a PCG64 stream seeded with
    ``numpy.random.SeedSequence([spec.seed, j])``, one value per mesh
    point in (step, site-ascending) order, drawn as a single batch.  That
    keyed derivation is the stability contract: the same (seed, index,
    num_steps) always reproduces the same schedule, and distinct indices
    use disjoint streams.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if not 0 <= realization_index < spec.realization_count:
        raise ValueError(
            f"realization_index must be in [0, {spec.realization_count}), "
            f"got {realization_index}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, realization_index]))
    size = _mesh_points(num_steps)
    if spec.kind == BINARY_0_PI:
        phases = rng.integers(0, 2, size=size) * math.pi
    else:
        phases = rng.uniform(0.0, 2.0 * math.pi, size=size)
    return PhaseSchedule(phases)


def ensemble_schedules(num_steps: int, spec: DisorderSpec) -> list[PhaseSchedule]:
    """All ``spec.realization_count`` realizations, in index order."""
    return [
        disordered_schedule(num_steps, spec, j) for j in range(spec.realization_count)
    ]
