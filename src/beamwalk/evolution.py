"""Single-step and multi-step unitary evolution of the walker.

One walk step is the coin layer (every occupied site's beam splitter
mixes the two coin modes) followed by the conditional shift (coin 0
moves one site down, coin 1 one site up).  The shift also inverts the
coin label, because each splitter output port feeds the opposite input
port of the next splitter.

The coin a lossless splitter of intensity reflectivity R applies, with
phase plates theta0 and theta1 in its output ports 0 and 1, is this 2x2
unitary; rows index the output port, columns the input port:

    alpha = sqrt(R)   * exp(i (theta0 + pi/2))     (0 -> 0, reflected)
    beta  = sqrt(1-R) * exp(i theta0)              (1 -> 0, transmitted)
    gamma = sqrt(1-R) * exp(i theta1)              (0 -> 1, transmitted)
    delta = sqrt(R)   * exp(i (theta1 + pi/2))     (1 -> 1, reflected)

The pi/2 offsets on the reflected amplitudes keep the matrix unitary for
every R and every phase setting; only the difference theta0 - theta1 is
observable in any measured distribution.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ScheduleError
from .schedules import PhaseSchedule, _mesh_points
from .state import WalkerState

__all__ = ["apply_coin_layer", "apply_shift", "coin_field", "evolve"]


def apply_coin_layer(state: WalkerState, coins: np.ndarray) -> WalkerState:
    """Apply a beam-splitter coin at every reachable site.

    ``coins`` is a ``(step_index + 1, 2, 2)`` stack: ``coins[j]`` acts on
    column ``j`` of the state, i.e. on site ``-step_index + 2j``.  Any
    other shape is a schedule error.  The step index does not change.
    """
    coins = np.asarray(coins)
    expected = (state.step_index + 1, 2, 2)
    if coins.shape != expected:
        raise ScheduleError(f"coin layer at step index {state.step_index} needs "
                            f"a stack of shape {expected}, got {coins.shape}")
    mixed = np.empty_like(state.amplitudes)
    _mix(coins, state.amplitudes, *mixed)
    return WalkerState._owning(mixed)


def apply_shift(state: WalkerState) -> WalkerState:
    """Conditional shift: (coin 0, i) -> (coin 1, i-1), (coin 1, i) -> (coin 0, i+1).

    Increments the step index.  Applying it twice restores the coin label:
    the inversion is an involution.
    """
    new, down, up = _shifted(state.step_index)
    down[:], up[:] = state.amplitudes
    return WalkerState._owning(new)


def _mix(coins: np.ndarray, amps: np.ndarray, out0: np.ndarray, out1: np.ndarray) -> None:
    """Write the coin-0 and coin-1 rows that ``coins`` mix from ``amps``
    into ``out0`` and ``out1``; no summed temporary is copied."""
    a0, a1 = amps
    np.multiply(coins[:, 0, 0], a0, out=out0)
    np.add(out0, coins[:, 0, 1] * a1, out=out0)
    np.multiply(coins[:, 1, 0], a0, out=out1)
    np.add(out1, coins[:, 1, 1] * a1, out=out1)


def _shifted(step_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The array of the state after step ``step_index + 1``, its two edge
    entries zeroed, and the slots the shift fills: coin 0 lands one site
    down in row 1, coin 1 one site up in row 0."""
    new = np.empty((2, step_index + 2), dtype=np.complex128)
    new[0, 0] = new[1, -1] = 0
    return new, new[1, :-1], new[0, 1:]


def _step(state: WalkerState, coins: np.ndarray) -> WalkerState:
    """``apply_shift(apply_coin_layer(state, coins))`` bit for bit, with the
    coin products written straight into the shifted array."""
    new, down, up = _shifted(state.step_index)
    _mix(coins, state.amplitudes, down, up)
    return WalkerState._owning(new)


# Mesh points whose coins ``evolve`` forms in one call: 1024 complex 2x2
# matrices are 64 KiB, under glibc's 128 KiB mmap threshold, so a block is
# reused heap memory rather than a fresh mapping.  A step with more sites
# than this is a block of its own.
_BLOCK_POINTS = 1024


def _check_settings(reflectivity: float, phase_gauge: float) -> None:
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must be in [0, 1], got {reflectivity}")
    if not math.isfinite(phase_gauge):
        raise ValueError("phase settings must be finite")


def _splitters(thetas: np.ndarray, reflectivity: float, phase_gauge: float) -> np.ndarray:
    """The splitter of each schedule phase in ``thetas``, stacked
    ``(thetas.size, 2, 2)``.  Each matrix depends on its own phase alone, so
    the stack of several steps' phases is their ``coin_field`` stacks end
    to end."""
    r, t = math.sqrt(reflectivity), math.sqrt(1.0 - reflectivity)
    half_pi = math.pi / 2
    theta0 = thetas + phase_gauge
    coins = np.empty((theta0.size, 2, 2), dtype=np.complex128)
    coins[:, 0, 0] = r * np.exp(1j * (theta0 + half_pi))
    coins[:, 0, 1] = t * np.exp(1j * theta0)
    coins[:, 1, 0] = t * cmath.exp(1j * phase_gauge)
    coins[:, 1, 1] = r * cmath.exp(1j * (phase_gauge + half_pi))
    return coins


def coin_field(
    schedule: PhaseSchedule,
    reflectivity: float,
    step_number: int,
    phase_gauge: float = 0.0,
) -> np.ndarray:
    """Coin matrices for step ``step_number`` (1-based): a ``(k, 2, 2)``
    stack, one matrix per site of the step, sites ascending.

    Matrix j is the splitter with theta0 = theta_j + phase_gauge and
    theta1 = phase_gauge: the schedule phase sets the port-0 plate, and the
    gauge shifts both plates, which no distribution can observe.  An R
    outside [0, 1] (NaN included) or a non-finite gauge is a ``ValueError``.
    """
    _check_settings(reflectivity, phase_gauge)
    return _splitters(schedule.row(step_number), reflectivity, phase_gauge)


def evolve(
    initial: WalkerState,
    schedule: PhaseSchedule,
    reflectivity: float,
    phase_gauge: float = 0.0,
) -> list[WalkerState]:
    """Run ``initial`` to the end of ``schedule``; returns the trajectory
    including ``initial``, so a state already at the end gives ``[initial]``.

    The trajectory ends on the final shift: no trailing coin layer is
    applied, matching a network read out right after the last splitter
    row.  Phases are packed step by step, so the first k steps of a walk
    are the walk of ``PhaseSchedule(schedule.phases[:k * (k + 1) // 2])``;
    a state past the schedule's end is a ``ScheduleError`` before any
    step is taken.  ``coin_field``'s ``ValueError``s for R and the gauge
    are raised even when no step is left.  Each step's coins are
    ``coin_field``'s stack bit for bit: a constant schedule (stride-0
    ``phases``; see ``PhaseSchedule``) broadcasts its one splitter over each
    step's sites, filling no stack; others form blocks.
    """
    if initial.step_index > schedule.num_steps:
        raise ScheduleError(f"schedule covers {schedule.num_steps} steps, but the state is at "
                            f"step {initial.step_index}")
    _check_settings(reflectivity, phase_gauge)
    trajectory = [initial]
    state = initial
    done = initial.step_index
    # A constant schedule's one splitter is broadcast over every remaining
    # site: no stack is filled.
    constant = schedule.phases.strides == (0,)
    while done < schedule.num_steps:
        base = _mesh_points(done)
        if constant:
            stop, thetas = schedule.num_steps, schedule.phases[-1:]
        else:
            # The next block: steps done+1..stop, as many as fit in
            # _BLOCK_POINTS mesh points, and at least one.
            fit = (math.isqrt(8 * (base + _BLOCK_POINTS) + 1) - 1) // 2
            stop = min(schedule.num_steps, max(done + 1, fit))
            thetas = schedule.phases[base:_mesh_points(stop)]
        block = np.broadcast_to(_splitters(thetas, reflectivity, phase_gauge),
                                (_mesh_points(stop) - base, 2, 2))
        for k in range(done + 1, stop + 1):
            first = _mesh_points(k - 1) - base
            state = _step(state, block[first:first + k])
            trajectory.append(state)
        # Freed before the next block is formed.
        del block
        done = stop
    return trajectory
