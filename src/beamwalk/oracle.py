"""Brute-force path-sum cross-check for the matrix evolution.

An N-step walk branches once per splitter, so there are exactly 2^N
branch histories.  This module enumerates all of them, multiplying the
splitter matrix element picked at each mesh point, and coherently sums
the results.  It deliberately shares no evolution code with
``evolution.py`` (splitter entries are recomputed here from the optical
parameters) so the two implementations can validate each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .apparatus import reachable_sites
from .errors import CapacityError
from .schedules import PhaseSchedule
from .state import WalkerState

__all__ = [
    "MAX_ENUMERATION_STEPS",
    "REFLECT",
    "TRANSMIT",
    "PathRecord",
    "enumerate_paths",
    "oracle_state",
]

MAX_ENUMERATION_STEPS = 20

REFLECT = "reflect"
TRANSMIT = "transmit"


@dataclass(frozen=True)
class PathRecord:
    """One branch history: the side taken at each splitter, where the
    walker ended up, and the coherent amplitude picked up on the way."""

    choices: tuple[str, ...]
    final_coin: int
    final_site: int
    amplitude: complex


def _entry(reflectivity: float, theta: float, out_port: int, in_port: int) -> complex:
    # Matrix element <out|C|in> of a splitter whose port-0 plate is set to
    # theta and port-1 plate to zero; reflection adds the unitarity pi/2.
    magnitude = math.sqrt(reflectivity if out_port == in_port else 1.0 - reflectivity)
    phase = theta if out_port == 0 else 0.0
    if out_port == in_port:
        phase += math.pi / 2.0
    return magnitude * cmath.exp(1j * phase)


def enumerate_paths(
    initial_coin: int,
    schedule: PhaseSchedule,
    reflectivity: float,
    num_steps: int | None = None,
) -> list[PathRecord]:
    """All 2^num_steps branch histories, in lexicographic branch order
    (port 0 before port 1 at every splitter)."""
    if initial_coin not in (0, 1):
        raise ValueError(f"initial_coin must be 0 or 1, got {initial_coin}")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must be in [0, 1], got {reflectivity}")
    if num_steps is None:
        num_steps = schedule.num_steps
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    if num_steps > MAX_ENUMERATION_STEPS:
        raise CapacityError(
            f"enumeration of 2^{num_steps} paths exceeds the "
            f"{MAX_ENUMERATION_STEPS}-step guard"
        )
    # Splitter entries table[k][site][out][in], one phase lookup per mesh point;
    # a schedule too short for the walk fails here, before any path is walked.
    table: list[dict] = [{} for _ in range(num_steps + 1)]
    for k in range(1, num_steps + 1):
        for site, theta in zip(reachable_sites(k - 1).tolist(), schedule.row(k).tolist()):
            table[k][site] = [[_entry(reflectivity, theta, out, inp) for inp in (0, 1)]
                              for out in (0, 1)]
    records: list[PathRecord] = []

    def descend(
        step_number: int,
        coin: int,
        site: int,
        amplitude: complex,
        choices: tuple[str, ...],
    ) -> None:
        if step_number > num_steps:
            records.append(PathRecord(choices, coin, site, amplitude))
            return
        entries = table[step_number][site]
        for out_port in (0, 1):
            branch_amp = amplitude * entries[out_port][coin]
            label = REFLECT if out_port == coin else TRANSMIT
            # Port 0 exits one site down, port 1 one site up; the next
            # splitter sees the inverted coin label.
            descend(
                step_number + 1,
                1 - out_port,
                site + (1 if out_port == 1 else -1),
                branch_amp,
                choices + (label,),
            )

    descend(1, initial_coin, 0, 1.0 + 0.0j, ())
    return records


def oracle_state(
    initial_coin: int,
    schedule: PhaseSchedule,
    reflectivity: float,
    num_steps: int | None = None,
) -> WalkerState:
    """Coherent sum of all path amplitudes, as a walker state.

    Must agree componentwise with the matrix evolution; any discrepancy
    points at a branch-bookkeeping bug in one of the two.
    """
    if num_steps is None:
        num_steps = schedule.num_steps
    records = enumerate_paths(initial_coin, schedule, reflectivity, num_steps)
    amps = np.zeros((2, num_steps + 1), dtype=np.complex128)
    for record in records:
        amps[record.final_coin, (record.final_site + num_steps) // 2] += record.amplitude
    return WalkerState(amps, num_steps, num_steps)
