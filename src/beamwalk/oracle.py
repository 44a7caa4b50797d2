"""Brute-force path-sum cross-check for the matrix evolution.

An N-step walk branches once per splitter, so there are exactly 2^N
branch histories.  This module forms them as a prefix expansion: each
history of the first k-1 splitters branches into port 0 and port 1 at
splitter k, so shared prefixes share their products and N steps take about
2^(N+1) complex products, not N*2^N.  A history is carried as one integer
code, 2*column + coin, that indexes flat per-out-port tables of the splitter
entries' real and imaginary parts, so a step is two float64 ``take``s and a
complex product per out-port.  Every history keeps its own float64
product, in splitter order, and the coherent sum adds them in history
order, so the result is bit-identical to a scalar recursion over the same
histories.  It deliberately shares no evolution code with ``evolution.py``
(splitter entries are recomputed here from the optical parameters) so the
two implementations can validate each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .apparatus import _check_coin
from .errors import CapacityError
from .schedules import PhaseSchedule
from .state import WalkerState

__all__ = ["MAX_ENUMERATION_STEPS", "REFLECT", "TRANSMIT", "PathRecord",
           "enumerate_paths", "oracle_state"]

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


def _flat_table(entries: list[complex]) -> tuple[np.ndarray, np.ndarray]:
    # Contiguous real and imaginary parts, so each ``take`` reads float64s.
    values = np.array(entries, dtype=np.complex128)
    return values.real.copy(), values.imag.copy()


def _path_sum(initial_coin: int, schedule: PhaseSchedule,
              reflectivity: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every history's amplitude (re, im) and final code 2*column + coin.
    Step k branches each prefix into port 0, then port 1, so history p
    leaves splitter k by out-port (p >> (num_steps - k)) & 1, high bit first.

    Each prefix is carried as one integer code = 2*column + coin, which
    indexes flat per-out-port tables of the splitter entries' real and
    imaginary parts.  For each out-port the loop takes the entries by code
    and writes the children's products into that port's column of a
    (prefixes, 2) array; no array is broadcast against the port axis."""
    _check_coin(initial_coin, "initial_coin")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must be in [0, 1], got {reflectivity}")
    num_steps = schedule.num_steps
    if num_steps > MAX_ENUMERATION_STEPS:
        raise CapacityError(
            f"enumeration of 2^{num_steps} paths exceeds the "
            f"{MAX_ENUMERATION_STEPS}-step guard"
        )
    # Out-port 1 carries no plate phase, so one table serves every step;
    # out-port 0 needs one phase lookup per mesh point.
    port1 = _flat_table([_entry(reflectivity, 0.0, 1, inp) for inp in (0, 1)] * num_steps)
    code = np.array([initial_coin], dtype=np.intp)
    re, im = np.ones(1), np.zeros(1)
    for k in range(1, num_steps + 1):
        port0 = _flat_table([_entry(reflectivity, theta, 0, inp)
                             for theta in schedule.row(k).tolist() for inp in (0, 1)])
        out_re, out_im = np.empty((re.size, 2)), np.empty((re.size, 2))
        for port, (table_re, table_im) in enumerate((port0, port1)):
            entry_re, entry_im = table_re.take(code), table_im.take(code)
            # Python's complex product, term by term, so every bit matches.
            out_re[:, port] = re * entry_re - im * entry_im
            out_im[:, port] = re * entry_im + im * entry_re
        # Port 0 exits one site down, port 1 one site up; the next splitter
        # sees the inverted coin label, so port p's child has code
        # 2*(column + p) + 1 - p = (code | 1) + p.
        child = np.empty((code.size, 2), dtype=np.intp)
        np.bitwise_or(code, 1, out=child[:, 0])
        np.add(child[:, 0], 1, out=child[:, 1])
        # C-order ravel keeps the children in history order.
        re, im, code = out_re.ravel(), out_im.ravel(), child.ravel()
    return re, im, code


def enumerate_paths(
    initial_coin: int,
    schedule: PhaseSchedule,
    reflectivity: float,
) -> list[PathRecord]:
    """All 2^N branch histories of the schedule's N-step walk, in
    lexicographic branch order (port 0 before port 1 at every splitter)."""
    num_steps = schedule.num_steps
    re, im, code = _path_sum(initial_coin, schedule, reflectivity)
    # History p reflects where it leaves by the port it entered (the initial coin, then
    # the port not taken the step before): p's Gray code, top bit flipped for coin 0.
    p = np.arange(re.size, dtype=np.uint32)
    gray = (p ^ (p >> 1) ^ (0 if initial_coin else 1 << (num_steps - 1))).astype(">u4")
    choices = np.unpackbits(gray.view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - num_steps:].tolist()
    labels = (TRANSMIT, REFLECT)
    return [PathRecord(tuple(labels[b] for b in bits), c & 1, 2 * (c >> 1) - num_steps,
                       complex(r, i))
            for bits, c, r, i in zip(choices, code.tolist(), re.tolist(), im.tolist())]


def oracle_state(
    initial_coin: int,
    schedule: PhaseSchedule,
    reflectivity: float,
) -> WalkerState:
    """Coherent sum of all path amplitudes over the schedule's N steps, as
    the walker state after step N.

    Must agree componentwise with the matrix evolution; any discrepancy
    points at a branch-bookkeeping bug in one of the two.
    """
    num_steps = schedule.num_steps
    re, im, code = _path_sum(initial_coin, schedule, reflectivity)
    # bincount adds the histories into their (column, coin) bins one at a
    # time, in history order: the additions of a scalar loop, bit for bit.
    # Bin 2*column + coin is amps.T[column, coin], that is amps[coin, column].
    amps = np.empty((2, num_steps + 1), dtype=np.complex128)
    amps.real.T.flat = np.bincount(code, weights=re, minlength=amps.size)
    amps.imag.T.flat = np.bincount(code, weights=im, minlength=amps.size)
    return WalkerState._owning(amps)
