"""Walker state on the one-dimensional lattice."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .apparatus import _check_coin, reachable_sites

__all__ = ["WalkerState", "delta_state", "initial_state"]


@dataclass(frozen=True, eq=False)
class WalkerState:
    """Complex amplitudes over the light cone after ``step_index`` steps.

    ``amplitudes`` has shape ``(2, step_index + 1)``, so its width is the
    step: ``amplitudes[c, j]`` is the coin-c amplitude at site
    ``-step_index + 2j``.  Only reachable sites are stored, so the light
    cone holds by construction; every other site has amplitude 0.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 2 or amps.shape[0] != 2 or amps.shape[1] < 1:
            raise ValueError(f"amplitudes must have shape (2, step_index + 1), got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _owning(cls, amplitudes: np.ndarray) -> WalkerState:
        """A state that keeps ``amplitudes``, a complex128 array its caller
        has just built and hands over, without the defensive copy or check."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @property
    def step_index(self) -> int:
        """Steps taken to reach this state: the array's width minus one."""
        return self.amplitudes.shape[1] - 1

    @property
    def sites(self) -> np.ndarray:
        """Sites of the stored columns, -step_index..step_index in steps of 2."""
        return reachable_sites(self.step_index)

    def amplitude(self, coin: int, site: int) -> complex:
        """Amplitude of the (coin, site) mode; 0 off the light cone."""
        _check_coin(coin)
        if abs(site) > self.step_index or (site + self.step_index) % 2:
            return 0j
        return complex(self.amplitudes[coin, (site + self.step_index) // 2])

    def norm(self) -> float:
        """L2 norm of the amplitude field (1 for a lossless walk state)."""
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)


def delta_state(coin: int, site: int = 0, step_index: int = 0) -> WalkerState:
    """State concentrated on a single (coin, site) mode with unit amplitude."""
    _check_coin(coin)
    if step_index < 0:
        raise ValueError(f"step_index must be >= 0, got {step_index}")
    if abs(site) > step_index or (site + step_index) % 2:
        raise ValueError(f"site {site} is off the step-{step_index} light cone")
    amps = np.zeros((2, step_index + 1), dtype=np.complex128)
    amps[coin, (site + step_index) // 2] = 1.0
    return WalkerState._owning(amps)


def initial_state(num_steps: int | None = None, coin: int = 1) -> WalkerState:
    """The walk's starting state: the walker at the origin, coin ``coin``.
    ``num_steps`` is ignored, since the schedule alone says how long a walk
    is; it stays accepted for callers that still pass a step count."""
    return delta_state(coin)
