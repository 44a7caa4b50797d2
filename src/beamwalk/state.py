"""Walker state on the one-dimensional lattice."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .apparatus import reachable_sites

__all__ = ["WalkerState", "delta_state", "initial_state"]


@dataclass(frozen=True, eq=False)
class WalkerState:
    """Complex amplitudes over the light cone after ``step_index`` steps.

    ``amplitudes`` has shape ``(2, step_index + 1)``: ``amplitudes[c, j]``
    is the coin-c amplitude at site ``-step_index + 2j``.  Only reachable
    sites are stored, so the light cone holds by construction; every other
    site has amplitude 0.  ``step_index`` may not pass ``num_steps``.
    """

    amplitudes: np.ndarray
    step_index: int
    num_steps: int

    def __post_init__(self) -> None:
        self._adopt(self.amplitudes, copy=True)

    @classmethod
    def _owning(cls, amplitudes: np.ndarray, step_index: int, num_steps: int) -> WalkerState:
        """A state that keeps ``amplitudes``, a complex128 array its caller
        has just allocated and hands over, without the defensive copy."""
        state = object.__new__(cls)
        object.__setattr__(state, "step_index", step_index)
        object.__setattr__(state, "num_steps", num_steps)
        state._adopt(amplitudes, copy=False)
        return state

    def _adopt(self, amplitudes, copy: bool) -> None:
        if not 0 <= self.step_index <= self.num_steps:
            raise ValueError(f"step_index must be in [0, {self.num_steps}], "
                             f"got {self.step_index}")
        amps = np.array(amplitudes, dtype=np.complex128, copy=copy)
        expected = (2, self.step_index + 1)
        if amps.shape != expected:
            raise ValueError(f"amplitudes must have shape {expected}, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def sites(self) -> np.ndarray:
        """Sites of the stored columns, -step_index..step_index in steps of 2."""
        return reachable_sites(self.step_index)

    def amplitude(self, coin: int, site: int) -> complex:
        """Amplitude of the (coin, site) mode; 0 off the light cone."""
        if coin not in (0, 1):
            raise ValueError(f"coin must be 0 or 1, got {coin}")
        if abs(site) > self.step_index or (site + self.step_index) % 2:
            return 0j
        return complex(self.amplitudes[coin, (site + self.step_index) // 2])

    def norm(self) -> float:
        """L2 norm of the amplitude field (1 for a lossless walk state)."""
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)


def delta_state(num_steps: int, coin: int, site: int = 0, step_index: int = 0) -> WalkerState:
    """State concentrated on a single (coin, site) mode with unit amplitude."""
    if coin not in (0, 1):
        raise ValueError(f"coin must be 0 or 1, got {coin}")
    if abs(site) > step_index or (site + step_index) % 2:
        raise ValueError(f"site {site} is off the step-{step_index} light cone")
    amps = np.zeros((2, step_index + 1), dtype=np.complex128)
    amps[coin, (site + step_index) // 2] = 1.0
    return WalkerState(amps, step_index, num_steps)


def initial_state(num_steps: int, coin: int = 1) -> WalkerState:
    """The walk's starting state: the walker at the origin, coin ``coin``."""
    return delta_state(num_steps, coin, site=0, step_index=0)
