"""Geometry of the folded two-interferometer realization of the walk.

The optical setup folds the whole beam-splitter mesh into two Sagnac
loops stacked over a handful of vertical transmission planes.  This
module maps an abstract walk mode (step, site, coin) to where the
corresponding beam physically lives: which loop it circulates in, which
plane it travels on, and in which direction it propagates.  It is a pure
combinatorial model; physical distances and alignment are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .oracle import PathRecord

__all__ = [
    "SI1",
    "SI2",
    "TOWARD_VIEWER",
    "AWAY_FROM_VIEWER",
    "ModeLocus",
    "reachable_sites",
    "mode_locus",
    "displacer_passages",
    "layout_table",
]

SI1 = "SI1"
SI2 = "SI2"
TOWARD_VIEWER = "toward_viewer"
AWAY_FROM_VIEWER = "away_from_viewer"


@dataclass(frozen=True)
class ModeLocus:
    """Physical location of one optical mode.

    ``plane`` is the vertical transmission plane (0 = ground plane), and
    ``column`` orders the beam columns within each loop: beams of step k
    exit outside those of step k-2, so the column index grows with the
    step index.
    """

    interferometer: str
    plane: int
    column: int
    direction: str


def reachable_sites(step: int) -> np.ndarray:
    """Sites the walker can occupy after ``step`` steps from the origin.

    Returns the ``step + 1`` integers ``-step, -step+2, ..., +step``;
    sites of the opposite parity are never populated.
    """
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return np.arange(-step, step + 1, 2)


def _check_coin(coin: object, name: str = "coin") -> None:
    if isinstance(coin, bool) or not isinstance(coin, (int, np.integer)) or coin not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {coin}")


def mode_locus(step: int, site: int, coin: int) -> ModeLocus:
    """Locate the mode (step, site, coin) in the apparatus.

    Odd steps circulate in the first Sagnac loop, even steps in the
    second.  The transmission plane counts the upward beam-displacer
    passages accumulated on the way to ``site``, so the same plane
    represents different sites at different steps.  Coin-0 beams travel
    toward the viewer, coin-1 beams away.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    _check_coin(coin)
    if abs(site) > step or (site + step) % 2 != 0:
        raise ValueError(f"site {site} is not reachable at step {step}")
    return ModeLocus(
        interferometer=SI1 if step % 2 == 1 else SI2,
        plane=(site + step) // 2,
        column=step,
        direction=TOWARD_VIEWER if coin == 0 else AWAY_FROM_VIEWER,
    )


def displacer_passages(path: "PathRecord") -> int:
    """Number of beam-displacer passages (upward moves) along a path.

    Each upward move lifts the beam one transmission plane, so this
    equals the plane index of the path's terminal locus.
    """
    num_steps = len(path.choices)
    return (num_steps + path.final_site) // 2


def layout_table(num_steps: int) -> list[tuple[int, int, int, str, int, str]]:
    """Rows (step, site, coin, interferometer, plane, direction) for every
    reachable mode with step in [1, num_steps]."""
    rows = []
    for step in range(1, num_steps + 1):
        # Only the plane changes along a step's sites: it counts up from
        # 0 at site -step, so it is the site's index in the step.
        loci = [mode_locus(step, -step, coin) for coin in (0, 1)]
        for plane, site in enumerate(range(-step, step + 1, 2)):
            for coin, locus in enumerate(loci):
                rows.append((step, site, coin, locus.interferometer, plane, locus.direction))
    return rows
