import numpy as np

from beamwalk import PhaseSchedule, WalkerState, coin_field, ordered_schedule


def random_walker_state(step_index: int, rng: np.random.Generator) -> WalkerState:
    """Normalized state with random amplitudes on the step's light cone."""
    values = rng.normal(size=(2, step_index + 1)) + 1j * rng.normal(size=(2, step_index + 1))
    return WalkerState(values / np.linalg.norm(values))


def single_coin(reflectivity: float, theta0: float = 0.0, theta1: float = 0.0) -> np.ndarray:
    """The 2x2 splitter with plates theta0 and theta1 in output ports 0 and 1:
    a one-step schedule phase theta0 - theta1 under the gauge theta1."""
    return coin_field(ordered_schedule(1, theta0 - theta1), reflectivity, 1,
                      phase_gauge=theta1)[0]


def prefix_schedule(schedule: PhaseSchedule, num_steps: int) -> PhaseSchedule:
    """The schedule of the walk's first ``num_steps`` steps."""
    return PhaseSchedule(schedule.phases[:num_steps * (num_steps + 1) // 2])


def random_coin_field(sites, reflectivity: float, rng: np.random.Generator) -> np.ndarray:
    """A (len(sites), 2, 2) stack of random-phase coins at the given reflectivity."""
    coins = []
    for _ in sites:
        theta0, theta1 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        coins.append(single_coin(reflectivity, theta0, theta1))
    return np.stack(coins)
