import numpy as np

from beamwalk import WalkerState


def random_walker_state(num_steps: int, step_index: int, rng: np.random.Generator) -> WalkerState:
    """Normalized state with random amplitudes on the step's light cone."""
    values = rng.normal(size=(2, step_index + 1)) + 1j * rng.normal(size=(2, step_index + 1))
    return WalkerState(values / np.linalg.norm(values), step_index, num_steps)


def random_coin_field(sites, reflectivity: float, rng: np.random.Generator) -> np.ndarray:
    """A (len(sites), 2, 2) stack of random-phase coins at the given reflectivity."""
    from beamwalk import CoinParams, build_coin

    coins = []
    for _ in sites:
        theta0, theta1 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        coins.append(build_coin(CoinParams(reflectivity, theta0, theta1)))
    return np.stack(coins)
