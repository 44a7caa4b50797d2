import numpy as np
import pytest

from beamwalk import coin_field, ordered_schedule
from conftest import single_coin


def test_balanced_coin_matches_closed_form():
    coin = single_coin(0.5)
    expected = np.array([[1j, 1.0], [1.0, 1j]]) / np.sqrt(2.0)
    np.testing.assert_allclose(coin, expected, atol=1e-12)


def test_full_reflection_is_phase_decorated_identity():
    coin = single_coin(1.0)
    np.testing.assert_allclose(coin, np.array([[1j, 0.0], [0.0, 1j]]), atol=1e-12)


def test_quarter_turned_plates_cancel_the_reflection_phase():
    coin = coin_field(ordered_schedule(1, 0.0), 1.0, 1, phase_gauge=-np.pi / 2)[0]
    np.testing.assert_allclose(coin, np.eye(2), atol=1e-12)


def test_real_splitter_entry_magnitudes():
    coin = single_coin(0.44)
    np.testing.assert_allclose(np.abs(coin) ** 2, [[0.44, 0.56], [0.56, 0.44]], atol=1e-12)


@pytest.mark.parametrize("reflectivity", [0.0, 0.17, 0.44, 0.5, 0.83, 1.0])
@pytest.mark.parametrize(
    "theta0,theta1",
    [(0.0, 0.0), (0.3, -1.2), (np.pi, np.pi / 7), (2.5, 2.5)],
)
def test_unitarity_and_entry_structure(reflectivity, theta0, theta1):
    coin = single_coin(reflectivity, theta0, theta1)
    np.testing.assert_allclose(coin.conj().T @ coin, np.eye(2), rtol=0.0, atol=1e-12)
    # column norms and the off-diagonal unitarity condition
    assert abs(abs(coin[0, 0]) ** 2 + abs(coin[1, 0]) ** 2 - 1.0) < 1e-12
    assert abs(abs(coin[0, 1]) ** 2 + abs(coin[1, 1]) ** 2 - 1.0) < 1e-12
    assert abs(coin[0, 0] * np.conj(coin[0, 1]) + coin[1, 0] * np.conj(coin[1, 1])) < 1e-12
    # reflected entries carry sqrt(R), transmitted ones sqrt(1-R)
    assert abs(abs(coin[0, 0]) - np.sqrt(reflectivity)) < 1e-12
    assert abs(abs(coin[1, 1]) - np.sqrt(reflectivity)) < 1e-12
    assert abs(abs(coin[0, 1]) - np.sqrt(1.0 - reflectivity)) < 1e-12
    assert abs(abs(coin[1, 0]) - np.sqrt(1.0 - reflectivity)) < 1e-12


def test_out_of_range_reflectivity_rejected():
    for reflectivity in (1.2, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"reflectivity must be in \[0, 1\]"):
            coin_field(ordered_schedule(1, 0.0), reflectivity, 1)


def test_nonfinite_phase_rejected():
    with pytest.raises(ValueError, match="phase settings must be finite"):
        coin_field(ordered_schedule(1, 0.0), 0.5, 1, phase_gauge=float("nan"))
