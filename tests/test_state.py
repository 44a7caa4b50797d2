import re

import numpy as np
import pytest

from beamwalk import WalkerState, delta_state, initial_state


def test_initial_state_is_coin_one_at_origin():
    state = initial_state()
    assert state.step_index == 0
    assert state.amplitude(1, 0) == 1.0
    assert state.amplitude(0, 0) == 0.0
    assert state.norm() == pytest.approx(1.0)


def test_a_leading_step_count_is_ignored():
    # the schedule alone says how long a walk is; older callers still pass one
    for coin in (0, 1):
        counted, plain = initial_state(1500, coin=coin), initial_state(coin=coin)
        assert counted.step_index == plain.step_index == 0
        assert counted.amplitudes.tobytes() == plain.amplitudes.tobytes()
    assert initial_state(1500).amplitudes.tobytes() == initial_state().amplitudes.tobytes()


def test_delta_state_places_single_amplitude():
    state = delta_state(coin=0, site=2, step_index=2)
    assert state.amplitude(0, 2) == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_sites_axis_covers_the_light_cone():
    assert initial_state().sites.tolist() == [0]
    state = delta_state(coin=0, site=1, step_index=3)
    assert state.sites.tolist() == [-3, -1, 1, 3]
    assert state.amplitudes.shape == (2, 4)
    assert state.amplitudes[0, 2] == 1.0


def test_off_cone_sites_inside_the_lattice_read_zero():
    state = delta_state(coin=1, site=0, step_index=2)
    assert state.amplitude(1, 0) == 1.0
    for site in (-4, -3, -1, 1, 3, 4):
        assert state.amplitude(0, site) == 0
        assert state.amplitude(1, site) == 0


def test_amplitudes_are_copied_on_construction():
    amps = np.zeros((2, 1), dtype=complex)
    amps[1, 0] = 1.0
    state = WalkerState(amps)
    amps[1, 0] = 0.5
    assert state.amplitude(1, 0) == 1.0


def test_a_handed_over_array_is_kept():
    # the path apply_shift takes for the array it has just allocated
    amps = np.zeros((2, 2), dtype=complex)
    assert WalkerState._owning(amps).amplitudes is amps


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_step_index_is_the_width_minus_one(width):
    amps = np.zeros((2, width), dtype=complex)
    assert WalkerState(amps).step_index == width - 1
    assert WalkerState._owning(amps).step_index == width - 1
    assert WalkerState(amps).sites.tolist() == list(range(1 - width, width, 2))


def test_a_separate_step_is_not_accepted():
    # the width is the one record of the step
    with pytest.raises(TypeError):
        WalkerState(np.zeros((2, 3), dtype=complex), 2)


@pytest.mark.parametrize("shape", [(2, 0), (3, 4), (2,), (2, 2, 2)])
def test_an_array_off_the_two_row_layout_is_refused(shape):
    message = rf"amplitudes must have shape \(2, step_index \+ 1\), got {re.escape(str(shape))}"
    with pytest.raises(ValueError, match=message):
        WalkerState(np.zeros(shape, dtype=complex))


def test_wrong_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        WalkerState(np.zeros((3, 6), dtype=complex))


def test_step_index_out_of_bounds_rejected():
    amps = np.zeros((2, 0), dtype=complex)
    with pytest.raises(ValueError, match="step_index"):
        WalkerState(amps)


@pytest.mark.parametrize("site,step_index", [(1, 0), (0, 1), (2, 1), (3, 2)])
def test_off_lightcone_population_rejected(site, step_index):
    # an off-cone site has no column on the step's light cone
    with pytest.raises(ValueError, match="light cone"):
        delta_state(coin=0, site=site, step_index=step_index)


def test_delta_state_refuses_a_negative_step_before_the_light_cone():
    with pytest.raises(ValueError, match="step_index must be >= 0, got -1"):
        delta_state(1, step_index=-1)
    with pytest.raises(ValueError, match="site 3 is off the step-1 light cone"):
        delta_state(1, site=3, step_index=1)


def test_delta_state_refuses_a_coin_other_than_0_or_1():
    # a bool or a float would index the amplitude array: True as a mask
    # over every site, 1.0 not at all
    for coin in (2, True, np.True_, 1.0):
        with pytest.raises(ValueError, match=f"coin must be 0 or 1, got {coin}"):
            delta_state(coin, 0, 2)


def test_initial_state_refuses_a_bool_coin():
    with pytest.raises(ValueError, match="coin must be 0 or 1, got True"):
        initial_state(coin=True)
    # a numpy integer is still a coin label
    assert initial_state(coin=np.int64(0)).amplitudes.tolist() == [[1], [0]]


def test_amplitude_accessor_validates_arguments():
    state = initial_state()
    for coin in (2, True, np.True_, 1.0):
        with pytest.raises(ValueError, match=f"coin must be 0 or 1, got {coin}"):
            state.amplitude(coin, 0)
    assert state.amplitude(np.uint8(1), 0) == 1
    # a site off the light cone reads 0, however far out
    assert state.amplitude(0, 5) == 0
