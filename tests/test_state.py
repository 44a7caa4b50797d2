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
    state = WalkerState(amps, 0)
    amps[1, 0] = 0.5
    assert state.amplitude(1, 0) == 1.0


def test_a_handed_over_array_is_kept_and_checked():
    # the path apply_shift takes for the array it has just allocated
    amps = np.zeros((2, 2), dtype=complex)
    assert WalkerState._owning(amps, 1).amplitudes is amps
    with pytest.raises(ValueError, match="shape"):
        WalkerState._owning(amps, 0)
    with pytest.raises(ValueError, match="step_index"):
        WalkerState._owning(amps, -1)


def test_wrong_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        WalkerState(np.zeros((2, 6), dtype=complex), 0)


def test_step_index_out_of_bounds_rejected():
    amps = np.zeros((2, 7), dtype=complex)
    with pytest.raises(ValueError, match="step_index"):
        WalkerState(amps, -1)


@pytest.mark.parametrize("site,step_index", [(1, 0), (0, 1), (2, 1), (3, 2)])
def test_off_lightcone_population_rejected(site, step_index):
    # an off-cone site has no column: only a wider array can hold it, and
    # that array has the wrong shape
    amps = np.zeros((2, 7), dtype=complex)
    amps[0, site + 3] = 1.0
    with pytest.raises(ValueError, match="shape"):
        WalkerState(amps, step_index)
    with pytest.raises(ValueError, match="light cone"):
        delta_state(coin=0, site=site, step_index=step_index)


def test_delta_state_refuses_a_negative_step_before_the_light_cone():
    # the same one-line message the state itself gives
    message = "step_index must be >= 0, got -1"
    with pytest.raises(ValueError, match=message):
        WalkerState(np.zeros((2, 0), dtype=complex), -1)
    with pytest.raises(ValueError, match=message):
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
