import numpy as np
import pytest

from beamwalk import WalkerState, delta_state, initial_state


def test_initial_state_is_coin_one_at_origin():
    state = initial_state(5)
    assert state.step_index == 0
    assert state.amplitude(1, 0) == 1.0
    assert state.amplitude(0, 0) == 0.0
    assert state.norm() == pytest.approx(1.0)


def test_delta_state_places_single_amplitude():
    state = delta_state(4, coin=0, site=2, step_index=2)
    assert state.amplitude(0, 2) == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_sites_axis_covers_the_light_cone():
    assert initial_state(3).sites.tolist() == [0]
    state = delta_state(3, coin=0, site=1, step_index=3)
    assert state.sites.tolist() == [-3, -1, 1, 3]
    assert state.amplitudes.shape == (2, 4)
    assert state.amplitudes[0, 2] == 1.0


def test_off_cone_sites_inside_the_lattice_read_zero():
    state = delta_state(4, coin=1, site=0, step_index=2)
    assert state.amplitude(1, 0) == 1.0
    for site in (-4, -3, -1, 1, 3, 4):
        assert state.amplitude(0, site) == 0
        assert state.amplitude(1, site) == 0


def test_amplitudes_are_copied_on_construction():
    amps = np.zeros((2, 1), dtype=complex)
    amps[1, 0] = 1.0
    state = WalkerState(amps, 0, 3)
    amps[1, 0] = 0.5
    assert state.amplitude(1, 0) == 1.0


def test_a_handed_over_array_is_kept_and_checked():
    # the path apply_shift takes for the array it has just allocated
    amps = np.zeros((2, 2), dtype=complex)
    assert WalkerState._owning(amps, 1, 3).amplitudes is amps
    with pytest.raises(ValueError, match="shape"):
        WalkerState._owning(amps, 0, 3)
    with pytest.raises(ValueError, match="step_index"):
        WalkerState._owning(amps, 4, 3)


def test_wrong_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        WalkerState(np.zeros((2, 6), dtype=complex), 0, 3)


def test_step_index_out_of_bounds_rejected():
    amps = np.zeros((2, 7), dtype=complex)
    with pytest.raises(ValueError, match="step_index"):
        WalkerState(amps, 4, 3)
    with pytest.raises(ValueError, match="step_index"):
        WalkerState(amps, -1, 3)


@pytest.mark.parametrize("site,step_index", [(1, 0), (0, 1), (2, 1), (3, 2)])
def test_off_lightcone_population_rejected(site, step_index):
    # an off-cone site has no column: only a lattice-wide array can hold
    # it, and that array has the wrong shape
    amps = np.zeros((2, 7), dtype=complex)
    amps[0, site + 3] = 1.0
    with pytest.raises(ValueError, match="shape"):
        WalkerState(amps, step_index, 3)
    with pytest.raises(ValueError, match="light cone"):
        delta_state(3, coin=0, site=site, step_index=step_index)


def test_delta_state_outside_lattice_rejected():
    with pytest.raises(ValueError):
        delta_state(2, coin=0, site=3, step_index=2)


def test_amplitude_accessor_validates_arguments():
    state = initial_state(2)
    with pytest.raises(ValueError, match="coin"):
        state.amplitude(2, 0)
    # a site off the light cone reads 0, whatever the lattice
    assert state.amplitude(0, 5) == 0
