import numpy as np
import pytest

from beamwalk import (
    BINARY_0_PI,
    CapacityError,
    DisorderSpec,
    ScheduleError,
    disordered_schedule,
    enumerate_paths,
    evolve,
    initial_state,
    oracle_state,
    ordered_schedule,
    position_distribution,
)
from beamwalk.oracle import REFLECT, TRANSMIT

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def replay_choices(initial_coin, choices):
    """Walk a record's choices to recover its move and coin sequence."""
    coin, site, planes = initial_coin, 0, []
    for step_number, label in enumerate(choices, start=1):
        out_port = coin if label == REFLECT else 1 - coin
        site += 1 if out_port == 1 else -1
        coin = 1 - out_port
        planes.append((site + step_number) // 2)
    return coin, site, planes


def test_single_step_paths_from_coin_one():
    records = enumerate_paths(1, ordered_schedule(1, 0.0), 0.5)
    assert len(records) == 2
    down = next(r for r in records if r.final_site == -1)
    up = next(r for r in records if r.final_site == +1)
    assert down.amplitude == pytest.approx(INV_SQRT2)
    assert down.final_coin == 1
    assert up.amplitude == pytest.approx(1j * INV_SQRT2)
    assert up.final_coin == 0


def test_two_step_paths_interfering_at_the_origin():
    records = enumerate_paths(1, ordered_schedule(2, 0.0), 0.5)
    assert len(records) == 4
    at_origin = sorted(
        (r for r in records if r.final_site == 0), key=lambda r: r.final_coin
    )
    assert at_origin[0].amplitude == pytest.approx(0.5j)
    assert at_origin[1].amplitude == pytest.approx(-0.5)


@pytest.mark.parametrize("num_steps", [0, 1, 2, 5, 8])
def test_path_count_is_two_to_the_steps(num_steps):
    schedule = ordered_schedule(max(num_steps, 1), 0.1)
    records = enumerate_paths(0, schedule, 0.44, num_steps=num_steps)
    assert len(records) == 2**num_steps


def test_grouped_amplitudes_have_unit_norm():
    spec = DisorderSpec(BINARY_0_PI, seed=21, realization_count=1)
    schedule = disordered_schedule(8, spec, 0)
    records = enumerate_paths(1, schedule, 0.44)
    grouped: dict[tuple[int, int], complex] = {}
    for record in records:
        key = (record.final_coin, record.final_site)
        grouped[key] = grouped.get(key, 0.0) + record.amplitude
    total = sum(abs(amplitude) ** 2 for amplitude in grouped.values())
    assert abs(total - 1.0) < 1e-10


def test_record_bookkeeping_is_self_consistent():
    spec = DisorderSpec(BINARY_0_PI, seed=4, realization_count=1)
    schedule = disordered_schedule(6, spec, 0)
    for record in enumerate_paths(1, schedule, 0.3):
        coin, site, planes = replay_choices(1, record.choices)
        assert coin == record.final_coin
        assert site == record.final_site
        assert abs(record.amplitude) <= 1.0 + 1e-12
        # plane never drops, never climbs more than one per step
        deltas = np.diff([0] + planes)
        assert set(deltas.tolist()) <= {0, 1}


def test_enumeration_order_is_lexicographic_and_stable():
    schedule = ordered_schedule(3, 0.0)
    records = enumerate_paths(1, schedule, 0.5)
    again = enumerate_paths(1, schedule, 0.5)
    assert records == again
    # port 0 always branches first: the first record moves down every step
    assert records[0].final_site == -3
    assert records[-1].final_site == +3


@pytest.mark.parametrize("reflectivity", [0.0, 0.44, 0.5, 1.0])
@pytest.mark.parametrize("num_steps", [1, 2, 3, 4, 5])
def test_path_sum_matches_matrix_evolution_ordered(reflectivity, num_steps):
    schedule = ordered_schedule(num_steps, 0.0)
    final = evolve(initial_state(num_steps), schedule, reflectivity)[-1]
    summed = oracle_state(1, schedule, reflectivity)
    assert np.max(np.abs(summed.amplitudes - final.amplitudes)) < 1e-10


def test_path_sum_matches_matrix_evolution_disordered():
    spec = DisorderSpec(BINARY_0_PI, seed=17, realization_count=2)
    for index in range(2):
        schedule = disordered_schedule(7, spec, index)
        final = evolve(initial_state(7), schedule, 0.44)[-1]
        summed = oracle_state(1, schedule, 0.44)
        assert np.max(np.abs(summed.amplitudes - final.amplitudes)) < 1e-10


def test_three_step_path_sum_distribution():
    summed = oracle_state(1, ordered_schedule(3, 0.0), 0.5)
    np.testing.assert_allclose(
        position_distribution(summed).probs, [1 / 8, 5 / 8, 1 / 8, 1 / 8], atol=1e-12
    )


def test_zero_steps_returns_the_initial_state():
    summed = oracle_state(1, ordered_schedule(1, 0.0), 0.5, num_steps=0)
    assert summed.step_index == 0
    assert summed.amplitude(1, 0) == 1.0


def test_enumeration_guard_rejects_large_walks():
    schedule = ordered_schedule(21, 0.0)
    with pytest.raises(CapacityError, match="2\\^21"):
        enumerate_paths(0, schedule, 0.5)


def test_short_schedule_rejected():
    with pytest.raises(ScheduleError, match="covers 2"):
        enumerate_paths(0, ordered_schedule(2, 0.0), 0.5, num_steps=3)


def test_labels_distinguish_reflection_from_transmission():
    # R=1 reflects everything: from coin 0 the surviving path is all-REFLECT
    records = enumerate_paths(0, ordered_schedule(3, 0.0), 1.0)
    surviving = [r for r in records if abs(r.amplitude) > 1e-12]
    assert len(surviving) == 1
    assert surviving[0].choices == (REFLECT, REFLECT, REFLECT)
    # and R=0 transmits everything
    records = enumerate_paths(0, ordered_schedule(3, 0.0), 0.0)
    surviving = [r for r in records if abs(r.amplitude) > 1e-12]
    assert len(surviving) == 1
    assert surviving[0].choices == (TRANSMIT, TRANSMIT, TRANSMIT)
