"""Property-based checks of the core invariants."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwalk import (
    DisorderSpec,
    Distribution,
    DistributionSeries,
    PhaseSchedule,
    WalkerState,
    apply_coin_layer,
    apply_shift,
    delta_state,
    disordered_schedule,
    ensemble_mean_series,
    ensemble_schedules,
    evolve,
    initial_state,
    ordered_schedule,
    position_distribution,
    series_from_trajectory,
    similarity,
    variance,
    variance_series,
)
from beamwalk.config import parse_config
from beamwalk.measure import _variance_table
from beamwalk.runner import _manifest_json, _read_schedules
from conftest import random_coin_field, random_walker_state

reflectivities = st.one_of(
    st.sampled_from([0.0, 0.44, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    step_index=st.integers(min_value=0, max_value=6),
    reflectivity=reflectivities,
)
def test_coin_layer_preserves_norm_of_any_state(seed, step_index, reflectivity):
    rng = np.random.default_rng(seed)
    state = random_walker_state(step_index, rng)
    field = random_coin_field(range(-step_index, step_index + 1, 2), reflectivity, rng)
    after = apply_coin_layer(state, field)
    assert abs(after.norm() - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_steps=st.integers(min_value=1, max_value=7),
    reflectivity=reflectivities,
)
def test_evolution_conserves_probability(seed, num_steps, reflectivity):
    spec = DisorderSpec("uniform_0_2pi", seed=seed, realization_count=1)
    schedule = disordered_schedule(num_steps, spec, 0)
    trajectory = evolve(initial_state(), schedule, reflectivity)
    for state in trajectory:
        assert abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_steps=st.integers(min_value=1, max_value=6),
)
def test_trajectory_respects_the_light_cone(seed, num_steps):
    spec = DisorderSpec("binary_0_pi", seed=seed, realization_count=1)
    schedule = disordered_schedule(num_steps, spec, 0)
    trajectory = evolve(initial_state(), schedule, 0.44)
    for state in trajectory:
        k, n = state.step_index, num_steps
        for site in range(-n, n + 1):
            if abs(site) > k or (site + k) % 2 != 0:
                assert state.amplitude(0, site) == 0
                assert state.amplitude(1, site) == 0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    gauge=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    reflectivity=reflectivities,
)
def test_only_the_phase_difference_is_observable(seed, gauge, reflectivity):
    spec = DisorderSpec("uniform_0_2pi", seed=seed, realization_count=1)
    schedule = disordered_schedule(5, spec, 0)
    plain = evolve(initial_state(), schedule, reflectivity)
    shifted = evolve(initial_state(), schedule, reflectivity, phase_gauge=gauge)
    for state_a, state_b in zip(plain, shifted):
        delta = position_distribution(state_a).probs - position_distribution(state_b).probs
        assert np.max(np.abs(delta)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_step_is_linear_in_the_state(seed, scale):
    rng = np.random.default_rng(seed)
    first = random_walker_state(2, rng)
    second = random_walker_state(2, rng)
    field = random_coin_field(range(-2, 3, 2), 0.44, rng)
    mixed = WalkerState(first.amplitudes + scale * second.amplitudes)
    left = apply_shift(apply_coin_layer(mixed, field)).amplitudes
    right = (apply_shift(apply_coin_layer(first, field)).amplitudes
             + scale * apply_shift(apply_coin_layer(second, field)).amplitudes)
    assert np.max(np.abs(left - right)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    site=st.integers(min_value=-3, max_value=3),
    coin=st.sampled_from([0, 1]),
)
def test_double_shift_restores_the_coin(site, coin):
    step_index = abs(site)  # earliest step with the right parity for `site`
    state = delta_state(coin, site, step_index)
    twice = apply_shift(apply_shift(state))
    assert twice.amplitude(coin, site) == 1.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    step_index=st.integers(min_value=0, max_value=200),
)
def test_shift_takes_any_state_one_step_on(seed, step_index):
    # no state is too far along to shift: the schedule, not the state,
    # ends a walk
    state = random_walker_state(step_index, np.random.default_rng(seed))
    shifted = apply_shift(state)
    assert shifted.step_index == step_index + 1
    assert shifted.amplitudes[1, :-1].tobytes() == state.amplitudes[0].tobytes()
    assert shifted.amplitudes[0, 1:].tobytes() == state.amplitudes[1].tobytes()


@st.composite
def normalized_series_pair(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    steps = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                          max_size=4, unique=True))
    rng = np.random.default_rng(seed)
    rows_a, rows_b = [], []
    for step_number in sorted(steps):
        for rows in (rows_a, rows_b):
            raw = rng.random(step_number + 1) + 1e-12
            rows.append(Distribution(raw / raw.sum()))
    return DistributionSeries(tuple(rows_a)), DistributionSeries(tuple(rows_b))


@settings(max_examples=40, deadline=None)
@given(pair=normalized_series_pair())
def test_similarity_is_bounded_and_symmetric(pair):
    series_a, series_b = pair
    value = similarity(series_a, series_b)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert abs(value - similarity(series_b, series_a)) < 1e-12
    assert similarity(series_a, series_a) > 1.0 - 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    step_number=st.integers(min_value=0, max_value=9),
)
def test_variance_reflection_invariance(seed, step_number):
    rng = np.random.default_rng(seed)
    raw = rng.random(step_number + 1)
    probs = raw / raw.sum()
    forward = Distribution(probs)
    mirrored = Distribution(probs[::-1])
    assert abs(variance(forward) - variance(mirrored)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
    num_steps=st.integers(min_value=1, max_value=6),
)
def test_ordered_walks_always_normalize(theta, num_steps):
    schedule = ordered_schedule(num_steps, theta)
    trajectory = evolve(initial_state(), schedule, 0.44)
    assert abs(trajectory[-1].norm() - 1.0) < 1e-10


# Every finite float64, with the edges a text encoding could lose weighted in:
# signed zeros, subnormals, +-pi and values near the float range's end.
finite_phases = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308, math.pi, -math.pi,
                     1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def phase_ensembles(draw):
    num_steps = draw(st.integers(min_value=1, max_value=8))
    count = draw(st.integers(min_value=1, max_value=3))
    size = num_steps * (num_steps + 1) // 2
    phases = [np.array(draw(st.lists(finite_phases, min_size=size, max_size=size)))
              for _ in range(count)]
    return num_steps, phases


@settings(max_examples=60, deadline=None)
@given(ensemble=phase_ensembles())
def test_manifest_schedules_round_trip_bit_for_bit(ensemble):
    num_steps, phases = ensemble
    config = parse_config({"steps": num_steps, "reflectivity": 0.5,
                           "schedule_mode": {"mode": "disordered", "seed": 0,
                                             "realization_count": len(phases)}})
    text = "".join(_manifest_json(config, [PhaseSchedule(p) for p in phases], None))
    document = json.loads(text)
    read_config = parse_config(document["config"])
    schedules = _read_schedules(document, read_config, "manifest.json")
    assert read_config == config
    assert len(schedules) == len(phases)
    for schedule, written in zip(schedules, phases):
        assert np.array_equal(schedule.phases.view(np.int64), written.view(np.int64))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _row_variance(dist: Distribution) -> float:
    # The one-row-at-a-time form the variance tables were first written with.
    sites = dist.sites.astype(np.float64)
    mean = float((sites * dist.probs).sum())
    return float((sites * sites * dist.probs).sum() - mean * mean)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    realizations=st.integers(min_value=1, max_value=6),
    num_steps=st.integers(min_value=0, max_value=40),
    phases=st.sampled_from(["ordered", "binary_0_pi", "uniform_0_2pi"]),
    coin=st.sampled_from([0, 1]),
    reflectivity=reflectivities,
)
def test_stacked_variances_equal_each_rows_variance_bit_for_bit(
    seed, realizations, num_steps, phases, coin, reflectivity
):
    if num_steps == 0:
        trajectories = [[initial_state(coin=coin)]] * realizations
    else:
        if phases == "ordered":
            thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, realizations)
            schedules = [ordered_schedule(num_steps, theta) for theta in thetas]
        else:
            spec = DisorderSpec(phases, seed=seed, realization_count=realizations)
            schedules = ensemble_schedules(num_steps, spec)
        trajectories = [evolve(initial_state(coin=coin), schedule, reflectivity)
                        for schedule in schedules]
    runs = [series_from_trajectory(trajectory) for trajectory in trajectories]
    table = _variance_table(runs)
    assert table.shape == (realizations, num_steps + 1)
    for run, got in zip(runs, table):
        assert _bits(got) == _bits([variance(row) for row in run.rows])
        assert _bits(got) == _bits([_row_variance(row) for row in run.rows])
    mean = ensemble_mean_series(runs)
    expected = _bits([_row_variance(row) for row in mean.rows])
    assert _bits(_variance_table([mean])[0]) == expected
    assert _bits(variance_series(mean)) == _bits([variance(row) for row in mean.rows]) == expected
