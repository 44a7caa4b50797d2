import warnings

import numpy as np
import pytest

from beamwalk import (
    Distribution,
    DistributionSeries,
    WalkerState,
    bhattacharyya_partials,
    delta_state,
    ensemble_mean_series,
    evolve,
    initial_state,
    ordered_schedule,
    position_distribution,
    series_from_trajectory,
    similarity,
    variance,
    variance_series,
)


def dist(step, probs):
    return Distribution(step, np.asarray(probs, dtype=float))


def series(*rows):
    return DistributionSeries(tuple(dist(step, probs) for step, probs in rows))


@pytest.fixture(scope="module")
def ordered_walk():
    return evolve(initial_state(7), ordered_schedule(7, 0.0), 0.5)


def test_delta_state_measures_to_a_point_mass():
    measured = position_distribution(initial_state(2))
    assert measured.step == 0
    np.testing.assert_allclose(measured.probs, [1.0])


def test_coin_trace_sums_both_components(ordered_walk):
    measured = position_distribution(ordered_walk[1])
    np.testing.assert_allclose(measured.probs, [0.5, 0.5], atol=1e-12)


def test_three_step_distribution(ordered_walk):
    measured = position_distribution(ordered_walk[3])
    np.testing.assert_allclose(measured.probs, [1 / 8, 5 / 8, 1 / 8, 1 / 8], atol=1e-12)


def test_coin_trace_is_divided_by_its_row_sum():
    # norm^2 = 0.72: the row still sums to 1, not to the state's norm
    state = WalkerState(np.array([[0.6, 0.0], [0.0, 0.6]], dtype=complex), 1, 1)
    np.testing.assert_array_equal(position_distribution(state).probs, [0.5, 0.5])


def test_variance_of_a_point_mass_is_zero():
    assert variance(position_distribution(initial_state(3))) == 0.0


def test_variance_of_the_symmetric_pair():
    assert variance(dist(1, [0.5, 0.5])) == pytest.approx(1.0)


def test_variance_of_the_three_step_walk(ordered_walk):
    assert variance(position_distribution(ordered_walk[3])) == pytest.approx(2.75)


def test_variance_is_reflection_invariant():
    probs = np.array([0.1, 0.3, 0.05, 0.35, 0.2])
    assert variance(dist(4, probs)) == pytest.approx(variance(dist(4, probs[::-1])))


def test_variance_series_of_the_ordered_walk(ordered_walk):
    measured = series_from_trajectory(ordered_walk[1:4])
    np.testing.assert_allclose(variance_series(measured), [1.0, 2.0, 2.75], atol=1e-12)


def test_variance_series_includes_a_leading_zero_with_step_zero(ordered_walk):
    measured = series_from_trajectory(ordered_walk[:3])
    assert variance_series(measured)[0] == 0.0


def test_variance_is_bounded_by_the_step_squared(ordered_walk):
    measured = series_from_trajectory(ordered_walk)
    for step, value in zip(measured.steps, variance_series(measured)):
        assert 0.0 <= value <= step**2


def test_similarity_of_a_series_with_itself_is_one(ordered_walk):
    measured = series_from_trajectory(ordered_walk[1:])
    assert similarity(measured, measured) == pytest.approx(1.0, abs=1e-12)


def test_similarity_vanishes_on_disjoint_supports():
    a = series((1, [1.0, 0.0]), (2, [1.0, 0.0, 0.0]))
    b = series((1, [0.0, 1.0]), (2, [0.0, 0.0, 1.0]))
    assert similarity(a, b) == 0.0


def test_similarity_is_symmetric(ordered_walk):
    other = evolve(initial_state(7), ordered_schedule(7, 0.0), 0.44)
    a = series_from_trajectory(ordered_walk[1:])
    b = series_from_trajectory(other[1:])
    assert abs(similarity(a, b) - similarity(b, a)) < 1e-12


def test_similarity_separates_localized_from_ballistic(ordered_walk):
    from beamwalk import DisorderSpec, ensemble_mean_series as mean_series, ensemble_schedules

    ideal = series_from_trajectory(ordered_walk[1:])
    real = series_from_trajectory(evolve(initial_state(7), ordered_schedule(7, 0.0), 0.44)[1:])
    spec = DisorderSpec("binary_0_pi", seed=6, realization_count=30)
    localized = mean_series(
        [
            series_from_trajectory(evolve(initial_state(7), s, 0.5)[1:])
            for s in ensemble_schedules(7, spec)
        ]
    )
    nearly_equal = similarity(ideal, real)
    far_apart = similarity(ideal, localized)
    assert far_apart < nearly_equal - 0.05


@pytest.mark.parametrize("compare", [similarity, bhattacharyya_partials],
                         ids=lambda compare: compare.__name__)
def test_similarity_rejects_mismatched_step_sets(compare):
    a = series((1, [0.5, 0.5]))
    b = series((2, [0.25, 0.5, 0.25]))
    with pytest.raises(ValueError, match="different steps"):
        compare(a, b)


def test_mean_of_a_single_run_is_the_run_itself():
    run = series((1, [0.5, 0.5]), (2, [0.25, 0.5, 0.25]))
    mean = ensemble_mean_series([run])
    for row, expected in zip(mean.rows, run.rows):
        np.testing.assert_allclose(row.probs, expected.probs)


def test_mean_of_two_opposite_runs_is_uniform():
    a = series((1, [1.0, 0.0]))
    b = series((1, [0.0, 1.0]))
    mean = ensemble_mean_series([a, b])
    np.testing.assert_allclose(mean.rows[0].probs, [0.5, 0.5])


def test_mean_of_an_empty_ensemble_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        ensemble_mean_series([])


def test_mean_rows_stay_normalized():
    rng = np.random.default_rng(8)
    runs = []
    for _ in range(40):
        probs = rng.random(4)
        runs.append(series((3, probs / probs.sum())))
    mean = ensemble_mean_series(runs)
    assert abs(float(mean.rows[0].probs.sum()) - 1.0) < 1e-10


def test_series_from_trajectory_rejects_states_out_of_order(ordered_walk):
    with pytest.raises(ValueError, match="strictly increasing"):
        series_from_trajectory(ordered_walk[::-1])


def test_distribution_validation():
    with pytest.raises(ValueError, match="entries"):
        dist(2, [0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        dist(1, [1.2, -0.2])
    with pytest.raises(ValueError, match="sum to 1"):
        dist(1, [0.7, 0.7])
    with pytest.raises(ValueError, match="increasing"):
        series((2, [0.25, 0.5, 0.25]), (1, [0.5, 0.5]))


# NaN compares false with everything, so checks written as `probs < 0` or
# `abs(total - 1) > tol` would let it through.
@pytest.mark.parametrize("step,probs", [(0, [float("nan")]), (1, [float("nan"), 1.0])])
def test_distribution_rejects_nan(step, probs):
    with pytest.raises(ValueError, match="probabilities must"):
        Distribution(step, probs)


@pytest.mark.parametrize("fill", [0.0, float("nan"), float("inf")])
def test_a_state_without_finite_power_is_refused_without_a_warning(fill, ordered_walk):
    bad = WalkerState(np.full((2, 3), fill, dtype=complex), 2, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="step-2 state has total power"):
            position_distribution(bad)
        with pytest.raises(ValueError, match="step-2 state has total power"):
            series_from_trajectory([ordered_walk[1], bad, ordered_walk[3]])


def walks():
    from beamwalk import DisorderSpec, disordered_schedule

    for kind in ("binary_0_pi", "uniform_0_2pi"):
        for index in range(3):
            schedule = disordered_schedule(45, DisorderSpec(kind, 4, 3), index)
            yield evolve(initial_state(45), schedule, 0.44)
    yield evolve(initial_state(45), ordered_schedule(45, 0.3), 0.5)


def test_series_rows_equal_each_states_powers_over_their_sum_bit_for_bit():
    for trajectory in walks():
        for states in (trajectory, trajectory[1:], trajectory[-1:]):
            measured = series_from_trajectory(states)
            for row, state in zip(measured.rows, states, strict=True):
                powers = (np.abs(state.amplitudes) ** 2).sum(axis=0)
                assert row.step == state.step_index
                assert row.probs.tobytes() == (powers / float(powers.sum())).tobytes()
            only = position_distribution(states[-1]).probs
            assert only.tobytes() == measured.rows[-1].probs.tobytes()


def test_ensemble_mean_rows_equal_the_index_order_sum_bit_for_bit():
    runs = [series_from_trajectory(trajectory) for trajectory in walks()]
    user_rows = series(*[(step, np.full(step + 1, 1.0 / (step + 1))) for step in range(46)])
    for ensemble in (runs, runs[:1], runs + [user_rows]):
        mean = ensemble_mean_series(ensemble)
        assert mean.steps == ensemble[0].steps
        for j, row in enumerate(mean.rows):
            acc = np.zeros_like(ensemble[0].rows[j].probs)
            for run in ensemble:
                acc += run.rows[j].probs
            assert row.probs.tobytes() == (acc / len(ensemble)).tobytes()


def test_series_rows_are_read_only_views_of_one_array(ordered_walk):
    runs = [series_from_trajectory(ordered_walk), series_from_trajectory(ordered_walk[2:])]
    for measured in runs + [ensemble_mean_series(runs[:1])]:
        packed = measured.rows[0].probs.base
        assert packed is not None and packed.size == sum(measured.steps) + len(measured.steps)
        assert all(row.probs.base is packed for row in measured.rows)
        for row in measured.rows:
            assert not row.probs.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                row.probs[0] = 0.5
    # a distribution built by hand still keeps its own copy
    probs = np.array([0.25, 0.75])
    built = Distribution(1, probs)
    assert built.probs.flags.writeable and not np.shares_memory(built.probs, probs)
