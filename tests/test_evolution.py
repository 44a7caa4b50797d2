import cmath
import math
import weakref

import numpy as np
import pytest

from beamwalk import (
    UNIFORM_0_2PI,
    DisorderSpec,
    ScheduleError,
    WalkerState,
    apply_coin_layer,
    apply_shift,
    coin_field,
    delta_state,
    disordered_schedule,
    evolve,
    initial_state,
    ordered_schedule,
    position_distribution,
)
from beamwalk import evolution
from beamwalk.apparatus import reachable_sites
from conftest import prefix_schedule, random_coin_field, random_walker_state, single_coin

BALANCED = single_coin(0.5)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def everywhere(coin, step_index):
    return np.stack([coin] * (step_index + 1))


def test_shift_moves_coin_zero_down_and_inverts():
    state = apply_shift(delta_state(2, coin=0))
    assert state.step_index == 1
    assert state.amplitude(1, -1) == 1.0


def test_shift_moves_coin_one_up_and_inverts():
    state = apply_shift(delta_state(2, coin=1))
    assert state.amplitude(0, 1) == 1.0


def test_shift_is_linear_on_superpositions():
    a, b = 0.3 - 0.4j, 0.7 + 0.2j
    state = apply_shift(WalkerState(np.array([[a], [b]]), 0, 2))
    assert state.amplitude(1, -1) == pytest.approx(a)
    assert state.amplitude(0, 1) == pytest.approx(b)


def test_double_shift_restores_the_coin_label():
    state = delta_state(5, coin=0, site=1, step_index=1)
    twice = apply_shift(apply_shift(state))
    assert twice.step_index == 3
    assert twice.amplitude(0, 1) == 1.0


def test_shift_past_the_lattice_is_refused():
    state = apply_shift(delta_state(1, coin=1))
    with pytest.raises(ValueError, match="step_index"):
        apply_shift(state)


def test_identity_like_coin_leaves_state_unchanged():
    identity = single_coin(1.0, -np.pi / 2, -np.pi / 2)
    rng = np.random.default_rng(3)
    state = random_walker_state(4, 2, rng)
    after = apply_coin_layer(state, everywhere(identity, 2))
    np.testing.assert_allclose(after.amplitudes, state.amplitudes, atol=1e-12)


def test_balanced_coin_on_coin_one_input():
    after = apply_coin_layer(initial_state(1), BALANCED[None])
    assert after.amplitude(0, 0) == pytest.approx(INV_SQRT2)
    assert after.amplitude(1, 0) == pytest.approx(1j * INV_SQRT2)


def test_missing_coin_for_populated_site_is_a_schedule_error():
    with pytest.raises(ScheduleError, match="shape"):
        apply_coin_layer(initial_state(2), np.empty((0, 2, 2)))


def test_missing_coin_for_empty_site_is_a_schedule_error():
    # the stack covers every reachable site, populated or not: a coin at
    # -1 alone is one short for step index 1
    state = delta_state(2, coin=1, site=-1, step_index=1)
    with pytest.raises(ScheduleError, match=r"\(2, 2, 2\)"):
        apply_coin_layer(state, BALANCED[None])


def test_coin_stack_of_wrong_matrix_shape_is_a_schedule_error():
    with pytest.raises(ScheduleError, match="shape"):
        apply_coin_layer(initial_state(2), np.ones((1, 2, 3)))


@pytest.mark.parametrize("step_index", [0, 1, 3])
@pytest.mark.parametrize("reflectivity", [0.0, 0.44, 1.0])
def test_coin_layer_preserves_norm(step_index, reflectivity):
    rng = np.random.default_rng(step_index * 7 + 1)
    state = random_walker_state(5, step_index, rng)
    field = random_coin_field(reachable_sites(step_index), reflectivity, rng)
    after = apply_coin_layer(state, field)
    assert abs(after.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("step_index", [0, 1, 4, 9])
def test_coin_layer_equals_the_per_site_matmul_bit_for_bit(step_index):
    # reference: one 2x2 matrix-vector product per site, as a loop
    rng = np.random.default_rng(40 + step_index)
    state = random_walker_state(10, step_index, rng)
    field = random_coin_field(reachable_sites(step_index), 0.44, rng)
    looped = np.stack([field[j] @ state.amplitudes[:, j] for j in range(step_index + 1)],
                      axis=1)
    assert apply_coin_layer(state, field).amplitudes.tobytes() == looped.tobytes()


def test_single_step_pinned_amplitudes():
    after = apply_shift(apply_coin_layer(initial_state(1), BALANCED[None]))
    assert after.amplitude(1, -1) == pytest.approx(INV_SQRT2)
    assert after.amplitude(0, 1) == pytest.approx(1j * INV_SQRT2)
    dist = position_distribution(after)
    np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-12)


def test_two_steps_interfere_to_half_at_origin():
    schedule = ordered_schedule(2, 0.0)
    trajectory = evolve(initial_state(2), schedule, 0.5)
    dist = position_distribution(trajectory[2])
    np.testing.assert_allclose(dist.probs, [0.25, 0.5, 0.25], atol=1e-12)


def test_full_mirror_ping_pongs_with_phase_i():
    after = apply_shift(apply_coin_layer(delta_state(1, coin=0), single_coin(1.0)[None]))
    assert after.amplitude(1, -1) == pytest.approx(1j)
    np.testing.assert_allclose(position_distribution(after).probs, [1.0, 0.0], atol=1e-12)


def test_step_equals_coin_then_shift():
    # the step evolve takes is the coin layer of that step, then the shift
    rng = np.random.default_rng(11)
    state = random_walker_state(6, 2, rng)
    schedule = disordered_schedule(3, DisorderSpec(UNIFORM_0_2PI, 11, 1), 0)
    composed = apply_shift(apply_coin_layer(state, coin_field(schedule, 0.44, 3)))
    direct = evolve(state, schedule, 0.44)[-1]
    assert direct.amplitudes.tobytes() == composed.amplitudes.tobytes()


def test_step_is_linear():
    rng = np.random.default_rng(23)
    first = random_walker_state(5, 2, rng)
    second = random_walker_state(5, 2, rng)
    field = random_coin_field(reachable_sites(2), 0.5, rng)
    a, b = 0.6 - 0.1j, -0.3 + 0.8j
    mixed = WalkerState(a * first.amplitudes + b * second.amplitudes, 2, 5)
    left = apply_shift(apply_coin_layer(mixed, field)).amplitudes
    right = (a * apply_shift(apply_coin_layer(first, field)).amplitudes
             + b * apply_shift(apply_coin_layer(second, field)).amplitudes)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_evolve_zero_steps_returns_initial_only():
    # a state already at its schedule's end has no step left to take
    at_end = delta_state(1, 1, site=1, step_index=1)
    trajectory = evolve(at_end, ordered_schedule(1, 0.0), 0.5)
    assert len(trajectory) == 1
    assert trajectory[0].step_index == 1
    np.testing.assert_array_equal(trajectory[0].amplitudes, at_end.amplitudes)


def uniform_walk(num_steps, gauge):
    schedule = disordered_schedule(num_steps, DisorderSpec(UNIFORM_0_2PI, 3, 1), 0)
    return schedule, evolve(initial_state(num_steps), schedule, 0.44, phase_gauge=gauge)


def test_evolving_from_mid_walk_reproduces_the_rest():
    schedule, trajectory = uniform_walk(9, 0.7)
    rest = evolve(trajectory[4], schedule, 0.44, phase_gauge=0.7)
    assert [state.step_index for state in rest] == list(range(4, 10))
    for state, expected in zip(rest, trajectory[4:], strict=True):
        assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_prefix_schedule_walks_the_first_steps():
    schedule, trajectory = uniform_walk(9, 0.7)
    for k in range(1, 10):
        head = evolve(initial_state(9), prefix_schedule(schedule, k), 0.44, phase_gauge=0.7)
        assert len(head) == k + 1
        for state, expected in zip(head, trajectory):
            assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_three_step_pinned_distribution():
    trajectory = evolve(initial_state(3), ordered_schedule(3, 0.0), 0.5)
    assert [state.step_index for state in trajectory] == [0, 1, 2, 3]
    dist = position_distribution(trajectory[3])
    np.testing.assert_allclose(dist.probs, [1 / 8, 5 / 8, 1 / 8, 1 / 8], atol=1e-12)


def test_evolve_norm_stays_one_under_binary_schedule():
    from beamwalk import DisorderSpec, disordered_schedule

    schedule = disordered_schedule(7, DisorderSpec("binary_0_pi", 5, 1), 0)
    trajectory = evolve(initial_state(7), schedule, 0.5)
    drift = max(abs(state.norm() ** 2 - 1.0) for state in trajectory)
    assert drift < 1e-10


def test_schedule_shorter_than_walk_is_a_schedule_error():
    with pytest.raises(ScheduleError, match="schedule covers 2"):
        evolve(delta_state(3, 1, site=1, step_index=3), ordered_schedule(2, 0.0), 0.5)


def test_lattice_shorter_than_the_schedule_is_refused_before_any_step(monkeypatch):
    stepped = []
    real_coin_layer = evolution.apply_coin_layer

    def counting_coin_layer(*args):
        stepped.append(args)
        return real_coin_layer(*args)

    monkeypatch.setattr(evolution, "apply_coin_layer", counting_coin_layer)
    evolve(initial_state(2), ordered_schedule(2, 0.0), 0.5)
    assert len(stepped) == 2
    stepped.clear()
    with pytest.raises(ScheduleError, match="schedule covers 5 steps.*3-step lattice"):
        evolve(initial_state(3), ordered_schedule(5, 0.0), 0.5)
    assert stepped == []


@pytest.mark.parametrize("settings,message", [((7.0, 0.0), "reflectivity"),
                                              ((0.5, float("nan")), "finite")],
                         ids=["reflectivity", "gauge"])
@pytest.mark.parametrize("steps_left", [1, 0])
def test_coin_settings_are_checked_even_with_no_step_left(settings, message, steps_left):
    schedule = ordered_schedule(3, 0.0)
    state = evolve(initial_state(3), schedule, 0.5)[3 - steps_left]
    with pytest.raises(ValueError, match=message):
        evolve(state, schedule, *settings)


def stepwise(state, schedule, reflectivity, gauge):
    """The walk with one coin_field call per step, the reference for evolve."""
    states = [state]
    for k in range(state.step_index + 1, schedule.num_steps + 1):
        state = apply_shift(apply_coin_layer(state, coin_field(schedule, reflectivity, k, gauge)))
        states.append(state)
    return states


def phase_schedule(kind, num_steps):
    if kind == "ordered":
        return ordered_schedule(num_steps, 0.3)
    return disordered_schedule(num_steps, DisorderSpec(kind, num_steps, 1), 0)


# At 1024 mesh points per block, steps 1..44 fill the first block, so a
# 44-step walk is one block, 45 steps end in a one-step block, 46 in a
# two-step one, and 100 cross five block boundaries.
@pytest.mark.parametrize("num_steps", [44, 45, 46, 100])
@pytest.mark.parametrize("kind", ["ordered", "binary_0_pi", UNIFORM_0_2PI])
def test_evolve_equals_the_per_step_coin_field_walk_bit_for_bit(kind, num_steps):
    schedule = phase_schedule(kind, num_steps)
    for reflectivity in (0.0, 0.44, 1.0):
        for gauge in (0.0, 0.7):
            expected = stepwise(initial_state(num_steps), schedule, reflectivity, gauge)
            for start in (0, 17):
                walked = evolve(expected[start], schedule, reflectivity, gauge)
                assert len(walked) == len(expected) - start
                for state, reference in zip(walked, expected[start:]):
                    assert state.step_index == reference.step_index
                    assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()


@pytest.mark.parametrize("block_points", [1, 5, 6, 7])
def test_any_block_size_walks_the_same_bits(monkeypatch, block_points):
    # blocks smaller than a step, and blocks that end mid-way through steps
    schedule = phase_schedule(UNIFORM_0_2PI, 12)
    expected = stepwise(initial_state(12), schedule, 0.44, 0.7)
    monkeypatch.setattr(evolution, "_BLOCK_POINTS", block_points)
    for start in (0, 3):
        walked = evolve(expected[start], schedule, 0.44, 0.7)
        assert [state.amplitudes.tobytes() for state in walked] == \
            [state.amplitudes.tobytes() for state in expected[start:]]


def test_a_block_is_freed_before_its_last_shift(monkeypatch):
    # the coin stack of a block is dead by the shift of the block's last
    # step, as a step's coin_field stack was, and never two are alive
    blocks = []
    live_at_shift = []
    real_splitters, real_shift = evolution._splitters, evolution.apply_shift

    def recording_splitters(*args):
        block = real_splitters(*args)
        blocks.append(weakref.ref(block))
        return block

    def checking_shift(state):
        live_at_shift.append(sum(ref() is not None for ref in blocks))
        return real_shift(state)

    monkeypatch.setattr(evolution, "_splitters", recording_splitters)
    monkeypatch.setattr(evolution, "apply_shift", checking_shift)
    evolve(initial_state(100), phase_schedule("binary_0_pi", 100), 0.5)
    assert len(blocks) == 6
    assert max(live_at_shift) == 1
    assert live_at_shift.count(0) == len(blocks)
    assert live_at_shift[-1] == 0


def test_gauge_shift_leaves_distributions_unchanged():
    schedule = ordered_schedule(5, 0.3)
    plain = evolve(initial_state(5), schedule, 0.44)
    shifted = evolve(initial_state(5), schedule, 0.44, phase_gauge=np.pi / 7)
    for state_a, state_b in zip(plain[1:], shifted[1:]):
        delta = position_distribution(state_a).probs - position_distribution(state_b).probs
        assert np.max(np.abs(delta)) < 1e-12


def test_opposite_initial_coins_walk_mirrored_paths():
    # the theta=0 splitter treats its ports symmetrically, so swapping the
    # input coin reflects the whole distribution about the origin
    schedule = ordered_schedule(5, 0.0)
    from_one = evolve(initial_state(5, coin=1), schedule, 0.5)
    from_zero = evolve(initial_state(5, coin=0), schedule, 0.5)
    for state_a, state_b in zip(from_one, from_zero):
        p_a = position_distribution(state_a).probs
        p_b = position_distribution(state_b).probs
        np.testing.assert_allclose(p_a, p_b[::-1], atol=1e-12)


def splitter(reflectivity, theta0, theta1):
    """The splitter matrix entry by entry, in scalar cmath arithmetic."""
    r, t = math.sqrt(reflectivity), math.sqrt(1.0 - reflectivity)
    half_pi = math.pi / 2
    return np.array(
        [
            [r * cmath.exp(1j * (theta0 + half_pi)), t * cmath.exp(1j * theta0)],
            [t * cmath.exp(1j * theta1), r * cmath.exp(1j * (theta1 + half_pi))],
        ],
        dtype=np.complex128,
    )


def test_coin_field_stacks_the_scalar_splitter_bit_for_bit():
    schedule = disordered_schedule(6, DisorderSpec(UNIFORM_0_2PI, 8, 1), 0)
    for reflectivity in (0.0, 0.3, 0.44, 0.5, 1.0):
        for gauge in (0.0, 0.7, -2.5):
            for step_number in range(1, 7):
                field = coin_field(schedule, reflectivity, step_number, gauge)
                assert field.shape == (step_number, 2, 2)
                thetas = schedule.row(step_number).tolist()
                assert len(thetas) == len(reachable_sites(step_number - 1))
                for j, theta in enumerate(thetas):
                    expected = splitter(reflectivity, theta + gauge, gauge)
                    assert field[j].tobytes() == expected.tobytes()


def test_coin_field_rejects_a_bad_reflectivity():
    with pytest.raises(ValueError, match="reflectivity"):
        coin_field(ordered_schedule(2, 0.0), 1.5, 1)
