import cmath
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from beamwalk import (
    UNIFORM_0_2PI,
    DisorderSpec,
    PhaseSchedule,
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
from beamwalk import evolution, runner
from beamwalk.apparatus import reachable_sites
from beamwalk.config import parse_config
from conftest import prefix_schedule, random_coin_field, random_walker_state, single_coin

BALANCED = single_coin(0.5)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def everywhere(coin, step_index):
    return np.stack([coin] * (step_index + 1))


def test_shift_moves_coin_zero_down_and_inverts():
    state = apply_shift(delta_state(coin=0))
    assert state.step_index == 1
    assert state.amplitude(1, -1) == 1.0


def test_shift_moves_coin_one_up_and_inverts():
    state = apply_shift(delta_state(coin=1))
    assert state.amplitude(0, 1) == 1.0


def test_shift_is_linear_on_superpositions():
    a, b = 0.3 - 0.4j, 0.7 + 0.2j
    state = apply_shift(WalkerState(np.array([[a], [b]])))
    assert state.amplitude(1, -1) == pytest.approx(a)
    assert state.amplitude(0, 1) == pytest.approx(b)


def test_double_shift_restores_the_coin_label():
    state = delta_state(coin=0, site=1, step_index=1)
    twice = apply_shift(apply_shift(state))
    assert twice.step_index == 3
    assert twice.amplitude(0, 1) == 1.0


def test_identity_like_coin_leaves_state_unchanged():
    identity = single_coin(1.0, -np.pi / 2, -np.pi / 2)
    rng = np.random.default_rng(3)
    state = random_walker_state(2, rng)
    after = apply_coin_layer(state, everywhere(identity, 2))
    np.testing.assert_allclose(after.amplitudes, state.amplitudes, atol=1e-12)


def test_balanced_coin_on_coin_one_input():
    after = apply_coin_layer(initial_state(), BALANCED[None])
    assert after.amplitude(0, 0) == pytest.approx(INV_SQRT2)
    assert after.amplitude(1, 0) == pytest.approx(1j * INV_SQRT2)


def test_missing_coin_for_populated_site_is_a_schedule_error():
    with pytest.raises(ScheduleError, match="shape"):
        apply_coin_layer(initial_state(), np.empty((0, 2, 2)))


def test_missing_coin_for_empty_site_is_a_schedule_error():
    # the stack covers every reachable site, populated or not: a coin at
    # -1 alone is one short for step index 1
    state = delta_state(coin=1, site=-1, step_index=1)
    with pytest.raises(ScheduleError, match=r"\(2, 2, 2\)"):
        apply_coin_layer(state, BALANCED[None])


def test_coin_stack_of_wrong_matrix_shape_is_a_schedule_error():
    with pytest.raises(ScheduleError, match="shape"):
        apply_coin_layer(initial_state(), np.ones((1, 2, 3)))


@pytest.mark.parametrize("step_index", [0, 1, 3])
@pytest.mark.parametrize("reflectivity", [0.0, 0.44, 1.0])
def test_coin_layer_preserves_norm(step_index, reflectivity):
    rng = np.random.default_rng(step_index * 7 + 1)
    state = random_walker_state(step_index, rng)
    field = random_coin_field(reachable_sites(step_index), reflectivity, rng)
    after = apply_coin_layer(state, field)
    assert abs(after.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("step_index", [0, 1, 4, 9])
def test_coin_layer_equals_the_per_site_matmul_bit_for_bit(step_index):
    # reference: one 2x2 matrix-vector product per site, as a loop
    rng = np.random.default_rng(40 + step_index)
    state = random_walker_state(step_index, rng)
    field = random_coin_field(reachable_sites(step_index), 0.44, rng)
    looped = np.stack([field[j] @ state.amplitudes[:, j] for j in range(step_index + 1)],
                      axis=1)
    assert apply_coin_layer(state, field).amplitudes.tobytes() == looped.tobytes()


def test_single_step_pinned_amplitudes():
    after = apply_shift(apply_coin_layer(initial_state(), BALANCED[None]))
    assert after.amplitude(1, -1) == pytest.approx(INV_SQRT2)
    assert after.amplitude(0, 1) == pytest.approx(1j * INV_SQRT2)
    dist = position_distribution(after)
    np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-12)


def test_two_steps_interfere_to_half_at_origin():
    schedule = ordered_schedule(2, 0.0)
    trajectory = evolve(initial_state(), schedule, 0.5)
    dist = position_distribution(trajectory[2])
    np.testing.assert_allclose(dist.probs, [0.25, 0.5, 0.25], atol=1e-12)


def test_full_mirror_ping_pongs_with_phase_i():
    after = apply_shift(apply_coin_layer(delta_state(coin=0), single_coin(1.0)[None]))
    assert after.amplitude(1, -1) == pytest.approx(1j)
    np.testing.assert_allclose(position_distribution(after).probs, [1.0, 0.0], atol=1e-12)


def test_step_equals_coin_then_shift():
    # the step evolve takes is the coin layer of that step, then the shift
    rng = np.random.default_rng(11)
    state = random_walker_state(2, rng)
    schedule = disordered_schedule(3, DisorderSpec(UNIFORM_0_2PI, 11, 1), 0)
    composed = apply_shift(apply_coin_layer(state, coin_field(schedule, 0.44, 3)))
    direct = evolve(state, schedule, 0.44)[-1]
    assert direct.amplitudes.tobytes() == composed.amplitudes.tobytes()


def test_step_is_linear():
    rng = np.random.default_rng(23)
    first = random_walker_state(2, rng)
    second = random_walker_state(2, rng)
    field = random_coin_field(reachable_sites(2), 0.5, rng)
    a, b = 0.6 - 0.1j, -0.3 + 0.8j
    mixed = WalkerState(a * first.amplitudes + b * second.amplitudes)
    left = apply_shift(apply_coin_layer(mixed, field)).amplitudes
    right = (a * apply_shift(apply_coin_layer(first, field)).amplitudes
             + b * apply_shift(apply_coin_layer(second, field)).amplitudes)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_evolve_zero_steps_returns_initial_only():
    # a state already at its schedule's end has no step left to take
    at_end = delta_state(1, site=1, step_index=1)
    trajectory = evolve(at_end, ordered_schedule(1, 0.0), 0.5)
    assert len(trajectory) == 1
    assert trajectory[0].step_index == 1
    np.testing.assert_array_equal(trajectory[0].amplitudes, at_end.amplitudes)


def uniform_walk(num_steps, gauge):
    schedule = disordered_schedule(num_steps, DisorderSpec(UNIFORM_0_2PI, 3, 1), 0)
    return schedule, evolve(initial_state(), schedule, 0.44, phase_gauge=gauge)


def test_evolving_from_mid_walk_reproduces_the_rest():
    schedule, trajectory = uniform_walk(9, 0.7)
    rest = evolve(trajectory[4], schedule, 0.44, phase_gauge=0.7)
    assert [state.step_index for state in rest] == list(range(4, 10))
    for state, expected in zip(rest, trajectory[4:], strict=True):
        assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_prefix_schedule_walks_the_first_steps():
    schedule, trajectory = uniform_walk(9, 0.7)
    for k in range(1, 10):
        head = evolve(initial_state(), prefix_schedule(schedule, k), 0.44, phase_gauge=0.7)
        assert len(head) == k + 1
        for state, expected in zip(head, trajectory):
            assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_three_step_pinned_distribution():
    trajectory = evolve(initial_state(), ordered_schedule(3, 0.0), 0.5)
    assert [state.step_index for state in trajectory] == [0, 1, 2, 3]
    dist = position_distribution(trajectory[3])
    np.testing.assert_allclose(dist.probs, [1 / 8, 5 / 8, 1 / 8, 1 / 8], atol=1e-12)


def test_evolve_norm_stays_one_under_binary_schedule():
    from beamwalk import DisorderSpec, disordered_schedule

    schedule = disordered_schedule(7, DisorderSpec("binary_0_pi", 5, 1), 0)
    trajectory = evolve(initial_state(), schedule, 0.5)
    drift = max(abs(state.norm() ** 2 - 1.0) for state in trajectory)
    assert drift < 1e-10


def test_the_schedule_alone_sets_how_many_steps_are_taken():
    trajectory = evolve(initial_state(), ordered_schedule(5, 0.0), 0.5)
    assert [state.step_index for state in trajectory] == [0, 1, 2, 3, 4, 5]


def test_schedule_shorter_than_walk_is_a_schedule_error():
    with pytest.raises(ScheduleError, match="schedule covers 2"):
        evolve(delta_state(1, site=1, step_index=3), ordered_schedule(2, 0.0), 0.5)


@pytest.mark.parametrize("settings,message", [((7.0, 0.0), "reflectivity"),
                                              ((0.5, float("nan")), "finite")],
                         ids=["reflectivity", "gauge"])
@pytest.mark.parametrize("steps_left", [1, 0])
def test_coin_settings_are_checked_even_with_no_step_left(settings, message, steps_left):
    schedule = ordered_schedule(3, 0.0)
    state = evolve(initial_state(), schedule, 0.5)[3 - steps_left]
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
            expected = stepwise(initial_state(), schedule, reflectivity, gauge)
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
    expected = stepwise(initial_state(), schedule, 0.44, 0.7)
    monkeypatch.setattr(evolution, "_BLOCK_POINTS", block_points)
    for start in (0, 3):
        walked = evolve(expected[start], schedule, 0.44, 0.7)
        assert [state.amplitudes.tobytes() for state in walked] == \
            [state.amplitudes.tobytes() for state in expected[start:]]


def test_a_block_is_freed_before_the_next_is_formed(monkeypatch):
    # a block's coin stack lives only while its own steps run: each step
    # sees its own block alive and no other, and a block is dead by the
    # time the next one is formed
    blocks = []
    live_at_formation, live_at_step = [], []
    real_splitters, real_step = evolution._splitters, evolution._step

    def live():
        return [i for i, ref in enumerate(blocks) if ref() is not None]

    def recording_splitters(*args):
        live_at_formation.append(live())
        block = real_splitters(*args)
        blocks.append(weakref.ref(block))
        return block

    def checking_step(state, coins):
        assert coins.base is blocks[-1]()
        live_at_step.append(live())
        return real_step(state, coins)

    monkeypatch.setattr(evolution, "_splitters", recording_splitters)
    monkeypatch.setattr(evolution, "_step", checking_step)
    trajectory = evolve(initial_state(), phase_schedule("binary_0_pi", 100), 0.5)
    assert len(blocks) == 6
    assert max(len(alive) for alive in live_at_step) == 1
    assert live_at_formation == [[]] * len(blocks)
    assert live_at_step[-1] == [len(blocks) - 1]
    assert len(trajectory) == 101 and live() == []


def walks_per_step_bit_for_bit(schedule, reflectivity, gauge):
    expected = stepwise(initial_state(), schedule, reflectivity, gauge)
    for start in (0, 17):
        walked = evolve(expected[start], schedule, reflectivity, gauge)
        assert [state.step_index for state in walked] == \
            [state.step_index for state in expected[start:]]
        assert [state.amplitudes.tobytes() for state in walked] == \
            [state.amplitudes.tobytes() for state in expected[start:]]


def splitter_sizes(monkeypatch):
    """The number of phases of each ``_splitters`` call evolve makes."""
    sizes = []
    real_splitters = evolution._splitters

    def recording_splitters(thetas, *args):
        sizes.append(thetas.size)
        return real_splitters(thetas, *args)

    monkeypatch.setattr(evolution, "_splitters", recording_splitters)
    return sizes


@pytest.mark.parametrize("num_steps", [44, 45, 100])
@pytest.mark.parametrize("theta", [0.0, -0.0, 1.1, np.pi])
def test_a_constant_schedule_forms_one_splitter_and_walks_the_same_bits(monkeypatch, theta,
                                                                        num_steps):
    schedule = ordered_schedule(num_steps, theta)
    for reflectivity in (0.0, 0.44, 1.0):
        for gauge in (0.0, -0.0, 0.7):
            walks_per_step_bit_for_bit(schedule, reflectivity, gauge)
    sizes = splitter_sizes(monkeypatch)
    evolve(initial_state(), schedule, 0.44)
    assert sizes == [1]


@pytest.mark.parametrize("theta", [0.0, -0.0, np.pi])
def test_every_step_of_a_constant_schedule_views_one_splitter(monkeypatch, theta):
    # no per-site stack: each step's coins are the one splitter's 64 bytes
    schedule = ordered_schedule(60, theta)
    start = evolve(initial_state(), schedule, 0.44)[23]
    layouts = []
    real_step = evolution._step

    def recording_step(state, coins):
        layouts.append((coins.shape[0], coins.strides[0]))
        return real_step(state, coins)

    monkeypatch.setattr(evolution, "_step", recording_step)
    for initial in (initial_state(), start):
        layouts.clear()
        evolve(initial, schedule, 0.44, phase_gauge=0.7)
        assert [k for k, _ in layouts] == list(range(initial.step_index + 1, 61))
        assert all(k == 1 or stride == 0 for k, stride in layouts), layouts


def near_constant(num_steps, kind):
    phases = np.zeros(num_steps * (num_steps + 1) // 2)
    if kind == "last point":
        phases[-1] = 1.1
    else:
        phases[::3] = -0.0
    return PhaseSchedule(phases)


@pytest.mark.parametrize("kind", ["last point", "signed zeros"])
def test_a_near_constant_schedule_takes_the_block_path(monkeypatch, kind):
    schedule = near_constant(100, kind)
    for gauge in (0.0, -0.0, 0.7):
        walks_per_step_bit_for_bit(schedule, 0.44, gauge)
    sizes = splitter_sizes(monkeypatch)
    evolve(initial_state(), schedule, 0.44)
    assert len(sizes) == 6 and sum(sizes) == schedule.phases.size


def test_a_replayed_ordered_manifest_walks_one_splitter_bit_for_bit(monkeypatch, tmp_path):
    # the manifest holds every phase; decoding it gives back a stride-0 schedule
    config = parse_config({"steps": 60, "reflectivity": 0.44,
                           "schedule_mode": {"mode": "ordered", "theta": 1.1}})
    manifest = runner.run(config, output_dir=tmp_path / "run")
    document = json.loads(manifest.read_text())
    [schedule] = runner._read_schedules(document, parse_config(document["config"]), str(manifest))
    assert schedule.phases.strides == (0,)
    expected = stepwise(initial_state(), schedule, 0.44, 0.0)
    sizes = splitter_sizes(monkeypatch)
    walked = evolve(initial_state(), schedule, 0.44)
    assert sizes == [1]
    assert [state.amplitudes.tobytes() for state in walked] == \
        [state.amplitudes.tobytes() for state in expected]
    sizes.clear()
    runner.replay(manifest, output_dir=tmp_path / "replayed")
    assert sizes == [1]
    assert (tmp_path / "replayed" / "distributions.csv").read_bytes() == \
        (tmp_path / "run" / "distributions.csv").read_bytes()


@pytest.mark.parametrize("step_index", [0, 1, 4, 9, 60])
def test_the_fused_step_is_coin_layer_then_shift_bit_for_bit(step_index):
    rng = np.random.default_rng(70 + step_index)
    state = random_walker_state(step_index, rng)
    coins = random_coin_field(reachable_sites(step_index), 0.44, rng)
    fused = evolution._step(state, coins)
    composed = apply_shift(apply_coin_layer(state, coins))
    assert fused.step_index == composed.step_index == step_index + 1
    assert fused.amplitudes.tobytes() == composed.amplitudes.tobytes()


def test_an_ordered_walk_holds_little_beyond_its_trajectory():
    # a stack per mesh point (N(N+1)/2 x 64 B = 5.1 MB here), or blocks
    # kept alive, would break this bound
    schedule = ordered_schedule(400, 0.0)
    start = initial_state()
    tracemalloc.start()
    try:
        trajectory = evolve(start, schedule, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(state.amplitudes.nbytes for state in trajectory[1:]) + 2**20


def test_gauge_shift_leaves_distributions_unchanged():
    schedule = ordered_schedule(5, 0.3)
    plain = evolve(initial_state(), schedule, 0.44)
    shifted = evolve(initial_state(), schedule, 0.44, phase_gauge=np.pi / 7)
    for state_a, state_b in zip(plain[1:], shifted[1:]):
        delta = position_distribution(state_a).probs - position_distribution(state_b).probs
        assert np.max(np.abs(delta)) < 1e-12


def test_opposite_initial_coins_walk_mirrored_paths():
    # the theta=0 splitter treats its ports symmetrically, so swapping the
    # input coin reflects the whole distribution about the origin
    schedule = ordered_schedule(5, 0.0)
    from_one = evolve(initial_state(coin=1), schedule, 0.5)
    from_zero = evolve(initial_state(coin=0), schedule, 0.5)
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
