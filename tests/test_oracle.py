import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamwalk.oracle
from beamwalk import (
    BINARY_0_PI,
    UNIFORM_0_2PI,
    CapacityError,
    DisorderSpec,
    disordered_schedule,
    enumerate_paths,
    evolve,
    initial_state,
    oracle_state,
    ordered_schedule,
    position_distribution,
)
from beamwalk.oracle import REFLECT, TRANSMIT, _entry
from conftest import prefix_schedule

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


@pytest.mark.parametrize("num_steps", [1, 2, 5, 8])
def test_path_count_is_two_to_the_steps(num_steps):
    records = enumerate_paths(0, ordered_schedule(num_steps, 0.1), 0.44)
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
    final = evolve(initial_state(), schedule, reflectivity)[-1]
    summed = oracle_state(1, schedule, reflectivity)
    assert np.max(np.abs(summed.amplitudes - final.amplitudes)) < 1e-10


def test_path_sum_matches_matrix_evolution_disordered():
    spec = DisorderSpec(BINARY_0_PI, seed=17, realization_count=2)
    for index in range(2):
        schedule = disordered_schedule(7, spec, index)
        final = evolve(initial_state(), schedule, 0.44)[-1]
        summed = oracle_state(1, schedule, 0.44)
        assert np.max(np.abs(summed.amplitudes - final.amplitudes)) < 1e-10


def test_three_step_path_sum_distribution():
    summed = oracle_state(1, ordered_schedule(3, 0.0), 0.5)
    np.testing.assert_allclose(
        position_distribution(summed).probs, [1 / 8, 5 / 8, 1 / 8, 1 / 8], atol=1e-12
    )


def test_prefix_schedule_sums_the_first_steps():
    schedule = disordered_schedule(9, DisorderSpec(UNIFORM_0_2PI, 3, 1), 0)
    trajectory = evolve(initial_state(), schedule, 0.44)
    for k in range(1, 10):
        summed = oracle_state(1, prefix_schedule(schedule, k), 0.44)
        assert summed.step_index == k
        assert np.max(np.abs(summed.amplitudes - trajectory[k].amplitudes)) < 1e-10


def test_enumeration_guard_rejects_large_walks():
    schedule = ordered_schedule(21, 0.0)
    with pytest.raises(CapacityError, match="2\\^21"):
        enumerate_paths(0, schedule, 0.5)


@pytest.mark.parametrize("oracle", [oracle_state, enumerate_paths])
@pytest.mark.parametrize("coin,reflectivity,field", [
    (2, 0.5, "initial_coin"),
    (1, 1.5, "reflectivity"),
    (1, float("nan"), "reflectivity"),
    (True, 0.5, "initial_coin must be 0 or 1, got True"),
    (np.True_, 0.5, "initial_coin must be 0 or 1, got True"),
    (1.0, 0.5, "initial_coin must be 0 or 1, got 1.0"),
], ids=["coin-2", "R-1.5", "R-nan", "coin-True", "coin-np.True_", "coin-1.0"])
def test_the_oracle_refuses_a_bad_coin_or_reflectivity(oracle, coin, reflectivity, field):
    with pytest.raises(ValueError, match=field):
        oracle(coin, ordered_schedule(2, 0.0), reflectivity)


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


def test_oracle_imports_nothing_from_the_evolution_code():
    # The oracle cross-checks the evolution only if it shares none of its code.
    tree = ast.parse(Path(beamwalk.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(f"{'.' * node.level}{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported >= {".errors", ".schedules", ".state"}
    for name in imported:
        assert not {"evolution", "coins"} & set(name.split(".")), name


def scalar_path_sum(initial_coin, schedule, reflectivity):
    """The recursion the array path sum replaced: one Python complex product
    per splitter, the histories added up in lexicographic order."""
    num_steps = schedule.num_steps
    amps = np.zeros((2, num_steps + 1), dtype=np.complex128)

    def descend(step_number, coin, column, amplitude):
        if step_number > num_steps:
            amps[coin, column] += amplitude
            return
        theta = schedule.row(step_number).tolist()[column]
        for out_port in (0, 1):
            descend(step_number + 1, 1 - out_port, column + out_port,
                    amplitude * _entry(reflectivity, theta, out_port, coin))

    descend(1, initial_coin, 0, 1.0 + 0.0j)
    return amps


@pytest.mark.parametrize("initial_coin", [0, 1])
@pytest.mark.parametrize("reflectivity", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["ordered", BINARY_0_PI, UNIFORM_0_2PI])
def test_array_path_sum_is_bit_identical_to_the_scalar_recursion(kind, reflectivity,
                                                                 initial_coin):
    if kind == "ordered":
        schedule = ordered_schedule(9, 0.3)
    else:
        schedule = disordered_schedule(9, DisorderSpec(kind, 5, 1), 0)
    summed = oracle_state(initial_coin, schedule, reflectivity)
    expected = scalar_path_sum(initial_coin, schedule, reflectivity)
    assert summed.amplitudes.tobytes() == expected.tobytes()


@pytest.mark.parametrize("initial_coin", [0, 1])
@pytest.mark.parametrize("reflectivity", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("num_steps", [1, 2, 13])
def test_prefix_expansion_is_bit_identical_from_one_step_up(num_steps, reflectivity,
                                                             initial_coin):
    # The shortest walks expand from the single empty prefix; 13 steps leave
    # 2^13 histories, more than the 9-step test's 512.
    schedule = disordered_schedule(num_steps, DisorderSpec(UNIFORM_0_2PI, 8, 1), 0)
    summed = oracle_state(initial_coin, schedule, reflectivity)
    expected = scalar_path_sum(initial_coin, schedule, reflectivity)
    assert summed.amplitudes.tobytes() == expected.tobytes()


def scalar_leaves(initial_coin, schedule, reflectivity):
    """The scalar recursion's leaves, port 0 before port 1 at every splitter:
    (choices, final coin, final site, amplitude)."""
    num_steps = schedule.num_steps
    leaves = []

    def descend(step_number, coin, column, amplitude, choices):
        if step_number > num_steps:
            leaves.append((choices, coin, 2 * column - num_steps, amplitude))
            return
        theta = schedule.row(step_number).tolist()[column]
        for out_port in (0, 1):
            label = REFLECT if out_port == coin else TRANSMIT
            descend(step_number + 1, 1 - out_port, column + out_port,
                    amplitude * _entry(reflectivity, theta, out_port, coin),
                    choices + (label,))

    descend(1, initial_coin, 0, 1.0 + 0.0j, ())
    return leaves


def amplitude_bits(amplitude):
    return amplitude.real.hex(), amplitude.imag.hex()


@pytest.mark.parametrize("initial_coin", [0, 1])
def test_records_are_the_scalar_recursions_leaves_in_order(initial_coin):
    # at one step only the initial coin decides which port reflects
    for num_steps in (1, 2, 8):
        schedule = disordered_schedule(num_steps, DisorderSpec(UNIFORM_0_2PI, 13, 1), 0)
        records = enumerate_paths(initial_coin, schedule, 0.3)
        leaves = scalar_leaves(initial_coin, schedule, 0.3)
        assert len(records) == len(leaves) == 2**num_steps
        assert [(r.choices, r.final_coin, r.final_site, amplitude_bits(r.amplitude))
                for r in records] == [(choices, coin, site, amplitude_bits(amplitude))
                                      for choices, coin, site, amplitude in leaves]


@settings(max_examples=30, deadline=None)
@given(
    num_steps=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["ordered", BINARY_0_PI, UNIFORM_0_2PI]),
    reflectivity=st.one_of(st.sampled_from([0.0, 1.0]),
                           st.floats(min_value=0.0, max_value=1.0)),
    initial_coin=st.sampled_from([0, 1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    theta=st.floats(min_value=-2 * np.pi, max_value=2 * np.pi),
)
def test_path_sum_bytes_equal_the_scalar_recursion(num_steps, kind, reflectivity,
                                                   initial_coin, seed, theta):
    if kind == "ordered":
        schedule = ordered_schedule(num_steps, theta)
    else:
        schedule = disordered_schedule(num_steps, DisorderSpec(kind, seed, 1), 0)
    summed = oracle_state(initial_coin, schedule, reflectivity)
    expected = scalar_path_sum(initial_coin, schedule, reflectivity)
    assert summed.amplitudes.tobytes() == expected.tobytes()
