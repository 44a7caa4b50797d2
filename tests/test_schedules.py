import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from beamwalk import (
    BINARY_0_PI,
    UNIFORM_0_2PI,
    DisorderSpec,
    PhaseSchedule,
    ScheduleError,
    disordered_schedule,
    ensemble_schedules,
    ordered_schedule,
)
from beamwalk import schedules
from beamwalk.apparatus import reachable_sites


def mesh_point_count(num_steps: int) -> int:
    # one splitter per site reachable at the previous step
    return sum(len(reachable_sites(k - 1)) for k in range(1, num_steps + 1))


def test_ordered_schedule_is_constant_everywhere():
    schedule = ordered_schedule(3, 0.0)
    assert schedule.phases.tolist() == [0.0] * 6


def test_single_step_schedule_has_one_mesh_point():
    schedule = ordered_schedule(1, math.pi)
    assert schedule.phases.tolist() == [math.pi]
    assert schedule.row(1).tolist() == [math.pi]


def test_schedule_support_matches_the_light_cone():
    schedule = ordered_schedule(7, 0.3)
    assert schedule.phases.shape == (mesh_point_count(7),) == (28,)
    for k in range(1, 8):
        assert len(schedule.row(k)) == len(reachable_sites(k - 1))
        assert schedule.row(k).tolist() == [0.3] * k


def test_zero_steps_rejected():
    with pytest.raises(ValueError, match="num_steps"):
        ordered_schedule(0, 0.0)
    with pytest.raises(ValueError, match=r"N\(N\+1\)/2 phases"):
        PhaseSchedule([])
    with pytest.raises(ValueError, match="num_steps must be >= 1"):
        disordered_schedule(0, DisorderSpec(BINARY_0_PI, seed=1, realization_count=1), 0)


@pytest.mark.parametrize("kind", [BINARY_0_PI, UNIFORM_0_2PI])
def test_a_negative_step_count_is_refused_before_its_phases_are_sized(monkeypatch, kind):
    # _mesh_points(-10**6) is 499999500000 phases: the draws' own checks,
    # not PhaseSchedule's, are what keep that from being allocated
    def unsized(num_steps):
        raise AssertionError(f"sized the phases of a {num_steps}-step walk")

    monkeypatch.setattr(schedules, "_mesh_points", unsized)
    with pytest.raises(ValueError, match="num_steps must be >= 1"):
        ordered_schedule(-10**6, 0.0)
    with pytest.raises(ValueError, match="num_steps must be >= 1"):
        disordered_schedule(-10**6, DisorderSpec(kind, seed=1, realization_count=1), 0)


def test_disordered_schedule_is_deterministic():
    spec = DisorderSpec(BINARY_0_PI, seed=99, realization_count=4)
    first = disordered_schedule(2, spec, 0)
    second = disordered_schedule(2, spec, 0)
    assert first == second


def test_disordered_realizations_differ():
    spec = DisorderSpec(BINARY_0_PI, seed=99, realization_count=4)
    schedules = [disordered_schedule(7, spec, j) for j in range(4)]
    assert len({s.phases.tobytes() for s in schedules}) == 4


def test_binary_disorder_draws_only_zero_and_pi():
    spec = DisorderSpec(BINARY_0_PI, seed=1, realization_count=1)
    schedule = disordered_schedule(7, spec, 0)
    assert set(schedule.phases.tolist()) <= {0.0, math.pi}


def test_uniform_disorder_stays_in_range():
    spec = DisorderSpec(UNIFORM_0_2PI, seed=1, realization_count=1)
    schedule = disordered_schedule(7, spec, 0)
    assert np.all((0.0 <= schedule.phases) & (schedule.phases < 2.0 * math.pi))


def test_binary_draws_are_unbiased():
    # 400 x 28 = 11200 >= 10000 draws; the empirical mean of theta/pi
    # sits within +-6 sigma of 1/2 for a fair coin
    spec = DisorderSpec(BINARY_0_PI, seed=7, realization_count=400)
    draws = np.concatenate([schedule.phases for schedule in ensemble_schedules(7, spec)]) / math.pi
    assert len(draws) >= 10_000
    assert 0.47 <= np.mean(draws) <= 0.53


def test_hundred_realizations_are_pairwise_distinct():
    spec = DisorderSpec(BINARY_0_PI, seed=42, realization_count=100)
    schedules = ensemble_schedules(7, spec)
    assert len({s.phases.tobytes() for s in schedules}) == 100


def test_ensemble_is_indexed_in_order():
    spec = DisorderSpec(BINARY_0_PI, seed=3, realization_count=3)
    schedules = ensemble_schedules(5, spec)
    assert len(schedules) == 3
    for j, schedule in enumerate(schedules):
        assert schedule == disordered_schedule(5, spec, j)


def test_single_realization_ensemble_is_the_index_zero_schedule():
    spec = DisorderSpec(BINARY_0_PI, seed=3, realization_count=1)
    assert ensemble_schedules(4, spec) == [disordered_schedule(4, spec, 0)]


def test_ensembles_are_pure_functions_of_their_spec():
    spec_a = DisorderSpec(UNIFORM_0_2PI, seed=11, realization_count=5)
    spec_b = DisorderSpec(UNIFORM_0_2PI, seed=11, realization_count=5)
    assert ensemble_schedules(6, spec_a) == ensemble_schedules(6, spec_b)


def test_realization_index_out_of_range_rejected():
    spec = DisorderSpec(BINARY_0_PI, seed=1, realization_count=2)
    with pytest.raises(ValueError, match="realization_index"):
        disordered_schedule(3, spec, 2)
    with pytest.raises(ValueError, match="realization_index"):
        disordered_schedule(3, spec, -1)


def test_disorder_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        DisorderSpec("gaussian", seed=1, realization_count=1)
    with pytest.raises(ValueError, match="seed"):
        DisorderSpec(BINARY_0_PI, seed=-1, realization_count=1)
    with pytest.raises(ValueError, match="realization_count"):
        DisorderSpec(BINARY_0_PI, seed=1, realization_count=0)


def test_phase_schedule_rejects_wrong_support():
    with pytest.raises(ValueError, match="one per mesh point"):
        PhaseSchedule([0.0, 0.0])
    with pytest.raises(ValueError, match="one per mesh point"):
        PhaseSchedule([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="one per mesh point"):
        PhaseSchedule([[0.0], [0.0], [0.0]])
    with pytest.raises(ValueError, match="finite"):
        PhaseSchedule([float("inf")])
    with pytest.raises(ValueError, match="finite"):
        PhaseSchedule([0.0, float("nan"), 0.0])


@pytest.mark.parametrize("size", [2, 4, 5, 7, 9, 20, 22])
def test_a_phase_count_no_walk_has_is_refused(size):
    # N steps hold N(N+1)/2 phases: 1, 3, 6, 10, 15, 21, ...
    with pytest.raises(ValueError, match=r"N\(N\+1\)/2 phases, one per mesh point"):
        PhaseSchedule(np.zeros(size))


@pytest.mark.parametrize("num_steps", [1, 2, 3, 6, 40])
def test_the_step_count_is_the_one_the_phase_count_fixes(num_steps):
    schedule = PhaseSchedule(np.arange(num_steps * (num_steps + 1) // 2, dtype=float))
    assert schedule.num_steps == num_steps
    assert schedule.row(num_steps).size == num_steps


def test_a_separate_step_count_is_not_accepted():
    # the phase count is the one record of the step count
    with pytest.raises(TypeError):
        PhaseSchedule(3, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])


def test_packed_phases_follow_step_then_site_order():
    schedule = PhaseSchedule([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert schedule.row(1).tolist() == [0.1]
    assert schedule.row(2).tolist() == [0.2, 0.3]
    assert schedule.row(3).tolist() == [0.4, 0.5, 0.6]
    assert schedule.phases.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]


def test_rows_outside_the_schedule_are_schedule_errors():
    schedule = ordered_schedule(3, 0.0)
    for step in (0, 4):
        with pytest.raises(ScheduleError):
            schedule.row(step)


def test_phases_are_read_only_and_copied():
    source = np.zeros(3)
    schedule = PhaseSchedule(source)
    source[0] = 1.0
    assert schedule.row(1).tolist() == [0.0]
    with pytest.raises(ValueError):
        schedule.phases[0] = 1.0


def test_equality_is_by_value():
    assert ordered_schedule(3, 0.5) == PhaseSchedule([0.5] * 6)
    assert ordered_schedule(3, 0.5) != ordered_schedule(3, 0.25)
    assert ordered_schedule(2, 0.5) != ordered_schedule(3, 0.5)
    assert ordered_schedule(2, 0.5) != "schedule"


@pytest.mark.parametrize("theta", [0.0, -0.0, math.pi])
def test_an_ordered_schedule_stores_its_one_phase_once(theta):
    # 1500 steps are 1,125,750 phases: 9 MB as a full array
    tracemalloc.start()
    try:
        schedule = ordered_schedule(1500, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert schedule.phases.shape == (1125750,)
    assert schedule.phases.strides == (0,)
    assert not schedule.phases.flags.writeable
    assert schedule.row(1500).tobytes() == np.full(1500, theta).tobytes()


def test_a_constant_list_or_buffer_becomes_one_copied_phase():
    listed = [0.3] * 6
    buffered = np.frombuffer(bytearray(np.full(6, 0.3).tobytes()), np.float64)
    for source in (listed, buffered):
        schedule = PhaseSchedule(source)
        assert schedule.phases.strides == (0,)
        source[0] = 1.1
        source[5] = 1.1
        assert schedule.phases.tolist() == [0.3] * 6
        with pytest.raises(ValueError, match="read-only"):
            schedule.phases[0] = 1.1


@pytest.mark.parametrize("phases", [
    [0.0, -0.0, 0.0, 0.0, 0.0, 0.0],
    [0.3] * 5 + [math.nextafter(0.3, 1.0)],
], ids=["signed zeros", "near constant"])
def test_phases_of_two_bit_patterns_stay_a_contiguous_copy(phases):
    source = np.array(phases)
    schedule = PhaseSchedule(source)
    assert schedule.phases.strides == (8,)
    assert schedule.phases.flags.c_contiguous and not schedule.phases.flags.writeable
    assert not np.shares_memory(schedule.phases, source)
    assert schedule.phases.tobytes() == source.tobytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_constant_non_finite_phase_is_refused(value):
    with pytest.raises(ValueError, match="non-finite"):
        PhaseSchedule([value] * 6)
    with pytest.raises(ValueError, match="non-finite"):
        ordered_schedule(3, value)


# 10**9 steps are 5 * 10**17 phases: no copy of them can be allocated, and
# no pass over them would end, so the child either builds the schedule
# from its one phase or fails.
BROADCAST_CHILD = """
import numpy as np
from beamwalk import PhaseSchedule
points = 10**9 * (10**9 + 1) // 2
schedule = PhaseSchedule(np.broadcast_to(0.0, (points,)))
assert schedule.phases.strides == (0,) and schedule.phases.size == points
assert schedule.row(10**9).shape == (10**9,)
"""


def test_a_broadcast_phase_is_taken_without_a_pass_over_its_points():
    src = str(Path(schedules.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", BROADCAST_CHILD], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr
