"""Acceptance suite: every release gate at its stated tolerance.

Each check prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run with
``pytest -s`` to see them all).
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from beamwalk import (
    BINARY_0_PI,
    DisorderSpec,
    Distribution,
    DistributionSeries,
    disordered_schedule,
    displacer_passages,
    ensemble_mean_series,
    ensemble_schedules,
    enumerate_paths,
    evolve,
    initial_state,
    mode_locus,
    oracle_state,
    ordered_schedule,
    position_distribution,
    reachable_sites,
    series_from_trajectory,
    similarity,
    variance,
    variance_series,
)
from beamwalk.cli import main

MASTER_SEED = 42
STEPS = 7
R_GRID = (0.0, 0.44, 0.5, 1.0)
ORDERED_THETAS = (0.0, math.pi / 3)
BINARY_COUNT = 20


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _schedule_grid(num_steps: int):
    ordered = [ordered_schedule(num_steps, theta) for theta in ORDERED_THETAS]
    spec = DisorderSpec(BINARY_0_PI, seed=MASTER_SEED, realization_count=BINARY_COUNT)
    return ordered + ensemble_schedules(num_steps, spec)


def _mean_final_distribution(num_steps, reflectivity, schedules) -> Distribution:
    runs = []
    for schedule in schedules:
        trajectory = evolve(initial_state(), schedule, reflectivity)
        runs.append(series_from_trajectory(trajectory[-1:]))
    return ensemble_mean_series(runs).rows[0]


def test_criterion_1_unitarity_suite():
    started = time.perf_counter()
    worst = 0.0
    for reflectivity, schedule in product(R_GRID, _schedule_grid(STEPS)):
        trajectory = evolve(initial_state(), schedule, reflectivity)
        for state in trajectory:
            worst = max(worst, abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    _report("1 unitarity", ok, f"max drift {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for num_steps in range(1, 11):
        for reflectivity, schedule in product(R_GRID, _schedule_grid(num_steps)):
            final = evolve(initial_state(), schedule, reflectivity)[-1]
            summed = oracle_state(1, schedule, reflectivity)
            worst = max(worst, float(np.max(np.abs(summed.amplitudes - final.amplitudes))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 10.0
    _report("2 oracle equivalence", ok, f"max deviation {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_3_known_small_walk_values():
    trajectory = evolve(initial_state(), ordered_schedule(3, 0.0), 0.5)
    expected = {1: [0.5, 0.5], 2: [0.25, 0.5, 0.25], 3: [1 / 8, 5 / 8, 1 / 8, 1 / 8]}
    worst = 0.0
    for step_number, probs in expected.items():
        measured = position_distribution(trajectory[step_number])
        worst = max(worst, float(np.max(np.abs(measured.probs - np.array(probs)))))
    variances = variance_series(series_from_trajectory(trajectory[1:]))
    worst = max(worst, float(np.max(np.abs(np.array(variances) - [1.0, 2.0, 2.75]))))
    _report("3 small-walk values", worst < 1e-10, f"max error {worst:.3e}")
    assert worst < 1e-10


def _ordered_variances(num_steps: int, reflectivity: float) -> list[float]:
    trajectory = evolve(initial_state(), ordered_schedule(num_steps, 0.0), reflectivity)
    return variance_series(series_from_trajectory(trajectory[1:]))


def test_criterion_4a_ordered_growth_ratio():
    """Ordered walk, R = 0.5: ballistic growth of the variance.

    Var(k)/k is strictly increasing on k in [3, 7], and Var(k) itself is
    strictly increasing on k in [1, 7].  The ratio is not checked from
    k = 2: the asymmetric start (coin 1 at site 0) gives Var(2)/2 = 1 and
    Var(3)/3 = 11/12, a one-step boundary transient that criterion 3
    pins exactly (Var(1..3) = 1, 2, 11/4).  The k = 2 -> 3 step is still
    covered by the strict growth of Var(k).
    """
    variances = _ordered_variances(STEPS, 0.5)
    ratios = [variances[k - 1] / k for k in range(3, STEPS + 1)]
    ratio_increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    variance_increasing = all(a < b for a, b in zip(variances, variances[1:]))
    _report(
        "4a ordered Var(k)/k strictly increasing on [3, 7], Var(k) on [1, 7]",
        ratio_increasing and variance_increasing,
        "ratios k=3..7: "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + "; variances k=1..7: "
        + ", ".join(f"{v:.4f}" for v in variances),
    )
    assert ratio_increasing, (
        "Var(k)/k is not strictly increasing on [3, 7]: ratios k=3..7 are "
        f"{[round(r, 6) for r in ratios]}"
    )
    assert variance_increasing, (
        "Var(k) is not strictly increasing on [1, 7]: variances k=1..7 are "
        f"{[round(v, 6) for v in variances]}"
    )


def test_criterion_4b_binary_disorder_spreads_slower_than_ordered():
    """Binary 0/pi disorder, R = 0.5: the ensemble-mean Var(7) is at most
    0.75 times the ordered walk's.

    This is not a localization test.  Every mesh point draws its own phase,
    so the disorder is dynamic and the ensemble spreads diffusively
    (Var(k) close to k); diffusion meets the bound as well as localization
    would, so the check says only that disorder slows the ballistic spread.
    """
    started = time.perf_counter()
    ordered_var = _ordered_variances(STEPS, 0.5)[-1]
    spec = DisorderSpec(BINARY_0_PI, seed=MASTER_SEED, realization_count=100)
    schedules = ensemble_schedules(STEPS, spec)
    disordered_var = variance(_mean_final_distribution(STEPS, 0.5, schedules))
    elapsed = time.perf_counter() - started
    ok = disordered_var <= 0.75 * ordered_var and elapsed < 5.0
    _report(
        "4b binary disorder spreads slower than the ordered walk",
        ok,
        f"ordered {ordered_var:.3f}, disordered mean {disordered_var:.3f}, {elapsed:.2f}s",
    )
    assert disordered_var <= 0.75 * ordered_var
    assert elapsed < 5.0


def test_criterion_5_reflectivity_ordering():
    started = time.perf_counter()
    spec = DisorderSpec(BINARY_0_PI, seed=MASTER_SEED, realization_count=100)
    schedules = ensemble_schedules(STEPS, spec)  # shared across the R sweep
    step7 = {
        reflectivity: variance(_mean_final_distribution(STEPS, reflectivity, schedules))
        for reflectivity in (0.46, 0.50, 0.54)
    }
    elapsed = time.perf_counter() - started
    ordered_with_margin = (
        step7[0.50] <= 0.95 * step7[0.46] and step7[0.54] <= 0.95 * step7[0.50]
    )
    ok = ordered_with_margin and elapsed < 10.0
    _report(
        "5 reflectivity sweep ordering",
        ok,
        f"Var(0.46)={step7[0.46]:.3f} > Var(0.50)={step7[0.50]:.3f} "
        f"> Var(0.54)={step7[0.54]:.3f}, {elapsed:.2f}s",
    )
    assert ordered_with_margin
    assert elapsed < 10.0


@pytest.mark.parametrize("gauge", [math.pi / 7, 1.0])
def test_criterion_6_gauge_invariance(gauge):
    worst = 0.0
    spec = DisorderSpec(BINARY_0_PI, seed=MASTER_SEED, realization_count=1)
    for reflectivity, schedule in product(
        (0.44, 0.5), [ordered_schedule(STEPS, 0.3), disordered_schedule(STEPS, spec, 0)]
    ):
        plain = evolve(initial_state(), schedule, reflectivity)
        shifted = evolve(initial_state(), schedule, reflectivity, phase_gauge=gauge)
        for state_a, state_b in zip(plain, shifted):
            delta = (
                position_distribution(state_a).probs - position_distribution(state_b).probs
            )
            worst = max(worst, float(np.max(np.abs(delta))))
    _report(f"6 gauge invariance (c={gauge:.4f})", worst < 1e-12, f"max delta {worst:.3e}")
    assert worst < 1e-12


def test_criterion_7_similarity_properties():
    ideal = series_from_trajectory(
        evolve(initial_state(), ordered_schedule(STEPS, 0.0), 0.5)[1:]
    )
    real = series_from_trajectory(
        evolve(initial_state(), ordered_schedule(STEPS, 0.0), 0.44)[1:]
    )
    self_error = abs(similarity(real, real) - 1.0)
    symmetry_error = abs(similarity(ideal, real) - similarity(real, ideal))

    rng = np.random.default_rng(MASTER_SEED)

    def random_series() -> DistributionSeries:
        rows = []
        for step_number in range(1, STEPS + 1):
            raw = rng.random(step_number + 1)
            rows.append(Distribution(raw / raw.sum()))
        return DistributionSeries(tuple(rows))

    bounds_ok = True
    for _ in range(50):
        value = similarity(random_series(), random_series())
        bounds_ok = bounds_ok and 0.0 <= value <= 1.0 + 1e-12

    cross = similarity(ideal, real)
    ok = (
        self_error < 1e-12
        and symmetry_error < 1e-12
        and bounds_ok
        and 0.9 < cross < 1.0
    )
    _report(
        "7 similarity properties",
        ok,
        f"self err {self_error:.1e}, sym err {symmetry_error:.1e}, "
        f"S(ideal, real)={cross:.4f}",
    )
    assert self_error < 1e-12
    assert symmetry_error < 1e-12
    assert bounds_ok
    assert 0.9 < cross < 1.0


def test_criterion_8_geometry_consistency():
    spec = DisorderSpec(BINARY_0_PI, seed=MASTER_SEED, realization_count=1)
    records = enumerate_paths(1, disordered_schedule(STEPS, spec, 0), 0.44)
    assert len(records) == 2**STEPS
    plane_ok = all(
        displacer_passages(record)
        == mode_locus(STEPS, record.final_site, record.final_coin).plane
        == (record.final_site + STEPS) // 2
        for record in records
    )
    alternation_ok = all(
        mode_locus(step, int(site), coin).interferometer == ("SI1" if step % 2 else "SI2")
        for step in range(1, STEPS + 1)
        for site in reachable_sites(step)
        for coin in (0, 1)
    )
    sites_ok = all(
        len(reachable_sites(step)) == step + 1
        and all((int(site) + step) % 2 == 0 for site in reachable_sites(step))
        for step in range(0, STEPS + 1)
    )
    ok = plane_ok and alternation_ok and sites_ok
    _report("8 geometry consistency", ok, f"{len(records)} paths checked")
    assert plane_ok
    assert alternation_ok
    assert sites_ok


DATA_FILES = [
    "distributions.csv",
    "variances.csv",
    *[f"variances_r{j}.csv" for j in range(5)],
    "layout.csv",
    "oracle_check.txt",
    "similarity.txt",
]


def test_criterion_9_reproducibility(tmp_path):
    reference = tmp_path / "reference.json"
    reference.write_text(
        json.dumps({"steps": STEPS, "reflectivity": 0.5, "outputs": ["distributions"]})
    )
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "steps": STEPS,
                "reflectivity": 0.44,
                "schedule_mode": {
                    "mode": "disordered",
                    "kind": "binary_0_pi",
                    "seed": MASTER_SEED,
                    "realization_count": 5,
                },
                "outputs": [
                    "distributions",
                    "variances",
                    "layout",
                    "oracle_check",
                    {"similarity_vs": "reference.json"},
                ],
            }
        )
    )
    first, second, replayed = (tmp_path / name for name in ("a", "b", "c"))
    assert main(["run", str(config_path), "--output-dir", str(first)]) == 0
    assert main(["run", str(config_path), "--output-dir", str(second)]) == 0
    rerun_identical = all(
        (first / name).read_bytes() == (second / name).read_bytes() for name in DATA_FILES
    )

    assert main(["replay", str(first / "manifest.json"), "--output-dir", str(replayed)]) == 0
    replay_identical = all(
        (first / name).read_bytes() == (replayed / name).read_bytes() for name in DATA_FILES
    )
    ok = rerun_identical and replay_identical
    _report(
        "9 reproducibility",
        ok,
        f"rerun identical: {rerun_identical}, replay identical: {replay_identical}",
    )
    assert rerun_identical
    assert replay_identical
