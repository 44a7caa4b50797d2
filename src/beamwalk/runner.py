"""Batch execution: simulate a configured run and write its tables.

Every run writes a manifest that echoes the validated config and the
exact phase schedules used, each as base64 of its little-endian float64
bytes, so any run can be replayed bit-for-bit from its manifest alone,
without regenerating disorder from the seed.
"""

from __future__ import annotations

import base64
import datetime
import json
from pathlib import Path

import numpy as np

from . import __version__
from .apparatus import layout_table
from .config import RunConfig, config_echo, is_finite_number, load_config, parse_config, reading
from .errors import ConfigError, NumericalInvariantError
from .evolution import evolve
from .measure import (
    DistributionSeries,
    bhattacharyya_partials,
    ensemble_mean_series,
    series_from_trajectory,
    similarity,
    variance,
)
from .oracle import oracle_state
from .schedules import PhaseSchedule, ensemble_schedules, ordered_schedule
from .state import WalkerState, initial_state

__all__ = ["NORM_TOLERANCE", "ORACLE_TOLERANCE", "run", "replay"]

NORM_TOLERANCE = 1e-10
ORACLE_TOLERANCE = 1e-10


def _fmt(value: float) -> str:
    # 12 significant digits keeps the tables diffable and reproducible.
    return format(value, ".12g")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _schedules_for(config: RunConfig) -> list[PhaseSchedule]:
    if config.disorder is None:
        return [ordered_schedule(config.steps, config.theta)]
    return ensemble_schedules(config.steps, config.disorder)


def _simulate(
    config: RunConfig, schedules: list[PhaseSchedule]
) -> tuple[list[DistributionSeries], list[WalkerState]]:
    """Evolve every realization; returns per-realization series (steps
    0..N) and the final states."""
    series_all: list[DistributionSeries] = []
    finals: list[WalkerState] = []
    for index, schedule in enumerate(schedules):
        trajectory = evolve(initial_state(config.steps, config.initial_coin),
                            schedule, config.reflectivity)
        for state in trajectory:
            drift = abs(state.norm() ** 2 - 1.0)
            if drift > NORM_TOLERANCE:
                raise NumericalInvariantError(
                    f"norm drift {drift:.3e} at step {state.step_index} of "
                    f"realization {index} exceeds {NORM_TOLERANCE:.0e}"
                )
        series_all.append(series_from_trajectory(trajectory))
        finals.append(trajectory[-1])
    return series_all, finals


def _write_distributions(path: Path, series: DistributionSeries, to_step_max: bool) -> None:
    lines = ["step,site,p"]
    for row in series.rows:
        values = row.probs
        if to_step_max:
            values = values / values.max()
        for site, p in zip(row.sites, values):
            lines.append(f"{row.step},{site},{_fmt(float(p))}")
    _write_lines(path, lines)


def _write_variances(path: Path, series: DistributionSeries) -> None:
    lines = ["step,variance"]
    for row in series.rows:
        lines.append(f"{row.step},{_fmt(variance(row))}")
    _write_lines(path, lines)


def _write_layout(path: Path, num_steps: int) -> None:
    lines = ["step,site,coin,interferometer,plane,direction"]
    for step, site, coin, interferometer, plane, direction in layout_table(num_steps):
        lines.append(f"{step},{site},{coin},{interferometer},{plane},{direction}")
    _write_lines(path, lines)


def _oracle_check(
    config: RunConfig,
    schedules: list[PhaseSchedule],
    finals: list[WalkerState],
    path: Path,
) -> None:
    lines = [f"tolerance {_fmt(ORACLE_TOLERANCE)}"]
    worst = 0.0
    for index, (schedule, final) in enumerate(zip(schedules, finals)):
        reference = oracle_state(config.initial_coin, schedule, config.reflectivity)
        deviation = float(np.max(np.abs(reference.amplitudes - final.amplitudes)))
        worst = max(worst, deviation)
        lines.append(f"realization {index} max_deviation {_fmt(deviation)}")
    lines.append(f"overall_max_deviation {_fmt(worst)}")
    lines.append("status " + ("pass" if worst <= ORACLE_TOLERANCE else "fail"))
    _write_lines(path, lines)
    if worst > ORACLE_TOLERANCE:
        raise NumericalInvariantError(
            f"path-sum check deviates by {worst:.3e} (tolerance {ORACLE_TOLERANCE:.0e}); "
            f"see {path}"
        )


def _write_similarity(path: Path, mean: DistributionSeries,
                      reference_mean: DistributionSeries) -> None:
    value = similarity(mean, reference_mean)
    partials = bhattacharyya_partials(mean, reference_mean)
    lines = [f"similarity {_fmt(value)}"]
    for step, partial in zip(mean.steps, partials):
        lines.append(f"step {step} partial {_fmt(partial)}")
    _write_lines(path, lines)


def _walk_steps(series: DistributionSeries) -> DistributionSeries:
    """``series`` without its step-0 row."""
    return DistributionSeries(series.rows[1:])


def _bundle(config: RunConfig, schedules: list[PhaseSchedule]) -> dict:
    """A manifest's run entry: the config echo and the exact phases, each
    schedule as one ASCII base64 string of its little-endian float64 bytes."""
    return {"config": config_echo(config),
            "schedules": [base64.b64encode(schedule.phases.astype("<f8").tobytes()).decode("ascii")
                          for schedule in schedules]}


def _schedule_from_json(raw, num_steps: int, source: str) -> PhaseSchedule:
    """Decode one serialized schedule: the packed phases of a
    ``num_steps``-step walk, as ``PhaseSchedule.phases`` orders them.

    A string is the 0.3 format, the canonical base64 of exactly N(N+1)/2
    little-endian float64 values; a flat list of numbers is the 0.2 format.
    """
    try:
        if isinstance(raw, str):
            data = base64.b64decode(raw.encode("ascii"), validate=True)
            expected = 8 * (num_steps * (num_steps + 1) // 2)
            if len(data) != expected:
                raise ValueError(f"expected {expected} bytes of float64 phases, "
                                 f"got {len(data)}")
            if base64.b64encode(data).decode("ascii") != raw:
                raise ValueError("not the canonical base64 of its bytes (extra padding or bits)")
            return PhaseSchedule(num_steps, np.frombuffer(data, "<f8"))
        if not isinstance(raw, list):
            raise TypeError("expected a base64 string (the 0.3 format) or a flat list "
                            f"of phases (the 0.2 format), got {type(raw).__name__}")
        for phase in raw:
            if not is_finite_number(phase):
                raise ValueError(f"expected a finite number, got {phase!r}")
        return PhaseSchedule(num_steps, raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: bad serialized schedule: {exc}") from exc


def _read_bundle(bundle: dict, source: str) -> tuple[RunConfig, list[PhaseSchedule]]:
    """Decode a run entry that ``_bundle`` wrote: its config and schedules."""
    config = parse_config(bundle.get("config"), source=f"{source}:config")
    raw = bundle.get("schedules", [])
    expected = 1 if config.disorder is None else config.disorder.realization_count
    if not isinstance(raw, list) or len(raw) != expected:
        found = len(raw) if isinstance(raw, list) else repr(raw)
        raise ConfigError(f"{source}: expected {expected} serialized schedule(s), found {found}")
    return config, [_schedule_from_json(obj, config.steps, source) for obj in raw]


def _check_reference_steps(config: RunConfig, ref_config: RunConfig, source: str) -> None:
    if ref_config.steps != config.steps:
        raise ConfigError(
            f"{source}: reference run has {ref_config.steps} steps, "
            f"this run has {config.steps}; similarity needs matching steps"
        )


def _execute(
    config: RunConfig,
    schedules: list[PhaseSchedule],
    reference: tuple[RunConfig, list[PhaseSchedule]] | None,
    output_dir: str | Path | None,
) -> Path:
    """Write the requested data files, then the manifest, into
    ``output_dir`` or else the config's.  The oracle check runs last, so a
    failing check (exit 2) leaves every other file written."""
    out_dir = Path(output_dir if output_dir is not None else config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series_all, finals = _simulate(config, schedules)
    mean = ensemble_mean_series(series_all)

    for item in config.outputs:
        if item == "distributions":
            _write_distributions(out_dir / "distributions.csv", mean,
                                 config.normalize_to_step_max)
        elif item == "variances":
            _write_variances(out_dir / "variances.csv", _walk_steps(mean))
            if config.disorder is not None:
                for j, series in enumerate(series_all):
                    _write_variances(out_dir / f"variances_r{j}.csv", _walk_steps(series))
        elif item == "layout":
            _write_layout(out_dir / "layout.csv", config.steps)
    if reference is not None:
        ref_config, ref_schedules = reference
        ref_series, _ = _simulate(ref_config, ref_schedules)
        _write_similarity(out_dir / "similarity.txt", _walk_steps(mean),
                          _walk_steps(ensemble_mean_series(ref_series)))
    if "oracle_check" in config.outputs:
        _oracle_check(config, schedules, finals, out_dir / "oracle_check.txt")

    manifest = {
        "artifact": {"name": "beamwalk", "version": __version__},
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **_bundle(config, schedules),
        "reference": None if reference is None else _bundle(*reference),
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, separators=(",", ":")) + "\n",
                             encoding="utf-8", newline="\n")
    return manifest_path


def run(
    config: RunConfig,
    base_dir: str | Path | None = None,
    output_dir: str | Path | None = None,
) -> Path:
    """Execute a run; returns the path of the manifest it wrote.

    ``base_dir`` anchors relative similarity_vs references (defaults to
    the working directory); ``output_dir`` overrides the config's.  A
    reference that cannot be read, or whose steps differ, is refused
    before any schedule is drawn.
    """
    reference = None
    if config.similarity_vs is not None:
        ref_path = Path(base_dir if base_dir is not None else Path.cwd()) / config.similarity_vs
        ref_config = load_config(ref_path)
        _check_reference_steps(config, ref_config, str(ref_path))
        reference = (ref_config, _schedules_for(ref_config))
    return _execute(config, _schedules_for(config), reference, output_dir)


def replay(manifest_path: str | Path, output_dir: str | Path | None = None) -> Path:
    """Re-run a manifest using its serialized schedules.

    Reads the manifest's run entry, and its reference entry when the run
    compares against one, then executes them as ``run`` does.  Reproduces
    every data file of the original run byte for byte; only the new
    manifest's timestamp differs.  ``output_dir`` overrides the config's.
    """
    manifest_path = Path(manifest_path)
    with reading(manifest_path):
        document = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "config" not in document:
        raise ConfigError(f"{manifest_path}: not a run manifest")

    config, schedules = _read_bundle(document, str(manifest_path))
    reference = None
    if config.similarity_vs is not None:
        bundle = document.get("reference")
        if not isinstance(bundle, dict):
            raise ConfigError(f"{manifest_path}: manifest lacks the reference run data")
        reference = _read_bundle(bundle, f"{manifest_path}:reference")
        _check_reference_steps(config, reference[0], f"{manifest_path}:reference")
    return _execute(config, schedules, reference, output_dir)
