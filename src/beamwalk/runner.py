"""Batch execution: simulate a configured run and write its tables.

Every run writes a manifest that echoes the validated config and the
exact phase schedules used, each as base64 of its little-endian float64
bytes, so any run can be replayed bit-for-bit from its manifest alone,
without regenerating disorder from the seed.  The manifest is written
one schedule at a time, in the same bytes as one ``json.dumps`` of the
whole document, and replay releases the parsed manifest before it runs.
One writer, ``_write_text``, opens every file a run writes; each table
reaches it as a stream of lines, written row by row as they are formed.
"""

from __future__ import annotations

import base64
import datetime
import json
import math
import os
import resource
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .apparatus import layout_table
from .config import RunConfig, config_echo, is_finite_number, load_config, parse_config, reading
from .errors import ConfigError, NumericalInvariantError
from .evolution import evolve
from .measure import (
    DistributionSeries,
    _variance_table,
    bhattacharyya_partials,
    ensemble_mean_series,
    series_from_trajectory,
    similarity,
    variance,  # noqa: F401  perfbench's tracer and its tests look this name up here
)
from .oracle import oracle_state
from .schedules import PhaseSchedule, _mesh_points, ensemble_schedules, ordered_schedule
from .state import WalkerState, initial_state

__all__ = ["NORM_TOLERANCE", "ORACLE_TOLERANCE", "run", "replay"]

NORM_TOLERANCE = 1e-10
ORACLE_TOLERANCE = 1e-10


def _fmt(value: float) -> str:
    # 12 significant digits keeps the tables diffable and reproducible.
    return format(value, ".12g")


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` as they are formed.  Every file a run
    writes goes through here; a table's chunks each end in a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(chunks)


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
        trajectory = evolve(initial_state(coin=config.initial_coin), schedule,
                            config.reflectivity)
        for state in trajectory:
            drift = abs(state.norm() ** 2 - 1.0)
            if not drift <= NORM_TOLERANCE:  # a NaN drift fails too
                raise NumericalInvariantError(
                    f"norm drift {drift:.3e} at step {state.step_index} of "
                    f"realization {index} exceeds {NORM_TOLERANCE:.0e}"
                )
        series_all.append(series_from_trajectory(trajectory))
        finals.append(trajectory[-1])
    return series_all, finals


def _distributions_csv(series: DistributionSeries, to_step_max: bool) -> Iterator[str]:
    yield "step,site,p\n"
    for row in series.rows:
        step, values = row.step, row.probs
        if to_step_max:
            values = values / values.max()
        yield "".join(f"{step},{site},{_fmt(p)}\n"
                      for site, p in zip(range(-step, step + 1, 2), values.tolist()))


def _variances_csv(variances: np.ndarray) -> Iterator[str]:
    """The table of ``variances``, the values of steps 1..N in order."""
    yield "step,variance\n"
    for step, value in enumerate(variances.tolist(), start=1):
        yield f"{step},{_fmt(value)}\n"


def _layout_csv(num_steps: int) -> Iterator[str]:
    yield "step,site,coin,interferometer,plane,direction\n"
    for step, site, coin, interferometer, plane, direction in layout_table(num_steps):
        yield f"{step},{site},{coin},{interferometer},{plane},{direction}\n"


def _oracle_check(
    config: RunConfig,
    schedules: list[PhaseSchedule],
    finals: list[WalkerState],
    path: Path,
) -> None:
    lines = [f"tolerance {_fmt(ORACLE_TOLERANCE)}\n"]
    worst = 0.0
    for index, (schedule, final) in enumerate(zip(schedules, finals)):
        reference = oracle_state(config.initial_coin, schedule, config.reflectivity)
        deviation = float(np.max(np.abs(reference.amplitudes - final.amplitudes)))
        # max(worst, nan) would keep worst: a NaN deviation must stay the worst.
        if deviation > worst or math.isnan(deviation):
            worst = deviation
        lines.append(f"realization {index} max_deviation {_fmt(deviation)}\n")
    lines.append(f"overall_max_deviation {_fmt(worst)}\n")
    passed = worst <= ORACLE_TOLERANCE
    lines.append("status pass\n" if passed else "status fail\n")
    _write_text(path, lines)
    if not passed:
        raise NumericalInvariantError(
            f"path-sum check deviates by {worst:.3e} (tolerance {ORACLE_TOLERANCE:.0e}); "
            f"see {path}"
        )


def _similarity_txt(mean: DistributionSeries,
                    reference_mean: DistributionSeries) -> Iterator[str]:
    """Compares the two series over steps 1..N; step 0 is the same for any walk."""
    mean, reference_mean = (DistributionSeries(s.rows[1:]) for s in (mean, reference_mean))
    yield f"similarity {_fmt(similarity(mean, reference_mean))}\n"
    for step, partial in zip(mean.steps, bhattacharyya_partials(mean, reference_mean)):
        yield f"step {step} partial {_fmt(partial)}\n"


def _bundle_json(config: RunConfig, schedules: list[PhaseSchedule]) -> Iterator[str]:
    """A manifest's run entry, ``"config":...,"schedules":[...]``: the
    config echo and the exact phases, each schedule as one ASCII base64
    string of its little-endian float64 bytes, encoded as it is written."""
    yield ('"config":' + json.dumps(config_echo(config), separators=(",", ":"))
           + ',"schedules":[')
    for index, schedule in enumerate(schedules):
        # The base64 alphabet needs no JSON escaping.
        yield '"' if index == 0 else ',"'
        # A constant schedule's stride-0 phases are packed here, one at a time.
        yield base64.b64encode(np.ascontiguousarray(schedule.phases, "<f8")).decode("ascii")
        yield '"'
    yield "]"


def _manifest_json(
    config: RunConfig,
    schedules: list[PhaseSchedule],
    reference: tuple[RunConfig, list[PhaseSchedule]] | None,
) -> Iterator[str]:
    """The manifest, one schedule at a time.  The text is
    ``json.dumps(manifest, separators=(",", ":")) + "\n"`` of the document
    ``{artifact, created_utc, config, schedules, reference}``, whose
    ``reference`` is null or a ``{config, schedules}`` object, but no more
    than one schedule's base64 exists at once."""
    head = json.dumps({"artifact": {"name": "beamwalk", "version": __version__},
                       "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()},
                      separators=(",", ":"))
    yield head[:-1] + ","
    yield from _bundle_json(config, schedules)
    if reference is None:
        yield ',"reference":null}\n'
    else:
        yield ',"reference":{'
        yield from _bundle_json(*reference)
        yield "}}\n"


def _schedule_from_json(raw, source: str) -> PhaseSchedule:
    """Decode one serialized schedule, packed as ``PhaseSchedule.phases``:
    a string is the 0.3 format, the canonical base64 of little-endian
    float64 phases; a flat list of numbers is the 0.2 format."""
    try:
        if isinstance(raw, str):
            data = base64.b64decode(raw.encode("ascii"), validate=True)
            if base64.b64encode(data).decode("ascii") != raw:
                raise ValueError("not the canonical base64 of its bytes (extra padding or bits)")
            return PhaseSchedule(np.frombuffer(data, "<f8"))
        if not isinstance(raw, list):
            raise TypeError("expected a base64 string (the 0.3 format) or a flat list "
                            f"of phases (the 0.2 format), got {type(raw).__name__}")
        for phase in raw:
            if not is_finite_number(phase):
                raise ValueError(f"expected a finite number, got {phase!r}")
        return PhaseSchedule(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: bad serialized schedule: {exc}") from exc


def _read_schedules(bundle: dict, config: RunConfig, source: str) -> list[PhaseSchedule]:
    """Decode the schedules ``_bundle_json`` wrote for ``config``, once
    ``_admit`` has let it start: one per realization, each of its steps."""
    raw = bundle.get("schedules", [])
    expected = 1 if config.disorder is None else config.disorder.realization_count
    if not isinstance(raw, list) or len(raw) != expected:
        found = len(raw) if isinstance(raw, list) else repr(raw)
        raise ConfigError(f"{source}: expected {expected} serialized schedule(s), found {found}")
    schedules = [_schedule_from_json(obj, source) for obj in raw]
    if any(schedule.num_steps != config.steps for schedule in schedules):
        raise ConfigError(f"{source}: bad serialized schedule: phases not of {config.steps} steps")
    return schedules


def _admit(config: RunConfig, ref_config: RunConfig | None, source: str) -> None:
    """Refuse, before any schedule is drawn or decoded, a similarity_vs
    reference ``ref_config`` (read from ``source``) whose steps differ from the
    run's N, then, as a ``MemoryError``, runs whose R schedules of 8N(N+1)/2
    bytes (8 if ordered) and R + 1 series of 4(N+1)(N+2) each, with the one
    16(N+1)(N+2)-byte trajectory they walk in turn, exceed the soft
    address-space limit, or physical memory when none is set."""
    steps = config.steps
    if ref_config is not None and ref_config.steps != steps:
        raise ConfigError(f"{source}: reference run has {ref_config.steps} steps, "
                          f"this run has {steps}; similarity needs matching steps")
    count, need = 0, 16 * (steps + 1) * (steps + 2)
    for each in (config,) if ref_config is None else (config, ref_config):
        realizations = 1 if each.disorder is None else each.disorder.realization_count
        count += realizations
        need += 8 if each.disorder is None else realizations * 8 * _mesh_points(steps)
        need += (realizations + 1) * 4 * (steps + 1) * (steps + 2)
    limit, what = resource.getrlimit(resource.RLIMIT_AS)[0], "address-space limit"
    if limit == resource.RLIM_INFINITY:
        limit, what = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    if need > limit:
        raise MemoryError(f"a {steps}-step walk's trajectory and {count} realization(s) need "
                          f"{need / 2**30:.3g} GiB, more than the {limit / 2**30:.3g} GiB {what}")


def _execute(
    config: RunConfig,
    schedules: list[PhaseSchedule],
    reference: tuple[RunConfig, list[PhaseSchedule]] | None,
    output_dir: str | Path | None,
) -> Path:
    """Walk every realization, then make ``output_dir`` (or else the config's)
    and write the requested data files, then the manifest, into it.  The oracle
    check runs last, so a failing check (exit 2) leaves every other file written."""
    series_all, finals = _simulate(config, schedules)
    mean = ensemble_mean_series(series_all)
    out_dir = Path(output_dir if output_dir is not None else config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for item in config.outputs:
        if item == "distributions":
            _write_text(out_dir / "distributions.csv",
                        _distributions_csv(mean, config.normalize_to_step_max))
        elif item == "variances":
            # Row 0 is the mean and each further row a realization; column 0
            # is step 0, which the files leave out.
            runs = [mean] if config.disorder is None else [mean, *series_all]
            table = _variance_table(runs)[:, 1:]
            _write_text(out_dir / "variances.csv", _variances_csv(table[0]))
            for j, variances in enumerate(table[1:]):
                _write_text(out_dir / f"variances_r{j}.csv", _variances_csv(variances))
        elif item == "layout":
            _write_text(out_dir / "layout.csv", _layout_csv(config.steps))
    if reference is not None:
        ref_config, ref_schedules = reference
        ref_series, _ = _simulate(ref_config, ref_schedules)
        _write_text(out_dir / "similarity.txt",
                    _similarity_txt(mean, ensemble_mean_series(ref_series)))
    if "oracle_check" in config.outputs:
        _oracle_check(config, schedules, finals, out_dir / "oracle_check.txt")

    manifest_path = out_dir / "manifest.json"
    _write_text(manifest_path, _manifest_json(config, schedules, reference))
    return manifest_path


def run(
    config: RunConfig,
    base_dir: str | Path | None = None,
    output_dir: str | Path | None = None,
) -> Path:
    """Execute a run; returns the path of the manifest it wrote.

    ``base_dir`` anchors relative similarity_vs references (defaults to
    the working directory); ``output_dir`` overrides the config's.  The run
    and its loaded reference are admitted together before any draw.
    """
    ref_path = ref_config = None
    if config.similarity_vs is not None:
        ref_path = Path(base_dir if base_dir is not None else Path.cwd()) / config.similarity_vs
        ref_config = load_config(ref_path)
    _admit(config, ref_config, str(ref_path))
    reference = None if ref_config is None else (ref_config, _schedules_for(ref_config))
    return _execute(config, _schedules_for(config), reference, output_dir)


def replay(manifest_path: str | Path, output_dir: str | Path | None = None) -> Path:
    """Re-run a manifest using its serialized schedules.

    Parses the run's config, and its reference's when it compares against
    one, admits both as ``run`` does, then decodes and executes them.
    Reproduces every data file of the original run byte for byte; only the
    new manifest's timestamp differs.  ``output_dir`` overrides the config's.
    """
    manifest_path = Path(manifest_path)
    with reading(manifest_path):
        document = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "config" not in document:
        raise ConfigError(f"{manifest_path}: not a run manifest")

    config = parse_config(document["config"], source=f"{manifest_path}:config")
    ref_source, ref_config = f"{manifest_path}:reference", None
    if config.similarity_vs is not None:
        if not isinstance(document.get("reference"), dict):
            raise ConfigError(f"{manifest_path}: manifest lacks the reference run data")
        ref_config = parse_config(document["reference"].get("config"),
                                  source=f"{ref_source}:config")
    _admit(config, ref_config, ref_source)
    schedules = _read_schedules(document, config, str(manifest_path))
    reference = None if ref_config is None else (
        ref_config, _read_schedules(document["reference"], ref_config, ref_source))
    # Only the decoded schedules live on through the run, not every
    # schedule's base64 in the parsed document.
    del document
    return _execute(config, schedules, reference, output_dir)
