"""Run configuration documents.

A run is described by a JSON document with the fields of ``RunConfig``;
unknown keys are rejected so typos fail loudly.  ``parse_config``
validates a parsed document up front and names the offending field.
Every JSON input (a config, a reference, a manifest) is read inside
``reading``, so one that cannot be read or parsed is one ``ConfigError``.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .oracle import MAX_ENUMERATION_STEPS
from .schedules import BINARY_0_PI, DISORDER_KINDS, DisorderSpec

__all__ = ["OUTPUT_KINDS", "RunConfig", "parse_config", "load_config", "config_echo"]

OUTPUT_KINDS = ("distributions", "variances", "layout", "oracle_check")

ORDERED = "ordered"
DISORDERED = "disordered"


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one batch run; ``disorder is None`` is an
    ordered walk, and ``similarity_vs`` is the reference config's path."""

    steps: int
    reflectivity: float
    theta: float = 0.0
    disorder: DisorderSpec | None = None
    initial_coin: int = 1
    outputs: tuple[str, ...] = ("distributions", "variances")
    similarity_vs: str | None = None
    output_dir: str = "out"
    normalize_to_step_max: bool = False


def _fail(source: str, field: str, message: str) -> ConfigError:
    return ConfigError(f"{source}: {field}: {message}")


def _as_int(value, source: str, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(source, field, f"expected an integer, got {value!r}")
    return value


def is_finite_number(value) -> bool:
    """True for an int or float (not a bool) that converts to a finite float."""
    # NaN, +-Infinity (json.loads accepts both) and huge integers fail the abs() test.
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def _as_number(value, source: str, field: str) -> float:
    if not is_finite_number(value):
        raise _fail(source, field, f"expected a finite number, got {value!r}")
    return float(value)


def as_path(value, source: str, field: str) -> str:
    """``value`` if it is a nonempty path string; a NUL, or a lone surrogate
    that ``os.fsencode`` cannot encode, is a ``ConfigError`` rather than the
    ``ValueError`` or ``UnicodeEncodeError`` of a file system call."""
    if not isinstance(value, str) or not value or "\0" in value:
        raise _fail(source, field, f"expected a nonempty path with no NUL character, got {value!r}")
    try:
        os.fsencode(value)
    except UnicodeEncodeError as exc:
        raise _fail(source, field, f"cannot encode {value!r} as a file name: {exc.reason}") from exc
    return value


def _as_mapping(value, source: str, field: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise _fail(source, field, f"expected an object, got {value!r}")
    return value


def _reject_unknown(mapping: Mapping, allowed: tuple[str, ...], source: str, field: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise _fail(source, field, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _parse_schedule_mode(value, source: str) -> tuple[float, DisorderSpec | None]:
    mode_map = _as_mapping(value, source, "schedule_mode")
    mode = mode_map.get("mode")
    if mode == ORDERED:
        _reject_unknown(mode_map, ("mode", "theta"), source, "schedule_mode")
        theta = _as_number(mode_map.get("theta", 0.0), source, "schedule_mode.theta")
        return theta, None
    if mode == DISORDERED:
        _reject_unknown(
            mode_map, ("mode", "kind", "seed", "realization_count"), source, "schedule_mode"
        )
        kind = mode_map.get("kind", BINARY_0_PI)
        if kind not in DISORDER_KINDS:
            raise _fail(
                source, "schedule_mode.kind", f"must be one of {list(DISORDER_KINDS)}, got {kind!r}"
            )
        if "seed" not in mode_map:
            raise _fail(source, "schedule_mode.seed", "required for disordered runs")
        seed = _as_int(mode_map["seed"], source, "schedule_mode.seed")
        count = _as_int(
            mode_map.get("realization_count", 1), source, "schedule_mode.realization_count"
        )
        try:
            spec = DisorderSpec(kind=kind, seed=seed, realization_count=count)
        except ValueError as exc:
            raise _fail(source, "schedule_mode", str(exc)) from exc
        return 0.0, spec
    raise _fail(
        source, "schedule_mode.mode", f"must be '{ORDERED}' or '{DISORDERED}', got {mode!r}"
    )


def _parse_outputs(value, source: str) -> tuple[tuple[str, ...], str | None]:
    """The output names, and the similarity_vs reference path if one is asked for."""
    if not isinstance(value, list):
        raise _fail(source, "outputs", f"expected a list, got {value!r}")
    names: list[str] = []
    reference = None
    for position, item in enumerate(value):
        field = f"outputs[{position}]"
        if isinstance(item, str):
            if item not in OUTPUT_KINDS:
                raise _fail(source, field, f"must be one of {list(OUTPUT_KINDS)}, got {item!r}")
            names.append(item)
        elif isinstance(item, Mapping):
            if reference is not None:
                raise _fail(source, field, "at most one similarity_vs comparison per run")
            _reject_unknown(item, ("similarity_vs",), source, field)
            reference = as_path(item.get("similarity_vs"), source, f"{field}.similarity_vs")
        else:
            raise _fail(source, field, f"expected an output name or object, got {item!r}")
    return tuple(names), reference


_TOP_LEVEL_KEYS = (
    "steps",
    "reflectivity",
    "schedule_mode",
    "initial",
    "loss_eta",
    "outputs",
    "output_dir",
    "normalize_to_step_max",
)


def parse_config(document: Mapping, source: str = "<config>") -> RunConfig:
    """Validate an already-parsed config document."""
    raw = _as_mapping(document, source, "document")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, source, "document")

    if "steps" not in raw:
        raise _fail(source, "steps", "required")
    steps = _as_int(raw["steps"], source, "steps")
    if steps < 1:
        raise _fail(source, "steps", f"must be >= 1, got {steps}")
    if steps * (steps + 1) // 2 * 8 > sys.maxsize:  # numpy's limit on one phase array
        raise _fail(source, "steps", f"{steps} steps need more phases than one array can hold")

    if "reflectivity" not in raw:
        raise _fail(source, "reflectivity", "required")
    reflectivity = _as_number(raw["reflectivity"], source, "reflectivity")
    if not 0.0 <= reflectivity <= 1.0:
        raise _fail(source, "reflectivity", f"must be in [0, 1], got {reflectivity}")

    theta, disorder = (
        _parse_schedule_mode(raw["schedule_mode"], source)
        if "schedule_mode" in raw
        else (0.0, None)
    )

    # initial.site and loss_eta are checked so that older configs keep
    # their exit codes, but neither changes a run: the phase schedules are
    # anchored to site 0, and a uniform loss cancels when each step's
    # powers are normalized.
    initial_coin = 1
    if "initial" in raw:
        initial = _as_mapping(raw["initial"], source, "initial")
        _reject_unknown(initial, ("coin", "site"), source, "initial")
        initial_coin = _as_int(initial.get("coin", 1), source, "initial.coin")
        if initial_coin not in (0, 1):
            raise _fail(source, "initial.coin", f"must be 0 or 1, got {initial_coin}")
        if _as_int(initial.get("site", 0), source, "initial.site") != 0:
            raise _fail(
                source,
                "initial.site",
                "only 0 is supported; phase schedules are anchored to the origin light cone",
            )

    loss_eta = _as_number(raw.get("loss_eta", 1.0), source, "loss_eta")
    if not 0.0 < loss_eta <= 1.0:
        raise _fail(source, "loss_eta", f"must be in (0, 1], got {loss_eta}")

    outputs, similarity_vs = (
        _parse_outputs(raw["outputs"], source)
        if "outputs" in raw
        else (("distributions", "variances"), None)
    )
    if "oracle_check" in outputs and steps > MAX_ENUMERATION_STEPS:
        raise _fail(source, "outputs", f"oracle_check enumerates 2^steps paths and is limited "
                                       f"to steps <= {MAX_ENUMERATION_STEPS}, got {steps}")

    output_dir = as_path(raw.get("output_dir", "out"), source, "output_dir")

    normalize = raw.get("normalize_to_step_max", False)
    if not isinstance(normalize, bool):
        raise _fail(source, "normalize_to_step_max", f"expected true/false, got {normalize!r}")

    return RunConfig(
        steps=steps,
        reflectivity=reflectivity,
        theta=theta,
        disorder=disorder,
        initial_coin=initial_coin,
        outputs=outputs,
        similarity_vs=similarity_vs,
        output_dir=output_dir,
        normalize_to_step_max=normalize,
    )


@contextmanager
def reading(path: Path) -> Iterator[None]:
    """Turn a failure to read ``path`` or parse it as JSON into one ``ConfigError`` line."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except ValueError as exc:  # an integer longer than int_max_str_digits
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    with reading(path):
        document = json.loads(path.read_text(encoding="utf-8"))
    return parse_config(document, source=str(path))


def config_echo(config: RunConfig) -> dict:
    """Canonical JSON-ready form of a config, with all defaults explicit.

    Parsing the echo reproduces an equal ``RunConfig``, which is what
    makes manifests replayable.
    """
    if config.disorder is None:
        schedule_mode: dict = {"mode": ORDERED, "theta": config.theta}
    else:
        schedule_mode = {
            "mode": DISORDERED,
            "kind": config.disorder.kind,
            "seed": config.disorder.seed,
            "realization_count": config.disorder.realization_count,
        }
    outputs: list = list(config.outputs)
    if config.similarity_vs is not None:
        outputs.append({"similarity_vs": config.similarity_vs})
    return {
        "steps": config.steps,
        "reflectivity": config.reflectivity,
        "schedule_mode": schedule_mode,
        "initial": {"coin": config.initial_coin},
        "outputs": outputs,
        "output_dir": config.output_dir,
        "normalize_to_step_max": config.normalize_to_step_max,
    }
