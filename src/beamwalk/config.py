"""Run configuration documents.

A run is described by a JSON document with the fields of ``RunConfig``;
unknown keys are rejected so typos fail loudly.  ``load_config`` /
``parse_config`` validate everything up front and report the offending
field by name.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .schedules import BINARY_0_PI, DISORDER_KINDS, DisorderSpec

__all__ = ["OUTPUT_KINDS", "SimilarityVs", "RunConfig", "parse_config", "load_config", "config_echo"]

OUTPUT_KINDS = ("distributions", "variances", "layout", "oracle_check")

ORDERED = "ordered"
DISORDERED = "disordered"


@dataclass(frozen=True)
class SimilarityVs:
    """Output request: compare this run's distributions against the run
    described by another config document."""

    reference: str


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one batch run."""

    steps: int
    reflectivity: float
    schedule_kind: str = ORDERED
    theta: float = 0.0
    disorder: DisorderSpec | None = None
    initial_coin: int = 1
    initial_site: int = 0
    loss_eta: float = 1.0  # validated and echoed so older configs parse; affects nothing
    outputs: tuple[str | SimilarityVs, ...] = ("distributions", "variances")
    output_dir: str = "out"
    normalize_to_step_max: bool = False


def _fail(source: str, field: str, message: str) -> ConfigError:
    return ConfigError(f"{source}: {field}: {message}")


def _as_int(value, source: str, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(source, field, f"expected an integer, got {value!r}")
    return value


def _as_number(value, source: str, field: str) -> float:
    # NaN, +-Infinity (json.loads accepts both) and huge integers fail the abs() test.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise _fail(source, field, f"expected a finite number, got {value!r}")
    return float(value)


def _as_mapping(value, source: str, field: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise _fail(source, field, f"expected an object, got {value!r}")
    return value


def _reject_unknown(mapping: Mapping, allowed: tuple[str, ...], source: str, field: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise _fail(source, field, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _parse_schedule_mode(value, source: str) -> tuple[str, float, DisorderSpec | None]:
    mode_map = _as_mapping(value, source, "schedule_mode")
    mode = mode_map.get("mode")
    if mode == ORDERED:
        _reject_unknown(mode_map, ("mode", "theta"), source, "schedule_mode")
        theta = _as_number(mode_map.get("theta", 0.0), source, "schedule_mode.theta")
        return ORDERED, theta, None
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
        return DISORDERED, 0.0, spec
    raise _fail(
        source, "schedule_mode.mode", f"must be '{ORDERED}' or '{DISORDERED}', got {mode!r}"
    )


def _parse_outputs(value, source: str) -> tuple[str | SimilarityVs, ...]:
    if not isinstance(value, list):
        raise _fail(source, "outputs", f"expected a list, got {value!r}")
    parsed: list[str | SimilarityVs] = []
    for position, item in enumerate(value):
        field = f"outputs[{position}]"
        if isinstance(item, str):
            if item not in OUTPUT_KINDS:
                raise _fail(source, field, f"must be one of {list(OUTPUT_KINDS)}, got {item!r}")
            parsed.append(item)
        elif isinstance(item, Mapping):
            _reject_unknown(item, ("similarity_vs",), source, field)
            reference = item.get("similarity_vs")
            if not isinstance(reference, str) or not reference or "\0" in reference:
                raise _fail(source, f"{field}.similarity_vs",
                            "expected a config file path with no NUL character")
            parsed.append(SimilarityVs(reference))
        else:
            raise _fail(source, field, f"expected an output name or object, got {item!r}")
    return tuple(parsed)


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


def parse_config(document: str | Mapping, source: str = "<config>") -> RunConfig:
    """Validate a config document (JSON text or an already-parsed mapping)."""
    if isinstance(document, str):
        try:
            raw = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc
    else:
        raw = document
    raw = _as_mapping(raw, source, "document")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, source, "document")

    if "steps" not in raw:
        raise _fail(source, "steps", "required")
    steps = _as_int(raw["steps"], source, "steps")
    if steps < 1:
        raise _fail(source, "steps", f"must be >= 1, got {steps}")

    if "reflectivity" not in raw:
        raise _fail(source, "reflectivity", "required")
    reflectivity = _as_number(raw["reflectivity"], source, "reflectivity")
    if not 0.0 <= reflectivity <= 1.0:
        raise _fail(source, "reflectivity", f"must be in [0, 1], got {reflectivity}")

    schedule_kind, theta, disorder = (
        _parse_schedule_mode(raw["schedule_mode"], source)
        if "schedule_mode" in raw
        else (ORDERED, 0.0, None)
    )

    initial_coin, initial_site = 1, 0
    if "initial" in raw:
        initial = _as_mapping(raw["initial"], source, "initial")
        _reject_unknown(initial, ("coin", "site"), source, "initial")
        initial_coin = _as_int(initial.get("coin", 1), source, "initial.coin")
        if initial_coin not in (0, 1):
            raise _fail(source, "initial.coin", f"must be 0 or 1, got {initial_coin}")
        initial_site = _as_int(initial.get("site", 0), source, "initial.site")
        if initial_site != 0:
            raise _fail(
                source,
                "initial.site",
                "only 0 is supported; phase schedules are anchored to the origin light cone",
            )

    loss_eta = _as_number(raw.get("loss_eta", 1.0), source, "loss_eta")
    if not 0.0 < loss_eta <= 1.0:
        raise _fail(source, "loss_eta", f"must be in (0, 1], got {loss_eta}")

    outputs = (
        _parse_outputs(raw["outputs"], source)
        if "outputs" in raw
        else ("distributions", "variances")
    )

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir or "\0" in output_dir:
        raise _fail(source, "output_dir",
                    f"expected a nonempty path with no NUL character, got {output_dir!r}")

    normalize = raw.get("normalize_to_step_max", False)
    if not isinstance(normalize, bool):
        raise _fail(source, "normalize_to_step_max", f"expected true/false, got {normalize!r}")

    return RunConfig(
        steps=steps,
        reflectivity=reflectivity,
        schedule_kind=schedule_kind,
        theta=theta,
        disorder=disorder,
        initial_coin=initial_coin,
        initial_site=initial_site,
        loss_eta=loss_eta,
        outputs=outputs,
        output_dir=output_dir,
        normalize_to_step_max=normalize,
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8: {exc.reason}") from exc
    return parse_config(text, source=str(path))


def config_echo(config: RunConfig) -> dict:
    """Canonical JSON-ready form of a config, with all defaults explicit.

    Parsing the echo reproduces an equal ``RunConfig``, which is what
    makes manifests replayable.
    """
    if config.schedule_kind == ORDERED:
        schedule_mode: dict = {"mode": ORDERED, "theta": config.theta}
    else:
        assert config.disorder is not None
        schedule_mode = {
            "mode": DISORDERED,
            "kind": config.disorder.kind,
            "seed": config.disorder.seed,
            "realization_count": config.disorder.realization_count,
        }
    outputs: list = [
        item if isinstance(item, str) else {"similarity_vs": item.reference}
        for item in config.outputs
    ]
    return {
        "steps": config.steps,
        "reflectivity": config.reflectivity,
        "schedule_mode": schedule_mode,
        "initial": {"coin": config.initial_coin, "site": config.initial_site},
        "loss_eta": config.loss_eta,
        "outputs": outputs,
        "output_dir": config.output_dir,
        "normalize_to_step_max": config.normalize_to_step_max,
    }
