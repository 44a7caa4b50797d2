"""Tests of the benchmark harness itself.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def oracle_outputs(tmp_path_factory) -> dict[str, bytes]:
    workload = run.WORKLOADS["oracle-check"]
    work = tmp_path_factory.mktemp("oracle")
    (work / "config.json").write_text(json.dumps(workload.config(run.DEFAULT_SEED)))
    (work / "reference.json").write_text(json.dumps(workload.reference))
    child = run.spawn({"kind": "run", "config": str(work / "config.json"),
                       "out": str(work / "out")}, work, "run")
    assert child.ok, child.error
    return run.read_data_files(work / "out")


def test_gate_accepts_golden_outputs(oracle_outputs):
    workload, golden = run.WORKLOADS["oracle-check"], run.load_golden()
    assert run.check_op(workload, run.DEFAULT_SEED, golden, oracle_outputs,
                        dict(oracle_outputs)) == []


def test_flipped_byte_fails_gate(oracle_outputs):
    workload, golden = run.WORKLOADS["oracle-check"], run.load_golden()
    name = "distributions.csv"
    data = bytearray(oracle_outputs[name])
    data[len(data) // 2] ^= 0x01
    flipped = {**oracle_outputs, name: bytes(data)}

    problems = run.check_op(workload, run.DEFAULT_SEED, golden, flipped, dict(flipped))
    assert any("sha256" in p for p in problems)
    # At another seed only the replay comparison can see it.
    problems = run.check_op(workload, run.DEFAULT_SEED + 1, golden, oracle_outputs, flipped)
    assert any("replay" in p for p in problems)


def test_failing_oracle_status_fails_gate(oracle_outputs):
    workload, golden = run.WORKLOADS["oracle-check"], run.load_golden()
    text = oracle_outputs["oracle_check.txt"].replace(b"status pass", b"status fail")
    outputs = {**oracle_outputs, "oracle_check.txt": text}
    problems = run.check_op(workload, run.DEFAULT_SEED + 1, golden, outputs, dict(outputs))
    assert any("status pass" in p for p in problems)


def test_corrupt_output_makes_command_exit_nonzero(monkeypatch, capsys):
    golden = run.load_golden()
    digests = golden["sha256"]["oracle-check"]
    digests["similarity.txt"] = "0" * 64
    monkeypatch.setattr(run, "load_golden", lambda: golden)

    code = run.main(["--workload", "oracle-check", "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    names += [w["name"] for w in spec["workloads"]]
    names += list(tracing.LAYER_METRICS) + list(run.CLI_ONLY_METRICS)
    assert all(NAME.fullmatch(name) for name in names), names
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]+", m["unit"]) for m in metrics)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in tracing.LAYER_METRICS.values()]


def _targets() -> dict[tuple[str, str], object]:
    found = {}
    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        holder = attr.split(".")[0]
        found[(module_name, holder)] = getattr(module, holder)
        if "." in attr:
            found[(module_name, attr)] = getattr(getattr(module, holder), attr.split(".")[1])
    return found


def test_install_and_remove_leaves_functions_identical():
    import beamwalk.runner

    before = _targets()
    with tracing.Tracer() as tracer:
        during = _targets()
        assert tracer.installed == {name for _, _, name, _ in tracing.TARGETS}
        assert all(during[key] is not before[key] for key in before)
    after = _targets()
    assert all(after[key] is before[key] for key in before)
    assert beamwalk.runner.json is json


def test_traced_run_records_layer_spans(tmp_path):
    from beamwalk import cli
    from beamwalk.config import parse_config

    config = parse_config({
        "steps": 3, "reflectivity": 0.5,
        "schedule_mode": {"mode": "disordered", "kind": "binary_0_pi", "seed": 5,
                          "realization_count": 2},
        "outputs": ["distributions", "variances", "layout", "oracle_check"],
    })
    with tracing.Tracer() as tracer:
        manifest = cli.run(config, output_dir=tmp_path / "run")
        cli.replay(manifest, output_dir=tmp_path / "replay")
    values = tracing.op_layer_values(tracer.spans, tracer.installed)
    # Run and replay each: 2 walks of 3 steps; replay decodes, not draws.
    assert values["schedules.mesh_points"] == 2 * (1 + 2 + 3)
    assert values["oracle.paths"] == 2 * 2 * 2**3
    assert values["apparatus.layout_rows"] == 2 * 2 * (2 + 3 + 4)
    assert values["measure.distributions"] == 2 * 2 * 4
    assert values["runner.manifest_bytes"] > 0
    assert values["runner.manifest_decode_s"] > 0
    runner_s = sum(end - start for name, start, end, _, _ in tracer.spans
                   if name in ("runner.run", "runner.replay"))
    assert 0.0 < values["runner.self_s"] < runner_s
    assert len(tracing.walk_latencies(tracer.spans)) == 4


def test_removed_target_leaves_its_metric_out(monkeypatch):
    import beamwalk.evolution

    monkeypatch.delattr(beamwalk.evolution, "coin_field")
    with tracing.Tracer() as tracer:
        pass
    assert "evolution.coin_field" not in tracer.installed
    values = tracing.op_layer_values(tracer.spans, tracer.installed)
    assert "evolution.coin_field_s" not in values
    assert "evolution.coin_layer_s" in values


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    assert tracing.tail(samples) == (89.0, 90.0)
    assert tracing.tail([float(i) for i in range(19)]) == (18.0, 100.0)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ordered-walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
