import json
import subprocess
import sys

import numpy as np
import pytest

from beamwalk import WalkerState
from beamwalk.cli import main


def write_config(path, **overrides):
    document = {"steps": 3, "reflectivity": 0.5, "output_dir": str(path.parent / "out")}
    document.update(overrides)
    path.write_text(json.dumps(document))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_minimal_config_runs_with_defaults(tmp_path, capsys):
    config = write_config(tmp_path / "run.json", steps=7, reflectivity=0.5)
    assert main(["run", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "distributions.csv").exists()
    assert (out / "variances.csv").exists()
    assert str(out / "manifest.json") in capsys.readouterr().out


def test_variances_of_the_three_step_walk(tmp_path):
    config = write_config(tmp_path / "run.json", outputs=["variances"])
    assert main(["run", str(config)]) == 0
    header, rows = read_rows(tmp_path / "out" / "variances.csv")
    assert header == ["step", "variance"]
    values = [float(variance) for _, variance in rows]
    np.testing.assert_allclose(values, [1.0, 2.0, 2.75], atol=1e-12)
    assert [step for step, _ in rows] == ["1", "2", "3"]


def test_distributions_cover_every_reachable_step_site(tmp_path):
    config = write_config(tmp_path / "run.json", outputs=["distributions"])
    assert main(["run", str(config)]) == 0
    header, rows = read_rows(tmp_path / "out" / "distributions.csv")
    assert header == ["step", "site", "p"]
    seen = {(int(step), int(site)) for step, site, _ in rows}
    expected = {
        (step, site)
        for step in range(0, 4)
        for site in range(-step, step + 1, 2)
    }
    assert seen == expected
    by_key = {(int(s), int(i)): float(p) for s, i, p in rows}
    assert by_key[(3, -1)] == pytest.approx(5 / 8)


def test_step_max_normalization_rescales_each_step(tmp_path):
    config = write_config(
        tmp_path / "run.json", outputs=["distributions"], normalize_to_step_max=True
    )
    assert main(["run", str(config)]) == 0
    _, rows = read_rows(tmp_path / "out" / "distributions.csv")
    by_step = {}
    for step, _, p in rows:
        by_step.setdefault(int(step), []).append(float(p))
    for values in by_step.values():
        assert max(values) == pytest.approx(1.0)


def test_disordered_run_emits_per_realization_variances(tmp_path):
    config = write_config(
        tmp_path / "run.json",
        steps=5,
        reflectivity=0.44,
        schedule_mode={"mode": "disordered", "seed": 9, "realization_count": 3},
        outputs=["variances"],
    )
    assert main(["run", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "variances.csv").exists()
    for j in range(3):
        assert (out / f"variances_r{j}.csv").exists()
    assert not (out / "variances_r3.csv").exists()


def test_oracle_check_passes_and_reports(tmp_path):
    config = write_config(
        tmp_path / "run.json",
        steps=6,
        reflectivity=0.44,
        schedule_mode={"mode": "disordered", "seed": 5, "realization_count": 2},
        outputs=["oracle_check"],
    )
    assert main(["run", str(config)]) == 0
    text = (tmp_path / "out" / "oracle_check.txt").read_text()
    assert "status pass" in text
    assert "realization 1" in text
    worst = float(text.splitlines()[-2].split()[-1])
    assert worst < 1e-10


def test_similarity_with_itself_is_one(tmp_path):
    reference = write_config(tmp_path / "ref.json", outputs=["distributions"])
    config = write_config(
        tmp_path / "run.json", outputs=[{"similarity_vs": reference.name}]
    )
    assert main(["run", str(config)]) == 0
    lines = (tmp_path / "out" / "similarity.txt").read_text().splitlines()
    assert lines[0].startswith("similarity ")
    assert float(lines[0].split()[1]) == pytest.approx(1.0, abs=1e-12)
    assert len(lines) == 1 + 3  # one partial per walk step


def test_layout_output(tmp_path):
    config = write_config(tmp_path / "run.json", outputs=["layout"])
    assert main(["run", str(config)]) == 0
    header, rows = read_rows(tmp_path / "out" / "layout.csv")
    assert header == ["step", "site", "coin", "interferometer", "plane", "direction"]
    assert len(rows) == 4 + 6 + 8


def test_manifest_echoes_config_and_schedules(tmp_path):
    config = write_config(
        tmp_path / "run.json",
        schedule_mode={"mode": "disordered", "seed": 11, "realization_count": 2},
    )
    assert main(["run", str(config)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["artifact"]["name"] == "beamwalk"
    assert manifest["config"]["steps"] == 3
    assert len(manifest["schedules"]) == 2
    entries = manifest["schedules"][0]["entries"]
    assert len(entries) == 1 + 2 + 3
    assert all(theta in (0.0, np.pi) for _, _, theta in entries)


def test_replay_reproduces_the_data_files(tmp_path):
    config = write_config(
        tmp_path / "run.json",
        steps=5,
        reflectivity=0.46,
        schedule_mode={"mode": "disordered", "seed": 31, "realization_count": 4},
        outputs=["distributions", "variances", "oracle_check"],
    )
    assert main(["run", str(config)]) == 0
    first = tmp_path / "out"
    replayed = tmp_path / "replayed"
    assert main(["replay", str(first / "manifest.json"), "--output-dir", str(replayed)]) == 0
    for name in ["distributions.csv", "variances.csv", "variances_r2.csv", "oracle_check.txt"]:
        assert (replayed / name).read_bytes() == (first / name).read_bytes()


def test_replay_honors_tampered_schedules(tmp_path):
    # replaying must use the serialized phases, not redraw from the seed
    config = write_config(
        tmp_path / "run.json",
        steps=5,
        reflectivity=0.5,
        schedule_mode={"mode": "disordered", "seed": 13, "realization_count": 1},
        outputs=["distributions"],
    )
    assert main(["run", str(config)]) == 0
    manifest_path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for schedule in manifest["schedules"]:
        schedule["entries"] = [[k, i, 0.0] for k, i, _ in schedule["entries"]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(manifest))
    replayed = tmp_path / "replayed"
    assert main(["replay", str(tampered), "--output-dir", str(replayed)]) == 0
    original = (tmp_path / "out" / "distributions.csv").read_bytes()
    assert (replayed / "distributions.csv").read_bytes() != original


def test_uniform_loss_cancels_after_renormalization(tmp_path):
    lossless = write_config(
        tmp_path / "a.json", outputs=["distributions"], output_dir=str(tmp_path / "a")
    )
    lossy = write_config(
        tmp_path / "b.json",
        outputs=["distributions"],
        output_dir=str(tmp_path / "b"),
        loss_eta=0.8,
    )
    assert main(["run", str(lossless)]) == 0
    assert main(["run", str(lossy)]) == 0
    _, rows_a = read_rows(tmp_path / "a" / "distributions.csv")
    _, rows_b = read_rows(tmp_path / "b" / "distributions.csv")
    for (sa, ia, pa), (sb, ib, pb) in zip(rows_a, rows_b):
        assert (sa, ia) == (sb, ib)
        assert float(pa) == pytest.approx(float(pb), abs=1e-12)


def test_bad_config_exits_one_and_names_the_field(tmp_path, capsys):
    config = write_config(tmp_path / "run.json", reflectivity=1.2)
    assert main(["run", str(config)]) == 1
    assert "reflectivity" in capsys.readouterr().err


def test_bad_usage_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "config error" in capsys.readouterr().err


def test_oracle_check_guard_for_large_walks(tmp_path, capsys):
    config = write_config(tmp_path / "run.json", steps=21, outputs=["oracle_check"])
    assert main(["run", str(config)]) == 1
    assert "oracle_check" in capsys.readouterr().err


def test_numerical_violation_exits_two(tmp_path, monkeypatch, capsys):
    import beamwalk.runner as runner

    real = runner.oracle_state

    def skewed(initial_coin, schedule, reflectivity, num_steps=None):
        state = real(initial_coin, schedule, reflectivity, num_steps)
        amplitudes = state.amplitudes.copy()
        amplitudes[state.step_index % 2, -1] += 1e-6  # the site +step_index
        return WalkerState(amplitudes, state.step_index, state.num_steps)

    monkeypatch.setattr(runner, "oracle_state", skewed)
    config = write_config(tmp_path / "run.json", outputs=["oracle_check"])
    assert main(["run", str(config)]) == 2
    assert "deviates" in capsys.readouterr().err
    assert "status fail" in (tmp_path / "out" / "oracle_check.txt").read_text()


def test_io_failure_exits_three(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    config = write_config(
        tmp_path / "run.json", output_dir=str(blocker / "out")
    )
    assert main(["run", str(config)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    config = write_config(tmp_path / "run.json", outputs=["variances"])
    result = subprocess.run(
        [sys.executable, "-m", "beamwalk", "run", str(config)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "out" / "variances.csv").exists()


def run_then_load_manifest(tmp_path, config):
    assert main(["run", str(config)]) == 0
    return json.loads((tmp_path / "out" / "manifest.json").read_text())


def replay_document(tmp_path, manifest):
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(manifest))
    return main(["replay", str(tampered), "--output-dir", str(tmp_path / "replayed")])


@pytest.mark.parametrize("tamper", ["duplicate", "missing", "extra", "off_cone", "bad_phase"])
def test_replay_rejects_entries_that_miss_or_repeat_mesh_points(tmp_path, capsys, tamper):
    config = write_config(
        tmp_path / "run.json",
        steps=6,
        schedule_mode={"mode": "disordered", "kind": "binary_0_pi", "seed": 3,
                       "realization_count": 2},
        outputs=["distributions"],
    )
    manifest = run_then_load_manifest(tmp_path, config)
    entries = manifest["schedules"][1]["entries"]
    assert entries[3][:2] == [3, -2]
    if tamper == "duplicate":
        entries.append([2, -1, 1.2345])
    elif tamper == "missing":
        del entries[3]
    elif tamper == "extra":
        entries.append([7, 0, 0.0])
    elif tamper == "off_cone":
        entries[3][1] = -1
    else:
        entries[3][2] = "pi"
    capsys.readouterr()
    assert replay_document(tmp_path, manifest) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bad serialized schedule" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "replayed" / "distributions.csv").exists()


def test_replay_accepts_entries_in_any_order(tmp_path):
    config = write_config(
        tmp_path / "run.json",
        steps=6,
        schedule_mode={"mode": "disordered", "kind": "uniform_0_2pi", "seed": 3,
                       "realization_count": 2},
        outputs=["distributions"],
    )
    manifest = run_then_load_manifest(tmp_path, config)
    for schedule in manifest["schedules"]:
        schedule["entries"].reverse()
    assert replay_document(tmp_path, manifest) == 0
    original = (tmp_path / "out" / "distributions.csv").read_bytes()
    assert (tmp_path / "replayed" / "distributions.csv").read_bytes() == original


@pytest.mark.parametrize("count", [0, 1, 3])
def test_replay_checks_the_reference_schedule_count(tmp_path, capsys, count):
    write_config(
        tmp_path / "ref.json",
        schedule_mode={"mode": "disordered", "seed": 4, "realization_count": 2},
        outputs=["distributions"],
    )
    config = write_config(tmp_path / "run.json", outputs=[{"similarity_vs": "ref.json"}])
    manifest = run_then_load_manifest(tmp_path, config)
    schedules = manifest["reference"]["schedules"]
    assert len(schedules) == 2
    manifest["reference"]["schedules"] = (schedules * 2)[:count]
    capsys.readouterr()
    assert replay_document(tmp_path, manifest) == 1
    err = capsys.readouterr().err
    assert f"expected 2 serialized schedule(s), found {count}" in err
    assert len(err.strip().splitlines()) == 1


# json writes the floats as NaN, Infinity and -Infinity, which json.loads
# reads back; 10**400 is an integer literal no float can hold.
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("field", ["theta", "reflectivity", "loss_eta"])
def test_non_finite_numbers_exit_one(tmp_path, capsys, field, value):
    overrides = {
        "theta": {"schedule_mode": {"mode": "ordered", "theta": value}},
        "reflectivity": {"reflectivity": value},
        "loss_eta": {"loss_eta": value},
    }[field]
    config = write_config(tmp_path / "run.json", **overrides)
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert field in err and "finite number" in err
    assert len(err.strip().splitlines()) == 1
