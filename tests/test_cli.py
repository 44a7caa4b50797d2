import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamwalk
from beamwalk import BINARY_0_PI, DisorderSpec, WalkerState, disordered_schedule
from beamwalk.cli import main


def write_config(path, **overrides):
    document = {"steps": 3, "reflectivity": 0.5, "output_dir": str(path.parent / "out")}
    document.update(overrides)
    path.write_text(json.dumps(document))
    return path


def decode_phases(text):
    """The float64 phases of one schedule as a 0.3 manifest stores it."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8")


def encode_phases(phases):
    """One schedule in the 0.3 manifest format: base64 of little-endian float64."""
    return base64.b64encode(np.asarray(phases, dtype="<f8").tobytes()).decode("ascii")


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
        outputs=["distributions", "variances"],
    )
    assert main(["run", str(config)]) == 0
    out = tmp_path / "out"
    assert not (out / "variances_r3.csv").exists()

    # The same tables, rebuilt from the library tour's calls.
    def table(header, rows):
        return "\n".join([header, *rows]) + "\n"

    def variance_table(series):
        values = beamwalk.variance_series(series)
        return table("step,variance",
                     [f"{k},{format(v, '.12g')}" for k, v in zip(series.steps, values)])

    schedules = beamwalk.ensemble_schedules(5, DisorderSpec(BINARY_0_PI, 9, 3))
    trajectories = [beamwalk.evolve(beamwalk.initial_state(5), s, 0.44) for s in schedules]
    walks = [beamwalk.series_from_trajectory(trajectory[1:]) for trajectory in trajectories]
    for j, walk in enumerate(walks):
        assert (out / f"variances_r{j}.csv").read_bytes() == variance_table(walk).encode()
    mean_walk = beamwalk.ensemble_mean_series(walks)
    assert (out / "variances.csv").read_bytes() == variance_table(mean_walk).encode()
    mean = beamwalk.ensemble_mean_series(
        [beamwalk.series_from_trajectory(trajectory) for trajectory in trajectories]
    )
    rows = [f"{row.step},{site},{format(float(p), '.12g')}"
            for row in mean.rows for site, p in zip(row.sites, row.probs)]
    assert (out / "distributions.csv").read_bytes() == table("step,site,p", rows).encode()


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
    text = (tmp_path / "out" / "manifest.json").read_text()
    assert len(text.splitlines()) == 1  # compact separators, no indentation
    manifest = json.loads(text)
    assert manifest["artifact"]["name"] == "beamwalk"
    assert manifest["config"]["steps"] == 3
    assert manifest["artifact"]["version"] == beamwalk.__version__
    # one base64 string of packed float64 phases per realization, in index order
    spec = DisorderSpec(BINARY_0_PI, seed=11, realization_count=2)
    assert len(manifest["schedules"]) == 2
    for j, text in enumerate(manifest["schedules"]):
        assert isinstance(text, str) and text.isascii()
        assert decode_phases(text).tobytes() == disordered_schedule(3, spec, j).phases.tobytes()


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
    manifest["schedules"] = [encode_phases(np.zeros(1 + 2 + 3 + 4 + 5))]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(manifest))
    replayed = tmp_path / "replayed"
    assert main(["replay", str(tampered), "--output-dir", str(replayed)]) == 0
    original = (tmp_path / "out" / "distributions.csv").read_bytes()
    assert (replayed / "distributions.csv").read_bytes() != original


# R = 0.44 over 400 steps is where scaling each step by eta**k and dividing
# it back out moves 12th digits, and 0.1**400 underflows to 0.0.
@pytest.mark.parametrize("steps", [3, 400])
@pytest.mark.parametrize("loss_eta", [0.8, 0.1])
def test_uniform_loss_cancels_after_renormalization(tmp_path, loss_eta, steps):
    common = {"steps": steps, "reflectivity": 0.44, "outputs": ["distributions", "variances"]}
    lossless = write_config(tmp_path / "a.json", output_dir=str(tmp_path / "a"), **common)
    lossy = write_config(
        tmp_path / "b.json",
        **common,
        output_dir=str(tmp_path / "b"),
        loss_eta=loss_eta,
    )
    assert main(["run", str(lossless)]) == 0
    assert main(["run", str(lossy)]) == 0
    for name in ["distributions.csv", "variances.csv"]:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert "loss_eta" not in manifest["config"]


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

    def skewed(initial_coin, schedule, reflectivity):
        state = real(initial_coin, schedule, reflectivity)
        amplitudes = state.amplitudes.copy()
        amplitudes[state.step_index % 2, -1] += 1e-6  # the site +step_index
        return WalkerState(amplitudes, state.step_index, state.num_steps)

    monkeypatch.setattr(runner, "oracle_state", skewed)
    config = write_config(tmp_path / "run.json",
                          outputs=["oracle_check", "distributions", "layout"])
    assert main(["run", str(config)]) == 2
    assert "deviates" in capsys.readouterr().err
    assert "status fail" in (tmp_path / "out" / "oracle_check.txt").read_text()
    # the check runs last, so the files listed after it are written too
    assert (tmp_path / "out" / "distributions.csv").exists()
    assert (tmp_path / "out" / "layout.csv").exists()


def test_norm_drift_exits_two(tmp_path, monkeypatch, capsys):
    import beamwalk.runner as runner

    real = runner.evolve

    def drifting(initial, schedule, reflectivity):
        trajectory = real(initial, schedule, reflectivity)
        state = trajectory[2]
        trajectory[2] = WalkerState(state.amplitudes * (1 + 1e-6), state.step_index,
                                    state.num_steps)
        return trajectory

    monkeypatch.setattr(runner, "evolve", drifting)
    config = write_config(tmp_path / "run.json")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "norm drift" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


# A manifest exactly as beamwalk 0.2.0 wrote it, with the two settings that
# change no output (initial.site and loss_eta) and a reference run bundle.
MANIFEST_0_2_0 = (
    '{"artifact":{"name":"beamwalk","version":"0.2.0"},'
    '"created_utc":"2026-10-18T13:01:10.100938+00:00",'
    '"config":{"steps":3,"reflectivity":0.44,"schedule_mode":{"mode":"disordered",'
    '"kind":"binary_0_pi","seed":7,"realization_count":2},"initial":{"coin":0,"site":0},'
    '"loss_eta":0.8,"outputs":["distributions","variances",{"similarity_vs":"ref.json"}],'
    '"output_dir":"out","normalize_to_step_max":false},'
    '"schedules":[[3.141592653589793,3.141592653589793,3.141592653589793,'
    '3.141592653589793,3.141592653589793,3.141592653589793],'
    '[3.141592653589793,3.141592653589793,3.141592653589793,0.0,0.0,0.0]],'
    '"reference":{"config":{"steps":3,"reflectivity":0.44,'
    '"schedule_mode":{"mode":"ordered","theta":0.3},"initial":{"coin":1,"site":0},'
    '"loss_eta":1.0,"outputs":["distributions","variances"],"output_dir":"out",'
    '"normalize_to_step_max":false},"schedules":[[0.3,0.3,0.3,0.3,0.3,0.3]]}}\n'
)

# sha256 of the files beamwalk 0.2.0 wrote for MANIFEST_0_2_0.
MANIFEST_0_2_0_SHA256 = {
    "distributions.csv": "603f44a6d2171fb3eb60b23e535274a64465488081d1f639be69fd6cb5b0f5b3",
    "variances.csv": "92301cbbae0b36fd147dcb33f2267227fdeba6482d38041cb3c8766fadd1291a",
    "similarity.txt": "c0897d05290bf4ae4011028af674f0d305d3de4e1b4b05309f1fbbc18345ce1c",
}


def test_a_0_2_0_manifest_replays_to_the_same_bytes(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(MANIFEST_0_2_0, encoding="utf-8")
    replayed = tmp_path / "replayed"
    assert main(["replay", str(manifest), "--output-dir", str(replayed)]) == 0
    digests = {name: hashlib.sha256((replayed / name).read_bytes()).hexdigest()
               for name in MANIFEST_0_2_0_SHA256}
    assert digests == MANIFEST_0_2_0_SHA256


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


def test_output_path_that_stdout_cannot_encode_exits_zero(tmp_path):
    # b"\x80" reaches argv as the lone surrogate "\udc80", which strict
    # UTF-8 cannot encode; the manifest line escapes it.
    config = write_config(tmp_path / "run.json", outputs=["variances"])
    out_dir = os.fsencode(tmp_path) + b"/o\x80"
    result = subprocess.run(
        [sys.executable, "-m", "beamwalk", "run", str(config), "--output-dir", out_dir],
        capture_output=True,
        env=dict(os.environ, PYTHONIOENCODING="utf-8:strict"),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    assert result.stdout.splitlines() == [os.fsencode(tmp_path) + b"/o\\udc80/manifest.json"]
    assert (Path(os.fsdecode(out_dir)) / "manifest.json").exists()


# A child that caps its own address space (RLIMIT_AS, in MiB) before it
# imports beamwalk, then runs the CLI on the remaining arguments.
CAPPED_CHILD = """
import resource, sys
limit = int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from beamwalk.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_with_address_limit(limit_mib, *argv):
    src = str(Path(beamwalk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", CAPPED_CHILD, str(limit_mib), *argv],
                          capture_output=True, text=True, env=env)


def test_oracle_check_at_the_step_guard_fits_in_384_mib(tmp_path):
    config = write_config(
        tmp_path / "run.json", steps=20, outputs=["oracle_check"],
        schedule_mode={"mode": "disordered", "kind": "uniform_0_2pi",
                       "seed": 3, "realization_count": 1},
    )
    result = run_with_address_limit(384, "run", str(config))
    assert result.returncode == 0, result.stderr
    assert "status pass" in (tmp_path / "out" / "oracle_check.txt").read_text()


def test_run_that_does_not_fit_in_memory_exits_one_with_one_line(tmp_path):
    # 20000 steps need 1.6 GB of phases, more than the child may map.
    config = write_config(tmp_path / "run.json", steps=20000)
    result = run_with_address_limit(512, "run", str(config))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("beamwalk: config error: run does not fit in memory: ")
    assert "Traceback" not in result.stderr


def run_then_load_manifest(tmp_path, config):
    assert main(["run", str(config)]) == 0
    return json.loads((tmp_path / "out" / "manifest.json").read_text())


def replay_document(tmp_path, manifest):
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(manifest))
    return main(["replay", str(tampered), "--output-dir", str(tmp_path / "replayed")])


def entries_of_version_0_1(phases, num_steps):
    """The [k, i, theta] triples a beamwalk 0.1 manifest stored."""
    points = [(k, i) for k in range(1, num_steps + 1) for i in range(1 - k, k, 2)]
    return [[k, i, theta] for (k, i), theta in zip(points, phases)]


def with_fourth_phase(value):
    return lambda phases: phases[:3] + [value] + phases[4:]


# tamper -> how it edits realization 1's packed phases of a 6-step walk,
# written as a 0.2 flat list; each result must be refused, as the 0.1
# entries format is.  json writes the floats as NaN and Infinity, and
# 10**400 as an integer literal.
TAMPERS = {
    "missing": lambda phases: phases[:3] + phases[4:],
    "extra": lambda phases: phases + [0.0],
    "duplicate": lambda phases: phases[:4] + phases[3:],
    "bad_phase": with_fourth_phase("pi"),
    "numeric-string": with_fourth_phase("0.5"),
    "true": with_fourth_phase(True),
    "null": with_fourth_phase(None),
    "nested-list": with_fourth_phase([0.1]),
    "nan": with_fourth_phase(float("nan")),
    "infinity": with_fourth_phase(float("inf")),
    "1e400": with_fourth_phase(10**400),
    "entries-0.1": lambda phases: {"realization_index": 1,
                                   "entries": entries_of_version_0_1(phases, 6)},
}


def ensemble_manifest(tmp_path, steps=6):
    config = write_config(
        tmp_path / "run.json",
        steps=steps,
        schedule_mode={"mode": "disordered", "kind": "binary_0_pi", "seed": 3,
                       "realization_count": 2},
        outputs=["distributions"],
    )
    return run_then_load_manifest(tmp_path, config)


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_replay_rejects_entries_that_miss_or_repeat_mesh_points(tmp_path, capsys, tamper):
    manifest = ensemble_manifest(tmp_path)
    # the same manifest in the 0.2 form, which replay still reads
    manifest["schedules"] = [decode_phases(text).tolist() for text in manifest["schedules"]]
    assert len(manifest["schedules"][1]) == 21
    manifest["schedules"][1] = TAMPERS[tamper](manifest["schedules"][1])
    capsys.readouterr()
    assert replay_document(tmp_path, manifest) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bad serialized schedule" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "replayed").exists()


def with_fourth_phase_bytes(value):
    def tamper(text):
        phases = decode_phases(text).copy()
        phases[3] = value
        return encode_phases(phases)
    return tamper


# tamper -> the run's steps, and how it edits realization 1's base64
# schedule; a 6-step walk has 21 phases, 168 bytes, 224 characters with no
# padding.  The last two are forms that b64decode(validate=True) accepts but
# b64encode never writes: pi is GC1EVPshCUA=, and a 2-step walk's 24 bytes
# need no padding.
BASE64_TAMPERS = {
    "non-alphabet": (6, lambda text: text[:10] + "!" + text[11:]),
    "bad-padding": (6, lambda text: text[:6] + "==" + text[8:]),
    "8-bytes-missing": (6, lambda text: encode_phases(decode_phases(text)[:-1])),
    "8-bytes-extra": (6, lambda text: encode_phases(np.append(decode_phases(text), 0.0))),
    "nan": (6, with_fourth_phase_bytes(float("nan"))),
    "infinity": (6, with_fourth_phase_bytes(float("inf"))),
    "non-ascii": (6, lambda text: text[:10] + "\u03c0" + text[11:]),
    "number": (6, lambda text: 5),
    "unused-bits-set": (1, lambda text: "GC1EVPshCUB="),
    "padding-after-a-full-group": (2, lambda text: text + "="),
}


@pytest.mark.parametrize("tamper", list(BASE64_TAMPERS))
def test_replay_rejects_bad_base64_schedules(tmp_path, capsys, tamper):
    steps, edit = BASE64_TAMPERS[tamper]
    manifest = ensemble_manifest(tmp_path, steps)
    assert decode_phases(manifest["schedules"][1]).size == steps * (steps + 1) // 2
    manifest["schedules"][1] = edit(manifest["schedules"][1])
    capsys.readouterr()
    assert replay_document(tmp_path, manifest) == 1
    err = capsys.readouterr().err
    assert err.startswith("beamwalk: config error:") and "bad serialized schedule" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "replayed").exists()


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


def test_run_checks_the_reference_step_count(tmp_path, capsys):
    write_config(tmp_path / "ref.json", steps=4)
    config = write_config(tmp_path / "run.json", outputs=[{"similarity_vs": "ref.json"}])
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert "reference run has 4 steps, this run has 3" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("reference", [{"steps": 4, "reflectivity": 0.5}, None],
                         ids=["steps-differ", "missing"])
def test_a_refused_reference_draws_no_schedule(tmp_path, monkeypatch, capsys, reference):
    import beamwalk.runner as runner

    draws = []

    def counted(real):
        def draw(*args):
            draws.append(args)
            return real(*args)
        return draw

    for name in ("ordered_schedule", "ensemble_schedules"):
        monkeypatch.setattr(runner, name, counted(getattr(runner, name)))
    if reference is not None:
        (tmp_path / "ref.json").write_text(json.dumps(reference))
    config = write_config(tmp_path / "run.json", outputs=[{"similarity_vs": "ref.json"}])
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("beamwalk: config error:") and "ref.json" in err
    assert len(err.strip().splitlines()) == 1
    assert draws == []
    assert not (tmp_path / "out").exists()


def test_replay_checks_the_reference_step_count(tmp_path, capsys):
    write_config(tmp_path / "ref.json", outputs=["distributions"])
    config = write_config(tmp_path / "run.json", outputs=[{"similarity_vs": "ref.json"}])
    manifest = run_then_load_manifest(tmp_path, config)
    longer = write_config(tmp_path / "ref4.json", steps=4, output_dir=str(tmp_path / "ref4"))
    assert main(["run", str(longer)]) == 0
    longer_manifest = json.loads((tmp_path / "ref4" / "manifest.json").read_text())
    manifest["reference"] = {key: longer_manifest[key] for key in ("config", "schedules")}
    capsys.readouterr()
    assert replay_document(tmp_path, manifest) == 1
    err = capsys.readouterr().err
    assert "reference run has 4 steps, this run has 3" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "replayed" / "similarity.txt").exists()


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


STEP_1 = {"steps": 1, "reflectivity": 0.5}
COMPARED = dict(STEP_1, outputs=[{"similarity_vs": "ref.json"}])
SCHEDULES_1 = [[0.0]]
NOT_UTF8 = b'{"steps": 1, "reflectivity": 0.5, "output_dir": "\xff"}'
NESTED_TOO_DEEPLY = b"[" * 100000
# 5001 digits, past the 4300 that int() converts; json.dumps cannot write it.
INTEGER_TOO_LONG = b"1" + b"0" * 5000

# Contents that leave no readable file: nothing at that name, or a directory.
MISSING, DIRECTORY = object(), object()

# command, then the files to write; the first file is the one passed to main.
MALFORMED_INPUTS = {
    "config-missing": ("run", {"run.json": MISSING}),
    "config-a-directory": ("run", {"run.json": DIRECTORY}),
    "config-not-json": ("run", {"run.json": b"{not json"}),
    "reference-missing": ("run", {"run.json": COMPARED, "ref.json": MISSING}),
    "config-not-utf8": ("run", {"run.json": NOT_UTF8}),
    "reference-not-utf8": ("run", {"run.json": COMPARED, "ref.json": NOT_UTF8}),
    "nul-in-output_dir": ("run", {"run.json": dict(STEP_1, output_dir="out\0x")}),
    "nul-in-similarity_vs": (
        "run", {"run.json": dict(STEP_1, outputs=[{"similarity_vs": "ref\0.json"}])}
    ),
    "surrogate-in-output_dir": ("run", {"run.json": dict(STEP_1, output_dir="out\ud800")}),
    "surrogate-in-similarity_vs": (
        "run", {"run.json": dict(STEP_1, outputs=[{"similarity_vs": "r\ud800.json"}])}
    ),
    "steps-beyond-array-limit": ("run", {"run.json": dict(STEP_1, steps=10**10)}),
    "config-nested-too-deeply": ("run", {"run.json": NESTED_TOO_DEEPLY}),
    "config-integer-too-long": (
        "run", {"run.json": b'{"steps": ' + INTEGER_TOO_LONG + b', "reflectivity": 0.5}'}
    ),
    "reference-nested-too-deeply": (
        "run", {"run.json": COMPARED, "ref.json": NESTED_TOO_DEEPLY}
    ),
    "manifest-missing": ("replay", {"manifest.json": MISSING}),
    "manifest-a-directory": ("replay", {"manifest.json": DIRECTORY}),
    "manifest-not-utf8": ("replay", {"manifest.json": NOT_UTF8}),
    "manifest-nested-too-deeply": ("replay", {"manifest.json": NESTED_TOO_DEEPLY}),
    "manifest-integer-too-long": (
        "replay",
        {"manifest.json": b'{"config": {"steps": ' + INTEGER_TOO_LONG
         + b', "reflectivity": 0.5}, "schedules": [[0.0]]}'},
    ),
    "manifest-nul-in-output_dir": (
        "replay",
        {"manifest.json": {"config": dict(STEP_1, output_dir="out\0x"),
                           "schedules": SCHEDULES_1}},
    ),
    "manifest-surrogate-in-output_dir": (
        "replay",
        {"manifest.json": {"config": dict(STEP_1, output_dir="out\ud800"),
                           "schedules": SCHEDULES_1}},
    ),
    "manifest-not-json": ("replay", {"manifest.json": b"{not json"}),
    "manifest-a-list": ("replay", {"manifest.json": [STEP_1]}),
    "manifest-without-config": ("replay", {"manifest.json": {"schedules": SCHEDULES_1}}),
    "manifest-bad-config": (
        "replay", {"manifest.json": {"config": dict(STEP_1, steps=0), "schedules": SCHEDULES_1}}
    ),
    "schedules-not-a-list": ("replay", {"manifest.json": {"config": STEP_1, "schedules": 5}}),
    "schedule-without-entries": ("replay", {"manifest.json": {"config": STEP_1, "schedules": [{}]}}),
    "reference-data-missing": (
        "replay",
        {"manifest.json": {"config": COMPARED, "schedules": SCHEDULES_1, "reference": None}},
    ),
    "reference-without-config": (
        "replay",
        {"manifest.json": {"config": COMPARED, "schedules": SCHEDULES_1,
                           "reference": {"schedules": SCHEDULES_1}}},
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_one_without_a_traceback(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    command, files = MALFORMED_INPUTS[case]
    for name, content in files.items():
        if content is DIRECTORY:
            (tmp_path / name).mkdir()
        elif content is not MISSING:
            (tmp_path / name).write_bytes(
                content if isinstance(content, bytes) else json.dumps(content).encode()
            )
    assert main([command, next(iter(files))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("beamwalk: config error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# A NUL cannot reach argv from a shell, but a Python caller can pass one.
@pytest.mark.parametrize("argv", [
    ["run", "c\0.json"],
    ["replay", "m\0.json"],
    ["run", "run.json", "--output-dir", "o\0x"],
    ["replay", "out/manifest.json", "--output-dir", "o\0x"],
], ids=["run-config", "replay-manifest", "run-output-dir", "replay-output-dir"])
def test_nul_in_a_command_line_path_exits_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "run.json")
    assert main(["run", "run.json"]) == 0
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("beamwalk: config error:") and "NUL" in err
    assert len(err.strip().splitlines()) == 1
