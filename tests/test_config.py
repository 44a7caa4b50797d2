import json
import math
import sys

import numpy as np
import pytest

from beamwalk import ConfigError
from beamwalk.config import RunConfig, config_echo, load_config, parse_config
from beamwalk.runner import replay


def test_minimal_config_gets_the_defaults():
    config = parse_config(json.loads('{"steps": 7, "reflectivity": 0.5}'))
    assert config.steps == 7
    assert config.reflectivity == 0.5
    assert config.disorder is None
    assert config.theta == 0.0
    assert config.initial_coin == 1
    assert config.outputs == ("distributions", "variances")
    assert config.similarity_vs is None
    assert config.normalize_to_step_max is False


def test_disordered_config_parses_the_disorder_settings():
    config = parse_config(
        {
            "steps": 7,
            "reflectivity": 0.44,
            "schedule_mode": {
                "mode": "disordered",
                "kind": "binary_0_pi",
                "seed": 42,
                "realization_count": 100,
            },
        }
    )
    assert config.disorder is not None
    assert config.disorder.seed == 42
    assert config.disorder.realization_count == 100


def test_ordered_theta_is_read():
    config = parse_config(json.loads(
        '{"steps": 3, "reflectivity": 0.5, "schedule_mode": {"mode": "ordered", "theta": 0.3}}'
    ))
    assert config.theta == 0.3


def test_outputs_accept_names_and_similarity_objects():
    config = parse_config(
        {
            "steps": 3,
            "reflectivity": 0.5,
            "outputs": ["variances", {"similarity_vs": "ref.json"}, "layout"],
        }
    )
    assert config.outputs == ("variances", "layout")
    assert config.similarity_vs == "ref.json"


def test_a_second_similarity_object_names_its_position():
    document = {"steps": 3, "reflectivity": 0.5,
                "outputs": [{"similarity_vs": "a.json"}, {"similarity_vs": "b.json"}]}
    with pytest.raises(ConfigError, match=r"outputs\[1\]: at most one similarity_vs"):
        parse_config(document)


def test_oracle_check_above_the_enumeration_guard_fails_to_parse():
    document = {"steps": 21, "reflectivity": 0.5, "outputs": ["oracle_check"]}
    with pytest.raises(ConfigError, match=r"outputs: oracle_check .* steps <= 20, got 21"):
        parse_config(document)
    assert parse_config(dict(document, steps=20)).steps == 20


def test_settings_that_change_no_output_are_checked_but_not_kept():
    plain = parse_config(json.loads('{"steps": 3, "reflectivity": 0.5}'))
    older = parse_config(json.loads('{"steps": 3, "reflectivity": 0.5,'
                                    ' "initial": {"coin": 1, "site": 0}, "loss_eta": 0.8}'))
    assert older == plain
    echo = config_echo(older)
    assert "loss_eta" not in echo
    assert echo["initial"] == {"coin": 1}


def test_out_of_range_reflectivity_names_the_field():
    with pytest.raises(ConfigError, match="reflectivity"):
        parse_config(json.loads('{"steps": 3, "reflectivity": 1.2}'))


def test_missing_required_fields_are_reported():
    with pytest.raises(ConfigError, match="steps"):
        parse_config(json.loads('{"reflectivity": 0.5}'))
    with pytest.raises(ConfigError, match="reflectivity"):
        parse_config(json.loads('{"steps": 3}'))


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="reflectivty"):
        parse_config(json.loads('{"steps": 3, "reflectivity": 0.5, "reflectivty": 1}'))


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="schedule_mode"):
        parse_config(json.loads(
            '{"steps": 3, "reflectivity": 0.5,'
            ' "schedule_mode": {"mode": "ordered", "thetas": 1}}'
        ))


def test_invalid_json_reports_the_position(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"steps": 3,\n "reflectivity": }')
    with pytest.raises(ConfigError, match="line 2, column"):
        load_config(path)


def test_invalid_manifest_json_reports_the_position(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"config": {"steps": 3,\n "reflectivity": }}')
    with pytest.raises(ConfigError, match="line 2, column"):
        replay(path)


@pytest.mark.parametrize(
    "document,field",
    [
        ('{"steps": 0, "reflectivity": 0.5}', "steps"),
        ('{"steps": 2.5, "reflectivity": 0.5}', "steps"),
        ('{"steps": 3, "reflectivity": 0.5, "loss_eta": 0.0}', "loss_eta"),
        ('{"steps": 3, "reflectivity": 0.5, "loss_eta": 1.5}', "loss_eta"),
        ('{"steps": 3, "reflectivity": 0.5, "initial": {"coin": 3}}', "initial.coin"),
        ('{"steps": 3, "reflectivity": 0.5, "initial": {"site": 2}}', "initial.site"),
        ('{"steps": 3, "reflectivity": 0.5, "outputs": ["plots"]}', "outputs"),
        ('{"steps": 3, "reflectivity": 0.5, "outputs": "variances"}', "outputs"),
        (
            '{"steps": 3, "reflectivity": 0.5, "schedule_mode": {"mode": "noisy"}}',
            "schedule_mode.mode",
        ),
        (
            '{"steps": 3, "reflectivity": 0.5, "schedule_mode": {"mode": "disordered"}}',
            "schedule_mode.seed",
        ),
        (
            '{"steps": 3, "reflectivity": 0.5,'
            ' "schedule_mode": {"mode": "disordered", "seed": 1, "kind": "gauss"}}',
            "schedule_mode.kind",
        ),
        (
            '{"steps": 3, "reflectivity": 0.5,'
            ' "schedule_mode": {"mode": "disordered", "seed": -1}}',
            "schedule_mode",
        ),
        (
            '{"steps": 3, "reflectivity": 0.5,'
            ' "schedule_mode": {"mode": "disordered", "seed": 1, "realization_count": 0}}',
            "schedule_mode",
        ),
        ('{"steps": 3, "reflectivity": 0.5, "outputs": [5]}', r"outputs\[0\]"),
        ('{"steps": 3, "reflectivity": 0.5, "normalize_to_step_max": 1}', "normalize"),
        ('{"steps": 3, "reflectivity": 0.5, "output_dir": ""}', "output_dir"),
        ('{"steps": true, "reflectivity": 0.5}', "steps"),
    ],
)
def test_field_errors_name_the_field(document, field):
    with pytest.raises(ConfigError, match=field):
        parse_config(json.loads(document))


def test_steps_stop_at_the_largest_phase_array_numpy_can_make():
    largest = math.isqrt(sys.maxsize // 4)
    while 4 * largest * (largest + 1) > sys.maxsize:
        largest -= 1
    assert parse_config({"steps": largest, "reflectivity": 0.5}).steps == largest
    with pytest.raises(ConfigError, match="steps"):
        parse_config({"steps": largest + 1, "reflectivity": 0.5})
    # numpy refuses that schedule's packed phases before allocating anything
    with pytest.raises(ValueError):
        np.empty((largest + 1) * (largest + 2) // 2)


def test_surrogate_escaped_bytes_are_a_valid_path():
    # an undecodable byte of a file name arrives as \udc80-\udcff and encodes back
    config = parse_config({"steps": 1, "reflectivity": 0.5, "output_dir": "out\udc80"})
    assert config.output_dir == "out\udc80"


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"steps": 2, "reflectivity": 0.44}')
    config = load_config(path)
    assert config.steps == 2


def test_load_config_reports_missing_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_echo_round_trips_through_the_parser():
    config = parse_config(
        {
            "steps": 5,
            "reflectivity": 0.46,
            "schedule_mode": {"mode": "disordered", "seed": 7, "realization_count": 3},
            "initial": {"coin": 0},
            "loss_eta": 0.9,
            "outputs": ["distributions", {"similarity_vs": "other.json"}],
            "output_dir": "results",
            "normalize_to_step_max": True,
        }
    )
    assert parse_config(config_echo(config)) == config


def test_echo_of_defaults_round_trips():
    config = RunConfig(steps=4, reflectivity=0.5)
    assert parse_config(config_echo(config)) == config
