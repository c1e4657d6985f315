import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from hilbert_gauss import cli, harness
from hilbert_gauss.cli import main

SQRT2 = "1.4142135623730951"


@pytest.fixture
def runner():
    return CliRunner()


def write_obs(tmp_path, dim, coords, name="obs.json"):
    coeffs = [0.0] * dim
    for k, v in coords.items():
        coeffs[k - 1] = v
    path = tmp_path / name
    path.write_text(json.dumps({"coeffs": coeffs}))
    return str(path)


def test_simulate_csv(runner):
    args = ["simulate", "--model", "wiener:32", "--points", "64", "--seed", "3"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == 65
    again = runner.invoke(main, args)
    assert again.output == res.output
    other = runner.invoke(main, ["simulate", "--model", "wiener:32", "--points", "64", "--seed", "4"])
    assert other.output != res.output


def test_simulate_json_and_mean(runner, tmp_path):
    out = tmp_path / "traj.json"
    res = runner.invoke(
        main,
        [
            "simulate",
            "--model",
            "bridge:16",
            "--points",
            "32",
            "--mean",
            "1:0.5",
            "--sigma",
            "0.1",
            "--format",
            "json",
            "--out",
            str(out),
        ],
    )
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert len(data["t"]) == 32 and len(data["y"]) == 32
    assert len(data["coeffs"]) == 16
    assert data["sigma"] == 0.1


def test_simulate_rejects_abstract_model(runner, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"basis_id": "abstract", "dim": 2, "eigenvalues": [1.0, 0.5], "tail_trace": 0.0}))
    res = runner.invoke(main, ["simulate", "--model", str(path)])
    assert res.exit_code == 2
    assert "function basis" in res.stderr


def test_estimate_coeffs_json(runner, tmp_path):
    obs = write_obs(tmp_path, 8, {4: 0.7, 1: 1.0})
    res = runner.invoke(
        main,
        ["estimate", "--model", "wiener:8", "--obs", obs, "--subspace", "4", "--b", f"4:{SQRT2}"],
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["mean_coeffs"][3] == pytest.approx(0.7)
    assert sum(abs(c) for i, c in enumerate(data["mean_coeffs"]) if i != 3) == 0.0
    assert data["functional"] == pytest.approx(0.7 * np.sqrt(2.0))
    assert data["s2"] > 0.0


def test_estimate_from_trajectory(runner, tmp_path):
    traj = tmp_path / "traj.csv"
    sim = runner.invoke(
        main,
        ["simulate", "--model", "wiener:16", "--points", "2048", "--seed", "1", "--out", str(traj)],
    )
    assert sim.exit_code == 0
    res = runner.invoke(
        main, ["estimate", "--model", "wiener:16", "--obs", str(traj), "--subspace", "1,2"]
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["mean_coeffs"]) == 16


def test_estimate_bad_trajectory_header(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0.0,0.0\n")
    res = runner.invoke(
        main, ["estimate", "--model", "wiener:8", "--obs", str(bad), "--subspace", "1"]
    )
    assert res.exit_code == 2
    assert "t,y" in res.stderr


def test_ci_known_sigma(runner, tmp_path):
    obs = write_obs(tmp_path, 256, {4: 0.7, 1: 0.3})
    res = runner.invoke(
        main,
        [
            "ci",
            "--model",
            "wiener:256",
            "--obs",
            obs,
            "--subspace",
            "4",
            "--b",
            f"4:{SQRT2}",
            "--sigma",
            "1.0",
        ],
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["half_width"] == pytest.approx(0.25208393633673496, abs=1e-9)
    assert data["level"] == 0.95


def test_ci_unknown_sigma(runner, tmp_path):
    obs = write_obs(tmp_path, 256, {4: 0.7, 1: 0.3})
    res = runner.invoke(
        main,
        ["ci", "--model", "wiener:256", "--obs", obs, "--subspace", "4", "--b", f"4:{SQRT2}"],
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["half_width"] > 0.0
    # observation entirely inside U gives the degenerate zero-width interval
    inside = write_obs(tmp_path, 256, {4: 0.7}, name="inside.json")
    res2 = runner.invoke(
        main,
        ["ci", "--model", "wiener:256", "--obs", inside, "--subspace", "4", "--b", f"4:{SQRT2}"],
    )
    assert res2.exit_code == 0
    assert json.loads(res2.output)["half_width"] == 0.0


def test_subspace_test_command(runner, tmp_path):
    obs = write_obs(tmp_path, 256, {4: 0.7, 5: 0.2, 1: 0.4})
    res = runner.invoke(
        main,
        [
            "test",
            "--model",
            "wiener:256",
            "--obs",
            obs,
            "--subspace",
            "4,5,6",
            "--null-subspace",
            "4",
        ],
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["threshold"] == pytest.approx(199.5, abs=1e-6)
    assert data["params"]["m"] == 2 and data["params"]["n"] == 1
    assert data["reject"] == (data["statistic"] >= data["threshold"])


def test_regress_roundtrip(runner, tmp_path):
    dim = 32
    cols = []
    for k, s in ((4, 1.3), (5, -0.4)):
        col = [0.0] * dim
        col[k - 1] = s
        cols.append(col)
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"columns": cols}))
    # noisy observation: beta (2, 1) signal plus off-range noise
    obs = write_obs(tmp_path, dim, {4: 2.6, 5: -0.4, 1: 0.9, 7: -0.2})
    res = runner.invoke(
        main,
        [
            "regress",
            "--model",
            f"wiener:{dim}",
            "--obs",
            obs,
            "--design",
            str(design),
            "--c",
            "1,0",
            "--sigma",
            "0.5",
        ],
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["beta"] == pytest.approx([2.0, 1.0], abs=1e-12)
    assert data["interval"]["center"] == pytest.approx(2.0, abs=1e-12)
    null = tmp_path / "null.json"
    null.write_text(json.dumps({"columns": [[1.0, 0.0]]}))
    res2 = runner.invoke(
        main,
        [
            "regress",
            "--model",
            f"wiener:{dim}",
            "--obs",
            obs,
            "--design",
            str(design),
            "--null-design",
            str(null),
        ],
    )
    assert res2.exit_code == 0
    assert "test" in json.loads(res2.output)


def test_regress_noiseless_residual_is_an_error(runner, tmp_path):
    dim = 16
    col = [0.0] * dim
    col[3] = 1.0
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"columns": [col]}))
    obs = write_obs(tmp_path, dim, {4: 0.7})
    res = runner.invoke(
        main,
        [
            "regress",
            "--model",
            f"wiener:{dim}",
            "--obs",
            obs,
            "--design",
            str(design),
            "--null-design",
            str(design),
        ],
    )
    # the test needs a proper parameter subspace AND a nonzero residual;
    # the full design as null hits the first guard
    assert res.exit_code == 2


def write_mc_config(tmp_path, **overrides):
    cfg = {
        "kind": "coverage_known",
        "model": {"basis_id": "wiener", "dim": 64},
        "subspace": [4],
        "b": {"coords": {"4": float(SQRT2)}},
        "zeta": {"coords": {"4": 0.7}},
        "sigma": 1.0,
        "alpha": 0.05,
        "replicates": 400,
        "master_seed": 5,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_mc_pass(runner, tmp_path):
    path = write_mc_config(tmp_path)
    res = runner.invoke(main, ["mc", "--config", path])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["passed"] is True
    assert data["kind"] == "coverage_known"


def test_mc_csv_format(runner, tmp_path):
    path = write_mc_config(tmp_path)
    res = runner.invoke(main, ["mc", "--config", path, "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "name,estimate,target,tolerance,sided,passed"
    assert len(lines) >= 2


def test_mc_failed_check_exits_one(runner, tmp_path):
    # seed 168 at 100 replicates puts the empirical coverage below the
    # three-sigma binomial band; the check is correct, the seed is chosen
    # to exhibit the rare event deterministically
    path = write_mc_config(tmp_path, replicates=100, master_seed=168)
    res = runner.invoke(main, ["mc", "--config", path])
    assert res.exit_code == 1
    assert json.loads(res.output)["passed"] is False


def test_mc_seed_override(runner, tmp_path):
    path = write_mc_config(tmp_path, replicates=100, master_seed=168)
    res = runner.invoke(main, ["mc", "--config", path, "--seed", "5"])
    assert res.exit_code == 0
    assert json.loads(res.output)["master_seed"] == 5


def test_mc_stream_of_summed_kind_exits_two(runner, tmp_path, monkeypatch):
    # learning_curve keeps only sums over replicates, so it has no values to stream.
    def refuse(*args, **kwargs):
        raise AssertionError("the stream must be refused before any draw")

    monkeypatch.setattr(harness, "ReplicateStreams", refuse)
    path = write_mc_config(tmp_path, kind="learning_curve", subspace=[1, 2, 3], b=None, zeta="2:0.5")
    stream = tmp_path / "stream.csv"
    res = runner.invoke(main, ["mc", "--config", path, "--stream", str(stream)])
    assert_one_line_error(res)
    assert "no per-replicate values to stream" in res.stderr
    assert not stream.exists()


def test_mc_bad_config_exits_two(runner, tmp_path):
    missing = runner.invoke(main, ["mc", "--config", str(tmp_path / "nope.json")])
    assert missing.exit_code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert runner.invoke(main, ["mc", "--config", str(garbled)]).exit_code == 2
    unknown = write_mc_config(tmp_path, flavor="spicy")
    res = runner.invoke(main, ["mc", "--config", unknown])
    assert res.exit_code == 2
    assert "unknown config fields" in res.stderr
    # A config that is not a JSON object, with or without a seed override.
    for data in ([1, 2], "moments"):
        path = tmp_path / "not_an_object.json"
        path.write_text(json.dumps(data))
        for seed in ([], ["--seed", "3"]):
            res = runner.invoke(main, ["mc", "--config", str(path), *seed])
            assert_one_line_error(res)
            assert "must be a JSON object" in res.stderr


@pytest.mark.parametrize(
    "overrides",
    (
        {"replicates": None},
        {"use_tail": "false"},
        {"kind": "learning_curve", "subspace": [1, 2], "b": None, "cutoffs": 5},
        {"zeta": {"coords": {"4": "0.7"}}},
        {"model": {"eigenvalues": [1.0, 0.5], "tail_trace": None}},
        {"subspace": [4.7]},
        {"subspace": {"indices": 5}},
        {"model": {"eigenvalues": [1.0, 0.5], "dim": 2.7}, "subspace": [1], "b": [1.0, 0.0], "zeta": [0.7, 0.0]},
        {"kind": "learning_curve", "subspace": [1, 2, 3], "b": None, "zeta": "2:0.5", "cutoffs": []},
    ),
)
def test_mc_config_of_wrong_json_type_exits_two(runner, tmp_path, overrides):
    path = write_mc_config(tmp_path, **overrides)
    assert_one_line_error(runner.invoke(main, ["mc", "--config", path]))


@pytest.mark.parametrize(
    "option, value, field",
    (
        ("--workers", "0", "workers"),
        ("--seed", "-1", "master_seed"),
        ("--seed", "18446744073709551616", "master_seed"),
    ),
)
def test_mc_bad_override_exits_two(runner, tmp_path, option, value, field):
    # An override meets the rule and the message of the config field it sets.
    res = runner.invoke(main, ["mc", "--config", write_mc_config(tmp_path), option, value])
    assert_one_line_error(res)
    assert res.stderr.startswith(f"error: config field '{field}': ")


def test_bad_model_spec_exits_two(runner, tmp_path):
    obs = write_obs(tmp_path, 8, {1: 1.0})
    res = runner.invoke(main, ["estimate", "--model", "ou:8", "--obs", obs, "--subspace", "1"])
    assert res.exit_code == 2
    assert "unknown model family" in res.stderr


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data) if not isinstance(data, str) else data)
    return str(path)


def assert_one_line_error(res):
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "vector",
    (
        {"coords": {"0": 1.0}},
        {"coords": {"99": 1.0}},
        {"coeffs": [1.0, 2.0, 3.0]},
        [1.0, 2.0],
        {"coords": [1.0]},
        {"other": 1.0},
        None,
        '{"coords": {"4": 1.0, "4": 2.0}}',
    ),
)
def test_ci_rejects_bad_vector_file(runner, tmp_path, vector):
    obs = write_obs(tmp_path, 16, {4: 0.7, 1: 0.3})
    b = write_json(tmp_path, "b.json", vector)
    res = runner.invoke(main, ["ci", "--model", "wiener:16", "--obs", obs, "--subspace", "16", "--b", b])
    assert_one_line_error(res)
    assert res.stderr.startswith("error: --b: ")


@pytest.mark.parametrize(
    "vector",
    (
        {"coords": {"4": "1.5"}},
        {"coeffs": [0, 0, 0, True] + [0] * 12},
        {"coords": {"4": 2**1024}},
        {"coeffs": [0, 0, 0, 2**1024] + [0] * 12},
    ),
)
def test_ci_rejects_non_numeric_vector_values(runner, tmp_path, vector):
    # b lies in the subspace, so the value type is the only fault
    obs = write_obs(tmp_path, 16, {4: 0.7, 1: 0.3})
    b = write_json(tmp_path, "b.json", vector)
    res = runner.invoke(main, ["ci", "--model", "wiener:16", "--obs", obs, "--subspace", "4", "--b", b])
    assert_one_line_error(res)
    assert "finite number" in res.stderr


@pytest.mark.parametrize(
    "spec",
    ("99:1", "0:1", "1,2,3", "4:1.0,4:2.0", "03:1.0", " +4 :1.0", "1_0:1.0", "4:x", "4:1_0", "4: 1.5 ", "4:nan", "4:inf", "1_0,2"),
)
def test_ci_rejects_bad_inline_vector(runner, tmp_path, spec):
    # A mode is one canonical decimal, given once, and a value one JSON number
    # literal; the error is --b's.
    obs = write_obs(tmp_path, 16, {4: 0.7, 1: 0.3})
    res = runner.invoke(main, ["ci", "--model", "wiener:16", "--obs", obs, "--subspace", "16", "--b", spec])
    assert_one_line_error(res)
    assert res.stderr.startswith("error: --b: ")


@pytest.mark.parametrize(
    "args, data, field",
    (
        (["ci", "--obs", "OBS", "--subspace", "4", "--b", "BAD"], {"coords": {"4": 1.0}, "scale": 5.0}, "scale"),
        (["ci", "--obs", "OBS", "--subspace", "4", "--b", "BAD"], {"coeffs": [0.0] * 16, "coords": {"4": 1.0}}, "coeffs"),
        (["estimate", "--obs", "BAD", "--subspace", "4"], {"coeffs": [0.7] * 16, "scale": 1.0}, "scale"),
        (["regress", "--obs", "OBS", "--design", "BAD"], {"columns": [{"coords": {"4": 1.3}}], "rows": []}, "rows"),
        (["regress", "--obs", "OBS", "--design", "BAD"], {"columns": [{"coeffs": [0.0] * 16, "coords": {"4": 1.3}}]}, "coeffs"),
        (["regress", "--obs", "OBS", "--design", "DESIGN", "--null-design", "BAD"], {"columns": [[1.0, 0.0]], "c": [1]}, "c"),
    ),
)
def test_unknown_or_doubled_vector_field_exits_two(runner, tmp_path, args, data, field):
    # A misspelled or second vector key, or a stray design-file key, is named, not dropped.
    paths = {
        "OBS": write_obs(tmp_path, 16, {4: 2.6, 5: -0.4, 1: 0.9}),
        "DESIGN": write_design(tmp_path, 16),
        "BAD": write_json(tmp_path, "bad.json", data),
    }
    res = runner.invoke(main, [args[0], "--model", "wiener:16", *(paths.get(a, a) for a in args[1:])])
    assert_one_line_error(res)
    assert f"fields: ['{field}']" in res.stderr


def test_vector_file_coords_are_one_based(runner, tmp_path):
    obs = write_obs(tmp_path, 16, {4: 0.7, 1: 0.3})
    b = write_json(tmp_path, "b.json", {"coords": {"4": float(SQRT2)}})
    res = runner.invoke(main, ["ci", "--model", "wiener:16", "--obs", obs, "--subspace", "4", "--b", b])
    assert res.exit_code == 0
    assert json.loads(res.output)["center"] == pytest.approx(0.7 * np.sqrt(2.0), rel=1e-15)


def test_observation_file_uses_vector_format(runner, tmp_path):
    obs = write_json(tmp_path, "obs.json", {"coords": {"4": 0.7}})
    res = runner.invoke(main, ["estimate", "--model", "wiener:8", "--obs", obs, "--subspace", "4"])
    assert res.exit_code == 0
    assert json.loads(res.output)["mean_coeffs"][3] == 0.7


def test_malformed_obs_json_exits_two(runner, tmp_path):
    obs = write_json(tmp_path, "obs.json", "{not json")
    res = runner.invoke(main, ["estimate", "--model", "wiener:8", "--obs", obs, "--subspace", "1"])
    assert_one_line_error(res)


def test_missing_obs_file_exits_two(runner, tmp_path):
    res = runner.invoke(
        main, ["estimate", "--model", "wiener:8", "--obs", str(tmp_path / "nope.json"), "--subspace", "1"]
    )
    assert_one_line_error(res)


def test_bad_trajectory_values_exit_two(runner, tmp_path):
    # Each field is a JSON number: Python's float() spellings are refused.
    for row in ("0.0,{}", "{},0.0"):
        for value in ("zero", "1_0", "+1", "1."):
            traj = write_json(tmp_path, "traj.csv", "t,y\n" + row.format(value) + "\n")
            res = runner.invoke(main, ["estimate", "--model", "wiener:8", "--obs", traj, "--subspace", "1"])
            assert_one_line_error(res)


def test_model_file_with_null_tail_exits_two(runner, tmp_path):
    obs = write_obs(tmp_path, 2, {1: 1.0})
    model = write_json(tmp_path, "model.json", {"eigenvalues": [1.0, 0.5], "tail_trace": None})
    res = runner.invoke(main, ["estimate", "--model", model, "--obs", obs, "--subspace", "1"])
    assert_one_line_error(res)


@pytest.mark.parametrize("dim", (2.7, True))
def test_model_file_with_non_integral_dim_exits_two(runner, tmp_path, dim):
    obs = write_obs(tmp_path, 2, {1: 1.0})
    model = write_json(tmp_path, "model.json", {"eigenvalues": [1.0, 0.5], "dim": dim})
    res = runner.invoke(main, ["estimate", "--model", model, "--obs", obs, "--subspace", "1"])
    assert_one_line_error(res)


@pytest.mark.parametrize(
    "model",
    (
        {"eigenvalues": [True, 0.5, 0.5, 0.25]},
        {"eigenvalues": ["1.0", 0.5, 0.5, 0.25]},
        {"eigenvalues": [1.0, 0.5, 0.5, 0.25], "tail_trace": "0.5"},
    ),
)
def test_model_file_with_non_numeric_values_exits_two(runner, tmp_path, model):
    # Read from a --model file and from a config "model" path alike.
    path = write_json(tmp_path, "model.json", model)
    obs = write_obs(tmp_path, 4, {1: 1.0})
    assert_one_line_error(runner.invoke(main, ["estimate", "--model", path, "--obs", obs, "--subspace", "1"]))
    assert_one_line_error(runner.invoke(main, ["mc", "--config", write_mc_config(tmp_path, model=path)]))


@pytest.mark.parametrize(
    "subspace",
    (
        {"indices": 5},
        {"indices": [1], "dim": 2.7},
        {"indices": [1], "complement": "false"},
        {"frame": [["1.0", 0.0]]},
        {"frame": [[True, 0.0]]},
        5,
        {"indices": [1], "frame": [[0.0, 1.0]]},
    ),
)
def test_bad_subspace_file_exits_two(runner, tmp_path, subspace):
    obs = write_obs(tmp_path, 2, {1: 1.0})
    model = write_json(tmp_path, "model.json", {"eigenvalues": [1.0, 0.5]})
    path = write_json(tmp_path, "subspace.json", subspace)
    res = runner.invoke(main, ["estimate", "--model", model, "--obs", obs, "--subspace", path])
    assert_one_line_error(res)


@pytest.mark.parametrize("subspace", ({"indices": [1], "dim": 2}, {"frame": [[1.0] + [0.0] * 15], "dim": 99}))
def test_subspace_dim_other_than_the_models_exits_two(runner, tmp_path, subspace):
    # A mapping's dim repeats the model's: the parser refuses any other, naming
    # the option or config field, and accepts the model's own.
    obs = write_obs(tmp_path, 16, {1: 0.3})
    args = ["estimate", "--model", "wiener:16", "--obs", obs, "--subspace"]
    res = runner.invoke(main, [*args, write_json(tmp_path, "subspace.json", subspace)])
    assert_one_line_error(res)
    assert res.stderr.startswith(f"error: --subspace: subspace dim {subspace['dim']} is not the model's 16")
    config = {"kind": "risk", "model": "wiener:16", "subspace": subspace, "zeta": "1:0.7", "replicates": 50}
    res = runner.invoke(main, ["mc", "--config", write_json(tmp_path, "mc.json", config)])
    assert_one_line_error(res)
    assert "config field 'subspace': subspace dim" in res.stderr
    assert runner.invoke(main, [*args, write_json(tmp_path, "same.json", {**subspace, "dim": 16})]).exit_code == 0


@pytest.mark.parametrize("command", ("estimate", "ci", "mc"))
def test_complement_subspace_needs_no_tail(runner, tmp_path, command):
    # An analytic model's default tail lies inside a complement U: exit 2 with
    # one line that names the cause and the fix; with the fix the command runs.
    comp = {"indices": [1, 2, 3], "complement": True}
    obs = write_obs(tmp_path, 16, {4: 0.7, 1: 0.3})
    if command == "mc":
        config = {"kind": "unbiasedness", "model": "wiener:16", "subspace": comp, "zeta": "4:0.7", "replicates": 50}
        args = ["mc", "--config", write_json(tmp_path, "mc.json", config)]
        fixed = ["mc", "--config", write_json(tmp_path, "mc_fixed.json", {**config, "use_tail": False})]
    else:
        args = [command, "--model", "wiener:16", "--obs", obs, "--subspace", write_json(tmp_path, "comp.json", comp)]
        args += ["--b", "4:1.0"] if command == "ci" else []
        fixed = args + ["--no-tail"]
    res = runner.invoke(main, args)
    assert_one_line_error(res)
    assert "U is a complement" in res.stderr and "use_tail false (--no-tail)" in res.stderr
    assert runner.invoke(main, fixed).exit_code == 0


@pytest.mark.parametrize(
    "option, data, field",
    (
        ("model", {"eigenvalues": [1.0, 0.5], "tail": 0.3}, "tail"),
        ("model", {"basis_id": "wiener", "dim": 2, "modes": 4}, "modes"),
        ("subspace", {"indices": [1], "dim": 2, "complment": True}, "complment"),
    ),
)
def test_unknown_model_or_subspace_field_exits_two(runner, tmp_path, option, data, field):
    # From a --model or --subspace file and from a config mapping alike.
    specs = {"model": "wiener:2", "subspace": "1", option: write_json(tmp_path, f"{option}.json", data)}
    obs = write_obs(tmp_path, 2, {1: 1.0})
    config = {"model": {"basis_id": "wiener", "dim": 2}, "subspace": [1], "b": [1.0, 0.0], "zeta": None, option: data}
    for args in (
        ["estimate", "--model", specs["model"], "--obs", obs, "--subspace", specs["subspace"]],
        ["mc", "--config", write_mc_config(tmp_path, **config)],
    ):
        res = runner.invoke(main, args)
        assert_one_line_error(res)
        assert f"unknown {option} fields: ['{field}']" in res.stderr


@pytest.mark.parametrize("spec", ("wiener:-3", "bridge:0", "wiener:1_0", "wiener: 8", "wiener:08"))
def test_bad_mode_count_exits_two(runner, tmp_path, spec):
    obs = write_obs(tmp_path, 8, {1: 1.0})
    res = runner.invoke(main, ["estimate", "--model", spec, "--obs", obs, "--subspace", "1"])
    assert_one_line_error(res)
    assert res.stderr.startswith("error: --model: ")


@pytest.mark.parametrize(
    "field, spec",
    (
        ("model", "wiener:8"),
        ("model", {"basis_id": "wiener", "dim": 8}),
        ("subspace", [4, 5, 6]),
        ("b", "4:0.7"),
        ("model", None),
        ("subspace", "4,,5"),
        ("subspace", " +4"),
        ("b", "4:1.0,4:2.0"),
    ),
)
def test_cli_option_and_config_field_read_one_grammar(runner, tmp_path, monkeypatch, field, spec):
    # A mapping or list is the content of a file named by the spec; None is a missing file.
    missing = str(tmp_path / "missing.json")
    if not isinstance(spec, str):
        spec = missing if spec is None else write_json(tmp_path, "spec.json", spec)
    specs = {"model": "wiener:8", "subspace": "4", "b": "4:1.0", field: spec}
    seen = {}
    monkeypatch.setattr(cli, "est_functional", lambda b, y, subspace: seen.update(b=b) or 0.0)
    monkeypatch.setattr(cli, "est_variance", lambda y, model, subspace, use_tail: seen.update(model=model, subspace=subspace) or 0.0)
    args = ["estimate", "--obs", write_obs(tmp_path, 8, {4: 0.7})]
    res = runner.invoke(main, args + [arg for key, value in specs.items() for arg in (f"--{key}", value)])
    try:
        config = harness.ExperimentConfig.from_dict({"kind": "coverage_known", **specs})
    except ValueError as exc:
        assert_one_line_error(res)
        assert res.stderr == f"error: {exc}\n".replace(f"config field {field!r}", f"--{field}")
        assert spec != missing or f"no model file {missing!r}" in res.stderr
        return
    assert res.exit_code == 0, res.output
    assert seen == {"model": config.model, "subspace": config.subspace, "b": config.b}


COORDINATE_DESIGN = ((4, 1.3), (5, -0.4))


def write_design(tmp_path, dim, entries=COORDINATE_DESIGN, name="design.json"):
    """Design file of coordinate columns, one (1-based mode, value) entry each."""
    cols = []
    for k, value in entries:
        col = [0.0] * dim
        col[k - 1] = value
        cols.append(col)
    return write_json(tmp_path, name, {"columns": cols})


@pytest.mark.parametrize(
    "design,null",
    (
        (((4, "1.0"), (5, -0.4)), None),
        (((4, True), (5, -0.4)), None),
        (COORDINATE_DESIGN, {"columns": [["0", 1.0]]}),
        (COORDINATE_DESIGN, {"columns": [[False, 1.0]]}),
        (COORDINATE_DESIGN, {"columns": [None]}),
        (COORDINATE_DESIGN, [[0.0, 1.0]]),
    ),
)
def test_regress_refuses_non_numeric_design_entries(runner, tmp_path, design, null):
    obs = write_obs(tmp_path, 16, {4: 2.6, 5: -0.4, 1: 0.9})
    args = ["regress", "--model", "wiener:16", "--obs", obs]
    args += ["--design", write_design(tmp_path, 16, design)]
    if null is not None:
        args += ["--null-design", write_json(tmp_path, "null.json", null)]
    assert_one_line_error(runner.invoke(main, args))


@pytest.mark.parametrize("design", ({"columns": None}, {"rows": []}, [[1.0] * 16], {"columns": [None]}))
def test_regress_refuses_malformed_design_file(runner, tmp_path, design):
    obs = write_obs(tmp_path, 16, {4: 2.6, 1: 0.9})
    args = ["regress", "--model", "wiener:16", "--obs", obs, "--design", write_json(tmp_path, "d.json", design)]
    assert_one_line_error(runner.invoke(main, args))


def test_regress_accepts_vector_format_columns(runner, tmp_path):
    obs = write_obs(tmp_path, 16, {4: 2.6, 5: -0.4, 1: 0.9})
    dense = write_design(tmp_path, 16)
    sparse = write_json(tmp_path, "sparse.json", {"columns": [{"coords": {"4": 1.3}}, {"coords": {"5": -0.4}}]})
    outputs = [
        runner.invoke(main, ["regress", "--model", "wiener:16", "--obs", obs, "--design", path]).output
        for path in (dense, sparse)
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["beta"] == pytest.approx([2.0, 1.0], abs=1e-12)


# Every entry 1e300: squared norms overflow to inf.
HUGE = {k: 1e300 for k in range(1, 17)}


@pytest.mark.parametrize(
    "command",
    (
        ["estimate", "--subspace", "4"],
        ["ci", "--subspace", "4", "--b", "4:1.0"],
        ["regress", "--c", "1,0"],
    ),
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_result_exits_two(runner, tmp_path, command):
    obs = write_obs(tmp_path, 16, HUGE)
    args = [command[0], "--model", "wiener:16", "--obs", obs, *command[1:]]
    if command[0] == "regress":
        args += ["--design", write_design(tmp_path, 16)]
    res = runner.invoke(main, args)
    assert_one_line_error(res)
    assert res.stdout == ""


@pytest.mark.parametrize("sigma", ("nan", "inf"))
@pytest.mark.parametrize("command", ("ci", "regress"))
def test_non_finite_sigma_exits_two(runner, tmp_path, sigma, command):
    obs = write_obs(tmp_path, 16, {4: 2.6, 5: -0.4, 1: 0.9})
    args = [command, "--model", "wiener:16", "--obs", obs, "--sigma", sigma]
    if command == "ci":
        args += ["--subspace", "4", "--b", "4:1.0"]
    else:
        args += ["--design", write_design(tmp_path, 16), "--c", "1,0"]
    res = runner.invoke(main, args)
    assert_one_line_error(res)
    assert "sigma" in res.stderr


@pytest.mark.parametrize("command", (["ci", "--b", "4:1.0"], ["estimate", "--b", "4:1.0"]))
def test_overflow_is_one_stderr_line_outside_pytest(tmp_path, command):
    # A subprocess, because pytest would capture numpy's RuntimeWarning lines.
    obs = write_obs(tmp_path, 16, HUGE)
    args = [command[0], "--model", "wiener:16", "--obs", obs, "--subspace", "4", *command[1:]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-c", "from hilbert_gauss.cli import main; main()", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: result is not finite"), res.stderr
    assert res.stdout == ""


def test_mc_overflow_on_threads_is_one_stderr_line_outside_pytest(tmp_path):
    # The blocks run on two threads, which must keep the command's numpy
    # error state: an overflow there prints no RuntimeWarning.
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({"kind": "moments", "model": "wiener:2048", "zeta": "1:1e200", "replicates": 40}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "from hilbert_gauss import harness; harness._usable_cpus = lambda: 2; from hilbert_gauss.cli import main; main()"
    res = subprocess.run(
        [sys.executable, "-c", code, "mc", "--config", str(config)], capture_output=True, text=True, env=env
    )
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: result is not finite"), res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_mc_non_finite_report_exits_two(runner, tmp_path, monkeypatch, fmt):
    real = harness.run_experiment

    def nan_estimate(*args, **kwargs):
        report = real(*args, **kwargs)
        report.estimates["coverage"] = float("nan")
        report.checks[0]["estimate"] = float("nan")  # what the CSV rows print
        return report

    monkeypatch.setattr(cli, "run_experiment", nan_estimate)
    res = runner.invoke(main, ["mc", "--config", write_mc_config(tmp_path, replicates=50), "--format", fmt])
    assert_one_line_error(res)
    assert "not finite" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ("estimate", "mc"))
def test_huge_mode_count_exits_two(runner, tmp_path, monkeypatch, command):
    # wiener:400000000 needs 3.2 GB per vector; the stub fails as numpy's allocation would.
    def out_of_memory(dim):
        raise MemoryError(f"Unable to allocate {8 * dim} bytes for an array with shape ({dim},)")

    monkeypatch.setattr(harness, "wiener_model", out_of_memory)
    if command == "estimate":
        args = ["estimate", "--model", "wiener:400000000", "--obs", "4:0.7", "--subspace", "4"]
    else:
        config = tmp_path / "mc.json"
        config.write_text(json.dumps({"kind": "moments", "model": "wiener:400000000", "replicates": 10}))
        args = ["mc", "--config", str(config)]
    res = runner.invoke(main, args)
    assert_one_line_error(res)
    assert "Unable to allocate 3200000000 bytes" in res.stderr
