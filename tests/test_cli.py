"""Command-line interface: outputs, manifests, exit codes."""

import json
import subprocess
import sys

import pytest

from walklab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "0.75")
    assert code == 0
    data = json.loads(out)
    assert data["lambda0"] == pytest.approx(1.442695, abs=1e-5)
    assert data["gamma0"] == pytest.approx(0.5, abs=1e-12)
    assert set(data["extremal_points"]) == {"x_max", "y_max", "x_zero"}
    # round-trips through JSON
    assert json.loads(json.dumps(data)) == data


def test_constants_rejects_invalid_p(capsys):
    code, _, err = run_cli(capsys, "constants", "--p", "0.5")
    assert code == 1
    assert "p" in err


def test_dist_ball_values(capsys):
    code, out, _ = run_cli(capsys, "dist", "ball", "--p", "0.75", "--kmax", "10")
    assert code == 0
    rows = dict((k, v) for k, v in json.loads(out)["rows"])
    assert rows[1] == pytest.approx(0.375, abs=1e-12)


def test_dist_two_point_values(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "two-point", "--z", "1", "--side", "pos", "--p", "0.75"
    )
    assert code == 0
    rows = dict((k, v) for k, v in json.loads(out)["rows"])
    assert rows[1] == pytest.approx(0.375, abs=1e-12)


def test_dist_local_time_atom(capsys):
    code, out, _ = run_cli(capsys, "dist", "local-time", "--z", "-1", "--p", "0.75")
    assert code == 0
    rows = dict((k, v) for k, v in json.loads(out)["rows"])
    assert rows[0] == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_dist_requires_site_flag(capsys):
    code, _, err = run_cli(capsys, "dist", "local-time", "--p", "0.75")
    assert code == 1
    assert "--z" in err


def test_dist_unknown_law_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "dist", "cauchy", "--p", "0.75")
    assert code == 1


def test_dist_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "ball", "--p", "0.75", "--kmax", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count,mass"
    assert lines[1].startswith("1,0.375")


def test_boundary_polyline_csv(capsys):
    code, out, _ = run_cli(
        capsys, "boundary", "--p", "0.75", "--gridsize", "10", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,branch"
    branches = {line.split(",")[2] for line in lines[1:]}
    assert "upper" in branches
    assert any(b.startswith("extremal:") for b in branches)


def test_oracle_infinite_mode(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--p", "0.75", "--mode", "infinite",
        "--sites", "0", "--cap", "6", "--eps", "1e-9",
    )
    assert code == 0
    data = json.loads(out)
    assert data["certificate"] < 1e-9
    assert data["table"][0] == pytest.approx(0.5, abs=1e-9)


def test_oracle_infinite_mode_refuses_near_half(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--p", repr(0.5 + 2.0**-30), "--mode", "infinite",
        "--sites", "0", "--cap", "6", "--eps", "1e-9",
    )
    assert code == 1
    assert err.startswith("error:") and "budgets are" in err


def test_simulate_is_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for path in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "simulate", "--p", "0.75", "--n", "2000", "--replicas", "50",
            "--seed", "42", "--out", str(path),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text())
    assert report["words"] >= report["steps"] > 0
    manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["version"]
    assert manifest["outputs"] == [str(out_a)]


def test_simulate_rejects_invalid_p(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--p", "2")
    assert code == 1


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WALKLAB_SEED", "123")
    # parser defaults are bound at construction, so invoke a fresh parser
    from walklab.cli import build_parser

    args = build_parser().parse_args(["simulate", "--n", "10"])
    assert args.seed == 123


def test_seed_env_not_an_integer_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("WALKLAB_SEED", "abc")
    code, out, err = run_cli(capsys, "constants")
    assert code == 1 and out == ""
    assert err == "error: WALKLAB_SEED must be an integer, got 'abc'\n"


def test_config_file_not_an_object_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[0.6, 4]")
    code, out, err = run_cli(capsys, "--config", str(cfg), "dist", "ball")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "must hold a JSON object" in err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.6, "kmax": 4}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dist", "ball")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 0.6
    assert len(data["rows"]) == 4
    # explicit flags win over the config file
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dist", "ball", "--p", "0.75")
    assert json.loads(out)["p"] == 0.75


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "walklab.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_verify_fast_level_via_cli(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, stdout, _ = run_cli(
        capsys, "verify", "--p", "0.75", "--level", "fast", "--seed", "0",
        "--out", str(out),
    )
    assert code == 0
    assert "[PASS]" in stdout
    report = json.loads(out.read_text())
    assert report["all_passed"]
    assert {r["number"] for r in report["results"]} == {1, 2, 3, 4, 5, 6, 10}
