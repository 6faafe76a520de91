"""Command-line interface: outputs, manifests, exit codes."""

import json
import subprocess
import sys

import pytest

from walklab import closedform, montecarlo, oracle
from walklab.cli import _fmt, main
from walklab.errors import ValidationError
from walklab.model import make_params


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
    """The mass at 1 of the ball's and the sphere's occupation is p gamma0
    = 0.375 at p = 0.75."""
    for law in ("ball", "sphere"):
        code, out, _ = run_cli(capsys, "dist", law, "--p", "0.75", "--kmax", "10")
        assert code == 0
        rows = dict((k, v) for k, v in json.loads(out)["rows"])
        assert rows[1] == pytest.approx(0.375, abs=1e-12), law


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


@pytest.mark.parametrize("start", [0, -1, 1])
def test_dist_center_sphere_joint_rows(capsys, start):
    """Each row is center_sphere_joint_pmf at its (L, K), and the rows are
    every pair with L <= kmax that the law accepts: K in 0..L-1 from 0,
    1..L from -1, 0..L from 1."""
    params = make_params(0.75)
    code, out, _ = run_cli(
        capsys, "dist", "center-sphere-joint", "--p", "0.75", "--start", str(start),
        "--kmax", "6",
    )
    assert code == 0
    expected = []
    for big_l in range(1, 7):
        for big_k in range(-1, big_l + 2):
            try:
                mass = closedform.center_sphere_joint_pmf(params, start, big_k, big_l)
            except ValidationError:
                continue
            expected.append([big_l, big_k, mass])
    rows = json.loads(out)["rows"]  # masses printed to 12 significant digits
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    assert [row[2] for row in rows] == pytest.approx([row[2] for row in expected], rel=1e-11)
    assert len(expected) == 21 + 6 * (start == 1)


def test_dist_first_return_is_the_library_law(capsys):
    """`dist first-return` lists P(first return at step 2n) for n <= kmax
    and the return mass after step 2 kmax, as printed by `_fmt`."""
    code, out, _ = run_cli(capsys, "dist", "first-return", "--p", "0.6", "--kmax", "5")
    assert code == 0
    data = json.loads(out)
    params = make_params(0.6)
    rows = [[2 * n, closedform.first_return_pmf(params, n)] for n in range(1, 6)]
    assert data["rows"] == _fmt(rows)
    assert data["tail_bound"] == _fmt(closedform.return_tail(params, 12)[0])


def test_dist_excursion_is_the_library_law(capsys):
    """`dist excursion` lists both branches of `excursion_visits_pmf`."""
    code, out, _ = run_cli(capsys, "dist", "excursion", "--p", "0.6", "--z", "2", "--kmax", "5")
    assert code == 0
    data = json.loads(out)
    finite, infinite = closedform.excursion_visits_pmf(make_params(0.6), 2, 5)
    rows = [["finite", int(k), m] for k, m in zip(finite.support, finite.mass)]
    rows += [["infinite", int(k), m] for k, m in zip(infinite.support, infinite.mass)]
    assert data["rows"] == _fmt(rows)
    assert data["tail_bound"] == _fmt(finite.tail_bound + infinite.tail_bound)


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


def test_oracle_enum_and_dp_modes_are_the_library_laws(capsys):
    """`oracle --mode enum` and `--mode dp` print the tables of
    `enumerate_paths` and `dp_law`, which agree within 1e-14 at n = 12."""
    params = make_params(0.6)
    fns = [oracle.local_time(0, 3), oracle.local_time(1, 3)]
    laws = {"enum": oracle.enumerate_paths(params, 12, fns), "dp": oracle.dp_law(params, 12, fns)}
    for mode, law in laws.items():
        code, out, _ = run_cli(
            capsys, "oracle", "--p", "0.6", "--mode", mode, "--n", "12",
            "--sites", "0", "1", "--cap", "3",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["horizon"], data["table"]) == (12, _fmt(law.table.tolist())), mode
    assert abs(laws["enum"].table - laws["dp"].table).max() <= 1e-14


def test_oracle_infinite_mode_refuses_near_half(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--p", repr(0.5 + 2.0**-30), "--mode", "infinite",
        "--sites", "0", "--cap", "6", "--eps", "1e-9",
    )
    assert code == 1
    assert err.startswith("error:") and "budgets are" in err


def test_simulate_refuses_a_walk_after_the_horizon_beyond_the_budget(capsys):
    """At p = 0.5000000037 the path of n = 100 (seed 0) walks on after its
    horizon for about 1.96e9 steps in expectation: refused before it
    draws, with its expected steps in the message."""
    code, _, err = run_cli(capsys, "simulate", "--p", "0.5000000037", "--n", "100")
    assert code == 1
    assert err.startswith("error:") and "expect about 1.959e+09 steps" in err


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


def test_simulate_one_path_is_the_path_report(capsys):
    """`simulate` with one replica prints `path_report(...).to_dict()`."""
    code, out, _ = run_cli(capsys, "simulate", "--p", "0.6", "--n", "10000", "--seed", "3")
    assert code == 0
    config = montecarlo.SimConfig(params=make_params(0.6), n=10000, seed=3)
    assert json.loads(out) == _fmt(montecarlo.path_report(config).to_dict())


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


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"mode": "bogus"}, ("oracle", "--sites", "0", "--cap", "3")),
        ({"format": "xml"}, ("dist", "ball")),
        ({"start": 5}, ("dist", "center-sphere-joint")),
        ({"sites": 5}, ("oracle",)),
        ({"eps": [1]}, ("oracle", "--mode", "infinite")),
    ],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, config, argv):
    """A config value the flag it sets would refuse is an error, not a
    run with a value no flag could give, nor a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 1 and out == ""
    assert "error:" in err


def test_config_keys_of_other_subcommands_are_ignored(tmp_path, capsys):
    """n and sites are flags of oracle, not of dist: dist runs as if they
    were not there, and a list value reaches oracle's --sites.  A null
    leaves its flag at the default: no --out, so the table is printed."""
    cfg = tmp_path / "cfg.json"
    config = {"p": 0.6, "kmax": 4, "n": 7, "sites": [0, 1], "cap": 2, "out": None}
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dist", "ball")
    assert code == 0 and len(json.loads(out)["rows"]) == 4
    code, out, _ = run_cli(capsys, "--config", str(cfg), "oracle", "--mode", "enum")
    data = json.loads(out)
    assert code == 0 and (data["p"], data["sites"], data["cap"]) == (0.6, [0, 1], 2)
    law = oracle.enumerate_paths(make_params(0.6), 7, [oracle.local_time(s, 2) for s in (0, 1)])
    assert data["table"] == _fmt(law.table.tolist())


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "walklab.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    """Only criterion 7's chi-square needs scipy, so no command pays for
    importing it up front."""
    code = "import sys, walklab.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
