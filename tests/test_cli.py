"""Command line interface: subcommands, config files, exit codes, files."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from regreadout import (
    SimulationParams,
    SpeedupBounds,
    SpeedupEstimate,
    SweepPoint,
    cli,
    default_epsilon_grid,
    no_control,
    regression_mean_time,
    run_ensemble,
)
from regreadout.cli import main, parse_args, read_config_file


def run_main(argv):
    return main([str(a) for a in argv])


def test_read_config_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# comment\n\nn = 2\ncount=50\nout = some dir\n")
    entries = read_config_file(str(path))
    assert entries["n"] == ("2", 3)
    assert entries["count"] == ("50", 4)
    assert entries["out"] == ("some dir", 5)


def test_read_config_file_errors(tmp_path):
    dup = tmp_path / "dup.cfg"
    dup.write_text("n = 2\nn = 3\n")
    with pytest.raises(ValueError, match=":2: duplicate"):
        read_config_file(str(dup))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match=":1: expected"):
        read_config_file(str(bad))


def test_run_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "runA"
    code = run_main(
        ["run", "--n", 1, "--count", 20, "--max-time", 0.5,
         "--epsilons", "1e-1,1e-2", "--seed", 7, "--out", out]
    )
    assert code == 0
    curve = (out / "log_infidelity.csv").read_text().splitlines()
    assert curve[0] == "t,mean_ln_delta,stderr"
    assert len(curve) > 2
    passage = (out / "first_passage.csv").read_text().splitlines()
    assert passage[0] == "epsilon,mean_T,stderr,censored_frac"
    assert len(passage) == 3

    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "run"
    assert summary["n"] == 1
    assert summary["count"] == 20
    assert summary["nofb_theory_slope"] == -16.0
    # 2 epsilon points cannot support the mean-time regression
    assert summary["mean_time_slope"] is None

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["config"]["epsilons"] == [1e-1, 1e-2]
    assert manifest["config"]["seed"] == 7
    assert set(manifest["outputs"]) == {
        "log_infidelity.csv", "first_passage.csv", "summary.json",
    }
    assert manifest["wall_time_seconds"] >= 0.0
    captured = capsys.readouterr()
    assert "policy=none" in captured.out


def test_run_stops_at_its_deepest_target(tmp_path):
    """A target below run's default stop lowers the stop to that target
    instead of being rejected as unreachable."""
    out = tmp_path / "deep"
    code = run_main(
        ["run", "--count", 5, "--max-time", 0.1,
         "--epsilons", "1e-1,1e-30", "--out", out]
    )
    assert code == 0
    passage = (out / "first_passage.csv").read_text().splitlines()
    assert len(passage) == 3  # the header and 2 data rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["stop_epsilon"] == 1e-30


def test_run_outputs_are_deterministic(tmp_path):
    args = ["run", "--n", 2, "--policy", "random_permutation", "--count", 15,
            "--max-time", 0.4, "--epsilons", "1e-1,1e-2", "--seed", 11]
    assert run_main(args + ["--out", tmp_path / "a"]) == 0
    assert run_main(args + ["--out", tmp_path / "b"]) == 0
    for name in ("log_infidelity.csv", "first_passage.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\ncount = 50\nmax_time = 0.3\nepsilons = 1e-1\n")
    out = tmp_path / "runB"
    # the explicit flag wins over the file; file values beat defaults
    code = run_main(
        ["run", "--config", cfg, "--count", 25, "--seed", 3, "--out", out]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 2
    assert summary["count"] == 25
    assert summary["max_time"] == 0.3


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_main(["run", "--config", cfg]) == 1
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_bad_config_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("count = lots\n")
    assert run_main(["run", "--config", cfg]) == 1
    assert "bad value for count" in capsys.readouterr().err


def test_missing_config_file():
    assert run_main(["run", "--config", "/nonexistent/x.cfg"]) == 1


def test_invalid_parameters_exit_1(tmp_path, capsys):
    assert run_main(["run", "--n", 0, "--count", 5]) == 1
    assert "at least one qubit" in capsys.readouterr().err
    assert run_main(["run", "--n", 1, "--count", 5, "--epsilons", "1e-3,1e-2"]) == 1
    argv = ["run", "--n", 1, "--count", 20, "--max-time", 2,
            "--epsilons", "1e-2,nan,1e-4", "--out", tmp_path]
    assert run_main(argv) == 1
    assert "epsilon targets must lie in (0, 1)" in capsys.readouterr().err
    # sweep derives its stop from the targets, after checking them
    for bad in ("nan", "0", "2"):
        argv = ["sweep", "--n-values", "2,3", "--count", 20, "--max-time", 2,
                "--epsilons", f"1e-2,{bad},1e-4", "--out", tmp_path]
        assert run_main(argv) == 1
        assert "epsilon targets must lie in (0, 1)" in capsys.readouterr().err


def test_argparse_errors_map_to_1(tmp_path, capsys):
    assert run_main(["run", "--integrator", "heun"]) == 1
    assert run_main(["run", "--integrator", "euler"]) == 1
    assert run_main(["frobnicate"]) == 1
    assert run_main([]) == 1
    cfg = tmp_path / "a.cfg"
    cfg.write_text("integrator = exact\n")
    assert run_main(["run", "--config", cfg]) == 1
    assert f"{cfg}:1: unknown key 'integrator'" in capsys.readouterr().err


def test_help_exits_0():
    assert run_main(["--help"]) == 0
    assert run_main(["run", "--help"]) == 0


def test_run_reports_the_mean_time_fit_of_its_ensemble(tmp_path, capsys):
    out = tmp_path / "fit"
    code = run_main(["run", "--n", 2, "--count", 60, "--seed", 3, "--out", out])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    params = SimulationParams(
        n=2, max_time=summary["max_time"], stop_epsilon=cli.RUN_STOP_EPSILON
    )
    stats = run_ensemble(
        params, no_control(), default_epsilon_grid(), 60, 3,
        collect_first_passage=True,
    )
    fit = regression_mean_time(stats)
    assert summary["mean_time_slope"] == fit.slope
    assert summary["mean_time_slope_stderr"] == fit.slope_stderr
    # the stderr of the per-trajectory slopes, not of the 27-point line
    assert not stats.censored_fraction.any()
    sel = (stats.epsilons >= 1e-6) & (stats.epsilons <= 1e-4)
    assert fit.point_count == int(sel.sum())
    x = np.log(1.0 / stats.epsilons[sel])
    dx = x - x.mean()
    b = stats.first_passage_times[:, sel] @ dx / (dx @ dx)
    assert fit.slope_stderr == pytest.approx(b.std(ddof=1) / math.sqrt(60), rel=1e-12)
    assert f"+/- {fit.slope_stderr:.5f}" in capsys.readouterr().out


def test_integration_failure_exits_2(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_main(
            ["run", "--n", 2, "--policy", "h_ordering", "--gamma", 1e300,
             "--dt", 1e10, "--max-time", 1e11, "--count", 5,
             "--out", tmp_path / "x"]
        )
    assert code == 2
    assert "runtime error: non-finite infidelity at step 2" in capsys.readouterr().err
    # the no-control log-odds overflow too, where Delta underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_main(
            ["run", "--n", 2, "--policy", "none", "--gamma", 1e300,
             "--dt", 1e10, "--max-time", 1e11, "--count", 5,
             "--out", tmp_path / "y"]
        )
    assert code == 2
    assert "runtime error: non-finite" in capsys.readouterr().err


def test_run_check_detects_censoring(tmp_path, capsys):
    code = run_main(
        ["run", "--n", 1, "--count", 30, "--max-time", 0.2,
         "--epsilons", "1e-1,1e-2,1e-3", "--seed", 5,
         "--out", tmp_path / "bad", "--check"]
    )
    assert code == 3
    assert "censoring" in capsys.readouterr().err


def test_cycle_file_roundtrip(tmp_path, capsys):
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("# rotate the three leading slots\n2 0 1 3\n")
    out = tmp_path / "runC"
    code = run_main(
        ["run", "--n", 2, "--policy", "fixed_cycle", "--cycle-file", cycle,
         "--count", 10, "--max-time", 0.3, "--epsilons", "1e-1",
         "--seed", 2, "--out", out]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["cycle_file"] == str(cycle)


def test_cycle_file_errors(tmp_path, capsys):
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("0 1 2\n")
    code = run_main(
        ["run", "--n", 2, "--policy", "fixed_cycle", "--cycle-file", cycle,
         "--count", 10]
    )
    assert code == 1
    assert "line 1" in capsys.readouterr().err
    # fixed_cycle without a file is a config error
    assert run_main(["run", "--n", 2, "--policy", "fixed_cycle"]) == 1


def test_bounds_prints_frozen_values(capsys):
    assert run_main(["bounds", "--n-values", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "0.888889" in out
    assert "1.33333" in out
    # the large-n narrowing note rides along
    assert "0.25 n" in out and "0.5 n" in out


def test_bounds_csv_output(tmp_path):
    out = tmp_path / "bounds"
    assert run_main(["bounds", "--n-values", "2,4", "--out", out]) == 0
    rows = (out / "bounds.csv").read_text().splitlines()
    assert rows[0] == "n,policy,bound_lo,bound_hi"
    assert len(rows) == 1 + 2 * 2  # two sizes, two policies
    assert (out / "manifest.json").exists()


def test_verify_identities_cli(capsys):
    assert run_main(["verify-identities", "--dimensions", "4,8"]) == 0
    out = capsys.readouterr().out
    for token in ("48", "16", "80640", "34560"):
        assert token in out
    assert "PASS" in out and "FAIL" not in out


def test_verify_identities_rejects_unsupported(capsys):
    assert run_main(["verify-identities", "--dimensions", "6"]) == 1


def test_sweep_single_size(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_main(
        ["sweep", "--n-values", "1", "--policies", "none", "--count", 30,
         "--max-time", 2.0, "--seed", 9, "--out", out, "--check"]
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "n,policy,speedup,stderr,bound_lo,bound_hi"
    n, policy, speedup, _, lo, hi = rows[1].split(",")
    assert (n, policy) == ("1", "none")
    # none against none with a shared seed is exactly flat
    assert float(speedup) == pytest.approx(1.0)
    assert float(lo) == float(hi) == 1.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fits"]["none"] is None
    assert "checks passed" in capsys.readouterr().out


def test_a_censored_mean_time_fit_names_its_cause(tmp_path, capsys):
    """Too short a run leaves every target of the fit range censored:
    sweep exits 1 and run skips its mean-time line, each saying why."""
    code = run_main(["sweep", "--n-values", 2, "--count", 20,
                     "--max-time", 0.3, "--out", tmp_path / "s"])
    assert code == 1
    err = capsys.readouterr().err
    assert "censor" in err and "max_time 0.3" in err
    code = run_main(["run", "--n", 3, "--count", 20, "--max-time", 0.3,
                     "--out", tmp_path / "r"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean-time fit skipped: " in out and "dropped for censoring" in out
    assert "mean time vs ln(1/eps)" not in out


def test_sweep_checks_the_cycle_against_every_size(tmp_path, monkeypatch, capsys):
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("2 0 1 3\n")
    argv = ["sweep", "--policies", "fixed_cycle", "--cycle-file", cycle,
            "--count", 50, "--out", tmp_path / "s"]
    assert run_main(argv + ["--n-values", "2"]) == 0
    calls = []

    def sweep(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "speedup_scaling_sweep", sweep)
    assert run_main(argv + ["--n-values", "2,3"]) == 1
    assert calls == []
    assert "dimension 4, which does not fit n=3" in capsys.readouterr().err


def test_sweep_rejects_large_n(capsys):
    assert run_main(["sweep", "--n-values", "2,7", "--count", 10]) == 1
    assert "unsafe-large-n" in capsys.readouterr().err


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "regreadout.cli", "bounds", "--n-values", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "0.888889" in proc.stdout


# one non-default value for every config key of every subcommand
CONFIG_VALUES = {
    "run": {
        "n": "2", "gamma": "0.5", "dt": "1e-3", "max_time": "2.5",
        "policy": "h_ordering", "cycle_file": "c.txt",
        "epsilons": "1e-1,1e-2", "count": "40", "seed": "9", "out": "some dir",
    },
    "sweep": {
        "n_values": "2,3", "policies": "none,h_ordering", "gamma": "0.5",
        "dt": "1e-3", "max_time": "2.5", "cycle_file": "c.txt",
        "epsilons": "1e-1,1e-2", "count": "40", "seed": "9", "out": "some dir",
        "unsafe_large_n": "true",
    },
    "bounds": {"n_values": "2,4", "out": "b"},
    "verify-identities": {"dimensions": "4"},
}


def _options(args):
    options = vars(args)
    del options["config"], options["parser"]
    return options


@pytest.mark.parametrize("command", sorted(CONFIG_VALUES))
def test_config_keys_are_the_flag_dests(command):
    options = _options(parse_args([command]))
    assert set(options) - {"command", "func", "check"} == set(
        CONFIG_VALUES[command]
    )


@pytest.mark.parametrize(
    "command,key",
    [(command, key) for command in CONFIG_VALUES for key in CONFIG_VALUES[command]],
)
def test_config_key_parses_like_its_flag(tmp_path, command, key):
    value = CONFIG_VALUES[command][key]
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"{key} = {value}\n")
    flag = ["--" + key.replace("_", "-")] + ([] if value == "true" else [value])
    from_file = _options(parse_args([command, "--config", str(cfg)]))
    assert from_file == _options(parse_args([command] + flag))
    assert from_file[key] != _options(parse_args([command]))[key]


@pytest.mark.parametrize(
    "command,key",
    [(command, "config") for command in CONFIG_VALUES]
    + [("run", "check"), ("sweep", "check")],
)
def test_config_and_check_are_not_config_keys(tmp_path, capsys, command, key):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"{key} = {'true' if key == 'check' else 'x'}\n")
    assert run_main([command, "--config", cfg]) == 1
    assert f"a.cfg:1: unknown key {key!r}" in capsys.readouterr().err


def test_sweep_check_reports_points_outside_their_band(
    tmp_path, monkeypatch, capsys
):
    # n=2 sits inside its band only thanks to the 3-stderr slack; n=3 is out
    values = {2: 1.8, 3: 2.0}

    def fake_sweep(n_values, policies, *args, **kwargs):
        return [
            [
                SweepPoint(
                    n=n,
                    estimate=SpeedupEstimate(values[n], 0.1),
                    bounds=SpeedupBounds(1.0, 1.65),
                )
                for n in n_values
            ]
            for _ in policies
        ]

    monkeypatch.setattr(cli, "speedup_scaling_sweep", fake_sweep)
    code = run_main(
        ["sweep", "--n-values", "2,3", "--out", tmp_path / "s", "--check"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("check failed") == 1
    assert (
        "n=3 random_permutation: speed-up 2.0000 outside [0.7000, 1.9500]" in err
    )
