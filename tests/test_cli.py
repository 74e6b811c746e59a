import os
import subprocess
import sys
from pathlib import Path

import pytest

import supmimo
from supmimo import cli, simharness


def test_threads_override_is_a_config_error(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    spec.write_text("experiment: sinr_vs_m\noverrides:\n  threads: 2\n", encoding="utf-8")
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "out.csv")]) == 3
    assert capsys.readouterr().err.startswith("error config:")
    assert not (tmp_path / "out.csv").exists()


def test_single_cell_kappa_is_infinite(capsys):
    assert cli.main(["analytic", "kappa-symmetric", "5", "1", "0.5"]) == 0
    assert capsys.readouterr().out == "inf\n"


@pytest.mark.parametrize("extra", [[], ["--approx"]])
def test_optimal_rho_without_antennas_is_invalid(capsys, extra):
    assert cli.main(["analytic", "optimal-rho", "0", "7", "5", "100", *extra]) == 5
    assert capsys.readouterr().err.startswith("error invalid-parameter:")


BETA_CSV = "bs_cell,user_cell,user_index,beta\n" + "".join(
    f"{j},{l},0,{1.0 if j == l else 0.1}\n" for j in range(2) for l in range(2)
)

# two cells of K = 2 users: with r = 1 the training takes tau = 2 symbols
BETA_K2_CSV = "bs_cell,user_cell,user_index,beta\n" + "".join(
    f"{j},{l},{k},{1.0 if j == l else 0.1}\n" for j in range(2) for l in range(2) for k in range(2)
)

# beta CSVs that must end in "error config"; unchecked, each ran on with a
# gain map other than the one written
BAD_BETA_CSVS = {
    "negative-cell": BETA_CSV + "-1,0,0,5.0\n",
    "duplicate-row": BETA_CSV + "0,0,0,3.0\n",
    "nan-beta": BETA_CSV.replace("1.0", "nan", 1),
    "inf-beta": BETA_CSV.replace("1.0", "inf", 1),
    "negative-beta": BETA_CSV.replace("0.1", "-0.1", 1),
}

# run-time trials and sweep kept tiny so that a spec which is not rejected
# finishes quickly
_SMALL = ("trials: 1", "m_values: [20]")


def _spec(experiment, *overrides, top=""):
    return f"experiment: {experiment}\n{top}overrides:\n" + "".join(f"  {o}\n" for o in overrides)


# specs that must end in "error config" before the run starts; unchecked,
# each would write a header-only CSV, fail mid-run, or run on a setting
# other than the one written (a removed key or a misread value)
BAD_SPECS = {
    "no-m": _spec("sinr_vs_m", "m_values: []"),
    "no-k": _spec("ber_vs_k", "k_values: []"),
    "no-radii": _spec("sum_rate_vs_sir", "radii_m: []"),
    "half-m": _spec("sinr_vs_m", "m_values: [1.5]"),
    "bogus-selection": _spec("sinr_vs_m", "selection: bogus"),
    "zero-k": _spec("ber_vs_k", "k_values: [0]"),
    "zero-m-per-k": _spec("ber_vs_k", "m_per_k: 0"),
    "zero-radius": _spec("sum_rate_vs_sir", "radii_m: [0]"),
    "half-trials": _spec("sinr_vs_m", "trials: 1.5"),
    "half-m-per-k": _spec("ber_vs_k", "m_per_k: 1.5"),
    "format-csv": _spec("sinr_vs_m", *_SMALL, top="format: csv\n"),
    "format-plot-script": _spec("sinr_vs_m", *_SMALL, top="format: csv+plot-script\n"),
    "tau": _spec("sinr_vs_m", *_SMALL, "tau: 5"),
    "m-values-string": _spec("sinr_vs_m", "trials: 1", 'm_values: "50,100"'),
    "rate-cap-string": _spec("rate_vs_m", *_SMALL, 'rate_cap: "yes"'),
    "bool-trials": _spec("sinr_vs_m", "trials: true", "m_values: [20]"),
    "bool-m-values": _spec("sinr_vs_m", "trials: 1", "m_values: [true]"),
    "nan-snr": _spec("sinr_vs_m", *_SMALL, "snr_db: .nan"),
    "inf-omega": _spec("sum_rate_vs_sir", "trials: 1", "radii_m: [500]", "omega: .inf"),
    "negative-seed": _spec("sinr_vs_m", *_SMALL, "seed: -1"),
    "text-radius": _spec("sinr_vs_m", *_SMALL,
                         "scenario: {type: scenario2, cell_radius_m: abc}"),
    "inf-radius": _spec("sum_rate_vs_sir", "trials: 1", "radii_m: [.inf]"),
    "inf-m": _spec("sinr_vs_m", "trials: 1", "m_values: [.inf]"),
    # non-finite geometry: each ran to NaN records or an OverflowError
    "nan-path-loss": _spec("sinr_vs_m", "trials: 2", "m_values: [20]",
                           "path_loss_exponent: .nan"),
    "inf-user-circle": _spec("sinr_vs_m", "trials: 2", "m_values: [20]",
                             "scenario: {type: scenario2, user_circle_radius_m: .inf}"),
    "inf-ring-cell": _spec("sinr_vs_m", "trials: 2", "m_values: [20]",
                           "scenario: {type: scenario2, cell_radius_m: .inf}"),
    "inf-hex-cell": _spec("sinr_cdf", "trials: 2", "m_values: [20]",
                          "scenario: {type: scenario1, cell_radius_m: .inf}"),
}

# specs that parse but that the run refuses before its first trial, with
# the start of their "error invalid-parameter" line, not a traceback
INVALID_SPECS = {
    # a 255 TiB prediction history
    "huge-iterations": (_spec("sinr_vs_m", *_SMALL, f"iterations: {10**12}"),
                        "error invalid-parameter:"),
    # 7 cells of 15 users need 105 superimposed pilots; C_u is 70
    "sp-over-capacity": (_spec("ber_vs_k", "trials: 1", "k_values: [15]"),
                         "error invalid-parameter: L=7, K=15: 105 users exceed the C_u=70"),
}

# (argv, stderr prefix, exit code); {tmp} is a directory holding the files
# written by the test below
EXIT_TABLE = [
    (["list-experiments"], "", 0),
    (["run", "{tmp}/good.yaml", "--out", "{tmp}/out.csv"], "", 0),
    (["run"], "error config:", 3),
    (["run", "{tmp}/good.yaml"], "error config:", 3),
    (["run", "{tmp}/bad.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/missing.yaml", "--out", "{tmp}/out.csv"], "error io:", 4),
    *((["run", f"{{tmp}}/{name}.yaml", "--out", "{tmp}/out.csv"], "error config:", 3)
      for name in BAD_SPECS),
    *((["run", f"{{tmp}}/{name}.yaml", "--out", "{tmp}/out.csv"], prefix, 5)
      for name, (_text, prefix) in INVALID_SPECS.items()),
    (["analytic", "optimal-rho", "100", "7", "5", "100"], "", 0),
    (["analytic", "optimal-rho", "100", "7", "5", "0"], "error invalid-parameter:", 5),
    (["analytic", "optimal-rho", "100", "7", "5", "0", "--approx"], "error invalid-parameter:", 5),
    (["analytic", "optimal-rho", "1" + "0" * 400, "7", "5", "100"], "error invalid-parameter:", 5),
    (["analytic", "sp-lower-bound", "7", "5", "100", "100", "0.5"], "", 0),
    (["analytic", "sp-lower-bound", "7", "5", "100", "0", "0.5"], "error invalid-parameter:", 5),
    (["analytic", "sp-lower-bound", "7", "5", "0", "100", "0.5"], "error invalid-parameter:", 5),
    (["analytic", "kappa-symmetric", "5", "0", "0.5"], "error invalid-parameter:", 5),
    (["analytic", "kappa-symmetric", "x", "7", "0.5"], "error invalid-parameter:", 5),
    (["analytic", "kappa-symmetric", "5", "7"], "error config:", 3),
    (["analytic", "kappa-symmetric", "5", "7", "nan"], "error invalid-parameter:", 5),
    (["analytic", "kappa-symmetric", "5", "7", "inf"], "error invalid-parameter:", 5),
    (["analytic", "sp-lower-bound", "7", "5", "100", "100", "nan"], "error invalid-parameter:", 5),
    (["analytic", "no-such-formula"], "error config:", 3),
    (["partition", "{tmp}/beta.csv"], "", 0),
    (["partition", "{tmp}/beta.csv", "--r", "0"], "error invalid-parameter:", 5),
    (["partition", "{tmp}/beta-k2.csv", "--c-u", "3"], "", 0),
    (["partition", "{tmp}/beta-k2.csv", "--c-u", "2"], "error invalid-parameter:", 5),
    (["partition", "{tmp}/beta-k2.csv", "--c-u", "1"], "error invalid-parameter:", 5),
    (["partition", "{tmp}/beta.csv", "--mu2", "0"], "error invalid-parameter:", 5),
    (["partition", "{tmp}/beta.csv", "--mu2", "nan"], "error invalid-parameter:", 5),
    (["partition", "{tmp}/beta.csv", "--mu2", "inf"], "error invalid-parameter:", 5),
    (["partition", "{tmp}/beta.csv", "--mu2", "1.5"], "error invalid-parameter:", 5),
    (["partition", "{tmp}/beta.csv", "--mu2", "1"], "", 0),
    (["partition", "{tmp}/bad.csv"], "error config:", 3),
    *((["partition", f"{{tmp}}/{name}.csv"], "error config:", 3) for name in BAD_BETA_CSVS),
    (["partition", "{tmp}/missing.csv"], "error io:", 4),
]


@pytest.mark.parametrize("argv, err_prefix, code", EXIT_TABLE,
                         ids=["_".join(row[0]).replace("{tmp}/", "") for row in EXIT_TABLE])
def test_exit_codes(tmp_path, capsys, argv, err_prefix, code):
    (tmp_path / "good.yaml").write_text(_spec("sinr_vs_m", *_SMALL), encoding="utf-8")
    (tmp_path / "bad.yaml").write_text("experiment: nope\n", encoding="utf-8")
    specs = {**BAD_SPECS, **{name: text for name, (text, _prefix) in INVALID_SPECS.items()}}
    for name, text in specs.items():
        (tmp_path / f"{name}.yaml").write_text(text, encoding="utf-8")
    (tmp_path / "beta.csv").write_text(BETA_CSV, encoding="utf-8")
    (tmp_path / "beta-k2.csv").write_text(BETA_K2_CSV, encoding="utf-8")
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    for name, text in BAD_BETA_CSVS.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    args = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert cli.main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(err_prefix) if err_prefix else err == ""
    if code and argv[0] == "run":
        assert not (tmp_path / "out.csv").exists()


def test_an_over_capacity_k_is_refused_before_the_first_trial(tmp_path, capsys, monkeypatch):
    # K = 10 fits C_u = 70 (70 users), K = 15 does not (105): without the
    # up-front check K = 10 ran to completion first
    trials = []
    kernel = simharness._run_trials

    def spy(bench, keys):
        trials.extend(keys)
        return kernel(bench, keys)

    monkeypatch.setattr(simharness, "_run_trials", spy)
    spec = tmp_path / "spec.yaml"
    spec.write_text(_spec("ber_vs_k", "trials: 1", "k_values: [10, 15]"), encoding="utf-8")
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "out.csv")]) == 5
    assert capsys.readouterr().err.startswith(
        "error invalid-parameter: L=7, K=15: 105 users exceed the C_u=70")
    assert trials == []
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [["run", "--spec", "spec.yaml"],
                                  ["partition", "beta.csv", "--tau", "5"]],
                         ids=["run_--spec", "partition_--tau"])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_environment_does_not_override_the_spec(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPMIMO_TRIALS", "3")
    spec = tmp_path / "spec.yaml"
    spec.write_text(_spec("sinr_vs_m", "trials: 1"), encoding="utf-8")
    assert cli.parse_config(str(spec)).options.trials == 1


def test_the_package_runs_as_a_module():
    env = dict(os.environ)
    src = str(Path(supmimo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "supmimo", "list-experiments"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(supmimo.EXPERIMENTS)
