import math
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
    # PyYAML leaves 1e2 a string, read as the float 100.0: not an integer
    "exponent-m": _spec("sinr_vs_m", "trials: 1", "m_values: [1e2]"),
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
    "inf-hex-cell": _spec("sinr_cdf", "trials: 2",
                          "scenario: {type: scenario1, cell_radius_m: .inf}"),
    # a keep-out beyond the hexagon's inradius: only corner slivers are
    # kept, about 1e-6 of the draws, and the run did not finish
    "hex-keep-out": _spec("sinr_cdf", "trials: 1", "placements: 1",
                          "scenario: {type: scenario1, min_dist_m: 999.999}"),
    # removed options: the exact power split is the only one, and trials
    # counts sinr_cdf's realizations per placement
    "rho-form": _spec("sinr_vs_m", *_SMALL, "rho_form: exact"),
    "inner-realizations": _spec("sinr_cdf", "trials: 1", "placements: 1",
                                "inner_realizations: 2"),
    # a sweep of another experiment: each ran on the defaults and exited 0
    "sinr-cdf-m-values": _spec("sinr_cdf", "trials: 1", "placements: 1", "m_values: [20]"),
    "sinr-vs-m-radii": _spec("sinr_vs_m", *_SMALL, "radii_m: [500]"),
    "sum-rate-selection": _spec("sum_rate_vs_sir", "trials: 1", "selection: all"),
    "sinr-vs-m-rate-cap": _spec("sinr_vs_m", *_SMALL, "rate_cap: false"),
    # scales beyond the range SystemConfig states: each ended in a
    # traceback, an exit 5 or NaN records with exit 0
    "snr-4000": _spec("sinr_vs_m", *_SMALL, "snr_db: 4000"),
    "snr-minus-4000": _spec("sinr_vs_m", *_SMALL, "snr_db: -4000"),
    "snr-minus-3000": _spec("sinr_vs_m", *_SMALL, "snr_db: -3000"),
    "omega-1e308": _spec("sinr_vs_m", *_SMALL, "omega: 1e308"),
    "omega-1e308-ber": _spec("ber_vs_k", "trials: 1", "k_values: [1]", "omega: 1e308"),
    "omega-1e308-sum-rate": _spec("sum_rate_vs_sir", "trials: 1", "radii_m: [500]",
                                  "omega: 1e308"),
    "omega-1e200": _spec("sinr_vs_m", *_SMALL, "omega: 1e200"),
    "omega-1e-300": _spec("sinr_vs_m", *_SMALL, "omega: 1e-300"),
    # just beyond the range: omega, snr_db, and sigma2 = 1e100.23
    "omega-1e-101": _spec("sinr_vs_m", *_SMALL, "omega: 1e-101"),
    "snr-1000.1": _spec("sinr_vs_m", *_SMALL, "snr_db: 1000.1"),
    "sigma2-above-1e100": _spec("sinr_vs_m", *_SMALL, "omega: 1e100", "snr_db: -2.3"),
    # a name that cannot be looked up in the experiment table
    "experiment-list": "experiment: [sinr_vs_m]\n",
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
    # a block longer than the default coherence time C = 200
    (["partition", "{tmp}/beta.csv", "--c-u", "300"], "", 0),
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


def test_partition_prints_users_in_cell_then_user_order(tmp_path, capsys):
    # three cells of K = 2: pilot 0 is reused over strong cross gains and
    # moves to SP in cells 0 and 1, pilot 1 over weak ones and stays trained
    (tmp_path / "beta.csv").write_text("bs_cell,user_cell,user_index,beta\n" + "".join(
        f"{j},{l},{k},{1.0 if j == l else (0.6, 0.05)[k]}\n"
        for j in range(3) for l in range(3) for k in range(2)), encoding="utf-8")
    assert cli.main(["partition", str(tmp_path / "beta.csv"), "--c-u", "20"]) == 0
    *lines, cost = capsys.readouterr().out.splitlines()
    assert lines == ["tp,0,1", "tp,1,1", "tp,2,0", "tp,2,1", "sp,0,0", "sp,1,0"]
    # three TP users each see two weak co-pilots; each SP user absorbs its
    # own and the other SP user's gain over C_u - tau = 18 symbols at mu2 = 0.5
    name, value = cost.split(",")
    assert name == "cost"
    assert float(value) == pytest.approx(3 * 2 * 0.05**2 + 2 * (1.0 + 0.6**2) / (18 * 0.5),
                                         rel=1e-12)


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


def test_trials_flag_sets_the_sinr_cdf_realizations(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text(_spec("sinr_cdf", "placements: 1", "M: 20"), encoding="utf-8")
    assert cli.parse_config(str(spec)).options.trials == 20
    out = tmp_path / "out.csv"
    assert cli.main(["run", str(spec), "--out", str(out), "--trials", "3"]) == 0
    records = cli.parse_csv(str(out))
    assert records and {rec.trials for rec in records} == {3}


@pytest.mark.parametrize("written, radii", [("[0.000001]", (1e-06,)),
                                            ("[5.0e-05, 300]", (5e-05, 300)),
                                            ("['700.5', '850']", (700.5, 850)),
                                            ("[5e-05, 300]", (5e-05, 300)),
                                            ("[1e2, 850]", (100.0, 850))])
def test_a_yaml_number_keeps_its_type_in_a_list(tmp_path, written, radii):
    # a number was read as an int unless its text held a ".": 1e-06 and
    # 5e-05 became 0.  PyYAML leaves 5e-05 and 1e2 strings, which were read
    # as ints and refused; a string is an int if it spells one, else a float
    spec = tmp_path / "spec.yaml"
    spec.write_text(_spec("sum_rate_vs_sir", f"radii_m: {written}"), encoding="utf-8")
    parsed = cli.parse_config(str(spec)).options.radii_m
    assert parsed == radii and [type(r) for r in parsed] == [type(r) for r in radii]


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_a_radius_that_is_not_finite_is_refused(radius):
    with pytest.raises(ValueError, match="radii_m must be positive and finite"):
        simharness.RunOptions(radii_m=(500.0, radius))


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
