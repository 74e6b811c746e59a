import os

import pytest

from supmimo import cli


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

# (argv, stderr prefix, exit code); {tmp} is a directory holding the files
# written by the test below
EXIT_TABLE = [
    (["list-experiments"], "", 0),
    (["run", "{tmp}/good.yaml", "--out", "{tmp}/out.csv"], "", 0),
    (["run"], "error config:", 3),
    (["run", "{tmp}/good.yaml"], "error config:", 3),
    (["run", "{tmp}/bad.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/missing.yaml", "--out", "{tmp}/out.csv"], "error io:", 4),
    (["run", "{tmp}/no-m.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/no-k.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/no-radii.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/half-m.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/bogus-selection.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/zero-k.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/zero-m-per-k.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/zero-radius.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/half-trials.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["run", "{tmp}/half-m-per-k.yaml", "--out", "{tmp}/out.csv"], "error config:", 3),
    (["analytic", "optimal-rho", "100", "7", "5", "100"], "", 0),
    (["analytic", "optimal-rho", "100", "7", "5", "0"], "error invalid-parameter:", 5),
    (["analytic", "optimal-rho", "100", "7", "5", "0", "--approx"], "error invalid-parameter:", 5),
    (["analytic", "sp-lower-bound", "7", "5", "100", "100", "0.5"], "", 0),
    (["analytic", "sp-lower-bound", "7", "5", "100", "0", "0.5"], "error invalid-parameter:", 5),
    (["analytic", "sp-lower-bound", "7", "5", "0", "100", "0.5"], "error invalid-parameter:", 5),
    (["analytic", "kappa-symmetric", "5", "0", "0.5"], "error invalid-parameter:", 5),
    (["analytic", "kappa-symmetric", "x", "7", "0.5"], "error invalid-parameter:", 5),
    (["analytic", "kappa-symmetric", "5", "7"], "error config:", 3),
    (["analytic", "no-such-formula"], "error config:", 3),
    (["partition", "{tmp}/beta.csv"], "", 0),
    (["partition", "{tmp}/beta.csv", "--r", "0"], "error invalid-parameter:", 5),
    (["partition", "{tmp}/bad.csv"], "error config:", 3),
    (["partition", "{tmp}/missing.csv"], "error io:", 4),
]


@pytest.mark.parametrize("argv, err_prefix, code", EXIT_TABLE,
                         ids=["_".join(row[0]).replace("{tmp}/", "") for row in EXIT_TABLE])
def test_exit_codes(tmp_path, monkeypatch, capsys, argv, err_prefix, code):
    for name in [n for n in os.environ if n.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(name)
    (tmp_path / "good.yaml").write_text(
        "experiment: sinr_vs_m\noverrides:\n  trials: 1\n  m_values: [20]\n", encoding="utf-8")
    (tmp_path / "bad.yaml").write_text("experiment: nope\n", encoding="utf-8")
    # an empty sweep would write a header-only CSV; the other bad values
    # would fail only once the run has started
    for name, experiment, override in (("no-m", "sinr_vs_m", "m_values: []"),
                                       ("no-k", "ber_vs_k", "k_values: []"),
                                       ("no-radii", "sum_rate_vs_sir", "radii_m: []"),
                                       ("half-m", "sinr_vs_m", "m_values: [1.5]"),
                                       ("bogus-selection", "sinr_vs_m", "selection: bogus"),
                                       ("zero-k", "ber_vs_k", "k_values: [0]"),
                                       ("zero-m-per-k", "ber_vs_k", "m_per_k: 0"),
                                       ("zero-radius", "sum_rate_vs_sir", "radii_m: [0]"),
                                       ("half-trials", "sinr_vs_m", "trials: 1.5"),
                                       ("half-m-per-k", "ber_vs_k", "m_per_k: 1.5")):
        (tmp_path / f"{name}.yaml").write_text(
            f"experiment: {experiment}\noverrides:\n  {override}\n", encoding="utf-8")
    (tmp_path / "beta.csv").write_text(BETA_CSV, encoding="utf-8")
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    args = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert cli.main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(err_prefix) if err_prefix else err == ""
    if code and argv[0] == "run":
        assert not (tmp_path / "out.csv").exists()
