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
