"""Byte-for-byte pins on the CSV of every experiment at a fixed seed.

Each golden file is what ``supmimo run`` writes for a spec that sets only the
experiment and the tiny overrides below; everything else is the CLI's
per-experiment default.  A refactor must reproduce these bytes exactly.  A
change that deliberately alters how random streams are consumed regenerates
the goldens of the experiments it changes, and only those, with::

    PYTHONPATH=src python tests/test_golden.py [experiment ...]

With no experiment named, every golden file is rewritten.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import supmimo
from supmimo.cli import emit_csv, parse_config, parse_csv
from supmimo.simharness import EXPERIMENTS, _openblas_threads, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# tiny on purpose: sinr_cdf runs placements x trials trials, and only
# sinr_cdf reads placements
OVERRIDES = {"seed": 0, "trials": 2}
SINR_CDF_OVERRIDES = {"placements": 2}


def write_csv(experiment: str, out: Path) -> None:
    spec = out.with_suffix(".yaml")
    spec.write_text(f"experiment: {experiment}\n", encoding="utf-8")
    overrides = {**OVERRIDES, **(SINR_CDF_OVERRIDES if experiment == "sinr_cdf" else {})}
    parsed = parse_config(str(spec), overrides)
    emit_csv(run_experiment(parsed.config, parsed.experiment, parsed.options), str(out))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_csv_matches_golden(experiment, tmp_path):
    out = tmp_path / f"{experiment}.csv"
    write_csv(experiment, out)
    assert out.read_bytes() == (GOLDEN_DIR / f"{experiment}.csv").read_bytes()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_parse_csv_round_trips_golden(experiment, tmp_path):
    golden = GOLDEN_DIR / f"{experiment}.csv"
    out = tmp_path / f"{experiment}.csv"
    emit_csv(parse_csv(str(golden)), str(out))
    assert out.read_bytes() == golden.read_bytes()


# writes every experiment's CSV into argv[1] after printing the BLAS thread
# count the interpreter started with
_BLAS_CHILD = """\
import pathlib, sys
import test_golden
from supmimo.simharness import _openblas_threads
print(_openblas_threads()[0]())
for name in test_golden.EXPERIMENTS:
    test_golden.write_csv(name, pathlib.Path(sys.argv[1]) / f"{name}.csv")
"""


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy's OpenBLAS thread calls not found")
@pytest.mark.parametrize("threads", [1, 2])
def test_goldens_hold_at_every_blas_thread_count(threads, tmp_path):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    paths = [str(Path(supmimo.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", _BLAS_CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(threads)]
    for name in EXPERIMENTS:
        assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_regeneration_writes_only_the_named_goldens(tmp_path, monkeypatch, capsys):
    golden = (GOLDEN_DIR / "sinr_cdf.csv").read_bytes()
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    assert main(["no-such-experiment"]) == 2
    assert main(["sinr_cdf"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sinr_cdf.csv"]
    assert (tmp_path / "sinr_cdf.csv").read_bytes() == golden


def main(argv) -> int:
    """Rewrite the golden CSVs of the named experiments (all when none is named)."""
    names = argv or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s) {unknown}; expected some of {EXPERIMENTS}", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        write_csv(name, GOLDEN_DIR / f"{name}.csv")
        (GOLDEN_DIR / f"{name}.yaml").unlink()
        print(f"wrote {GOLDEN_DIR / name}.csv", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
