"""Byte-for-byte pins on the CSV of every experiment at a fixed seed.

Each golden file is what ``supmimo run`` writes for a spec that sets only the
experiment and the overrides GOLDENS lists for it; everything else is the
CLI's per-experiment default.  Every experiment has one at tiny trial counts,
and each bench workload one more at the bench's trial counts and seed, where
the trial kernel splits a chunk into several sub-batches and the iterative
pass into several schedule groups.  A refactor must reproduce these bytes
exactly.  A change that deliberately alters how random streams are consumed
regenerates the goldens it changes, and only those, by name::

    PYTHONPATH=src python tests/test_golden.py [golden ...]

With no golden named, every golden file is rewritten.
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

# golden name -> (experiment, overrides).  The experiments' own are tiny on
# purpose: sinr_cdf runs placements x trials trials, and only sinr_cdf reads
# placements.  The bench workloads' run at bench/run.py's trial counts.
GOLDENS = {
    **{experiment: (experiment, {"seed": 0, "trials": 2}) for experiment in EXPERIMENTS},
    "sinr_cdf": ("sinr_cdf", {"seed": 0, "trials": 2, "placements": 2}),
    "sinr_vs_m-bench": ("sinr_vs_m", {"seed": 5, "trials": 20}),
    "ber_vs_k-bench": ("ber_vs_k", {"seed": 5, "trials": 10}),
    "sum_rate_vs_sir-bench": ("sum_rate_vs_sir", {"seed": 5, "trials": 8}),
}


def write_csv(name: str, out: Path) -> None:
    experiment, overrides = GOLDENS[name]
    spec = out.with_suffix(".yaml")
    spec.write_text(f"experiment: {experiment}\n", encoding="utf-8")
    parsed = parse_config(str(spec), overrides)
    emit_csv(run_experiment(parsed.config, parsed.experiment, parsed.options), str(out))


@pytest.mark.parametrize("experiment", GOLDENS)
def test_csv_matches_golden(experiment, tmp_path):
    out = tmp_path / f"{experiment}.csv"
    write_csv(experiment, out)
    assert out.read_bytes() == (GOLDEN_DIR / f"{experiment}.csv").read_bytes()


@pytest.mark.parametrize("experiment", GOLDENS)
def test_parse_csv_round_trips_golden(experiment, tmp_path):
    golden = GOLDEN_DIR / f"{experiment}.csv"
    out = tmp_path / f"{experiment}.csv"
    emit_csv(parse_csv(str(golden)), str(out))
    assert out.read_bytes() == golden.read_bytes()


# writes every golden's CSV into argv[1] after printing the BLAS thread
# count the interpreter started with
_BLAS_CHILD = """\
import pathlib, sys
import test_golden
from supmimo.simharness import _openblas_threads
print(_openblas_threads()[0]())
for name in test_golden.GOLDENS:
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
    for name in GOLDENS:
        assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_regeneration_writes_only_the_named_goldens(tmp_path, monkeypatch, capsys):
    golden = (GOLDEN_DIR / "sinr_cdf.csv").read_bytes()
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    assert main(["no-such-experiment"]) == 2
    assert main(["sinr_cdf"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sinr_cdf.csv"]
    assert (tmp_path / "sinr_cdf.csv").read_bytes() == golden


def main(argv) -> int:
    """Rewrite the named golden CSVs (all when none is named)."""
    names = argv or list(GOLDENS)
    unknown = [name for name in names if name not in GOLDENS]
    if unknown:
        print(f"unknown golden(s) {unknown}; expected some of {list(GOLDENS)}", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        write_csv(name, GOLDEN_DIR / f"{name}.csv")
        (GOLDEN_DIR / f"{name}.yaml").unlink()
        print(f"wrote {GOLDEN_DIR / name}.csv", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
