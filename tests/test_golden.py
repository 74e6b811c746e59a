"""Byte-for-byte pins on the CSV of every experiment at a fixed seed.

Each golden file is what ``supmimo run`` writes for a spec that sets only the
experiment and the tiny overrides below; everything else is the CLI's
per-experiment default.  A refactor must reproduce these bytes exactly.  A
change that deliberately alters how random streams are consumed regenerates
them with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from supmimo.cli import emit_csv, parse_config, parse_csv
from supmimo.simharness import EXPERIMENTS, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# tiny on purpose: sinr_cdf runs placements x inner_realizations trials
OVERRIDES = {"seed": 0, "trials": 2, "placements": 2, "inner_realizations": 2}


def write_csv(experiment: str, out: Path) -> None:
    spec = out.with_suffix(".yaml")
    spec.write_text(f"experiment: {experiment}\n", encoding="utf-8")
    parsed = parse_config(str(spec), dict(OVERRIDES))
    emit_csv(run_experiment(parsed.config, parsed.experiment, parsed.options), str(out))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_csv_matches_golden(experiment, tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("SUPMIMO_"):
            monkeypatch.delenv(name)
    out = tmp_path / f"{experiment}.csv"
    write_csv(experiment, out)
    assert out.read_bytes() == (GOLDEN_DIR / f"{experiment}.csv").read_bytes()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_parse_csv_round_trips_golden(experiment, tmp_path):
    golden = GOLDEN_DIR / f"{experiment}.csv"
    out = tmp_path / f"{experiment}.csv"
    emit_csv(parse_csv(str(golden)), str(out))
    assert out.read_bytes() == golden.read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in EXPERIMENTS:
        write_csv(name, GOLDEN_DIR / f"{name}.csv")
        (GOLDEN_DIR / f"{name}.yaml").unlink()
        print(f"wrote {GOLDEN_DIR / name}.csv", file=sys.stderr)
