"""Benchmark of the supmimo figure experiments, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py --workload sinr_vs_m --seed 0 --seconds 30 --trace 0

Each run is one workload in this fresh process.  It drives the package only
through the public sequence ``supmimo run`` performs: ``cli.parse_config`` on
a YAML spec, ``simharness.run_experiment``, then ``cli.emit_csv``.  The spec
sets only the experiment's trial count and the master seed; everything else
is the CLI's per-experiment default.  The experiment is repeated until
``--seconds`` have passed and every repetition is checked (see checks.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of tracer.py, from traced
repetitions that alternate with untraced ones.  Why the workloads and
metrics are what they are is written down in README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# workload -> trials per repetition: repetitions of 1-2 s on a 2-core box,
# with the statistical checks of checks.py holding by a margin (README.md)
WORKLOADS = {"sinr_vs_m": 20, "ber_vs_k": 10, "sum_rate_vs_sir": 8}

MIN_REPS = 3

# Set-up as a user pays it: a fresh interpreter imports supmimo and parses
# the spec, then reports the system-wide monotonic clock.
_PROBE = """\
import sys, time
import supmimo
from supmimo import cli
cli.parse_config(sys.argv[1])
print(repr(time.monotonic()))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def measure_setup(spec_path: Path) -> float:
    """Seconds from spawning an interpreter until it has parsed the spec."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(spec_path)], env=_child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Repetitions:
    """Runs the spec repeatedly and checks every repetition's output."""

    def __init__(self, cli, run_experiment, spec, csv_path: Path, digest=None):
        self.cli = cli
        self.run_experiment = run_experiment
        self.spec = spec
        self.csv_path = str(csv_path)
        self.points = checks.sweep_points(spec)
        self.attempted = 0
        self.failed = 0
        # CSV digest every repetition must give: an earlier run's of the same
        # code and seed if there was one, else this run's first repetition's
        self.digest = digest
        self.problems: list = []

    def run(self, trace=None) -> tuple:
        """One repetition; returns (wall seconds, CPU seconds)."""
        spec = self.spec
        records = None
        with trace if trace is not None else contextlib.nullcontext():
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                records = self.run_experiment(spec.config, spec.experiment, spec.options)
                self.cli.emit_csv(records, self.csv_path)
            except Exception as exc:  # a failed repetition fails all its points
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
        if records is not None:
            per_point = self._check(records)
        else:
            per_point = [[error]] * self.points
        self.attempted += self.points
        self.failed += sum(1 for p in per_point if p)
        self.problems.extend(p for p in per_point if p)
        return wall, cpu

    def _check(self, records) -> list:
        per_point = checks.check_records(self.spec, records)
        whole = []
        digest = checks.csv_digest(self.csv_path)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            whole.append(f"CSV digest {digest} != {self.digest} of an earlier repetition or run")
        try:
            if self.cli.parse_csv(self.csv_path) != list(records):
                whole.append("parse_csv does not read back the emitted records")
        except ValueError as exc:
            whole.append(f"parse_csv rejects the emitted CSV: {exc}")
        return [p + whole for p in per_point]


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(reps: Repetitions, setup: list, walls: list, cpus: list) -> dict:
    return {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median(walls), "s"),
        "cpu_s": (_median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_share": (1.0 - reps.failed / reps.attempted, "share"),
    }


def per_layer(traces: list, traced_walls: list, plain_walls: list) -> dict:
    out = {}
    for layer in traces[0].calls:
        out[f"{layer}.calls"] = (traces[-1].calls[layer], "count")
        out[f"{layer}.self_ms"] = (1e3 * _median([t.self_s[layer] for t in traces]), "ms")
    for name, value in traces[-1].work.items():
        out[name] = (value, "MB" if name.endswith(".mb") else "GFLOP")
    coverage = [sum(t.self_s.values()) / wall for t, wall in zip(traces, traced_walls)]
    out["trace.coverage_pct"] = (100.0 * _median(coverage), "%")
    # each traced repetition directly follows an untraced one, so the pair
    # shares the machine's speed phase
    overhead = [t / p - 1.0 for p, t in zip(plain_walls, traced_walls)]
    out["trace.overhead_pct"] = (100.0 * _median(overhead), "%")
    return out


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _counts_repeat(traces: list) -> bool:
    return all(t.calls == traces[0].calls and t.work == traces[0].work for t in traces)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "supmimo" / "__init__.py").is_file():
        print(f"error: no supmimo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import supmimo
    from supmimo import cli
    from supmimo.simharness import run_experiment

    if not Path(supmimo.__file__).resolve().is_relative_to(SRC):
        print(f"error: supmimo imported from {supmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    digests_path = out_dir / "csv_digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    trials = WORKLOADS[args.workload]
    run_key = f"{args.workload} seed={args.seed} trials={trials} code={_code_digest()}"
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec_path = work / "spec.yaml"
        spec_path.write_text(
            f"experiment: {args.workload}\n"
            f"overrides:\n  trials: {trials}\n  seed: {args.seed}\n",
            encoding="utf-8",
        )
        setup = []
        spec = cli.parse_config(str(spec_path))
        reps = Repetitions(cli, run_experiment, spec, work / "out.csv", digests.get(run_key))

        plain_walls, cpus, traced_walls, traces = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        n = 0
        while n < MIN_REPS * (1 + args.trace) or time.perf_counter() < deadline:
            if args.trace and n % 2:
                traces.append(tracer.Tracer())
                wall, _cpu = reps.run(traces[-1])
                traced_walls.append(wall)
            else:
                if not args.trace:
                    setup.append(measure_setup(spec_path))
                wall, cpu = reps.run()
                plain_walls.append(wall)
                cpus.append(cpu)
            n += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if reps.digest is not None and run_key not in digests:
        digests[run_key] = reps.digest
        digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    correct = reps.failed == 0
    if args.trace:
        metrics = per_layer(traces, traced_walls, plain_walls)
        if not _counts_repeat(traces):
            correct = False
            reps.problems.append(["layer counts differ between traced repetitions"])
        span_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        traces[-1].write_spans(str(span_path))
        print(f"# spans of the last traced repetition: {span_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(reps, setup, plain_walls, cpus)

    for problem in reps.problems[:10]:
        print("# FAILED:", "; ".join(problem), file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trials={spec.options.trials} reps={n} "
          f"csv_sha256={reps.digest}")
    print("# wall_s per repetition:", " ".join(f"{w:.4f}" for w in plain_walls))
    print("# cpu_s per repetition:", " ".join(f"{c:.4f}" for c in cpus))
    print("# setup_s per probe:", " ".join(f"{s:.4f}" for s in setup))
    print(json.dumps({
        "correct": correct,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
