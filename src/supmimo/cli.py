"""Command-line front end: spec parsing, experiment dispatch, CSV output.

Spec files are YAML::

    experiment: sinr_vs_m
    output: sinr.csv          # optional; --out overrides
    overrides:
      M: 50                   # SystemConfig fields or harness options
      trials: 100
      scenario:
        type: scenario2
        cell_radius_m: 1000
        user_circle_radius_m: 800

Settings come from three places, each overriding the one before: the
experiment's defaults, the spec's ``overrides`` mapping, then the --seed
and --trials flags.  Unknown keys are rejected, and so is a harness option
the experiment does not read (simharness.OPTIONS_READ).  Exit status is 0 on
success and nonzero otherwise, with a machine-readable category on stderr:
"error <category>: message".
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np
import yaml

from . import analytics
from .hybrid import greedy_partition
from .simharness import EXPERIMENTS, OPTIONS_READ, MetricsRecord, RunOptions, run_experiment
from .sysmodel import PowerAllocation, Scenario1, Scenario2, SystemConfig

CSV_HEADER = "experiment,method,sweep_var,sweep_value,user,metric,value,trials,analytic_value"


def _settings(cls) -> dict:
    """Each field of a settings dataclass with a plain default, with its default's type.

    SystemConfig.scenario has none; overrides parse it on their own.
    """
    return {f.name: type(f.default) for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


_CONFIG_FIELDS = _settings(SystemConfig)
_OPTION_FIELDS = _settings(RunOptions)

# experiment-specific defaults applied before user overrides
_EXPERIMENT_DEFAULTS = {
    "rate_vs_m": {"P": 16},
    "sinr_cdf": {"M": 300, "trials": 20, "scenario": {"type": "scenario1"}},
    "ber_vs_k": {"C_u": 70, "scenario": {"type": "scenario1"}},
    "sum_rate_vs_sir": {"L": 19, "C_u": 40, "M": 200, "omega": 10.0},
}


class SpecError(ValueError):
    """Malformed or inconsistent experiment spec."""


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    config: SystemConfig
    options: RunOptions
    output: str | None


def _parse_scenario(raw) -> Scenario1 | Scenario2:
    if not isinstance(raw, dict) or "type" not in raw:
        raise SpecError("scenario override must be a mapping with a 'type' key")
    kind = raw["type"]
    try:
        args = {k: float(v) for k, v in raw.items() if k != "type"}
        if kind == "scenario1":
            return Scenario1(**args)
        if kind == "scenario2":
            return Scenario2(**args)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad scenario parameters: {exc}") from None
    raise SpecError(f"unknown scenario type {kind!r}")


def _number(value):
    """A list entry: a YAML number keeps its type, and a string is an int if
    it spells one, else a float (PyYAML leaves 5e-05 and 1e2 strings)."""
    if isinstance(value, (int, float)):
        return value
    try:
        return int(value)
    except ValueError:
        return float(value)


def _coerce(key: str, value, target):
    try:
        if (target is bool) != isinstance(value, bool):
            raise ValueError(f"expected {target.__name__}, got {value!r}")
        if target is tuple:
            if not isinstance(value, (list, tuple)) or any(isinstance(v, bool) for v in value):
                raise ValueError(f"expected a list of numbers, got {value!r}")
            return tuple(_number(v) for v in value)
        if target is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"not an integer: {value!r}")
        return target(value)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise SpecError(f"override {key!r}: {exc}") from None


def _apply_overrides(experiment, config_kwargs, option_kwargs, overrides, source):
    for key, value in overrides.items():
        if key == "scenario":
            config_kwargs["scenario"] = _parse_scenario(value)
        elif key in _CONFIG_FIELDS:
            config_kwargs[key] = _coerce(key, value, _CONFIG_FIELDS[key])
        elif key in OPTIONS_READ[experiment]:
            option_kwargs[key] = _coerce(key, value, _OPTION_FIELDS[key])
        elif key in _OPTION_FIELDS:
            raise SpecError(f"{experiment} does not read override {key!r} (from {source})")
        else:
            raise SpecError(f"unknown override key {key!r} (from {source})")


def parse_config(path: str, cli_overrides: dict | None = None) -> ExperimentSpec:
    """Load a YAML spec; experiment defaults, then its overrides, then CLI flags."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        raise SpecError(f"cannot parse {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: top level must be a mapping")
    unknown_top = set(raw) - {"experiment", "output", "overrides"}
    if unknown_top:
        raise SpecError(f"{path}: unknown top-level keys {sorted(unknown_top)}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise SpecError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    overrides = raw.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise SpecError("overrides must be a mapping")

    config_kwargs: dict = {}
    option_kwargs: dict = {}
    for settings, source in ((_EXPERIMENT_DEFAULTS.get(experiment, {}), "experiment defaults"),
                             (overrides, path), (cli_overrides or {}, "command line")):
        _apply_overrides(experiment, config_kwargs, option_kwargs, settings, source)
    try:
        config = SystemConfig(**config_kwargs)
        options = RunOptions(**option_kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(str(exc)) from None
    return ExperimentSpec(experiment=experiment, config=config, options=options,
                          output=raw.get("output"))


def _format_value(value) -> str:
    if value is None:
        return ""
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def emit_csv(records, path: str) -> None:
    """Write metric records as UTF-8, LF-terminated, round-trippable CSV."""
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join((
            rec.experiment, rec.method, rec.sweep_var, _format_value(rec.sweep_value),
            rec.user, rec.metric, _format_value(rec.value), str(rec.trials),
            _format_value(rec.analytic_value),
        )))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from None


def parse_csv(path: str) -> list:
    """Read back a CSV produced by emit_csv."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise SpecError(f"{path}: unexpected header {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 9:
                raise SpecError(f"{path}: malformed row {line!r}")
            records.append(MetricsRecord(
                experiment=parts[0], method=parts[1], sweep_var=parts[2],
                sweep_value=float(parts[3]), user=parts[4], metric=parts[5],
                value=float(parts[6]), trials=int(parts[7]),
                analytic_value=None if parts[8] == "" else float(parts[8]),
            ))
    return records


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    if not args.spec:
        raise SpecError("missing spec path")
    cli_overrides = {}
    if args.seed is not None:
        cli_overrides["seed"] = args.seed
    if args.trials is not None:
        cli_overrides["trials"] = args.trials
    spec = parse_config(args.spec, cli_overrides)
    out_path = args.out or spec.output
    if not out_path:
        raise SpecError("no output path: set 'output' in the spec or pass --out")
    records = run_experiment(spec.config, spec.experiment, spec.options)
    emit_csv(records, out_path)
    print(f"wrote {len(records)} records to {out_path}")
    return 0


def _cmd_list(_args) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


_ANALYTIC_FORMS = {
    "optimal-rho": (("M", int), ("L", int), ("K", int), ("C_u", int)),
    "kappa-symmetric": (("K", int), ("L", int), ("beta", float)),
    "sp-lower-bound": (("L", int), ("K", int), ("C_u", int), ("M", int), ("lambda2", float)),
}


def _cmd_analytic(args) -> int:
    form = args.formula
    if form not in _ANALYTIC_FORMS:
        raise SpecError(f"unknown formula {form!r}; expected one of {sorted(_ANALYTIC_FORMS)}")
    sig = _ANALYTIC_FORMS[form]
    if len(args.params) != len(sig):
        names = " ".join(name for name, _ in sig)
        raise SpecError(f"{form} needs parameters: {names}")
    vals = [typ(p) for (_name, typ), p in zip(sig, args.params)]
    if form == "optimal-rho":
        lam2, mu2 = analytics.optimal_rho(*vals, approximate=args.approx)
        print(f"lambda2={lam2!r} mu2={mu2!r}")
    elif form == "kappa-symmetric":
        print(repr(analytics.kappa_symmetric(*vals)))
    else:
        print(repr(analytics.sinr_sp_lower_bound(*vals)))
    return 0


def _cmd_partition(args) -> int:
    import csv as _csv

    rows = []
    with open(args.beta_csv, encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        expected = {"bs_cell", "user_cell", "user_index", "beta"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise SpecError(f"{args.beta_csv}: header must be bs_cell,user_cell,user_index,beta")
        for row in reader:
            j, l, k = (int(row[key]) for key in ("bs_cell", "user_cell", "user_index"))
            value = float(row["beta"])
            if min(j, l, k) < 0 or not 0.0 <= value < math.inf:
                raise SpecError(f"{args.beta_csv}: row {j},{l},{k},{value!r} needs non-negative "
                                "indices and a finite non-negative beta")
            rows.append((j, l, k, value))
    if not rows:
        raise SpecError(f"{args.beta_csv}: no data rows")
    L = max(max(r[0] for r in rows), max(r[1] for r in rows)) + 1
    K = max(r[2] for r in rows) + 1
    beta = np.zeros((L, L, K))
    seen = np.zeros((L, L, K), dtype=bool)
    for j, l, k, value in rows:
        if seen[j, l, k]:
            raise SpecError(f"{args.beta_csv}: more than one row for ({j}, {l}, {k})")
        beta[j, l, k] = value
        seen[j, l, k] = True
    if not seen.all():
        raise SpecError(f"{args.beta_csv}: missing entries for some (bs_cell, user_cell, user_index)")
    # C follows C_u, so any C_u the partitioner can use makes a config
    config = SystemConfig(L=L, K=K, C_u=args.c_u, C=args.c_u, r=args.r)
    result = greedy_partition(beta, config, PowerAllocation(1.0 - args.mu2, args.mu2))
    for l, k in np.argwhere(~result.partition.sp).tolist():
        print(f"tp,{l},{k}")
    for l, k in np.argwhere(result.partition.sp).tolist():
        print(f"sp,{l},{k}")
    print(f"cost,{result.cost!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supmimo",
        description="Multi-cell massive MIMO uplink simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a YAML spec")
    run_p.add_argument("spec", nargs="?", help="path to the YAML experiment spec")
    run_p.add_argument("--out", help="output CSV path (overrides the spec)")
    run_p.add_argument("--seed", type=int, help="master seed override")
    run_p.add_argument("--trials", type=int, help="trial count override")
    run_p.set_defaults(fn=_cmd_run)

    list_p = sub.add_parser("list-experiments", help="list experiment names")
    list_p.set_defaults(fn=_cmd_list)

    an_p = sub.add_parser("analytic", help="evaluate a closed-form expression")
    an_p.add_argument("formula", help="|".join(sorted(_ANALYTIC_FORMS)))
    an_p.add_argument("params", nargs="*", help="positional formula parameters")
    an_p.add_argument("--approx", action="store_true", help="use the approximate power split")
    an_p.set_defaults(fn=_cmd_analytic)

    part_p = sub.add_parser("partition", help="run the greedy pilot-type partitioner")
    part_p.add_argument("beta_csv", help="CSV with header bs_cell,user_cell,user_index,beta")
    part_p.add_argument("--c-u", dest="c_u", type=int, default=100)
    part_p.add_argument("--r", type=int, default=1,
                        help="pilot reuse factor; training is r * K symbols, K from the CSV")
    part_p.add_argument("--mu2", type=float, default=0.5, help="pilot power fraction")
    part_p.set_defaults(fn=_cmd_partition)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error config: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, IOError) as exc:
        print(f"error io: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error invalid-parameter: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        # settings whose arrays cannot be allocated, e.g. a huge sweep count
        print(f"error invalid-parameter: the settings need more memory than is available: {exc}",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
