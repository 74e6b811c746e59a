"""Per-sweep-point output checks for the benchmark workloads.

One operation of the benchmark is one sweep point of an experiment.  A point
passes when its records have the expected keys, every value is finite and in
range, and the experiment's statistical relations hold at that point.
"""

from __future__ import annotations

import hashlib
import math

TP, SP, ITER = "tp-ls", "sp-noniter", "sp-iter"
ALL_TP, ALL_SP, HYBRID = "all-tp", "all-sp", "hybrid"

# experiment -> (sweep variable, RunOptions field holding the sweep, methods)
SWEEPS = {
    "sinr_vs_m": ("M", "m_values", (TP, SP, ITER)),
    "ber_vs_k": ("K", "k_values", (TP, SP, ITER)),
    "sum_rate_vs_sir": ("sir_rx_db", "radii_m", (ALL_TP, ALL_SP, HYBRID)),
}
METRIC = {"sinr_vs_m": "sinr", "ber_vs_k": "ber", "sum_rate_vs_sir": "sum_rate"}


def sweep_points(spec) -> int:
    """Number of sweep points, i.e. operations, one run of the spec makes."""
    return len(getattr(spec.options, SWEEPS[spec.experiment][1]))


def csv_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def _point_problems(spec, sweep_value, recs) -> list:
    experiment = spec.experiment
    _var, _field, methods = SWEEPS[experiment]
    users = [f"0:{k}" for k in range(spec.config.K)] if experiment == "sinr_vs_m" else ["all"]
    expected = {(m, u, METRIC[experiment]) for m in methods for u in users}
    got = [(r.method, r.user, r.metric) for r in recs]
    if len(got) != len(expected) or set(got) != expected:
        return [f"keys {sorted(got)} != {sorted(expected)}"]
    problems = []
    by_key = {(r.method, r.user): r for r in recs}
    for r in recs:
        if r.trials != spec.options.trials:
            problems.append(f"{r.method} {r.user}: trials {r.trials}")
        if not _finite(r.value):
            problems.append(f"{r.method} {r.user}: value {r.value!r} not finite")
        elif experiment == "ber_vs_k" and not 0.0 <= r.value <= 1.0:
            problems.append(f"{r.method}: BER {r.value!r} outside [0, 1]")
        elif experiment != "ber_vs_k" and r.value <= 0.0:
            problems.append(f"{r.method} {r.user}: {r.metric} {r.value!r} <= 0")
    if problems:
        return problems
    if experiment == "sinr_vs_m":
        for u in users:
            it, sp, tp = by_key[(ITER, u)], by_key[(SP, u)], by_key[(TP, u)]
            if it.value < sp.value:
                problems.append(f"user {u}: iterative SINR {it.value!r} < one-shot {sp.value!r}")
            if not _finite(tp.analytic_value) or tp.value > tp.analytic_value:
                problems.append(f"user {u}: TP SINR {tp.value!r} above its large-M limit "
                                f"{tp.analytic_value!r}")
    elif experiment == "sum_rate_vs_sir":
        if by_key[(HYBRID, "all")].value < by_key[(ALL_SP, "all")].value:
            problems.append(f"SIR {sweep_value!r} dB: hybrid sum rate below all-SP")
    return problems


def check_records(spec, records) -> list:
    """Problems per sweep point, in sweep order; an empty list marks a pass.

    The list always has `sweep_points(spec)` entries.  Records that belong
    to no expected point are reported against the first one.
    """
    experiment = spec.experiment
    var, field, _methods = SWEEPS[experiment]
    n_points = sweep_points(spec)
    groups: dict = {}
    stray = []
    for r in records:
        if r.experiment != experiment or r.sweep_var != var:
            stray.append(f"stray record {r.experiment}/{r.sweep_var}")
        else:
            groups.setdefault(r.sweep_value, []).append(r)
    if experiment == "sum_rate_vs_sir":  # the SIR of each radius depends on the layout
        values = list(groups)[:n_points]
        values += [None] * (n_points - len(values))
    else:
        values = [float(v) for v in getattr(spec.options, field)]
    stray += [f"unexpected sweep value {v!r}" for v in groups if v not in values]
    results = [_point_problems(spec, v, groups[v]) if v in groups else ["missing sweep point"]
               for v in values]
    if stray:
        results[0] = results[0] + stray
    return results
