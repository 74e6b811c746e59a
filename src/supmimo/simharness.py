"""Monte-Carlo experiment engine and the five built-in experiments.

Simulation runs in power-controlled equivalent coordinates: channels are
drawn from the effective gain map (statistics-aware inversion toward the
home BS), every frame carries unit total power, and the data/pilot split
comes from the SINR-bound maximizer.  Empirical SINR follows the
signal-projection convention: the desired component of a matched-filter
output is (||h||^2 / (M beta)) * x, everything else is residual.

Trials are indexed and draw their randomness from (seed, experiment, sweep
point, trial, purpose) substreams, so a trial's result depends only on its
key, not on which trials ran before it.

sum_rate_vs_sir compares its three pilot schemes on common random numbers.
Per trial and metric BS j, one unit-variance channel ("ch", j) is drawn and
its columns are scaled by each scheme's gains, and one noise block ("n", j)
is added to every scheme's received block.  Only the payloads differ: each
scheme draws its own frames ("tp-frames", "sp-frames", "hy-frames").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytics, iterative, waveform
from .estimators import receive_cell
from .hybrid import Partition, all_sp, all_tp, greedy_partition
from .rng import substream
from .sysmodel import (
    PathLossMap,
    PowerAllocation,
    Scenario2,
    SystemConfig,
    draw_channels,
    path_loss,
    place_users,
    received_sir,
    uniform_power,
)

TP_METHOD = "tp-ls"
SP_METHOD = "sp-noniter"
ITER_METHOD = "sp-iter"
ALL_TP_METHOD = "all-tp"
ALL_SP_METHOD = "all-sp"
HYBRID_METHOD = "hybrid"

EXPERIMENTS = ("sinr_vs_m", "rate_vs_m", "sinr_cdf", "ber_vs_k", "sum_rate_vs_sir")


@dataclass(frozen=True)
class MetricsRecord:
    """One measured (and optionally predicted) metric value."""

    experiment: str
    method: str
    sweep_var: str
    sweep_value: float
    user: str
    metric: str
    value: float
    trials: int
    analytic_value: float | None = None


@dataclass(frozen=True)
class RunOptions:
    """Harness knobs that are not physical-system parameters.

    Desk-scale defaults: trial counts and antenna sweeps are reduced
    relative to the reference experiments; raise them via the CLI for
    full-scale runs.
    """

    trials: int = 200
    rho_form: str = "exact"
    selection: str = "fixed"
    m_values: tuple = (50, 100, 200)
    k_values: tuple = (1, 5, 10)
    m_per_k: int = 50
    radii_m: tuple = (300.0, 500.0, 700.0, 850.0)
    placements: int = 30
    inner_realizations: int = 20
    rate_cap: bool = True

    def __post_init__(self):
        if self.trials < 1 or self.placements < 1 or self.inner_realizations < 1:
            raise ValueError("trial counts must be >= 1")
        if self.rho_form not in ("exact", "approx"):
            raise ValueError(f"rho_form must be 'exact' or 'approx', got {self.rho_form!r}")
        for name in ("m_values", "k_values", "radii_m"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")


# ---------------------------------------------------------------------------
# Measurement primitives
# ---------------------------------------------------------------------------


def signal_residual_power(
    x_tilde: np.ndarray,
    x_true: np.ndarray,
    h_true: np.ndarray,
    beta_home: float,
) -> tuple[float, float]:
    """Energy split of a matched-filter output into signal and residual."""
    M = h_true.shape[0]
    gain = float(np.real(np.vdot(h_true, h_true))) / (M * beta_home)
    signal = gain * x_true
    residual = x_tilde - signal
    return float(np.vdot(signal, signal).real), float(np.vdot(residual, residual).real)


def count_ber(x_hat: np.ndarray, bits_true: np.ndarray, P: int) -> tuple[int, int]:
    """Bit errors between decided symbols and the transmitted bits."""
    bits_hat = waveform.demap(x_hat, P)
    bits_true = np.asarray(bits_true).reshape(-1)
    if bits_hat.size != bits_true.size:
        raise ValueError(f"bit count mismatch: {bits_hat.size} vs {bits_true.size}")
    return int(np.sum(bits_hat != bits_true)), int(bits_true.size)


def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Sorted samples with their cumulative probabilities (ending at 1)."""
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise ValueError("need at least one sample")
    probs = np.arange(1, values.size + 1) / values.size
    return values, probs


# ---------------------------------------------------------------------------
# Shared single-cell bench (reference-BS experiments)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Bench:
    config: SystemConfig
    beta_eff: PathLossMap
    powers: PowerAllocation
    book: waveform.PilotBook
    lam2: float
    mu2: float


@dataclass(frozen=True)
class _IterSetup:
    beta_sorted: np.ndarray
    rho_d_sorted: np.ndarray
    rho_p_sorted: np.ndarray
    pilots: np.ndarray
    profile: iterative.PredictionProfile
    pos_of_flat: np.ndarray


def _make_bench(config: SystemConfig, options: RunOptions, layout) -> _Bench:
    beta_raw = path_loss(layout, config.path_loss_exponent)
    lam2, mu2 = analytics.optimal_rho(
        config.M, config.L, config.K, config.C_u, approximate=options.rho_form == "approx"
    )
    beta_eff = beta_raw.normalized(config.omega)
    powers = uniform_power(config.L, config.K, 1.0, lam2)
    book = waveform.make_pilot_books(config)
    return _Bench(config=config, beta_eff=beta_eff, powers=powers, book=book, lam2=lam2, mu2=mu2)


def _iter_setup(bench: _Bench, options: RunOptions) -> _IterSetup:
    cfg = bench.config
    beta_ref = bench.beta_eff.beta[0].reshape(-1)
    order = iterative.decreasing_order(beta_ref)
    pos_of_flat = np.empty_like(order)
    pos_of_flat[order] = np.arange(order.size)
    beta_sorted = beta_ref[order]
    rho_d_sorted = bench.powers.rho_d.reshape(-1)[order]
    rho_p_sorted = bench.powers.rho_p.reshape(-1)[order]
    cols = bench.book.sp_assignment.reshape(-1)[order]
    pilots = bench.book.sp_matrix[:, cols]
    profile = iterative.predict_profile(
        beta_sorted, rho_d_sorted, rho_p_sorted, cfg.sigma2, cfg.M, cfg.C_u, cfg.P,
        cfg.iterations, options.selection,
    )
    return _IterSetup(beta_sorted, rho_d_sorted, rho_p_sorted, pilots, profile, pos_of_flat)


def _reference_trial(bench: _Bench, setup: _IterSetup, options: RunOptions, rng_key: tuple):
    """One coherence block: TP, one-shot SP, and iterative SP at BS 0.

    Returns (sig_res, errs): the (3, 2, K) signal and residual energies per
    method and cell-0 user, and the (3, 2) bit errors and bit count per
    method, summed over the cell-0 users.
    """
    cfg = bench.config
    K, P = cfg.K, cfg.P
    beta_home = bench.beta_eff.beta[0, 0, :]
    H = draw_channels(bench.beta_eff.beta[0].reshape(-1), cfg.M, substream(*rng_key, "channels"))

    methods = []
    for scheme, partition in (("tp", all_tp(cfg.L, K)), ("sp", all_sp(cfg.L, K))):
        frames = waveform.assemble_frames(
            cfg, bench.book, bench.powers, substream(*rng_key, f"{scheme}-frames"), scheme=scheme
        )
        Y = waveform.synthesize_received(
            H, frames.S, cfg.sigma2, substream(*rng_key, f"{scheme}-noise")
        )
        x_tilde = receive_cell(Y, bench.book, partition, bench.powers, 0, beta_home, P)
        data = frames.data[:K]
        methods.append((x_tilde, waveform.decide(x_tilde, P), data, waveform.demap(data, P)))

    # Y is the SP block, the loop's last; the iterative estimator reuses it
    state = iterative.iterative_estimate(
        Y, setup.pilots, setup.beta_sorted, setup.rho_d_sorted, setup.rho_p_sorted,
        P, cfg.sigma2, cfg.iterations, options.selection, profile=setup.profile,
    )
    pos = setup.pos_of_flat[:K]
    sp_data, sp_bits = methods[1][2:]
    methods.append((state.x_tilde[pos], state.x_hat[pos], sp_data, sp_bits))
    sig_res = np.zeros((3, 2, K))
    errs = np.zeros((3, 2), dtype=np.int64)
    for i, (x_tilde, x_hat, data, bits) in enumerate(methods):
        for k in range(K):
            sig_res[i, :, k] = signal_residual_power(x_tilde[k], data[k], H[:, k], float(beta_home[k]))
        errs[i] = count_ber(x_hat, bits, P)
    return sig_res, errs


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _sweep_antennas(config: SystemConfig, options: RunOptions, experiment: str):
    """Empirical and predicted SINRs per antenna count, method, and user."""
    results = []
    for mi, M in enumerate(options.m_values):
        cfg = replace(config, M=M)
        layout = place_users(cfg, substream(cfg.seed, experiment, "layout", mi))
        bench = _make_bench(cfg, options, layout)
        setup = _iter_setup(bench, options)
        inputs = analytics.AnalyticInputs.build(bench.beta_eff, bench.powers, cfg)
        analytic = {
            TP_METHOD: [analytics.sinr_tp_asymptotic(inputs, 0, k) for k in range(cfg.K)],
            SP_METHOD: [analytics.sinr_sp_finite_m(inputs, 0, k) for k in range(cfg.K)],
            ITER_METHOD: [
                1.0 / setup.profile.interference[cfg.iterations, setup.pos_of_flat[k]]
                for k in range(cfg.K)
            ],
        }

        def one(t, _bench=bench, _setup=setup, _mi=mi):
            key = (_bench.config.seed, experiment, _mi, t)
            sig_res, _errs = _reference_trial(_bench, _setup, options, key)
            return sig_res

        totals = sum(one(t) for t in range(options.trials))
        empirical = {
            method: totals[i, 0, :] / totals[i, 1, :]
            for i, method in enumerate((TP_METHOD, SP_METHOD, ITER_METHOD))
        }
        results.append((M, cfg, analytic, empirical))
    return results


def _records_sinr_vs_m(config, options):
    records = []
    for M, cfg, analytic, empirical in _sweep_antennas(config, options, "sinr_vs_m"):
        for method in (TP_METHOD, SP_METHOD, ITER_METHOD):
            for k in range(cfg.K):
                records.append(MetricsRecord(
                    experiment="sinr_vs_m", method=method, sweep_var="M", sweep_value=float(M),
                    user=f"0:{k}", metric="sinr", value=float(empirical[method][k]),
                    trials=options.trials, analytic_value=float(analytic[method][k]),
                ))
    return records


def _records_rate_vs_m(config, options):
    records = []
    cap = config.P if options.rate_cap else None
    for M, cfg, analytic, empirical in _sweep_antennas(config, options, "rate_vs_m"):
        for method in (TP_METHOD, SP_METHOD, ITER_METHOD):
            rate = analytics.rate_tp if method == TP_METHOD else analytics.rate_sp
            for k in range(cfg.K):
                records.append(MetricsRecord(
                    experiment="rate_vs_m", method=method, sweep_var="M", sweep_value=float(M),
                    user=f"0:{k}", metric="rate",
                    value=rate(cfg, float(empirical[method][k]), cap),
                    trials=options.trials,
                    analytic_value=rate(cfg, float(analytic[method][k]), cap),
                ))
    return records


def _records_sinr_cdf(config, options):
    samples = {TP_METHOD: [], SP_METHOD: [], ITER_METHOD: []}

    def one_placement(p):
        layout = place_users(config, substream(config.seed, "sinr_cdf", p, "layout"))
        bench = _make_bench(config, options, layout)
        setup = _iter_setup(bench, options)

        totals = np.zeros((3, 2, config.K))
        for t in range(options.inner_realizations):
            key = (config.seed, "sinr_cdf", p, t)
            sig_res, _ = _reference_trial(bench, setup, options, key)
            totals += sig_res
        return totals[:, 0, :] / totals[:, 1, :]

    per_placement = [one_placement(p) for p in range(options.placements)]
    for sinrs in per_placement:
        for i, method in enumerate((TP_METHOD, SP_METHOD, ITER_METHOD)):
            samples[method].extend(sinrs[i])

    records = []
    for method in (TP_METHOD, SP_METHOD, ITER_METHOD):
        values, probs = empirical_cdf(10.0 * np.log10(samples[method]))
        for v, pr in zip(values, probs):
            records.append(MetricsRecord(
                experiment="sinr_cdf", method=method, sweep_var="prob", sweep_value=float(pr),
                user="all", metric="sinr_db", value=float(v),
                trials=options.inner_realizations, analytic_value=None,
            ))
    return records


def _records_ber_vs_k(config, options):
    records = []
    for ki, K in enumerate(options.k_values):
        cfg = replace(config, K=K, tau=config.r * K, M=options.m_per_k * K)
        if cfg.L * cfg.K > cfg.C_u:
            raise ValueError(
                f"K={K} gives {cfg.L * cfg.K} users, exceeding C_u={cfg.C_u} pilot columns"
            )

        def one(t, _cfg=cfg, _ki=ki):
            layout = place_users(_cfg, substream(_cfg.seed, "ber_vs_k", _ki, t, "layout"))
            bench = _make_bench(_cfg, options, layout)
            setup = _iter_setup(bench, options)
            _sig, errs = _reference_trial(bench, setup, options, (_cfg.seed, "ber_vs_k", _ki, t))
            return errs

        totals = sum(one(t) for t in range(options.trials))
        for i, method in enumerate((TP_METHOD, SP_METHOD, ITER_METHOD)):
            records.append(MetricsRecord(
                experiment="ber_vs_k", method=method, sweep_var="K", sweep_value=float(K),
                user="all", metric="ber", value=float(totals[i, 0] / totals[i, 1]),
                trials=options.trials, analytic_value=None,
            ))
    return records


def _hybrid_system(config: SystemConfig, beta_raw: PathLossMap, mu2: float):
    """Greedy partition over the metric cells; outer-tier users stay TP."""
    n_metric = min(config.L, 7)
    submap = beta_raw.beta[:n_metric, :n_metric, :]
    result = greedy_partition(submap, config.r, config.C_u, config.tau, mu2)
    outer = frozenset(
        (l, k) for l in range(n_metric, config.L) for k in range(config.K)
    )
    partition = Partition(u_tp=result.partition.u_tp | outer, u_sp=result.partition.u_sp)
    return partition, result


def _records_sum_rate_vs_sir(config, options):
    records = []
    n_metric = min(config.L, 7)
    base_scen = config.scenario
    cell_radius = getattr(base_scen, "cell_radius_m", 1000.0)
    for ri, radius in enumerate(options.radii_m):
        cfg = replace(config, scenario=Scenario2(cell_radius_m=cell_radius, user_circle_radius_m=radius))
        layout = place_users(cfg, substream(cfg.seed, "sum_rate", ri, "layout"))
        beta_raw = path_loss(layout, cfg.path_loss_exponent)
        lam2, mu2 = analytics.optimal_rho(
            cfg.M, n_metric, cfg.K, cfg.C_u, approximate=options.rho_form == "approx"
        )
        unit_powers = uniform_power(cfg.L, cfg.K, 1.0, lam2)

        beta_sp = beta_raw.normalized(cfg.omega)
        sir_db = 10.0 * math.log10(received_sir(beta_sp, cfg.omega, 0))

        partition, _greedy = _hybrid_system(cfg, beta_raw, mu2)
        q_hyb = np.ones((cfg.L, cfg.K))
        home = beta_raw.home()
        for (l, k) in partition.u_sp:
            q_hyb[l, k] = cfg.omega / home[l, k]
        beta_hyb = PathLossMap(beta_raw.beta * q_hyb[np.newaxis, :, :])

        # one full-length book serves both baselines: outer-tier cells reuse
        # superimposed columns when L*K exceeds C_u
        book_full = waveform.make_pilot_books(cfg, allow_sp_reuse=True)
        book_hyb = waveform.make_pilot_books(cfg, partition=partition)
        # (method, substream tag, frame scheme, pilot book, gain map, partition)
        schemes = (
            (ALL_TP_METHOD, "tp", "tp", book_full, beta_raw, all_tp(cfg.L, cfg.K)),
            (ALL_SP_METHOD, "sp", "sp", book_full, beta_sp, all_sp(cfg.L, cfg.K)),
            (HYBRID_METHOD, "hy", "hybrid", book_hyb, beta_hyb, partition),
        )

        # per-column variances at each metric BS j: var[j, i] for scheme i
        var = np.stack([beta.beta[:n_metric] for *_, beta, _part in schemes], axis=1)
        var = var.reshape(n_metric, len(schemes), -1)

        def one(t, _cfg=cfg, _ri=ri, _schemes=schemes, _var=var):
            key = (_cfg.seed, "sum_rate", _ri, t)
            K = _cfg.K
            frames = [
                waveform.assemble_frames(
                    _cfg, book, unit_powers, substream(*key, f"{tag}-frames"),
                    partition=part, scheme=scheme, data_dist="gaussian",
                )
                for _method, tag, scheme, book, _beta, part in _schemes
            ]
            S = np.stack([f.S for f in frames])
            sums = np.zeros((3, 2, n_metric, K))
            # BS outer, scheme inner: one BS's channels and block alive at a time
            for j in range(n_metric):
                H = draw_channels(_var[j], _cfg.M, substream(*key, "ch", j))
                Y = waveform.synthesize_received(H, S, _cfg.sigma2, substream(*key, "n", j))
                for i, (_method, _tag, _scheme, book, beta, part) in enumerate(_schemes):
                    beta_home = beta.beta[j, j]
                    x_tilde = receive_cell(Y[i], book, part, unit_powers, j, beta_home, _cfg.P)
                    for k in range(K):
                        n = j * K + k
                        sums[i, :, j, k] = signal_residual_power(
                            x_tilde[k], frames[i].data[n], H[i, :, n], float(beta_home[k]))
                del H, Y  # freed before the next BS's draw, not after it
            return sums

        totals = sum(one(t) for t in range(options.trials))
        sinr = totals[:, 0] / totals[:, 1]

        for i, (method, _tag, scheme, *_rest) in enumerate(schemes):
            # array log2, not the scalar rate rule: numpy's log2 and math.log2
            # differ in the last bit on some inputs, which would move the output
            w = analytics.pre_log(cfg, trains=scheme != "sp")
            total_rate = float(np.sum(w * np.log2(1.0 + sinr[i])))
            records.append(MetricsRecord(
                experiment="sum_rate_vs_sir", method=method, sweep_var="sir_rx_db",
                sweep_value=float(sir_db), user="all", metric="sum_rate",
                value=total_rate, trials=options.trials, analytic_value=None,
            ))
    return records


_DISPATCH = {
    "sinr_vs_m": _records_sinr_vs_m,
    "rate_vs_m": _records_rate_vs_m,
    "sinr_cdf": _records_sinr_cdf,
    "ber_vs_k": _records_ber_vs_k,
    "sum_rate_vs_sir": _records_sum_rate_vs_sir,
}


def run_experiment(
    config: SystemConfig,
    experiment: str,
    options: RunOptions | None = None,
) -> list:
    """Run one named experiment and return its metric records."""
    if experiment not in _DISPATCH:
        raise ValueError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    return _DISPATCH[experiment](config, options or RunOptions())
