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

The reference-BS experiments set up their layouts in one batched pass
(_make_benches): the state that depends on the config alone, i.e. the
data/pilot split, the powers and the pilot book, is built once, and one
prediction recursion runs over all layouts of a sweep point (ber_vs_k's
trials of one K, sinr_cdf's placements).  Every layout gets the same bits
as when it is set up alone.  Users are passed to the iterative layer as
drawn, in flat l*K + k order, and its results come back in that order; the
sweep order is that layer's own.

The reference-BS experiments run their trials in batches.  Within a trial,
TP and SP see common random numbers: one channel ("channels") and one noise
block ("noise"), added to both schemes' blocks in one synthesize_received
call; only their frames ("tp-frames", "sp-frames") differ.  That call
writes both blocks into one (2, M, C_u) buffer that every trial of the
batch reuses.  Each trial is received at once: TP through receive_cell,
and the SP block is reduced (iterative.reduce_block) to the statistics the
iterative estimator reads, G and R over the users it keeps, so no block
outlives its trial and the SP block is projected once.  A FrameSet carries
the bits its QAM payloads were drawn from, and the bit errors are counted
against them.  The iterative estimator is asked for the K cell-0 users
only, the ones scored, so every reduction keeps them, and their G rows and
R diagonal are the one-shot SP detector's matched filters and powers.  So
the one-shot SP outputs are finished from the stacked reductions
(estimators.sp_output) and the estimator iterates them, both once per
batch; then every method is decided and scored together.  A batch holds as
many trials as fit _CHUNK_BYTES at _trial_bytes each: the cell-0
channels, the reduction, the estimator's state and the scored arrays,
which grow with M only through the channels.  Every product is a stack of
the per-trial matrix-vector products, so a trial's energies have the same
bits in any batch, and they are added to the totals one trial at a time,
in trial order, so the output does not depend on the batch size.

run_experiment holds numpy's OpenBLAS at one thread and restores the
caller's count afterwards.  A product whose reduction is split over threads
rounds differently, so otherwise the output bytes would depend on the
thread count of the machine.

sum_rate_vs_sir compares its three pilot schemes on common random numbers.
Per trial and metric BS j, one unit-variance channel ("ch", j) is drawn and
its columns are scaled by each scheme's gains, and one noise block ("n", j)
is added to every scheme's received block.  Only the payloads differ: each
scheme draws its own frames ("tp-frames", "sp-frames", "hy-frames").
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analytics, iterative, waveform
from .estimators import receive_cell, sp_output
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

# budget of one reference-trial batch, which holds as many trials as fit at
# _trial_bytes each.  sinr_vs_m gets 11, 10 and 8 trials at M = 50, 100 and
# 200, and its traced peak (1,740 KiB at seed 5, 20 trials) stays below that
# of the rule that stacked whole SP blocks (1,809 KiB with 7, 4 and 2).
_CHUNK_BYTES = 1280 * 1024


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
        if self.selection not in iterative.SELECTION_RULES:
            raise ValueError(
                f"selection must be one of {iterative.SELECTION_RULES}, got {self.selection!r}"
            )
        for name in ("m_values", "k_values", "radii_m"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        for name, values in (("m_values", self.m_values), ("k_values", self.k_values),
                             ("m_per_k", (self.m_per_k,))):
            if not all(isinstance(v, numbers.Integral) and v >= 1 for v in values):
                raise ValueError(f"{name} must be integers >= 1, got {getattr(self, name)!r}")
        if not all(v > 0 for v in self.radii_m):
            raise ValueError(f"radii_m must be positive, got {self.radii_m!r}")


# ---------------------------------------------------------------------------
# Measurement primitives
# ---------------------------------------------------------------------------


def signal_residual_power(
    x_tilde: np.ndarray,
    x_true: np.ndarray,
    h_true: np.ndarray,
    beta_home,
) -> tuple[np.ndarray, np.ndarray]:
    """Energy split of matched-filter outputs into signal and residual.

    x_tilde and x_true hold one output row (..., n) per user, h_true the
    users' channels as rows (..., M), and beta_home their home gains,
    broadcast against the leading axes.  Returns the signal and residual
    energies, each of the leading shape.
    """
    M = h_true.shape[-1]
    gain = np.vecdot(h_true, h_true).real / (M * beta_home)
    signal = gain[..., np.newaxis] * x_true
    residual = x_tilde - signal
    return np.vecdot(signal, signal).real, np.vecdot(residual, residual).real


def count_ber(x_hat: np.ndarray, bits_true: np.ndarray, P: int) -> tuple[int, int]:
    """Bit errors between decided symbols and the transmitted bits.

    Any stack of symbols works; the bits are compared in flattened order.
    """
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
    """One layout's large-scale state at BS 0, shared by its trials."""

    config: SystemConfig
    beta_eff: PathLossMap
    powers: PowerAllocation
    book: waveform.PilotBook
    profile: iterative.PredictionProfile


def _make_benches(config: SystemConfig, options: RunOptions, layouts: list):
    """Yield one _Bench per layout, in order, from one set-up pass.

    The state that depends on the config alone (data/pilot split, powers,
    pilot book) is built once and shared, and one prediction recursion runs
    over the layouts' gains at BS 0.
    """
    lam2, _ = analytics.optimal_rho(
        config.M, config.L, config.K, config.C_u, approximate=options.rho_form == "approx"
    )
    powers = uniform_power(config.L, config.K, 1.0, lam2)
    book = waveform.make_pilot_books(config)
    beta_effs = [path_loss(layout, config.path_loss_exponent).normalized(config.omega)
                 for layout in layouts]

    profiles = iterative.predict_profile(
        np.stack([beta_eff.beta[0].reshape(-1) for beta_eff in beta_effs]),
        powers.rho_d.reshape(-1), powers.rho_p.reshape(-1), config.sigma2, config.M, config.C_u,
        config.P, config.iterations, options.selection,
    )
    for b, beta_eff in enumerate(beta_effs):
        yield _Bench(config, beta_eff, powers, book, profiles.layout(b))


def _receive_trial(bench: _Bench, key: tuple, Y: np.ndarray):
    """One trial's draws at BS 0, received and reduced.

    The channel, frames and noise come from the trial's own substreams; one
    noise block is added to both schemes' blocks.  Y is a (2, M, C_u) buffer
    the caller owns: the SP block is written into Y[0] and the TP block into
    Y[1].  The TP block is received under the all-TP partition, and the SP
    block is reduced for the iterative estimator (iterative.reduce_block)
    over the users it keeps, the K cell-0 users among them; their one-shot
    SP outputs are finished from the reduction later (_one_shot_sp).
    Returns the cell-0 channels (M, K), the TP outputs, the reduction's G
    and R, and the TP and SP payloads and bits of cell 0.  The trial's
    other draws are freed on return, before the next trial's are made.
    """
    cfg, book, powers = bench.config, bench.book, bench.powers
    K = cfg.K
    # one scheme's frames at a time, the channel after them: the substreams
    # are keyed, so the order of the draws does not change their bits
    S = np.empty((2, cfg.L * K, cfg.C_u), dtype=complex)
    payloads = {}
    for i, scheme in enumerate(("sp", "tp")):
        frames = waveform.assemble_frames(cfg, book, powers, substream(*key, f"{scheme}-frames"),
                                          scheme=scheme)
        S[i] = frames.S
        payloads[scheme] = frames.data[:K].copy(), frames.bits[:K].copy()
        del frames
    H = draw_channels(bench.beta_eff.beta[0].reshape(-1), cfg.M, substream(*key, "channels"))
    waveform.synthesize_received(H, S, cfg.sigma2, substream(*key, "noise"), out=Y)
    del S
    x_tp = receive_cell(Y[1], book, all_tp(cfg.L, K), powers, 0, bench.beta_eff.beta[0, 0, :])
    reduced = iterative.reduce_block(Y[0], book.sp_columns(slice(None)), powers.rho_p.reshape(-1),
                                     bench.profile, np.arange(K))
    return (H[:, :K], x_tp, reduced.G, reduced.R) + payloads["tp"] + payloads["sp"]


def _one_shot_sp(bench: _Bench, reduced: iterative.Reduction) -> np.ndarray:
    """The one-shot SP outputs of the K cell-0 users, (..., K, C_u), from a reduction.

    A kept user's G row and R diagonal entry are mf_detect_sp's matched
    filter and power, bit for bit, so these are receive_cell's all-SP
    outputs of cell 0 for the reduced blocks.
    """
    K = bench.config.K
    # the cell-0 users are flat users 0..K-1, kept and the smallest kept
    rows = np.argsort(reduced.users)[:K]
    power = np.diagonal(reduced.R, axis1=-2, axis2=-1)[..., rows].real
    mf_gain = reduced.M * bench.powers.rho_d[0] * bench.beta_eff.beta[0, 0, :]
    return sp_output(reduced.G.take(rows, axis=-2), power, bench.book.sp_columns(np.arange(K)).T,
                     bench.powers.rho_p[0], mf_gain)


def _reference_trials(bench: _Bench, keys: list):
    """T coherence blocks at BS 0, one per key: TP, one-shot SP and iterative SP.

    The trials are drawn and received one by one in a (2, M, C_u) buffer;
    each keeps only its SP block's reduction, its TP outputs, cell-0
    channels, payloads and bits.  The one-shot SP outputs are finished from
    the stacked reductions and the reductions iterated, each once for all T
    trials, and every method is decided and scored together.
    Returns (sig_res, errs): the (T, 3, 2, K) signal and residual energies
    per trial, method and cell-0 user, and the (3, 2) bit errors and bit
    count per method, summed over the trials and cell-0 users.
    """
    cfg = bench.config
    K, P, M, C_u, tau = cfg.K, cfg.P, cfg.M, cfg.C_u, cfg.tau
    T = len(keys)
    beta_home = bench.beta_eff.beta[0, 0, :]
    report = np.arange(K)
    users = iterative.reduced_users(bench.profile, report)
    n_bits = waveform.bits_per_symbol(P)
    H_home = np.empty((T, M, K), dtype=complex)
    x_tp = np.empty((T, K, C_u - tau), dtype=complex)
    G = np.empty((T, users.size, C_u), dtype=complex)
    R = np.empty((T, users.size, users.size), dtype=complex)
    data_tp = np.empty((T, K, C_u - tau), dtype=complex)
    data_sp = np.empty((T, K, C_u), dtype=complex)
    bits_tp = np.empty((T, K, n_bits * (C_u - tau)), dtype=np.uint8)
    bits_sp = np.empty((T, K, n_bits * C_u), dtype=np.uint8)
    Y = np.empty((2, M, C_u), dtype=complex)
    for t, key in enumerate(keys):
        (H_home[t], x_tp[t], G[t], R[t], data_tp[t], bits_tp[t], data_sp[t],
         bits_sp[t]) = _receive_trial(bench, key, Y)
    del Y

    reduced = iterative.Reduction(users=users, M=M, G=G, R=R)
    x_sp = _one_shot_sp(bench, reduced)
    state = iterative.iterative_estimate(
        reduced, bench.book.sp_columns(slice(None)), bench.beta_eff.beta[0].reshape(-1),
        bench.powers.rho_d.reshape(-1), bench.powers.rho_p.reshape(-1), P, bench.profile, report,
    )
    del reduced, G, R
    methods = (
        (x_tp, waveform.decide(x_tp, P), data_tp, bits_tp),
        (x_sp, waveform.decide(x_sp, P), data_sp, bits_sp),
        (state.x_tilde, state.x_hat, data_sp, bits_sp),
    )
    # strided rows, not a contiguous copy: that would round the channel norms differently
    h_rows = H_home.swapaxes(1, 2)
    sig_res = np.empty((T, 3, 2, K))
    errs = np.zeros((3, 2), dtype=np.int64)
    for i, (x_tilde, x_hat, data, bits) in enumerate(methods):
        sig_res[:, i, 0], sig_res[:, i, 1] = signal_residual_power(x_tilde, data, h_rows, beta_home)
        errs[i] = count_ber(x_hat, bits, P)
    return sig_res, errs


def _trial_bytes(bench: _Bench) -> int:
    """Bytes one trial adds to a batch of the reference trial.

    All complex but the bits: its cell-0 channels (M, K); its reduction, G
    and R over the n users the iterative estimator keeps (the feedback set
    and the K cell-0 users, or everyone under per_iteration), and the
    estimator's outputs, decisions and copy of G for them, three (n, C_u)
    arrays; eight scored (K, C_u) arrays (outputs, decisions and payloads)
    and their bits, one byte each.  None of it grows with M but the
    channels.
    """
    cfg = bench.config
    n = iterative.reduced_users(bench.profile, np.arange(cfg.K)).size
    n_bits = waveform.bits_per_symbol(cfg.P)
    return (16 * (cfg.M * cfg.K + n * (cfg.C_u + n) + 3 * n * cfg.C_u + 8 * cfg.K * cfg.C_u)
            + 4 * n_bits * cfg.K * cfg.C_u)


def _sum_trials(bench: _Bench, keys: list):
    """Energies and bit errors of the trials `keys` at one bench, summed.

    The trials run in chunks of as many trials as fit _CHUNK_BYTES at
    _trial_bytes each, at least one.  Each trial's energies are added in
    trial order, so the totals do not depend on the chunk size.  Returns
    ((3, 2, K), (3, 2)).
    """
    cfg = bench.config
    step = max(1, _CHUNK_BYTES // _trial_bytes(bench))
    sig_total = np.zeros((3, 2, cfg.K))
    err_total = np.zeros((3, 2), dtype=np.int64)
    for lo in range(0, len(keys), step):
        sig_res, errs = _reference_trials(bench, keys[lo : lo + step])
        for one in sig_res:
            sig_total += one
        err_total += errs
    return sig_total, err_total


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _sweep_antennas(config: SystemConfig, options: RunOptions, experiment: str):
    """Empirical and predicted SINRs per antenna count, method, and user."""
    results = []
    for mi, M in enumerate(options.m_values):
        cfg = replace(config, M=M)
        layout = place_users(cfg, substream(cfg.seed, experiment, "layout", mi))
        (bench,) = _make_benches(cfg, options, [layout])
        inputs = analytics.AnalyticInputs.build(bench.beta_eff, bench.powers, cfg)
        analytic = {
            TP_METHOD: [analytics.sinr_tp_asymptotic(inputs, 0, k) for k in range(cfg.K)],
            SP_METHOD: [analytics.sinr_sp_finite_m(inputs, 0, k) for k in range(cfg.K)],
            ITER_METHOD: 1.0 / bench.profile.interference[cfg.iterations, :cfg.K],
        }

        keys = [(cfg.seed, experiment, mi, t) for t in range(options.trials)]
        totals, _errs = _sum_trials(bench, keys)
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

    layouts = [place_users(config, substream(config.seed, "sinr_cdf", p, "layout"))
               for p in range(options.placements)]
    for p, bench in enumerate(_make_benches(config, options, layouts)):
        keys = [(config.seed, "sinr_cdf", p, t) for t in range(options.inner_realizations)]
        totals, _errs = _sum_trials(bench, keys)
        sinrs = totals[:, 0, :] / totals[:, 1, :]
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
        cfg = replace(config, K=K, M=options.m_per_k * K)
        if cfg.L * cfg.K > cfg.C_u:
            raise ValueError(
                f"K={K} gives {cfg.L * cfg.K} users, exceeding C_u={cfg.C_u} pilot columns"
            )

        layouts = [place_users(cfg, substream(cfg.seed, "ber_vs_k", ki, t, "layout"))
                   for t in range(options.trials)]
        benches = _make_benches(cfg, options, layouts)
        totals = sum(_sum_trials(bench, [(cfg.seed, "ber_vs_k", ki, t)])[1]
                     for t, bench in enumerate(benches))
        for i, method in enumerate((TP_METHOD, SP_METHOD, ITER_METHOD)):
            records.append(MetricsRecord(
                experiment="ber_vs_k", method=method, sweep_var="K", sweep_value=float(K),
                user="all", metric="ber", value=float(totals[i, 0] / totals[i, 1]),
                trials=options.trials, analytic_value=None,
            ))
    return records


def _sum_rate_trial(cfg: SystemConfig, key: tuple, unit_powers: PowerAllocation, schemes: tuple,
                    var: np.ndarray) -> np.ndarray:
    """(scheme, signal/residual, metric BS, user) energies of one sum-rate trial.

    var[j, i] holds scheme i's per-column channel variances at metric BS j.
    """
    n_metric, K = var.shape[0], cfg.K
    frames = [
        waveform.assemble_frames(cfg, book, unit_powers, substream(*key, f"{tag}-frames"),
                                 partition=part, scheme=scheme, data_dist="gaussian")
        for _method, tag, scheme, book, _beta, part in schemes
    ]
    S = np.stack([f.S for f in frames])
    sums = np.zeros((len(schemes), 2, n_metric, K))
    # BS outer, scheme inner: one BS's channels and block alive at a time
    for j in range(n_metric):
        H = draw_channels(var[j], cfg.M, substream(*key, "ch", j))
        Y = waveform.synthesize_received(H, S, cfg.sigma2, substream(*key, "n", j))
        cell = slice(j * K, (j + 1) * K)
        for i, (_method, _tag, _scheme, book, beta, part) in enumerate(schemes):
            beta_home = beta.beta[j, j]
            x_tilde = receive_cell(Y[i], book, part, unit_powers, j, beta_home)
            sums[i, :, j] = signal_residual_power(
                x_tilde, frames[i].data[cell], H[i, :, cell].T, beta_home)
        del H, Y  # freed before the next BS's draw, not after it
    return sums


def _records_sum_rate_vs_sir(config, options):
    records = []
    n_metric = min(config.L, 7)
    for ri, radius in enumerate(options.radii_m):
        cfg = replace(config, scenario=Scenario2(cell_radius_m=config.scenario.cell_radius_m,
                                                 user_circle_radius_m=radius))
        layout = place_users(cfg, substream(cfg.seed, "sum_rate", ri, "layout"))
        beta_raw = path_loss(layout, cfg.path_loss_exponent)
        lam2, mu2 = analytics.optimal_rho(
            cfg.M, n_metric, cfg.K, cfg.C_u, approximate=options.rho_form == "approx"
        )
        unit_powers = uniform_power(cfg.L, cfg.K, 1.0, lam2)

        beta_sp = beta_raw.normalized(cfg.omega)
        sir_db = 10.0 * math.log10(received_sir(beta_sp, cfg.omega, 0))

        # greedy partition over the metric cells; outer-tier users stay TP
        greedy = greedy_partition(beta_raw.beta[:n_metric, :n_metric, :], cfg.r, cfg.C_u,
                                  cfg.tau, mu2).partition
        outer = frozenset((l, k) for l in range(n_metric, cfg.L) for k in range(cfg.K))
        partition = Partition(u_tp=greedy.u_tp | outer, u_sp=greedy.u_sp)
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

        totals = sum(_sum_rate_trial(cfg, (cfg.seed, "sum_rate", ri, t), unit_powers, schemes, var)
                     for t in range(options.trials))
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


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None.

    Looked up on first use, not at import.  None when numpy ships no
    scipy-openblas library next to it or the library lacks the calls.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, then restore the caller's count."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def run_experiment(
    config: SystemConfig,
    experiment: str,
    options: RunOptions | None = None,
) -> list:
    """Run one named experiment and return its metric records.

    The experiment runs with numpy's OpenBLAS held at one thread, so its
    output bytes do not depend on the machine's thread count.
    """
    if experiment not in _DISPATCH:
        raise ValueError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    with _one_blas_thread():
        return _DISPATCH[experiment](config, options or RunOptions())
