"""Monte-Carlo experiment engine and the five built-in experiments.

Simulation runs in power-controlled equivalent coordinates: each scheme's
gains come from its effective gain map (statistics-aware inversion toward
the home BS) over unit-variance fading, every frame carries unit total
power, and the data/pilot split comes from the SINR-bound maximizer.
Empirical SINR follows the signal-projection convention: the desired
component of a matched-filter output is (||h||^2 / (M beta)) * x,
everything else is residual.

Trials are indexed and draw their randomness from (seed, experiment, sweep
point, trial, purpose) substreams, so a trial's result depends only on its
key, not on which trials ran before it.  sum_rate_vs_sir keys its trials
without the sweep point: one trial serves every radius, and only its frame
tags name the radius.

Every experiment draws, receives and scores its trials in one kernel,
_run_trials, over a bench: the pilot schemes it compares (_Scheme), each
metric BS's substream of fading and noise, the payload distribution, and an
optional prediction profile, which adds the iterative estimator on the SP
block at BS 0.  The reference-BS experiments compare TP and SP at BS 0 with
QAM payloads and the profile; their benches are set up in one batched pass
(_make_benches), which builds the data/pilot split, powers and pilot book
once and runs one prediction recursion over all layouts of a sweep point.
Users are passed to the iterative layer as drawn, in flat l*K + k order;
the sweep order is that layer's own.  sum_rate_vs_sir compares all-TP,
all-SP and hybrid pilots at its 7 metric BSs with Gaussian payloads, on one
bench whose schemes are the (radius, method) pairs of its sweep
(_sum_rate_bench).

The schemes of a bench see common random numbers: each draws its own
frames, but at each metric BS one unit-variance fading matrix Z and one
noise block W per trial serve every scheme, so the draws are shared across
schemes and, in sum_rate_vs_sir, across radii.  A scheme's gains are folded
into its frames: its block would be Z @ (sqrt(beta) * S) + W.  No block is
formed.  Every receiver is linear in it, so each trial and metric BS makes
one projection of its draws onto the estimator columns of every scheme's
scored users (estimators.project), which gives their estimates and matched
filters from one synthesize_received call and one more product.

Z and W are not drawn either, only the r x d factor R of X = [Z, W / sigma]
= Q R, d = L*K + C_u and r = min(M, d) (sysmodel.draw_channels), so a
trial's cost does not grow with M.  The law of every output is exact, not
a large-M approximation.  Every output is a function of the frames and of
X's Gram matrix: the estimates enter only through their norms (||h||^2 in
the SP pilot removal) and inner products (iterative.reduce_block) and
through the matched filters conj(Y E)^T Y, and the desired-signal gain is
||z||^2 / M.  None of these changes when the M antennas are rotated, so
computing with R = Q^H X in place of X only rotates the estimates.  The
frames are independent of X, and R is drawn from its own exact law (the
complex Bartlett decomposition), so every record keeps the law it had with
X.  Receivers take M from the config, not from the estimates' row count.

Each scheme's cell is received from its projection through receive_cell, and
its outputs are scored (energies, and bit errors for QAM payloads) as soon
as they are made, so a trial's frames, draws and outputs do not outlive it.
With a profile the all-SP scheme is projected onto the users the estimator
keeps (iterative.reduced_users), and iterative.reduce_block turns that
projection into the two arrays the estimator reads: G, the kept users'
matched filters, and R, the inner products of their one-shot estimates.
The scheme's one-shot outputs are received from cell 0's users of the same
projection.  Only the iterative pass needs a batch: each trial's G and R,
cell 0's payloads and bits and the channel gains outlive a trial, and the
estimator runs once per batch of as many trials as fit _CHUNK_BYTES at
_trial_bytes each.  It reads the layout's gains, amplitudes, M and P from
the profile, so the harness passes them once, to predict_profile.  Its
products are stacks of per-trial products, so a trial's energies have the
same bits in any batch, and they are added to the totals in trial order, so
the output does not depend on the batch size.

run_experiment holds numpy's OpenBLAS at one thread and restores the
caller's count afterwards.  A product whose reduction is split over threads
rounds differently, so otherwise the output bytes would depend on the
thread count of the machine.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analytics, iterative, waveform
from .estimators import Projection, estimator_columns, project, receive_cell
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

# the RunOptions fields each experiment reads; the others leave its output as it is
OPTIONS_READ = {
    "sinr_vs_m": frozenset({"trials", "selection", "m_values"}),
    "rate_vs_m": frozenset({"trials", "selection", "m_values", "rate_cap"}),
    "sinr_cdf": frozenset({"trials", "selection", "placements"}),
    "ber_vs_k": frozenset({"trials", "selection", "k_values", "m_per_k"}),
    "sum_rate_vs_sir": frozenset({"trials", "radii_m"}),
}

# budget of one batch of _run_trials, which holds as many trials as fit at
# _trial_bytes each: 19, 15 and 13 for sinr_vs_m at M = 50, 100 and 200
# (traced peak of its 20 trials at M = 200, seed 5: 1,189 KiB).
# sum_rate_vs_sir holds only energies, so all its trials fit one batch.
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
    full-scale runs.  trials counts the trials per sweep point; sinr_cdf
    runs that many for each of its placements user placements.
    """

    trials: int = 200
    selection: str = "fixed"
    m_values: tuple = (50, 100, 200)
    k_values: tuple = (1, 5, 10)
    m_per_k: int = 50
    radii_m: tuple = (300.0, 500.0, 700.0, 850.0)
    placements: int = 30
    rate_cap: bool = True

    def __post_init__(self):
        if self.trials < 1 or self.placements < 1:
            raise ValueError("trial counts must be >= 1")
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
    gain: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Energy split of matched-filter outputs into signal and residual.

    x_tilde and x_true hold one output row (..., n) per user, and gain each
    user's desired-signal gain ||h||^2 / (M beta_home), of the leading
    shape.  The signal is gain * x_true and the residual the rest of
    x_tilde.  Returns the signal and residual energies, each of the leading
    shape.
    """
    signal = gain[..., np.newaxis] * x_true
    residual = x_tilde - signal
    return np.vecdot(signal, signal).real, np.vecdot(residual, residual).real


def count_ber(x: np.ndarray, bits_true: np.ndarray, P: int) -> tuple[int, int]:
    """Bit errors between the decisions on symbols and the transmitted bits.

    x holds matched-filter outputs or decided points: demap decides each
    symbol, with the bits of demap(waveform.decide(x, P)).  Any stack of
    symbols works; the bits are compared in flattened order.
    """
    bits_hat = waveform.demap(x, P)
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
# The trial kernel
# ---------------------------------------------------------------------------


class _Scheme(NamedTuple):
    """One pilot scheme of a bench, scored as one method.

    Its frames follow partition and book, drawn from the trial's (tag +
    "-frames") substream, are sent over the square roots of its gains, and
    are received under partition and book.
    """

    method: str
    tag: str
    book: waveform.PilotBook
    gains: PathLossMap
    partition: Partition


@dataclass(frozen=True)
class _Bench:
    """What a run of trials shares: its schemes and metric BSs.

    The schemes are those of one layout, or of several (sum_rate_vs_sir's
    radii), each with its own gains.  streams[j] is the substream tag of
    metric BS j's draws (sysmodel.draw_channels), whose cell's users are
    scored.
    data_dist is the payload distribution of waveform.assemble_frames.  A
    profile, the prediction recursion of the gains at BS 0, adds the
    iterative pass on the all-SP scheme there.
    """

    config: SystemConfig
    powers: PowerAllocation
    schemes: tuple
    streams: tuple
    data_dist: str
    profile: iterative.PredictionProfile | None = None


def _make_benches(config: SystemConfig, options: RunOptions, layouts: list):
    """Yield one reference bench per layout, in order, from one set-up pass.

    TP and SP at BS 0 on one gain map, QAM payloads and the profile.  The
    state that depends on the config alone (data/pilot split, powers, pilot
    book) is built once and shared, and one prediction recursion runs over
    the layouts' gains at BS 0.
    """
    L, K = config.L, config.K
    lam2, _ = analytics.optimal_rho(config.M, L, K, config.C_u)
    powers = uniform_power(L, K, lam2)
    book = waveform.make_pilot_books(config)
    beta_effs = [path_loss(layout, config.path_loss_exponent).normalized(config.omega)
                 for layout in layouts]

    profiles = iterative.predict_profile(
        np.stack([beta_eff.beta[0].reshape(-1) for beta_eff in beta_effs]),
        powers.rho_d.reshape(-1), powers.rho_p.reshape(-1), config.sigma2, config.M, config.C_u,
        config.P, config.iterations, options.selection,
    )
    tp, sp = all_tp(L, K), all_sp(L, K)
    for b, beta_eff in enumerate(beta_effs):
        schemes = (_Scheme(TP_METHOD, "tp", book, beta_eff, tp),
                   _Scheme(SP_METHOD, "sp", book, beta_eff, sp))
        yield _Bench(config, powers, schemes, (("channels",),), "qam",
                     profiles.layout(b))


def _payload_lengths(bench: _Bench) -> list:
    """Each scheme's payload and output symbols per user."""
    return [s.book.payload_length(s.partition, bench.config.C_u) for s in bench.schemes]


def _run_trials(bench: _Bench, keys: list):
    """T trials of a bench, one per key: drawn, received and scored.

    Per trial and metric BS j, one draw (streams[j]) serves every scheme:
    the factor of the unit-variance fading Z and the noise W there
    (sysmodel.draw_channels).  Scheme s would receive Y_s = Z @ (sqrt(beta_s)
    * S_s) + W, its gains at BS j folded into its frame rows.  One
    projection of the factor (estimators.project) makes the estimates and
    matched filters of every scheme's users of cell j, and no Y_s.  A user's
    desired-signal gain ||h||^2 / (M beta) is ||z||^2 / M, the squared norm
    of its column of the factor, the same for every scheme.  Each scheme's
    outputs are scored as they are made, QAM and Gaussian payloads alike.
    With a profile the all-SP scheme is projected onto the users the
    estimator keeps and also reduced; its one-shot outputs are received from
    cell 0's columns and rows of that projection, and the G and R stacks,
    with cell 0's payloads and bits, are iterated once per batch.  Returns
    (sig_res, errs): the (T, methods, 2, J, K) signal and residual energies
    per trial, method, metric BS and user, and the (methods, 2) bit errors
    and bit count per method over the batch (zero for Gaussian payloads).
    The methods are the schemes, then the iterative pass.
    """
    cfg, powers, schemes, profile = bench.config, bench.powers, bench.schemes, bench.profile
    K, M, C_u, P, N = cfg.K, cfg.M, cfg.C_u, cfg.P, cfg.L * cfg.K
    sigma = math.sqrt(cfg.sigma2)
    T, J, n_schemes = len(keys), len(bench.streams), len(schemes)
    qam = bench.data_dist == "qam"
    # sqrt(beta) of every scheme's users at every metric BS, the frame row scales
    roots = np.sqrt(np.stack([s.gains.beta[:J].reshape(J, N) for s in schemes]))
    # each scheme's estimator columns at each metric BS, those of its cell's
    # users; schemes on one book and one Partition object share them
    unique = {(id(s.book), s.partition): s for s in schemes}
    cells = {key: [estimator_columns(s.book, s.partition, powers, j * K + np.arange(K), C_u)
                   for j in range(J)] for key, s in unique.items()}
    columns = [[cells[id(s.book), s.partition][j] for s in schemes] for j in range(J)]
    del unique, cells
    n_methods = n_schemes + (profile is not None)
    gain = np.empty((T, J, K))
    sig_res = np.empty((T, n_methods, 2, J, K))
    errs = np.zeros((n_methods, 2), dtype=np.int64)
    # the current trial's payloads and bits of every scheme's metric cells
    lengths = _payload_lengths(bench)
    n_bits = waveform.bits_per_symbol(P)
    data = [np.empty((J, K, n), dtype=complex) for n in lengths]
    bits = [np.empty((J, K, n_bits * n), dtype=np.uint8) for n in lengths] if qam else None
    if profile is not None:
        sp = next(i for i, s in enumerate(schemes) if s.partition.sp.all())
        book = schemes[sp].book
        report = np.arange(K)
        users = iterative.reduced_users(profile, report)
        rows = np.argsort(users)[:K]  # cell 0's users are flat users 0..K-1, all kept
        # the all-SP scheme's BS 0 projection is onto the users the estimator keeps
        columns[0][sp] = estimator_columns(book, schemes[sp].partition, powers, users, C_u)
        G = np.empty((T, users.size, C_u), dtype=complex)
        R = np.empty((T, users.size, users.size), dtype=complex)
        sp_data = np.empty((T, K, lengths[sp]), dtype=complex)
        sp_bits = np.empty((T, K, n_bits * lengths[sp]), dtype=np.uint8)
    S = np.empty((n_schemes, N, C_u), dtype=complex)
    for t, key in enumerate(keys):
        # one scheme's frames at a time: the substreams are keyed, so the
        # order of the draws does not change their bits
        for i, s in enumerate(schemes):
            frames = waveform.assemble_frames(cfg, s.book, powers,
                                              substream(*key, f"{s.tag}-frames"), s.partition,
                                              bench.data_dist)
            S[i] = frames.S
            data[i][...] = frames.data[: J * K].reshape(J, K, -1)
            if qam:
                bits[i][...] = frames.bits[: J * K].reshape(J, K, -1)
            del frames  # before the next scheme's are drawn
        for j, tag in enumerate(bench.streams):
            factor = draw_channels(cfg, substream(*key, *tag))
            # the cell's columns copied and read as rows: how ||z||^2 rounds
            # depends on that layout (contiguous rows at K = 1)
            z = np.ascontiguousarray(factor[:, j * K : (j + 1) * K]).T
            gain[t, j] = np.vecdot(z, z).real / M
            projections = project(factor, sigma, S, roots[:, j], columns[j])
            del factor, z
            for i, (s, projection) in enumerate(zip(schemes, projections)):
                if profile is not None and i == sp:
                    G[t], R[t] = iterative.reduce_block(projection)
                    sp_data[t], sp_bits[t] = data[i][0], bits[i][0]
                    # the one-shot outputs read cell 0's users among those kept
                    projection = Projection(projection.estimates[:, rows],
                                            projection.matched[rows])
                x_tilde = receive_cell(projection, s.book, s.partition, powers, j,
                                       s.gains.beta[j, j], M)
                sig_res[t, i, 0, j], sig_res[t, i, 1, j] = signal_residual_power(
                    x_tilde, data[i][j], gain[t, j])
                if qam:
                    errs[i] += count_ber(x_tilde, bits[i][j], P)
            del projections, projection  # before the next BS's draws
    del S, columns
    if profile is not None:
        x_tilde = iterative.iterative_estimate(G, R, book.sp_columns(slice(None)), profile, report)
        del G, R
        sig_res[:, -1, 0, 0], sig_res[:, -1, 1, 0] = signal_residual_power(
            x_tilde, sp_data, gain[:, 0])
        errs[-1] = count_ber(x_tilde, sp_bits, P)
    return sig_res, errs


def _trial_bytes(bench: _Bench) -> int:
    """Bytes one trial adds to a batch of _run_trials; none of them grow with M.

    A trial's frames, draws and projections are freed before the next
    trial's are made, and none of them grows with M either: the draw at a
    metric BS is the (r, d) factor of sysmodel.draw_channels, r = min(M, d)
    and d = L*K + C_u, so at most d * d complex numbers (135 x 135, 285 KiB,
    for sinr_vs_m at M = 200).  Each trial keeps its energies and its metric users' channel
    gains.  With a profile it also keeps what the iterative pass reads: the
    reduce_block G and R over the n users the estimator keeps, and cell 0's
    all-SP payloads and bits; the pass adds at most four (n, C_u) working
    arrays (G's basis rows among them), its outputs, and the demapped copy
    of the bits.
    """
    cfg = bench.config
    methods = len(bench.schemes) + (bench.profile is not None)
    total = 8 * len(bench.streams) * cfg.K * (2 * methods + 1)
    if bench.profile is not None:
        n = iterative.reduced_users(bench.profile, np.arange(cfg.K)).size
        payloads = cfg.K * cfg.C_u
        total += (16 * (n * (cfg.C_u + n) + 4 * n * cfg.C_u + 2 * payloads)
                  + 2 * waveform.bits_per_symbol(cfg.P) * payloads)
    return total


def _sum_trials(bench: _Bench, keys: list):
    """Energies and bit errors of the trials `keys` at one bench, summed.

    The trials run in chunks of as many trials as fit _CHUNK_BYTES at
    _trial_bytes each, at least one.  Each trial's energies are added in
    trial order, so the totals do not depend on the chunk size.  Returns
    ((methods, 2, J, K), (methods, 2)), as _run_trials.
    """
    step = max(1, _CHUNK_BYTES // _trial_bytes(bench))
    sig_total = err_total = 0  # the first trial's arrays, as 0 + x == x
    for lo in range(0, len(keys), step):
        sig_res, errs = _run_trials(bench, keys[lo : lo + step])
        for one in sig_res:
            sig_total += one
        err_total += errs
    return sig_total, err_total


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _records_vs_m(config, options, experiment):
    """Empirical and predicted SINR (sinr_vs_m) or rate (rate_vs_m) per M, method and user."""
    records = []
    cap = config.P if options.rate_cap else None
    for mi, M in enumerate(options.m_values):
        cfg = replace(config, M=M)
        layout = place_users(cfg, substream(cfg.seed, experiment, "layout", mi))
        (bench,) = _make_benches(cfg, options, [layout])
        gains = bench.schemes[0].gains
        # BS 0's users, row 0 of the maps
        analytic = np.stack([
            analytics.sinr_tp_asymptotic(gains, cfg)[0],
            analytics.sinr_sp_finite_m(gains, bench.powers, cfg)[0],
            1.0 / bench.profile.interference[cfg.iterations, :cfg.K],
        ])
        keys = [(cfg.seed, experiment, mi, t) for t in range(options.trials)]
        totals, _errs = _sum_trials(bench, keys)
        empirical = totals[:, 0, 0] / totals[:, 1, 0]
        if experiment == "rate_vs_m":
            # the iterative pass decodes the all-SP frames
            tp_length, sp_length = _payload_lengths(bench)
            n = np.array([[tp_length], [sp_length], [sp_length]])
            empirical = analytics.rate(cfg, empirical, n, cap)
            analytic = analytics.rate(cfg, analytic, n, cap)
        for i, method in enumerate((TP_METHOD, SP_METHOD, ITER_METHOD)):
            for k in range(cfg.K):
                records.append(MetricsRecord(
                    experiment=experiment, method=method, sweep_var="M", sweep_value=float(M),
                    user=f"0:{k}", metric="rate" if experiment == "rate_vs_m" else "sinr",
                    value=float(empirical[i, k]),
                    trials=options.trials, analytic_value=float(analytic[i, k]),
                ))
    return records


def _records_sinr_cdf(config, options):
    samples = {TP_METHOD: [], SP_METHOD: [], ITER_METHOD: []}

    layouts = [place_users(config, substream(config.seed, "sinr_cdf", p, "layout"))
               for p in range(options.placements)]
    for p, bench in enumerate(_make_benches(config, options, layouts)):
        keys = [(config.seed, "sinr_cdf", p, t) for t in range(options.trials)]
        totals, _errs = _sum_trials(bench, keys)
        sinrs = totals[:, 0, 0] / totals[:, 1, 0]
        for i, method in enumerate((TP_METHOD, SP_METHOD, ITER_METHOD)):
            samples[method].extend(sinrs[i])

    records = []
    for method in (TP_METHOD, SP_METHOD, ITER_METHOD):
        values, probs = empirical_cdf(10.0 * np.log10(samples[method]))
        for v, pr in zip(values, probs):
            records.append(MetricsRecord(
                experiment="sinr_cdf", method=method, sweep_var="prob", sweep_value=float(pr),
                user="all", metric="sinr_db", value=float(v),
                trials=options.trials, analytic_value=None,
            ))
    return records


def _records_ber_vs_k(config, options):
    configs = [replace(config, K=K, M=options.m_per_k * K) for K in options.k_values]
    for cfg in configs:
        # raises CapacityError for an over-capacity K before any trial runs
        waveform.make_pilot_books(cfg)
    records = []
    for ki, cfg in enumerate(configs):
        layouts = [place_users(cfg, substream(cfg.seed, "ber_vs_k", ki, t, "layout"))
                   for t in range(options.trials)]
        benches = _make_benches(cfg, options, layouts)
        totals = sum(_sum_trials(bench, [(cfg.seed, "ber_vs_k", ki, t)])[1]
                     for t, bench in enumerate(benches))
        for i, method in enumerate((TP_METHOD, SP_METHOD, ITER_METHOD)):
            records.append(MetricsRecord(
                experiment="ber_vs_k", method=method, sweep_var="K", sweep_value=float(cfg.K),
                user="all", metric="ber", value=float(totals[i, 0] / totals[i, 1]),
                trials=options.trials, analytic_value=None,
            ))
    return records


def _sum_rate_bench(cfg: SystemConfig, layouts: list) -> _Bench:
    """All-TP, all-SP and hybrid pilots at the min(L, 7) metric BSs of each layout.

    One bench for the whole sweep: its schemes are the (layout, method)
    pairs, three per layout in layout order, and layout i's frames use the
    tags f"{i}-tp", f"{i}-sp" and f"{i}-hy".  Gaussian payloads at unit
    power.  Each metric BS j draws its fading and noise factor from
    ("ch", j), shared by every layout's schemes.  All layouts share one
    all-TP and one all-SP Partition, so _run_trials builds their estimator
    columns once.
    """
    n_metric = min(cfg.L, 7)
    lam2, mu2 = analytics.optimal_rho(cfg.M, n_metric, cfg.K, cfg.C_u)
    unit_powers = uniform_power(cfg.L, cfg.K, lam2)
    # one full-length book serves both baselines: outer-tier cells reuse
    # superimposed columns when L*K exceeds C_u
    book_full = waveform.make_pilot_books(cfg, allow_sp_reuse=True)
    tp, sp = all_tp(cfg.L, cfg.K), all_sp(cfg.L, cfg.K)
    schemes = []
    for i, layout in enumerate(layouts):
        beta_raw = path_loss(layout, cfg.path_loss_exponent)
        controlled = beta_raw.normalized(cfg.omega)
        # greedy SP mask of the metric cells, padded with TP rows for the outer tier
        greedy = greedy_partition(beta_raw.beta[:n_metric, :n_metric, :], cfg.r, cfg.C_u,
                                  cfg.tau, mu2).partition
        partition = Partition(np.pad(greedy.sp, ((0, cfg.L - n_metric), (0, 0))))
        # power control on the SP users only
        beta_hyb = PathLossMap(np.where(partition.sp, controlled.beta, beta_raw.beta))
        schemes += [
            _Scheme(ALL_TP_METHOD, f"{i}-tp", book_full, beta_raw, tp),
            _Scheme(ALL_SP_METHOD, f"{i}-sp", book_full, controlled, sp),
            _Scheme(HYBRID_METHOD, f"{i}-hy", waveform.make_pilot_books(cfg, partition=partition),
                    beta_hyb, partition),
        ]
    streams = tuple(("ch", j) for j in range(n_metric))
    return _Bench(cfg, unit_powers, tuple(schemes), streams, "gaussian")


def _records_sum_rate_vs_sir(config, options):
    layouts = []
    for ri, radius in enumerate(options.radii_m):
        cfg = replace(config, scenario=Scenario2(cell_radius_m=config.scenario.cell_radius_m,
                                                 user_circle_radius_m=radius))
        layouts.append(place_users(cfg, substream(cfg.seed, "sum_rate", ri, "layout")))
    bench = _sum_rate_bench(config, layouts)
    keys = [(config.seed, "sum_rate", t) for t in range(options.trials)]
    totals, _errs = _sum_trials(bench, keys)
    sinr = totals[:, 0] / totals[:, 1]

    records = []
    lengths = _payload_lengths(bench)
    for lo in range(0, len(bench.schemes), 3):  # one layout's three schemes
        # the all-SP gains are the power-controlled map
        sir_db = 10.0 * math.log10(received_sir(bench.schemes[lo + 1].gains, config.omega, 0))
        for i in range(lo, lo + 3):
            total_rate = float(np.sum(analytics.rate(config, sinr[i], lengths[i])))
            records.append(MetricsRecord(
                experiment="sum_rate_vs_sir", method=bench.schemes[i].method,
                sweep_var="sir_rx_db", sweep_value=float(sir_db), user="all",
                metric="sum_rate", value=total_rate, trials=options.trials,
                analytic_value=None,
            ))
    return records


_DISPATCH = {
    "sinr_vs_m": functools.partial(_records_vs_m, experiment="sinr_vs_m"),
    "rate_vs_m": functools.partial(_records_vs_m, experiment="rate_vs_m"),
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
