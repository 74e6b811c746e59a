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

Every experiment draws, receives and scores its trials in one kernel,
_run_trials, over a bench: the pilot schemes it compares (_Scheme), each
metric BS's channel and noise substreams, the payload distribution, and an
optional prediction profile, which adds the iterative estimator on the SP
block at BS 0.  The reference-BS experiments compare TP and SP at BS 0 with
QAM payloads and the profile; their benches are set up in one batched pass
(_make_benches), which builds the data/pilot split, powers and pilot book
once and runs one prediction recursion over all layouts of a sweep point.
Users are passed to the iterative layer as drawn, in flat l*K + k order;
the sweep order is that layer's own.  sum_rate_vs_sir compares all-TP,
all-SP and hybrid pilots at its 7 metric BSs with Gaussian payloads
(_sum_rate_bench).

Within a trial the schemes see common random numbers: each draws its own
frames, but at each metric BS one channel per distinct gain map (the
reference schemes share one) and one noise block serve every scheme, in one
synthesize_received call.  Each block is received through receive_cell;
with a profile the SP block is instead reduced (iterative.reduce_block) to
the statistics the estimator reads, and the one-shot SP outputs are
finished from the reductions.  Only the metric cells' channel powers
||h||^2, the outputs, payloads, bits and reductions outlive a trial; the
estimator runs, and every method is decided and scored, once per batch of
as many trials as fit _CHUNK_BYTES at _trial_bytes each.  Every product is
a stack of per-trial products, so a trial's energies have the same bits in
any batch, and they are added to the totals in trial order, so the output
does not depend on the batch size.

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

# budget of one batch of _run_trials, which holds as many trials as fit at
# _trial_bytes each: 12, 11 and 9 for sinr_vs_m at M = 50, 100 and 200, and
# all 8 of sum_rate_vs_sir, about 1 MB of outputs and payloads (traced peaks
# at seed 5: 1,674 and 2,843 KiB; 2,087 KiB for the sum-rate loop before).
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
# The trial kernel
# ---------------------------------------------------------------------------


class _Scheme(NamedTuple):
    """One pilot scheme of a bench, scored as one method.

    Its frames follow partition and book, drawn from the trial's (tag +
    "-frames") substream, and are received under them on channels drawn
    from gains.
    """

    method: str
    tag: str
    book: waveform.PilotBook
    gains: PathLossMap
    partition: Partition


@dataclass(frozen=True)
class _Bench:
    """What the trials of one layout share: its schemes and metric BSs.

    streams[j] holds the channel and noise substream tags of metric BS j,
    whose cell's users are scored.  data_dist is the payload distribution
    of waveform.assemble_frames.  A profile, the prediction recursion of the
    gains at BS 0, adds the iterative pass on the all-SP scheme there.
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
    lam2, _ = analytics.optimal_rho(
        config.M, L, K, config.C_u, approximate=options.rho_form == "approx"
    )
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
        yield _Bench(config, powers, schemes, ((("channels",), ("noise",)),), "qam",
                     profiles.layout(b))


def _payload_lengths(bench: _Bench) -> list:
    """Each scheme's payload and output symbols per user."""
    return [s.book.payload_length(s.partition, bench.config.C_u) for s in bench.schemes]


def _run_trials(bench: _Bench, keys: list):
    """T trials of a bench, one per key: drawn, received and scored.

    Per trial and metric BS j, one channel per distinct gain map
    (streams[j][0]) and one noise block (streams[j][1]) serve every scheme,
    and each block is received into the batch arrays; a channel is freed
    before the next draw.  With a profile the all-SP block is reduced instead,
    and the stacked reductions give its one-shot outputs (their G rows and R
    diagonal are mf_detect_sp's matched filters and powers, bit for bit) and
    are iterated, once per batch.  Returns (sig_res, errs): the (T, methods,
    2, J, K) signal and residual energies per trial, method, metric BS and
    user, and the (methods, 2) bit errors and bit count per method over the
    batch (zero for Gaussian payloads).  The methods are the schemes, then
    the iterative pass.
    """
    cfg, powers, schemes, profile = bench.config, bench.powers, bench.schemes, bench.profile
    K, M, C_u, P = cfg.K, cfg.M, cfg.C_u, cfg.P
    T, J = len(keys), len(bench.streams)
    qam = bench.data_dist == "qam"
    # schemes on one gain map share one channel, slice 0 of the draw
    maps = [s.gains for s in schemes]
    if all(gains is maps[0] for gains in maps):
        maps = maps[:1]
    var = [np.stack([gains.beta[j].reshape(-1) for gains in maps]) for j in range(J)]
    power = np.empty((T, len(maps), J, K))
    lengths = _payload_lengths(bench)
    x = [np.empty((T, J, K, n), dtype=complex) for n in lengths]
    data = [np.empty((T, J, K, n), dtype=complex) for n in lengths]
    n_bits = waveform.bits_per_symbol(P)
    bits = [np.empty((T, J, K, n_bits * n), dtype=np.uint8) if qam else None for n in lengths]
    if profile is not None:
        sp = next(i for i, s in enumerate(schemes) if not s.partition.u_tp)
        report = np.arange(K)
        users = iterative.reduced_users(profile, report)
        G = np.empty((T, users.size, C_u), dtype=complex)
        R = np.empty((T, users.size, users.size), dtype=complex)
    Y = np.empty((len(schemes), M, C_u), dtype=complex)
    for t, key in enumerate(keys):
        # one scheme's frames at a time: the substreams are keyed, so the
        # order of the draws does not change their bits
        S = np.empty((len(schemes), cfg.L * K, C_u), dtype=complex)
        for i, s in enumerate(schemes):
            frames = waveform.assemble_frames(cfg, s.book, powers,
                                              substream(*key, f"{s.tag}-frames"), s.partition,
                                              bench.data_dist)
            S[i] = frames.S
            data[i][t] = frames.data[: J * K].reshape(J, K, -1)
            if qam:
                bits[i][t] = frames.bits[: J * K].reshape(J, K, -1)
            del frames  # before the next scheme's are drawn
        for j, (channel_tag, noise_tag) in enumerate(bench.streams):
            H = draw_channels(var[j], M, substream(*key, *channel_tag))
            waveform.synthesize_received(H if len(maps) > 1 else H[0], S, cfg.sigma2,
                                         substream(*key, *noise_tag), out=Y)
            # the cell's columns copied and read as rows: how ||h||^2 rounds
            # depends on that layout (contiguous rows at K = 1)
            h = np.ascontiguousarray(H[..., j * K : (j + 1) * K]).swapaxes(-1, -2)
            power[t, :, j] = np.vecdot(h, h).real
            del H, h
            for i, s in enumerate(schemes):
                if profile is not None and i == sp:
                    reduced = iterative.reduce_block(Y[i], s.book.sp_columns(slice(None)),
                                                     powers.rho_p.reshape(-1), profile, report)
                    G[t], R[t] = reduced.G, reduced.R
                    del reduced  # no trial's draws outlive it
                else:
                    x[i][t, j] = receive_cell(Y[i], s.book, s.partition, powers, j,
                                              s.gains.beta[j, j])
        del S
    del Y

    methods = [(x[i], None, i) for i in range(len(schemes))]  # (outputs, decisions, scheme)
    if profile is not None:
        book, gains = schemes[sp].book, schemes[sp].gains
        rows = np.argsort(users)[:K]  # cell 0's users are flat users 0..K-1, all kept
        x[sp][:, 0] = sp_output(G.take(rows, axis=1), R[:, rows, rows].real,
                                book.sp_columns(report).T, powers.rho_p[0],
                                M * powers.rho_d[0] * gains.beta[0, 0])
        state = iterative.iterative_estimate(
            iterative.Reduction(users=users, M=M, G=G, R=R), book.sp_columns(slice(None)),
            gains.beta[0].reshape(-1), powers.rho_d.reshape(-1), powers.rho_p.reshape(-1), P,
            profile, report,
        )
        del G, R
        methods.append((state.x_tilde[:, np.newaxis], state.x_hat[:, np.newaxis], sp))
    cells = np.arange(J)
    sig_res = np.empty((T, len(methods), 2, J, K))
    errs = np.zeros((len(methods), 2), dtype=np.int64)
    for m, (x_tilde, x_hat, i) in enumerate(methods):
        gain = power[:, i % len(maps)] / (M * schemes[i].gains.beta[cells, cells])
        sig_res[:, m, 0], sig_res[:, m, 1] = signal_residual_power(x_tilde, data[i], gain)
        if qam:
            errs[m] = count_ber(waveform.decide(x_tilde, P) if x_hat is None else x_hat, bits[i], P)
    return sig_res, errs


def _trial_bytes(bench: _Bench) -> int:
    """Bytes one trial adds to a batch of _run_trials; none of them grow with M.

    For each metric cell's K users: every scheme's payloads and every
    method's outputs and, for QAM payloads, decisions, all complex, and the
    payload bits and their demapped copy; with a profile, the reduction's G
    and R over the n users the iterative estimator keeps and its three
    (n, C_u) working arrays.  The few channel powers per user are left out.
    """
    cfg = bench.config
    payloads = len(bench.streams) * cfg.K * sum(_payload_lengths(bench))
    outputs = payloads + (cfg.K * cfg.C_u if bench.profile is not None else 0)
    total = 16 * (payloads + outputs)
    if bench.data_dist == "qam":
        total += 16 * outputs + 2 * waveform.bits_per_symbol(cfg.P) * payloads
    if bench.profile is not None:
        n = iterative.reduced_users(bench.profile, np.arange(cfg.K)).size
        total += 16 * (n * (cfg.C_u + n) + 3 * n * cfg.C_u)
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
        inputs = analytics.AnalyticInputs.build(bench.schemes[0].gains, bench.powers, cfg)
        analytic = (
            [analytics.sinr_tp_asymptotic(inputs, 0, k) for k in range(cfg.K)],
            [analytics.sinr_sp_finite_m(inputs, 0, k) for k in range(cfg.K)],
            1.0 / bench.profile.interference[cfg.iterations, :cfg.K],
        )
        keys = [(cfg.seed, experiment, mi, t) for t in range(options.trials)]
        totals, _errs = _sum_trials(bench, keys)
        empirical = totals[:, 0, 0] / totals[:, 1, 0]
        for i, method in enumerate((TP_METHOD, SP_METHOD, ITER_METHOD)):
            rate = analytics.rate_tp if method == TP_METHOD else analytics.rate_sp
            for k in range(cfg.K):
                value, predicted = float(empirical[i, k]), float(analytic[i][k])
                if experiment == "rate_vs_m":
                    value, predicted = rate(cfg, value, cap), rate(cfg, predicted, cap)
                records.append(MetricsRecord(
                    experiment=experiment, method=method, sweep_var="M", sweep_value=float(M),
                    user=f"0:{k}", metric="rate" if experiment == "rate_vs_m" else "sinr",
                    value=value,
                    trials=options.trials, analytic_value=predicted,
                ))
    return records


def _records_sinr_cdf(config, options):
    samples = {TP_METHOD: [], SP_METHOD: [], ITER_METHOD: []}

    layouts = [place_users(config, substream(config.seed, "sinr_cdf", p, "layout"))
               for p in range(options.placements)]
    for p, bench in enumerate(_make_benches(config, options, layouts)):
        keys = [(config.seed, "sinr_cdf", p, t) for t in range(options.inner_realizations)]
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
                trials=options.inner_realizations, analytic_value=None,
            ))
    return records


def _records_ber_vs_k(config, options):
    records = []
    for ki, K in enumerate(options.k_values):
        cfg = replace(config, K=K, M=options.m_per_k * K)
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


def _sum_rate_bench(cfg: SystemConfig, layout, options: RunOptions) -> _Bench:
    """All-TP, all-SP and hybrid pilots at the min(L, 7) metric BSs of one layout.

    Gaussian payloads at unit power.  Each metric BS j draws its channel
    from ("ch", j) and its noise from ("n", j).
    """
    n_metric = min(cfg.L, 7)
    beta_raw = path_loss(layout, cfg.path_loss_exponent)
    lam2, mu2 = analytics.optimal_rho(
        cfg.M, n_metric, cfg.K, cfg.C_u, approximate=options.rho_form == "approx"
    )
    unit_powers = uniform_power(cfg.L, cfg.K, lam2)

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
    schemes = (
        _Scheme(ALL_TP_METHOD, "tp", book_full, beta_raw, all_tp(cfg.L, cfg.K)),
        _Scheme(ALL_SP_METHOD, "sp", book_full, beta_raw.normalized(cfg.omega),
                all_sp(cfg.L, cfg.K)),
        _Scheme(HYBRID_METHOD, "hy", book_hyb, beta_hyb, partition),
    )
    streams = tuple((("ch", j), ("n", j)) for j in range(n_metric))
    return _Bench(cfg, unit_powers, schemes, streams, "gaussian")


def _records_sum_rate_vs_sir(config, options):
    records = []
    for ri, radius in enumerate(options.radii_m):
        cfg = replace(config, scenario=Scenario2(cell_radius_m=config.scenario.cell_radius_m,
                                                 user_circle_radius_m=radius))
        layout = place_users(cfg, substream(cfg.seed, "sum_rate", ri, "layout"))
        bench = _sum_rate_bench(cfg, layout, options)
        # the all-SP gains are the power-controlled map
        sir_db = 10.0 * math.log10(received_sir(bench.schemes[1].gains, cfg.omega, 0))

        keys = [(cfg.seed, "sum_rate", ri, t) for t in range(options.trials)]
        totals, _errs = _sum_trials(bench, keys)
        sinr = totals[:, 0] / totals[:, 1]

        for i, (scheme, n) in enumerate(zip(bench.schemes, _payload_lengths(bench))):
            # the pre-log n / C, times an array log2, not the scalar rate rule:
            # numpy's log2 and math.log2 differ in the last bit on some inputs,
            # which would move the output
            total_rate = float(np.sum(n / cfg.C * np.log2(1.0 + sinr[i])))
            records.append(MetricsRecord(
                experiment="sum_rate_vs_sir", method=scheme.method, sweep_var="sir_rx_db",
                sweep_value=float(sir_db), user="all", metric="sum_rate",
                value=total_rate, trials=options.trials, analytic_value=None,
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
