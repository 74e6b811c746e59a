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
without the sweep point: one trial, and one payload draw, serves every
radius and every entry.

Every experiment draws, receives and scores its trials in one kernel,
_run_trials, over a bench: a table of the pilot schemes it compares
(_Scheme), each metric BS's substream of fading and noise, and the payload
distribution.  Each entry is one method, and an entry that iterates, with a
prediction profile per metric BS, one more: the iterative estimator on its
block.  A bench spans one or more user placements: each entry's gains, and
each profile, carry a leading placement axis, and a trial is a (placement,
key) pair, run on its placement's gains.  The reference-BS experiments
compare TP, SP and iterated SP at BS 0 with QAM payloads on one bench per
sweep point (_make_bench), which builds the data/pilot split, powers and
pilot book once and runs one prediction recursion over the point's
placements: sinr_vs_m and rate_vs_m have one placement per M, sinr_cdf all
its placements on one bench, each placement's trials summed apart, and
ber_vs_k one placement per trial, all of one K in one _sum_trials call.
sum_rate_vs_sir compares all-TP, all-SP and hybrid pilots at its 7 metric
BSs with Gaussian payloads, one entry per (radius, method), on one
placement (_sum_rate_bench).

The schemes of a bench see common random numbers.  A scheme's tag names
its frame stream: per trial, one payload draw serves every entry of a tag,
as long as the longest payload among them, and an entry sends, and is
scored on, the trailing symbols of each user's row that its payload length
asks for; entries on one (tag, book, Partition object) send one frame
matrix.  The reference benches give TP and SP their own tags;
sum_rate_vs_sir gives all its entries one.  At each metric BS one
unit-variance fading matrix Z and one noise block W per trial serve every
scheme, so the draws are shared across schemes and, in sum_rate_vs_sir,
across radii.  A scheme's gains are folded into its frames: its block would
be Z @ (sqrt(beta) * S) + W.  No block is formed.  Every receiver is linear
in it, so each trial and metric BS makes one projection of its draws onto
the estimator columns of every scheme's scored users (estimators.project),
which gives their estimates and matched filters from one
synthesize_received call, one more product, and one product per frame
matrix.

Z and W are not drawn either, only the r x d factor R of X = [Z, W / sigma]
= Q R, d = L*K + C_u and r = min(M, d), from its exact law
(sysmodel.draw_channels), so a trial's cost does not grow with M and no
output is a large-M approximation.  Every output reads X only through its
Gram matrix: the estimates' norms and inner products, the matched filters
conj(Y E)^T Y and the desired-signal gain ||z||^2 / M, which R gives as X
does.  Receivers take M from the config, not from the estimates' row count.

The receivers' constants (estimators.Receiver: SP users, pilot rows and
matched-filter gains, as arrays over the bench's placements) are built once
per batch of trials.  Per trial and metric BS, the cells of all entries of
one (tag, payload length) are received in one estimators.receive call and
scored in one pass, against the payloads they share, as soon as they are
made, so a trial's frames, draws and outputs do not outlive it.  An entry that
iterates is projected at metric BS j onto the users its estimator keeps for
cell j at the trial's placement (iterative.reduced_users); its one-shot
outputs are received from cell j's users of that projection, and
reduce_block turns it into the G and R the estimator reads.  Those G and R,
with the trial's payloads, bits and channel gains, outlive the trial: the
estimator runs once per (entry, BS) on a batch of as many trials as fit
_CHUNK_BYTES at _trial_bytes each, each trial under its placement's profile
row.  The estimator stacks the trials whose placements give it one schedule
and runs its products as stacks of per-trial products, so a trial's
energies have the same bits in any batch, and they are added to the totals
in trial order, so the output does not depend on the batch size.

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
from .estimators import Projection, estimator_columns, project, receive, receiver
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
# (traced peak of its 20 trials at M = 200, seed 5: 1,271 KiB).
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
    selection: str = "fixed"  # the iterative estimator's feedback set, iterative.SELECTION_RULES
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
    """One entry of a bench's scheme table: a pilot scheme, scored as one method.

    tag names the entry's frame stream, which it shares with every entry of
    the same tag: per trial, one payload draw from the (tag + "-frames")
    substream, as long as the longest payload of the tag's entries, of which
    the entry sends the trailing PilotBook.payload_length symbols per user.
    Its frames follow partition and book, one frame matrix per (tag, book,
    Partition object), are sent over the square roots of its gains, and are
    received under partition and book.  gains[p] is its (L, L, K) gain
    map at the bench's placement p.  An entry that iterates has iterated =
    (method, profiles): profiles[j] is the prediction profile of its gains
    at metric BS j, a batch of one layout per placement, and at every
    metric BS the iterative estimator also runs on its projection, scored
    as that second method.
    """

    method: str
    tag: str
    book: waveform.PilotBook
    gains: np.ndarray
    partition: Partition
    iterated: tuple | None = None


@dataclass(frozen=True)
class _Bench:
    """What a run of trials shares: its scheme table and metric BSs.

    The schemes are those of one or more user placements, each entry with
    its gains at every placement, and of one layout or of several
    (sum_rate_vs_sir's radii, one placement), each entry with its own
    gains.  streams[j] is the substream tag of metric BS j's draws
    (sysmodel.draw_channels), whose cell's users are scored.  data_dist is
    the payload distribution of waveform.assemble_frames.
    """

    config: SystemConfig
    powers: PowerAllocation
    schemes: tuple
    streams: tuple
    data_dist: str


def _make_bench(config: SystemConfig, options: RunOptions, layouts: list) -> _Bench:
    """The reference bench over the user placements `layouts`, from one set-up pass.

    TP and SP at BS 0, QAM payloads, and the SP entry iterated.  The state
    that depends on the config alone (data/pilot split, powers, pilot book)
    is built once, each entry's gains carry one map per placement, and one
    prediction recursion runs over the placements' gains at BS 0.
    """
    L, K = config.L, config.K
    powers = PowerAllocation(*analytics.optimal_rho(config.M, L, K, config.C_u))
    book = waveform.make_pilot_books(config)
    gains = np.stack([path_loss(layout, config.path_loss_exponent).normalized(config.omega).beta
                      for layout in layouts])
    profile = iterative.predict_profile(gains[:, 0].reshape(len(layouts), -1), powers, config,
                                        options.selection)
    schemes = (_Scheme(TP_METHOD, "tp", book, gains, all_tp(L, K)),
               _Scheme(SP_METHOD, "sp", book, gains, all_sp(L, K), (ITER_METHOD, (profile,))))
    return _Bench(config, powers, schemes, (("channels",),), "qam")


def _methods(bench: _Bench) -> list:
    """The methods of _run_trials's method axis, as (name, entry, payload symbols per user).

    Every entry of the table, then the iterated pass of each entry that
    iterates, in table order.
    """
    schemes, C_u = bench.schemes, bench.config.C_u
    named = [(s.method, s) for s in schemes] + [(s.iterated[0], s) for s in schemes if s.iterated]
    return [(name, s, s.book.payload_length(s.partition, C_u)) for name, s in named]


def _run_trials(bench: _Bench, trials: list):
    """T trials of a bench, one per (placement, key) pair: drawn, received and scored.

    A trial draws its randomness from its key's substreams and runs on its
    placement's gains.  Per trial and tag, one payload draw serves every
    entry of that tag, and per (tag, book, Partition object) one frame
    matrix.  Per trial and metric BS j, one draw (streams[j]) serves every
    scheme, whose gains at BS j are folded into its frame rows, and one
    projection of it (estimators.project) makes the estimates and matched
    filters of every scheme's scored users.  Their cells' users are then
    received and scored in one pass per (tag, payload length), against the
    payloads they share.  A user's desired-signal gain ||h||^2 / (M beta)
    is ||z||^2 / M, the squared norm of its column of the draw, the same
    for every scheme.  Returns (sig_res, errs): the (T, methods, 2, J, K)
    signal and residual energies per trial, method, metric BS and user, and
    the (methods, 2) bit errors and bit count per method over the batch
    (zero for Gaussian payloads), methods as _methods lists them.
    """
    cfg, powers, schemes = bench.config, bench.powers, bench.schemes
    for i, s in enumerate(schemes):
        # the iterative estimator reads every user's superimposed pilot
        if s.iterated and not s.partition.sp.all():
            l, k = np.argwhere(~s.partition.sp)[0].tolist()
            raise ValueError(f"entry {i} ({s.method!r}) iterates, but its user "
                             f"({l}, {k}) has no superimposed pilot")
    K, M, C_u, P, N = cfg.K, cfg.M, cfg.C_u, cfg.P, cfg.L * cfg.K
    sigma = math.sqrt(cfg.sigma2)
    T, J, n_schemes = len(trials), len(bench.streams), len(schemes)
    qam = bench.data_dist == "qam"
    n_bits = waveform.bits_per_symbol(P)
    cells = np.arange(J * K).reshape(J, K)
    placements = np.array([p for p, _ in trials], dtype=np.intp)
    lengths = [n for _, _, n in _methods(bench)[:n_schemes]]
    # each tag's payload length, its entries' longest; its frame matrices,
    # one per (tag, book, Partition object); and the entries of each (tag,
    # payload length)
    drawn, frame_sets, members = {}, {}, {}
    for i, (s, n) in enumerate(zip(schemes, lengths)):
        drawn[s.tag] = max(drawn.get(s.tag, 0), n)
        frame_sets.setdefault((s.tag, id(s.book), s.partition), s)
        members.setdefault((s.tag, n), []).append(i)
    # sqrt(beta) of every scheme's users at every placement and metric BS,
    # the frame row scales
    roots = np.sqrt(np.stack([s.gains[:, :J].reshape(-1, J, N) for s in schemes]))
    # each scheme's estimator columns at each placement and metric BS, those
    # of its cell's users; schemes on one book and one Partition object
    # share them
    unique = {(id(s.book), s.partition): s for s in schemes}
    shared = {key: [estimator_columns(s.book, s.partition, powers, cell, C_u) for cell in cells]
              for key, s in unique.items()}
    columns = {p: [[shared[id(s.book), s.partition][j] for s in schemes] for j in range(J)]
               for p in set(placements.tolist())}
    del unique, shared
    # counts[j, p, i] users of scheme i are projected at BS j and placement
    # p, cell j's.  An iterated entry i is projected onto the users its
    # estimator keeps, and scored[i, j][p] are cell j's among them.  Each
    # trial's G and R over them go to stacks[i, j]
    iterated = [i for i, s in enumerate(schemes) if s.iterated]
    counts = np.full((J, schemes[0].gains.shape[0], n_schemes), K)
    scored, stacks = {}, {}
    for i in iterated:
        s = schemes[i]
        for j, profile in enumerate(s.iterated[1]):
            stacks[i, j] = ([], [])
            scored[i, j] = np.zeros((counts.shape[1], K), dtype=np.intp)
            for p, at_p in columns.items():
                users = iterative.reduced_users(profile.layout(p), cells[j])
                at_p[j][i] = estimator_columns(s.book, s.partition, powers, users, C_u)
                scored[i, j][p] = np.nonzero(cells[j][:, np.newaxis] == users)[1]
                counts[j, p, i] = users.size
    # where each scheme's users start in the projection
    starts = np.cumsum(counts, axis=2) - counts
    # the entries of one (tag, payload length) are received and scored
    # together: their receiver at each BS (over placements), the projected
    # users it reads at each BS and placement, and their energies and bit
    # errors over the batch
    groups = [(tag, n, entries,
               [receiver([(schemes[i].book, schemes[i].partition, j, schemes[i].gains[:, j, j])
                          for i in entries], powers, cfg) for j in range(J)],
               [np.concatenate([starts[j, :, i, np.newaxis] + scored.get((i, j), np.arange(K))
                                for i in entries], axis=1) for j in range(J)],
               np.empty((T, 2, J, len(entries), K)), np.zeros(len(entries), dtype=np.int64))
              for (tag, n), entries in members.items()]
    gain = np.empty((T, J, K))
    # each tag's payloads and bits at the metric cells: the current trial's,
    # or every trial's for the tag of an entry that iterates
    held = {schemes[i].tag for i in iterated}
    sent = {tag: (np.empty((T if tag in held else 1, J, K, n), dtype=complex),
                  np.empty((T if tag in held else 1, J, K, n_bits * n), dtype=np.uint8)
                  if qam else None) for tag, n in drawn.items()}
    # the frame matrices of the current trial, one buffer for the batch; each
    # scheme's entry of frames is its set's matrix, the object project keys
    # its shared products on
    frame_buffer = dict(zip(frame_sets, np.empty((len(frame_sets), N, C_u), dtype=complex)))
    frames = [frame_buffer[s.tag, id(s.book), s.partition] for s in schemes]
    for t, (p, key) in enumerate(trials):
        # one tag's draw at a time, freed once its frames are made
        for tag, n in drawn.items():
            data, bits = waveform._draw_payloads(N, n, P, bench.data_dist,
                                                 substream(*key, f"{tag}-frames"))
            at = t if tag in held else 0
            sent[tag][0][at] = data[: J * K].reshape(J, K, n)
            if qam:
                sent[tag][1][at] = bits[: J * K].reshape(J, K, -1)
            for frame_set, s in frame_sets.items():
                if frame_set[0] == tag:
                    frame_buffer[frame_set][...] = waveform.assemble_frames(
                        cfg, s.book, powers, data, s.partition)
            del data, bits
        for j, tag in enumerate(bench.streams):
            factor = draw_channels(cfg, substream(*key, *tag))
            # the cell's columns copied and read as rows: how ||z||^2 rounds
            # depends on that layout (contiguous rows at K = 1)
            z = np.ascontiguousarray(factor[:, cells[j]]).T
            gain[t, j] = np.vecdot(z, z).real / M
            # the previous BS's projection is freed only as this one replaces
            # it, so the heap does not shrink to the system and regrow, page
            # fault by page fault, at every BS
            projection = project(factor, sigma, frames, roots[:, p, j], columns[p][j])
            del factor, z
            estimates, matched = projection
            for i in iterated:
                users = slice(starts[j, p, i], starts[j, p, i] + counts[j, p, i])
                # G copied, so the trial's projection does not outlive it
                G, R = iterative.reduce_block(Projection(estimates[:, users],
                                                         matched[users].copy()))
                stacks[i, j][0].append(G)
                stacks[i, j][1].append(R)
            for tag, n, entries, rx, users, energies, wrong in groups:
                x_tilde = receive(projection, users[j][p], rx[j], p).reshape(len(entries), K, n)
                data, bits = sent[tag]
                at = t if tag in held else 0
                # every entry of the group is scored against the same payloads
                energies[t, 0, j], energies[t, 1, j] = signal_residual_power(
                    x_tilde, data[at, j, :, data.shape[-1] - n :], gain[t, j])
                if qam:
                    wrong += np.sum(waveform.demap(x_tilde, P).reshape(len(entries), -1)
                                    != bits[at, j, :, bits.shape[-1] - n_bits * n :].reshape(-1),
                                    axis=1)
    del frame_buffer, frames, columns
    sig_res = np.empty((T, n_schemes + len(iterated), 2, J, K))
    errs = np.zeros((n_schemes + len(iterated), 2), dtype=np.int64)
    for _, n, entries, _, _, energies, wrong in groups:
        sig_res[:, entries] = np.moveaxis(energies, 3, 1)
        if qam:
            errs[entries, 0] = wrong
            errs[entries, 1] = T * J * K * n_bits * n
    # one pass per (entry, BS) over the batch, each trial under its
    # placement's profile row, or under one layout's for a batch of one
    # placement
    layouts = placements[0] if np.all(placements == placements[0]) else placements
    for m, i in enumerate(iterated, n_schemes):
        s, n = schemes[i], lengths[i]
        data, bits = sent[s.tag]
        pilots = s.book.sp_columns(slice(None))
        for j, profile in enumerate(s.iterated[1]):
            # the stacks are freed as the pass returns
            x_tilde = iterative.iterative_estimate(*stacks.pop((i, j)), pilots,
                                                   profile.layout(layouts), cells[j])
            sig_res[:, m, 0, j], sig_res[:, m, 1, j] = signal_residual_power(
                x_tilde, data[:, j, :, data.shape[-1] - n :], gain[:, j])
            if qam:
                errs[m] += count_ber(x_tilde, bits[:, j, :, bits.shape[-1] - n_bits * n :], P)
    return sig_res, errs


def _trial_bytes(bench: _Bench) -> int:
    """Bytes one trial adds to a batch of _run_trials; none of them grow with M.

    A trial's payloads, frames, draws and projections are freed before the
    next trial's are made, and none of them grows with M either: the draw at
    a metric BS is the (r, d) factor of sysmodel.draw_channels, r = min(M,
    d) and d = L*K + C_u, so at most d * d complex numbers (135 x 135, 285
    KiB, for sinr_vs_m at M = 200).  Each trial keeps its energies and its
    metric users' channel gains; for each tag of an entry that iterates, its
    cells' payloads and bits at every metric BS, once however many entries
    carry the tag; and for each entry that iterates and metric BS what the
    pass reads: the reduce_block G and R over the n users the estimator
    keeps, at most the largest such set over the bench's placements.  The
    pass adds at most five (n, C_u) working arrays (G's basis rows and the
    users' pilot rows among them), its outputs, and the demapped copy of
    the bits.  A payload is counted at C_u symbols, its longest.
    """
    cfg = bench.config
    K, C_u, J, payloads = cfg.K, cfg.C_u, len(bench.streams), cfg.K * cfg.C_u
    per_payload = 16 * payloads + waveform.bits_per_symbol(cfg.P) * payloads
    total = 8 * J * K * (2 * len(_methods(bench)) + 1)
    total += J * per_payload * len({s.tag for s in bench.schemes if s.iterated})
    for s in bench.schemes:
        for j, profile in enumerate(s.iterated[1] if s.iterated else ()):
            n = max(iterative.reduced_users(profile.layout(p), j * K + np.arange(K)).size
                    for p in range(profile.order.shape[0]))
            total += 16 * (n * (C_u + n) + 5 * n * C_u) + per_payload
    return total


def _sum_trials(bench: _Bench, trials: list):
    """Energies and bit errors of the (placement, key) trials at one bench, summed.

    The trials run in chunks of as many trials as fit _CHUNK_BYTES at
    _trial_bytes each, at least one.  Each trial's energies are added in
    trial order, so the totals do not depend on the chunk size.  Returns
    ((methods, 2, J, K), (methods, 2)), as _run_trials.
    """
    step = max(1, _CHUNK_BYTES // _trial_bytes(bench))
    sig_total = err_total = 0  # the first trial's arrays, as 0 + x == x
    for lo in range(0, len(trials), step):
        sig_res, errs = _run_trials(bench, trials[lo : lo + step])
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
    metric = "rate" if experiment == "rate_vs_m" else "sinr"
    for mi, M in enumerate(options.m_values):
        cfg = replace(config, M=M)
        layout = place_users(cfg, substream(cfg.seed, experiment, "layout", mi))
        bench = _make_bench(cfg, options, [layout])
        J, K = len(bench.streams), cfg.K
        # each entry's closed form for its pilots at the metric BSs, then each
        # iterated pass's prediction after the last sweep
        gains = [PathLossMap(s.gains[0]) for s in bench.schemes]
        analytic = [analytics.sinr_sp_finite_m(g, bench.powers, cfg)[:J]
                    if s.partition.sp.all() else analytics.sinr_tp_asymptotic(g, cfg)[:J]
                    for s, g in zip(bench.schemes, gains)]
        analytic += [1.0 / np.stack([profile.interference[0, -1, j * K : (j + 1) * K]
                                     for j, profile in enumerate(s.iterated[1])])
                     for s in bench.schemes if s.iterated]
        analytic = np.stack(analytic)
        trials = [(0, (cfg.seed, experiment, mi, t)) for t in range(options.trials)]
        totals, _errs = _sum_trials(bench, trials)
        empirical = totals[:, 0] / totals[:, 1]
        if metric == "rate":
            n = np.array([n for _, _, n in _methods(bench)])[:, np.newaxis, np.newaxis]
            empirical = analytics.rate(cfg, empirical, n, cap)
            analytic = analytics.rate(cfg, analytic, n, cap)
        for (method, _, _), values, predicted in zip(_methods(bench), empirical, analytic):
            for (j, k), value in np.ndenumerate(values):
                records.append(MetricsRecord(
                    experiment=experiment, method=method, sweep_var="M", sweep_value=float(M),
                    user=f"{j}:{k}", metric=metric, value=float(value), trials=options.trials,
                    analytic_value=float(predicted[j, k]),
                ))
    return records


def _records_sinr_cdf(config, options):
    samples = {}
    layouts = [place_users(config, substream(config.seed, "sinr_cdf", p, "layout"))
               for p in range(options.placements)]
    bench = _make_bench(config, options, layouts)
    for p in range(options.placements):
        # each placement's sums apart: a sample is one placement's SINR
        trials = [(p, (config.seed, "sinr_cdf", p, t)) for t in range(options.trials)]
        totals, _errs = _sum_trials(bench, trials)
        sinrs = totals[:, 0] / totals[:, 1]
        for (method, _, _), sinr in zip(_methods(bench), sinrs):
            samples.setdefault(method, []).extend(sinr.reshape(-1))

    records = []
    for method, sinrs in samples.items():
        values, probs = empirical_cdf(10.0 * np.log10(sinrs))
        for v, pr in zip(values, probs):
            records.append(MetricsRecord(
                experiment="sinr_cdf", method=method, sweep_var="prob", sweep_value=float(pr),
                user="all", metric="sinr_db", value=float(v), trials=options.trials,
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
        bench = _make_bench(cfg, options, layouts)
        # trial t runs on placement t
        _totals, errs = _sum_trials(bench, [(t, (cfg.seed, "ber_vs_k", ki, t))
                                            for t in range(options.trials)])
        for (method, _, _), (errors, count) in zip(_methods(bench), errs):
            records.append(MetricsRecord(
                experiment="ber_vs_k", method=method, sweep_var="K", sweep_value=float(cfg.K),
                user="all", metric="ber", value=float(errors / count), trials=options.trials,
            ))
    return records


def _sum_rate_bench(cfg: SystemConfig, layouts: list) -> _Bench:
    """All-TP, all-SP and hybrid pilots at the min(L, 7) metric BSs of each layout.

    One bench of one placement for the whole sweep: its schemes are the
    (layout, method) pairs, three per layout in layout order, all on the
    tag "common", so every entry sends one payload draw per trial.  Gaussian
    payloads at unit power.  Each metric BS j draws its fading and noise
    factor from ("ch", j), shared by every layout's schemes.  All layouts
    share one all-TP and one all-SP Partition, so _run_trials builds their
    estimator columns and frame matrices once.
    """
    n_metric = min(cfg.L, 7)
    powers = PowerAllocation(*analytics.optimal_rho(cfg.M, n_metric, cfg.K, cfg.C_u))
    # one full-length book serves both baselines: outer-tier cells reuse
    # superimposed columns when L*K exceeds C_u
    book_full = waveform.make_pilot_books(cfg, allow_sp_reuse=True)
    tp, sp = all_tp(cfg.L, cfg.K), all_sp(cfg.L, cfg.K)
    schemes = []
    for i, layout in enumerate(layouts):
        beta_raw = path_loss(layout, cfg.path_loss_exponent)
        controlled = beta_raw.normalized(cfg.omega)
        # greedy SP mask of the metric cells, padded with TP rows for the outer tier
        greedy = greedy_partition(beta_raw.beta[:n_metric, :n_metric, :], cfg, powers).partition
        partition = Partition(np.pad(greedy.sp, ((0, cfg.L - n_metric), (0, 0))))
        # power control on the SP users only
        beta_hyb = np.where(partition.sp, controlled.beta, beta_raw.beta)
        schemes += [
            _Scheme(ALL_TP_METHOD, "common", book_full, beta_raw.beta[np.newaxis], tp),
            _Scheme(ALL_SP_METHOD, "common", book_full, controlled.beta[np.newaxis], sp),
            _Scheme(HYBRID_METHOD, "common", waveform.make_pilot_books(cfg, partition=partition),
                    beta_hyb[np.newaxis], partition),
        ]
    streams = tuple(("ch", j) for j in range(n_metric))
    return _Bench(cfg, powers, tuple(schemes), streams, "gaussian")


def _records_sum_rate_vs_sir(config, options):
    layouts = [place_users(replace(config, scenario=Scenario2(
                   cell_radius_m=config.scenario.cell_radius_m, user_circle_radius_m=radius)),
                   substream(config.seed, "sum_rate", ri, "layout"))
               for ri, radius in enumerate(options.radii_m)]
    bench = _sum_rate_bench(config, layouts)
    trials = [(0, (config.seed, "sum_rate", t)) for t in range(options.trials)]
    totals, _errs = _sum_trials(bench, trials)
    sinr = totals[:, 0] / totals[:, 1]

    records = []
    for (method, s, n), method_sinr in zip(_methods(bench), sinr):
        # the sweep value is the SIR at the centre BS under power control,
        # which every entry's gains give for its layout
        controlled = PathLossMap(s.gains[0]).normalized(config.omega)
        sir_db = 10.0 * math.log10(received_sir(controlled, config.omega, 0))
        records.append(MetricsRecord(
            experiment="sum_rate_vs_sir", method=method, sweep_var="sir_rx_db",
            sweep_value=float(sir_db), user="all", metric="sum_rate",
            value=float(np.sum(analytics.rate(config, method_sinr, n))), trials=options.trials,
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
