"""Monte-Carlo experiment engine and the five built-in experiments (EXPERIMENTS).

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

The schemes of a bench see common random numbers.  Per trial, one payload
draw from the bench's payload stream serves every entry, as long as the
longest payload among them, and an entry sends, and is scored on, the
trailing symbols of each user's row that its payload length asks for;
entries on one (book, Partition object) send one frame matrix.  At each
metric BS one unit-variance fading matrix Z and one noise block W per trial
serve every scheme, so the draws are shared across schemes and, in
sum_rate_vs_sir, across radii.  A scheme's gains are folded into its
frames: its block would be Z @ (sqrt(beta) * S) + W.  No block is formed.
Every receiver is linear in it, so each trial and metric BS makes one
projection of its draws onto the estimator columns of every scheme's
scored users (estimators.project), which gives their estimates and matched
filters from one synthesize_received call, one more product, and one
product per frame matrix.

Z and W are not drawn either, only the r x d factor R of X = [Z, W / sigma]
= Q R, d = L*K + C_u and r = min(M, d), from its exact law
(sysmodel.draw_channels), so a trial's cost does not grow with M and no
output is a large-M approximation.  Every output reads X only through its
Gram matrix: the estimates' norms and inner products, the matched filters
conj(Y E)^T Y and the desired-signal gain ||z||^2 / M, which R gives as X
does.  Receivers take M from the config, not from the estimates' row count.

A bench is planned once, as it is built (_Bench), and the layers read its
plan instead of deciding again: the frame sets and the estimator column
sets, each numbered, with each entry's (frame set, column set) pair; the
column sets and frame row scales at every placement and metric BS; each
iterated entry's pass plan there (iterative.plan_pass), which names the
users its estimator keeps and the reported rows among them; and the
receivers' constants (estimators.Receiver: SP users, pilot rows and
matched-filter gains, as arrays over the bench's placements).  The trials
run in chunks, and a chunk in sub-batches whose stacked arrays fit what
_CHUNK_BYTES leaves beside the chunk's pass inputs.  Only the keyed draws
are made trial by trial: the payloads, from the trial's own substream, and
at each metric BS the factor of its fading and noise, with the two
products that read it (estimators.project).  Every other stage
runs once per sub-batch on stacks of its trials' arrays: the modulation,
the frames, the products of frames and estimator columns, the matched
filters, and, per metric BS, one estimators.receive call and one scoring
pass per payload length, against the payloads every entry shares,
written straight into the kernel's outputs.  project reads the sub-batch's
frame matrices as one (frame set, trial) array, and the column sets and
each entry's pair from the plan.  Each stacked product is
a stack of the per-trial products, so a trial's outputs have the same bits
in any sub-batch, and a sub-batch's frames, draws and outputs do not
outlive it.  Every trial's payloads and bits at the metric cells, and its
channel gains, are kept in one store for the whole chunk.  An entry that
iterates is projected at metric BS j onto the users its plan keeps for
cell j at the trial's placement; its one-shot outputs are received from
cell j's users of that projection, and reduce_block turns it into the G
and R the estimator reads.  Those G and R outlive the sub-batch too: the
estimator runs once per (entry, BS) on a chunk of as many trials as fit
_CHUNK_BYTES at _Bench.trial_bytes each, each trial under its placement's
plan.  The estimator stacks the trials whose plans give it one
schedule and runs its products as stacks of per-trial products, so a
trial's energies have the same bits in any chunk, and they are added to the
totals in trial order, so the output does not depend on the chunk size.

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
    PowerAllocation,
    Scenario1,
    Scenario2,
    SystemConfig,
    draw_channels,
    path_loss,
    place_users,
    power_control,
    received_sir,
)

TP_METHOD = "tp-ls"
SP_METHOD = "sp-noniter"
ITER_METHOD = "sp-iter"
ALL_TP_METHOD = "all-tp"
ALL_SP_METHOD = "all-sp"
HYBRID_METHOD = "hybrid"

# budget of one chunk of _run_trials: as many trials as fit at
# _Bench.trial_bytes each, and beside what they keep for the pass,
# sub-batches of as many as fit at _Bench.staged_bytes with one draw.  The
# chunks and sub-batches it gives the bench's workloads are pinned by
# tests/test_simharness.py (BENCH_BATCHES).
_CHUNK_BYTES = 1536 * 1024


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
        for name in ("trials", "placements"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
                       for v in values):
                raise ValueError(f"{name} must be integers >= 1, got {getattr(self, name)!r}")
        if not all(0 < v < math.inf for v in self.radii_m):
            raise ValueError(f"radii_m must be positive and finite, got {self.radii_m!r}")


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

    The entry sends the trailing PilotBook.payload_length symbols per user
    of the bench's one payload draw per trial.  Its frames follow partition
    and book, one frame matrix per (book, Partition object), are sent over
    the square roots of its gains, and are received under partition and
    book.  gains[p] is its (L, L, K) gain map at the bench's placement p.
    An entry that iterates has iterated = (method, profiles): profiles[j] is
    the prediction profile of its gains at metric BS j, a batch of one
    layout per placement, and at every metric BS the iterative estimator
    also runs on its projection, scored as that second method.
    """

    method: str
    book: waveform.PilotBook
    gains: np.ndarray
    partition: Partition
    iterated: tuple | None = None


class _Bench:
    """What a run of trials shares, and what _run_trials reads of it, planned once.

    The scheme table is that of one or more user placements, each entry
    with its gains at every placement, and of one layout or of several
    (sum_rate_vs_sir's radii, one placement), each entry with its own
    gains.  streams[j] is the substream key of metric BS j's draws
    (sysmodel.draw_channels), whose cell's users are scored; payload_stream
    is that of the one payload draw per trial that every entry sends, and
    data_dist its distribution (waveform.assemble_frames).

    methods lists the methods of _run_trials's method axis, as (name,
    entry, payload symbols per user): every entry of the table, then the
    iterated pass of each entry that iterates, in table order.  drawn is
    the payload symbols drawn per user, the entries' longest.  Each entry i
    sends and projects through pairs[i] = (frame set, column set).  Frame
    sets are numbered in table order, one per (book, Partition object),
    and frame_sets holds each set's first entry; column sets are numbered
    in table order too, one per (book, Partition object) of the
    entries that do not iterate and one per entry that does, so the entries
    of one pair share their S E product (estimators.project).
    columns[p][j][c] are column set c's estimator columns at placement p and
    metric BS j: its cell's users, or an iterated entry's kept users.
    roots holds sqrt(beta) of every entry's users at every placement and
    metric BS, the frame row scales.  An entry i that iterates has a pass
    plan at each BS j and placement p (passes[i, j][p], iterative.plan_pass,
    for cell j's users): it is projected there onto the users the plan
    keeps, and cell j's are scored, at the plan's reported rows.
    counts[j, p, i] users of entry i are projected, from starts[j, p, i] on.
    The entries of one payload length are received and scored together
    (groups): their receiver at each BS, over placements, and the
    projected users it reads at each BS and placement.  held_bytes,
    trial_bytes, staged_bytes and draw_bytes count what a trial holds, as
    the comment on them says.  An entry that iterates over a user without
    a superimposed pilot is refused here, before any trial draws.
    """

    def __init__(self, config: SystemConfig, powers: PowerAllocation, schemes: tuple,
                 streams: tuple, payload_stream: str, data_dist: str):
        for i, s in enumerate(schemes):
            # the iterative estimator reads every user's superimposed pilot
            if s.iterated and not s.partition.sp.all():
                l, k = np.argwhere(~s.partition.sp)[0].tolist()
                raise ValueError(f"entry {i} ({s.method!r}) iterates, but its user "
                                 f"({l}, {k}) has no superimposed pilot")
        self.config, self.powers, self.schemes = config, powers, schemes
        self.streams, self.payload_stream, self.data_dist = streams, payload_stream, data_dist
        K, C_u, N, J = config.K, config.C_u, config.L * config.K, len(streams)
        n_placements = schemes[0].gains.shape[0]
        cells = np.arange(J * K).reshape(J, K)
        named = ([(s.method, s) for s in schemes]
                 + [(s.iterated[0], s) for s in schemes if s.iterated])
        self.methods = [(name, s, s.book.payload_length(s.partition, C_u)) for name, s in named]
        self.drawn = max(n for _, _, n in self.methods)
        frame_of, column_of, members = {}, {}, {}
        for i, (_, _, n) in enumerate(self.methods[: len(schemes)]):
            members.setdefault(n, []).append(i)
        self.pairs = [(frame_of.setdefault((id(s.book), s.partition), len(frame_of)),
                       column_of.setdefault(i if s.iterated else (id(s.book), s.partition),
                                            len(column_of)))
                      for i, s in enumerate(schemes)]
        sends = [f for f, _ in self.pairs]
        self.frame_sets = [schemes[sends.index(f)] for f in range(len(frame_of))]
        self.iterated = [i for i, s in enumerate(schemes) if s.iterated]
        self.roots = np.sqrt(np.stack([s.gains[:, :J].reshape(-1, J, N) for s in schemes]))
        # each column set at each placement and BS, made by its first entry:
        # an iterated entry's from its pass plan there, for its cell's users
        self.columns = [[[] for _ in range(J)] for _ in range(n_placements)]
        self.counts = np.full((J, n_placements, len(schemes)), K)
        self.passes = {}
        for i, s in enumerate(schemes):
            if self.pairs[i][1] < len(self.columns[0][0]):
                continue  # an earlier entry's set
            for j in range(J):
                if s.iterated:
                    self.passes[i, j] = [iterative.plan_pass(s.iterated[1][j].layout(p), cells[j])
                                         for p in range(n_placements)]
                    users = [users for users, *_ in self.passes[i, j]]
                    self.counts[j, :, i] = [u.size for u in users]
                    sets = [estimator_columns(s.book, s.partition, powers, u, C_u) for u in users]
                else:
                    sets = [estimator_columns(s.book, s.partition, powers, cells[j], C_u)
                            ] * n_placements
                for p, E in enumerate(sets):
                    self.columns[p][j].append(E)
        self.starts = np.cumsum(self.counts, axis=2) - self.counts
        scored = {key: np.stack([rows for _, rows, *_ in plans])
                  for key, plans in self.passes.items()}
        self.groups = [(n, entries,
                        [receiver([(schemes[i].book, schemes[i].partition, j,
                                    schemes[i].gains[:, j, j]) for i in entries], powers, config)
                         for j in range(J)],
                        [np.concatenate([self.starts[j, :, i, np.newaxis]
                                         + scored.get((i, j), np.arange(K))
                                         for i in entries], axis=1) for j in range(J)])
                       for n, entries in members.items()]
        # Bytes per trial, none of which grow with M.  held_bytes is what a
        # trial keeps from its sub-batch's stacked stages to the pass: its
        # energies and metric users' channel gains, the payloads and bits at
        # the metric cells, and per iterated entry and BS the reduce_block G
        # and R over the n users its plan keeps, at most the largest such set
        # over the placements.  trial_bytes adds what the pass adds: at most
        # five (n, C_u) working arrays (G's basis rows and the users' pilot
        # rows among them), its outputs and the demapped bits; a chunk of
        # _sum_trials holds as many trials as fit _CHUNK_BYTES at trial_bytes
        # each.  staged_bytes is what a trial holds only in its sub-batch's
        # stacked stages, freed before the pass: the frame matrices, each
        # group's outputs, the draws' cell columns, and the larger of a
        # payload draw with the frame matrix assembled from it and one BS's
        # projection (the stack, estimates and matched-filter products over
        # its e users), with the previous BS's where there are several.
        # draw_bytes is one trial's draw at one BS, the (r, d) factor of
        # sysmodel.draw_channels, r = min(M, d) and d = L*K + C_u.  Payloads
        # are counted at C_u symbols, their longest.
        n_bits = waveform.bits_per_symbol(config.P)
        d, r = N + C_u, min(config.M, N + C_u)
        per_payload = (16 + n_bits) * K * C_u
        self.held_bytes = 8 * J * K * (2 * len(self.methods) + 1) + J * per_payload
        pass_bytes = 0
        for (i, j) in self.passes:
            n = self.counts[j, :, i].max()
            self.held_bytes += 16 * n * (C_u + n)
            pass_bytes += 16 * 5 * n * C_u + per_payload
        self.trial_bytes = self.held_bytes + pass_bytes
        e = int(self.counts.sum(axis=2).max())
        self.staged_bytes = (16 * N * C_u * len(self.frame_sets)
                             + 16 * K * (sum(len(g[1]) * g[0] for g in self.groups) + r)
                             + max((32 + n_bits) * N * C_u, 16 * e * (2 * d + r))
                             + 16 * e * (r + C_u) * (J > 1))
        # one trial's factor at a time, and the normal draws above its diagonal
        self.draw_bytes = 16 * (2 * r * d - r * (r + 1) // 2)


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
    gains = np.stack([power_control(path_loss(layout, config.path_loss_exponent), config.omega)
                      for layout in layouts])
    profile = iterative.predict_profile(gains[:, 0].reshape(len(layouts), -1), powers, config,
                                        options.selection)
    schemes = (_Scheme(TP_METHOD, book, gains, all_tp(L, K)),
               _Scheme(SP_METHOD, book, gains, all_sp(L, K), (ITER_METHOD, (profile,))))
    return _Bench(config, powers, schemes, (("channels",),), "sp-frames", "qam")


def _run_trials(bench: _Bench, trials: list):
    """T trials of a bench, one per (placement, key) pair: drawn, received and scored.

    A trial draws its randomness from its key's substreams and runs on its
    placement's gains.  The trials run in sub-batches, as many as fit what
    _CHUNK_BYTES leaves beside the T trials' pass inputs and one draw, at
    the bytes the stacked stages hold per trial (_Bench.staged_bytes), at
    least one, in runs of equal length (_runs).  Only the keyed draws are
    made trial by trial: per trial one payload draw (payload_stream), which
    serves every entry, and per trial and metric BS j one factor of fading
    and noise (streams[j]), which serves every scheme, with its two products
    in estimators.project.  Everything else runs once per
    sub-batch on stacks of the trials' arrays: one frame matrix per frame
    set, into one (frame set, trial) buffer, and per metric BS and run of
    trials on one placement one projection (estimators.project) of the
    run's slice of that buffer, which makes the estimates and matched
    filters of every scheme's scored users, with each scheme's gains at BS
    j folded into its frame rows.  Their cells' users are received in one
    pass per payload length and run, and scored per payload length and
    sub-batch, against the trailing symbols of the draw, into the outputs,
    which are allocated before the first sub-batch.  A user's desired-signal
    gain ||h||^2 / (M beta) is ||z||^2 / M, the squared norm of its column
    of the draw, the same for every scheme.  Every stacked step is a stack
    of the per-trial steps, so a trial's outputs have the same bits in any
    sub-batch.  The iterative pass runs once per (entry,
    BS) over the batch, each trial under its placement's plan.  Returns
    (sig_res, errs): the (T, methods, 2, J, K) signal and residual energies
    per trial, method, metric BS and user, and the (methods, 2) bit errors
    and bit count per method over the batch (zero for Gaussian payloads),
    methods as _Bench.methods lists them.
    """
    cfg, powers, schemes = bench.config, bench.powers, bench.schemes
    K, M, C_u, P, N = cfg.K, cfg.M, cfg.C_u, cfg.P, cfg.L * cfg.K
    sigma = math.sqrt(cfg.sigma2)
    T, J = len(trials), len(bench.streams)
    qam = bench.data_dist == "qam"
    n_bits = waveform.bits_per_symbol(P)
    cells = np.arange(J * K).reshape(J, K)
    placements = np.array([p for p, _ in trials], dtype=np.intp)
    # the trials where the placement changes: a run of one placement's
    # trials is projected in one call
    cuts = (np.flatnonzero(placements[1:] != placements[:-1]) + 1).tolist()
    step = min(T, max(1, (_CHUNK_BYTES - T * bench.held_bytes - bench.draw_bytes)
                      // bench.staged_bytes))
    # What outlives a sub-batch is allocated once, before the first, so
    # that each sub-batch reuses the heap the one before it freed instead
    # of growing it past what the allocator trims.  The outputs, which each
    # payload length writes its energies and bit errors into; every trial's
    # payloads and bits at the metric cells; each trial's G and R per
    # (iterated entry, BS), over the users kept, in the leading block of the
    # largest such set's arrays; the frame matrices, the receivers' outputs
    # per payload length and the draws' cell columns of the sub-batch
    sig_res = np.empty((T, len(bench.methods), 2, J, K))
    errs = np.zeros((len(bench.methods), 2), dtype=np.int64)
    if qam:
        for n, entries, _, _ in bench.groups:
            errs[entries, 1] = T * J * K * n_bits * n
    gain = np.empty((T, J, K))
    sent = np.empty((T, J, K, bench.drawn), dtype=complex)
    sent_bits = np.empty((T, J, K, n_bits * bench.drawn), dtype=np.uint8) if qam else None
    stacks = {}
    for i in bench.iterated:
        for j in range(J):
            n = bench.counts[j, :, i].max()
            stacks[i, j] = np.empty((T, n, C_u), dtype=complex), np.empty((T, n, n), dtype=complex)
    buffer = np.empty((len(bench.frame_sets), step, N, C_u), dtype=complex)
    outputs = [np.empty((step, len(entries) * K, n), dtype=complex)
               for n, entries, _, _ in bench.groups]
    columns = np.empty((step, min(M, N + C_u), K), dtype=complex)
    for lo, hi in _runs(T, step):
        batch = trials[lo:hi]
        B = len(batch)
        # the draw is freed once the frames are made
        data, bits = waveform._draw_payloads(N, bench.drawn, P, bench.data_dist,
                                             [substream(*key, bench.payload_stream)
                                              for _, key in batch])
        sent[lo:hi] = data[:, : J * K].reshape(B, J, K, bench.drawn)
        if qam:
            sent_bits[lo:hi] = bits[:, : J * K].reshape(B, J, K, n_bits * bench.drawn)
        for f, s in enumerate(bench.frame_sets):
            buffer[f, :B] = waveform.assemble_frames(cfg, s.book, powers, data, s.partition)
        del data, bits
        edges = [0, *(cut - lo for cut in cuts if lo < cut < hi), B]
        for j, stream in enumerate(bench.streams):

            def factors(a, b):
                # each trial's factor, drawn as project reads it, and its
                # cell's columns copied: how ||z||^2 rounds depends on that
                # layout (contiguous rows at K = 1)
                for t in range(a, b):
                    factor = draw_channels(cfg, substream(*batch[t][1], *stream))
                    columns[t] = factor[:, cells[j]]
                    yield factor
                    del factor

            for a, b in zip(edges, edges[1:]):
                p = placements[lo + a]
                projection = project(factors(a, b), sigma, buffer[:, a:b], bench.pairs,
                                     bench.roots[:, p, j], bench.columns[p][j])
                for i in bench.iterated:
                    n = bench.counts[j, p, i]
                    users = slice(bench.starts[j, p, i], bench.starts[j, p, i] + n)
                    G, R = stacks[i, j]
                    G[lo + a : lo + b, :n], R[lo + a : lo + b, :n, :n] = iterative.reduce_block(
                        Projection(projection.estimates[..., users], projection.matched[:, users]))
                for out, (_, _, rx, users) in zip(outputs, bench.groups):
                    out[a:b] = receive(projection, users[j][p], rx[j], p)
                # with several metric BSs, each projection is freed only as
                # the next BS's replaces it, so the heap does not shrink to
                # the system and regrow, page fault by page fault, at every
                # BS; with one, as soon as it is read
                if J == 1:
                    projection = None
            z = np.swapaxes(columns[:B], 1, 2)
            gain[lo : lo + B, j] = np.vecdot(z, z).real / M
            for out, (n, entries, _, _) in zip(outputs, bench.groups):
                x_tilde = out[:B].reshape(B, len(entries), K, n)
                # every entry of the group is scored against the same payloads
                sig_res[lo:hi, entries, 0, j], sig_res[lo:hi, entries, 1, j] = (
                    signal_residual_power(x_tilde,
                                          sent[lo:hi, np.newaxis, j, :, bench.drawn - n :],
                                          gain[lo:hi, np.newaxis, j]))
                if qam:
                    errs[entries, 0] += np.sum(
                        waveform.demap(x_tilde, P).reshape(B, len(entries), -1)
                        != sent_bits[lo:hi, np.newaxis, j, :, n_bits * (bench.drawn - n) :]
                        .reshape(B, 1, -1), axis=(0, 2))
    del buffer, outputs, columns, projection
    # one pass per (entry, BS) over the batch, each trial under its
    # placement's plan
    for m, i in enumerate(bench.iterated, len(schemes)):
        s, n = schemes[i], bench.methods[i][2]
        pilots = s.book.sp_columns(slice(None))
        for j in range(J):
            # the stacks are freed as the pass returns
            x_tilde = iterative.iterative_estimate(*stacks.pop((i, j)), pilots,
                                                   [bench.passes[i, j][p] for p in placements])
            sig_res[:, m, 0, j], sig_res[:, m, 1, j] = signal_residual_power(
                x_tilde, sent[:, j, :, bench.drawn - n :], gain[:, j])
            if qam:
                errs[m] += count_ber(x_tilde, sent_bits[:, j, :, n_bits * (bench.drawn - n) :], P)
    return sig_res, errs


def _runs(n: int, most: int) -> list:
    """(lo, hi) of the fewest runs of at most `most` of n items, in order.

    Their lengths differ by one at most, the longer first, so the arrays
    of the runs of a batch have one or two sizes and each run reuses the
    heap the one before it freed.
    """
    count = -(-n // most)
    size, longer = divmod(n, count)
    edges = [k * size + min(k, longer) for k in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _sum_trials(bench: _Bench, trials: list):
    """Energies and bit errors of the (placement, key) trials at one bench, summed.

    The trials run in chunks of as many trials as fit _CHUNK_BYTES at
    _Bench.trial_bytes each, at least one.  Each trial's energies are added in
    trial order, so the totals do not depend on the chunk size.  Returns
    ((methods, 2, J, K), (methods, 2)), as _run_trials.
    """
    sig_total = err_total = 0  # the first trial's arrays, as 0 + x == x
    for lo, hi in _runs(len(trials), max(1, _CHUNK_BYTES // bench.trial_bytes)):
        sig_res, errs = _run_trials(bench, trials[lo:hi])
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
        analytic = [analytics.sinr_sp_finite_m(s.gains[0], bench.powers, cfg)[:J]
                    if s.partition.sp.all() else analytics.sinr_tp_asymptotic(s.gains[0], cfg)[:J]
                    for s in bench.schemes]
        analytic += [1.0 / np.stack([profile.interference[0, -1, j * K : (j + 1) * K]
                                     for j, profile in enumerate(s.iterated[1])])
                     for s in bench.schemes if s.iterated]
        analytic = np.stack(analytic)
        trials = [(0, (cfg.seed, experiment, mi, t)) for t in range(options.trials)]
        totals, _errs = _sum_trials(bench, trials)
        empirical = totals[:, 0] / totals[:, 1]
        if metric == "rate":
            n = np.array([n for _, _, n in bench.methods])[:, np.newaxis, np.newaxis]
            empirical = analytics.rate(cfg, empirical, n, cap)
            analytic = analytics.rate(cfg, analytic, n, cap)
        for (method, _, _), values, predicted in zip(bench.methods, empirical, analytic):
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
        for (method, _, _), sinr in zip(bench.methods, sinrs):
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
        for (method, _, _), (errors, count) in zip(bench.methods, errs):
            records.append(MetricsRecord(
                experiment="ber_vs_k", method=method, sweep_var="K", sweep_value=float(cfg.K),
                user="all", metric="ber", value=float(errors / count), trials=options.trials,
            ))
    return records


def _sum_rate_bench(cfg: SystemConfig, layouts: list) -> _Bench:
    """All-TP, all-SP and hybrid pilots at the min(L, 7) metric BSs of each layout.

    One bench of one placement for the whole sweep: its schemes are the
    (layout, method) pairs, three per layout in layout order, which send
    one payload draw per trial from "common-frames".  Gaussian payloads at
    unit power.  Each metric BS j draws its fading and noise factor from
    ("ch", j), shared by every layout's schemes.  All layouts share one
    all-TP and one all-SP Partition, so their entries send one frame set
    and project through one column set each, and share its products.
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
        controlled = power_control(beta_raw, cfg.omega)
        # greedy SP mask of the metric cells, padded with TP rows for the outer tier
        greedy = greedy_partition(beta_raw[:n_metric, :n_metric, :], cfg, powers).partition
        partition = Partition(np.pad(greedy.sp, ((0, cfg.L - n_metric), (0, 0))))
        # power control on the SP users only
        beta_hyb = np.where(partition.sp, controlled, beta_raw)
        schemes += [
            _Scheme(ALL_TP_METHOD, book_full, beta_raw[np.newaxis], tp),
            _Scheme(ALL_SP_METHOD, book_full, controlled[np.newaxis], sp),
            _Scheme(HYBRID_METHOD, waveform.make_pilot_books(cfg, partition=partition),
                    beta_hyb[np.newaxis], partition),
        ]
    streams = tuple(("ch", j) for j in range(n_metric))
    return _Bench(cfg, powers, tuple(schemes), streams, "common-frames", "gaussian")


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
    for (method, s, n), method_sinr in zip(bench.methods, sinr):
        # the sweep value is the SIR at the centre BS under power control,
        # which every entry's gains give for its layout
        controlled = power_control(s.gains[0], config.omega)
        sir_db = 10.0 * math.log10(received_sir(controlled, config.omega, 0))
        records.append(MetricsRecord(
            experiment="sum_rate_vs_sir", method=method, sweep_var="sir_rx_db",
            sweep_value=float(sir_db), user="all", metric="sum_rate",
            value=float(np.sum(analytics.rate(config, method_sinr, n))), trials=options.trials,
        ))
    return records


# One row per experiment: (records function, the RunOptions fields it reads,
# its figure's SystemConfig settings, its figure's RunOptions settings).  An
# option it does not read leaves its output as it is; the CLI starts a spec
# from the two settings.
EXPERIMENTS = {
    "sinr_vs_m": (functools.partial(_records_vs_m, experiment="sinr_vs_m"),
                  frozenset({"trials", "selection", "m_values"}), {}, {}),
    "rate_vs_m": (functools.partial(_records_vs_m, experiment="rate_vs_m"),
                  frozenset({"trials", "selection", "m_values", "rate_cap"}), {"P": 16}, {}),
    "sinr_cdf": (_records_sinr_cdf, frozenset({"trials", "selection", "placements"}),
                 {"M": 300, "scenario": Scenario1()}, {"trials": 20}),
    "ber_vs_k": (_records_ber_vs_k, frozenset({"trials", "selection", "k_values", "m_per_k"}),
                 {"C_u": 70, "scenario": Scenario1()}, {}),
    "sum_rate_vs_sir": (_records_sum_rate_vs_sir, frozenset({"trials", "radii_m"}),
                        {"L": 19, "C_u": 40, "M": 200, "omega": 10.0}, {}),
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

    config and options are run as given: the figure's settings are the
    experiment's row of EXPERIMENTS.  The experiment runs with numpy's
    OpenBLAS held at one thread, so its output bytes do not depend on the
    machine's thread count.
    """
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; "
                         f"expected one of {tuple(EXPERIMENTS)}")
    records, *_ = EXPERIMENTS[experiment]
    with _one_blas_thread():
        return records(config, options or RunOptions())
