"""Non-iterative channel estimation and matched-filter detection, on projections.

Every receiver here is linear in a BS's received block Y = Z (sqrt(beta) *
S) + W.  A least-squares estimate is h_hat = Y e for a fixed estimator
column e per user (estimator_columns): conj(phi_b) / tau on the first tau
symbols for a time-multiplexed (TP) user, whose pilot phi_b is shared under
reuse, so the estimate is the exact sum of the co-pilot channels plus scaled
noise; conj(p) / (n rho_p) on the trailing n = sp_length symbols for a
superimposed (SP) user, treating everyone's data as noise.  A matched filter
is conj(h_hat) Y.  So a receiver reads Y only through its users' estimator
columns E: the estimates Y E and their matched filters conj(Y E)^T Y, a
Projection.  project makes one projection of every scheme's users at one BS
from the draws they share, without forming any M x C_u block, and from
their triangular factor, without any M-row array.  The caller passes each
frame matrix and each set of estimator columns once, and each scheme's
pair of indices into them: the schemes of one pair share their product of
frames and columns, and those that send one frame matrix its
matched-filter product.

receive is the one receiver of every pilot scheme, and it receives any run
of projected users of one payload length at once, whatever schemes and
cells they belong to.  A Receiver holds what it reads besides the
projection (receiver builds it): which users carry a superimposed pilot
over the trailing sp_length symbols (SP), their pilots, and every user's
matched-filter gain; the others train in the first tau symbols (TP).  Pure
TP and pure SP are the all-TP and all-SP masks; a hybrid frame mixes them.
The caller makes the nearest-point decision (waveform.decide).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import waveform
from .hybrid import Partition
from .sysmodel import PowerAllocation, SystemConfig
# decide stays bound here: bench/tracer.py patches it in every module that
# binds it, and bench/test_bench.py checks it is restored in this one
from .waveform import PilotBook, decide  # noqa: F401


class Projection(NamedTuple):
    """A received block Y seen through the estimator columns E of n users.

    estimates = Y E is (..., M, n): column i is user i's estimate h_i.
    matched = conj(estimates)^T Y is (..., n, C_u): row i is conj(h_i) Y,
    user i's matched filter over the whole block.  Made from a trial's
    triangular factor (project), the estimates are Q^H Y E, with fewer rows
    than M when M exceeds the factor's columns; their norms and inner
    products, and the matched filters, are those of Y E.
    """

    estimates: np.ndarray
    matched: np.ndarray


def _conj_rows(pilot: np.ndarray) -> np.ndarray:
    """Conjugated pilot columns as contiguous rows: (C,) -> (C,), (C, n) -> (n, C)."""
    return np.ascontiguousarray(np.conj(pilot).T)


def _per_row(value) -> np.ndarray:
    """A scalar, or one value per user, shaped to scale the rows it belongs to."""
    return np.asarray(value)[..., np.newaxis]


def _powers(estimates: np.ndarray) -> np.ndarray:
    """||h||^2 of each estimate column of (..., M, n), as (..., n).

    Taken over contiguous rows, so a user's power has the same bits whichever
    other columns share its array.
    """
    rows = np.ascontiguousarray(np.swapaxes(estimates, -1, -2))
    return np.vecdot(rows, rows).real


def _check_mask(book: PilotBook, partition: Partition) -> None:
    if partition.sp.shape != book.sp_assignment.shape:
        raise ValueError(f"a {partition.sp.shape} partition for a system of "
                         f"{book.sp_assignment.shape} users")


def estimator_columns(
    book: PilotBook,
    partition: Partition,
    powers: PowerAllocation,
    users: np.ndarray,
    C_u: int,
) -> np.ndarray:
    """Least-squares estimator columns E (C_u, n) of the listed flat users l*K + k.

    A user is TP or SP by partition.sp.  A TP user's column is
    conj(phi_b) / tau on the first tau symbols, an SP user's conj(p) / (n
    rho_p) on the trailing n = book.sp_length symbols, zero elsewhere; Y E
    are their estimates.  Raises ValueError for a mask of another shape than
    the book's (L, K), KeyError for a TP pilot index outside the book or an
    SP user without a pilot column, and ZeroDivisionError for an SP user
    when the split has rho_p = 0.
    """
    _check_mask(book, partition)
    users = np.asarray(users)
    sp = partition.sp.reshape(-1)[users]
    E = np.zeros((C_u, users.size), dtype=complex)
    tau, n = book.tau, book.sp_length
    b = book.tp_assignment.reshape(-1)[users[~sp]]
    if np.any((b < 0) | (b >= tau)):
        raise KeyError(f"pilot index {b} outside the {tau}-column book")
    E[:tau, ~sp] = np.conj(book.tp_matrix[:, b]) / tau
    if sp.any() and powers.rho_p == 0:
        raise ZeroDivisionError("rho_p must be nonzero for an SP estimate")
    E[C_u - n :, sp] = np.conj(book.sp_columns(users[sp])) / (n * powers.rho_p)
    return E


def project(
    factors,
    sigma: float,
    frames: np.ndarray,
    pairs,
    roots,
    columns: list,
) -> Projection:
    """One Projection of every scheme's users at one BS per trial, from the draws they share.

    Scheme i, with pairs[i] = (f, c), would receive Y_i = Z (roots[i] *
    frames[f][b]) + W in trial b and is seen through the estimator columns
    columns[c]: Z (M, N) is the unit-variance fading and W (M, C_u) the
    noise at the BS, roots[i] (N,) the square roots of its users' gains
    there.  frames (F, B, N, C_u) holds the F frame matrices the schemes
    send in each of B trials, and columns the column sets (C_u, n_c) they
    project through, so schemes that send one frame matrix pass one f, and
    schemes that score the same users under one book and partition one c.
    factors yields each trial's X = [Z, W / sigma], or any F with F^H F =
    X^H X, such as sysmodel.draw_channels's triangular factor R = Q^H X; it
    is consumed one factor at a time, so the caller can draw each as it is
    read.  A projection reads X only through such inner products, so it
    comes out rotated by Q^H, with as many rows as factor has, and every
    norm and inner product the receivers take is the same.  The
    projection's estimate columns and matched rows are the schemes' users,
    scheme by scheme in order, behind a leading trial axis.

    Per trial, one product, waveform.synthesize_received, makes every
    estimate, Y_i E_i = F [roots_i * (S_i E_i) ; sigma E_i], and one more
    every matched filter's part conj(Y_i E_i)^T F, split at column N into
    its fading part, which meets roots_i * S_i, and its noise part, scaled
    by sigma.  The rest runs once for the B trials, as stacks of the
    per-trial products: S E once per distinct (f, c) pair, and the fading
    part of the matched filters of the schemes that send one frame matrix
    as one product with it.  sigma E is the same in every trial.  No Y_i is
    formed.  A user's results are a column and a row of products over all
    the users projected, so their last bits can depend on which other users
    share the call, but not on the other trials.
    """
    B, N = frames.shape[1:3]
    widths = [columns[c].shape[1] for _, c in pairs]
    bounds = [0, *itertools.accumulate(widths)]
    # each projected user's scheme's roots, as complex numbers, so that no
    # product below casts them in an iterator buffer
    roots = np.asarray(roots, dtype=complex)
    # S E once per (frame set, column set) pair, copied into each scheme's
    # columns of the stack, then scaled by its roots at once
    stacked = np.empty((B, N + columns[0].shape[0], bounds[-1]), dtype=complex)
    products = {}
    for (f, c), lo, hi in zip(pairs, bounds, bounds[1:]):
        if (f, c) not in products:
            products[f, c] = frames[f] @ columns[c]
        stacked[:, :N, lo:hi] = products[f, c]
    del products
    stacked[:, :N] *= np.repeat(roots.T, widths, axis=1)
    noise = np.concatenate([columns[c] for _, c in pairs], axis=1)
    noise *= sigma
    stacked[:, N:] = noise
    estimates, through = [], None
    factors = iter(factors)
    for b in range(B):
        # taken with next, so no iterator holds the previous factor while the
        # next one is made
        factor = next(factors)
        estimates.append(waveform.synthesize_received(factor, stacked[b]))
        if b == B - 1:
            # every trial's columns are read
            del stacked
        if through is None:
            # made only once the first draw's normals are freed
            through = np.empty((B, bounds[-1], factor.shape[1]), dtype=complex)
        # conjugated in place for the product and back after it: exact, and
        # no copy of the estimates
        np.matmul(np.conj(estimates[b], out=estimates[b]).T, factor, out=through[b])
        np.conj(estimates[b], out=estimates[b])
        del factor
    estimates = estimates[0][np.newaxis] if B == 1 else np.stack(estimates)
    # the noise and fading parts, copied out contiguous and scaled there:
    # the fading part of each user's row by its scheme's roots
    matched = np.ascontiguousarray(through[..., N:])
    matched *= sigma
    fading = np.ascontiguousarray(through[..., :N])
    del through
    fading *= np.repeat(roots, widths, axis=0)
    # one product per frame matrix, over the users of the schemes that send it
    users = {}
    for (f, _), lo, hi in zip(pairs, bounds, bounds[1:]):
        users.setdefault(f, []).append((lo, hi))
    for f, spans in users.items():
        if all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:])):
            rows = slice(spans[0][0], spans[-1][1])
        else:
            rows = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
        product = fading[:, rows] @ frames[f]
        # trial by trial, so each sum runs over contiguous blocks
        for b in range(B):
            matched[b, rows] += product[b]
    return Projection(estimates, matched)


def sp_output(matched, power, pilot_rows, rho_p, mf_gain) -> np.ndarray:
    """SP matched-filter outputs from an estimate's matched filter and power.

    matched is conj(h) Y over the user's pilot symbols and power ||h||^2,
    per user when matched has a user axis; pilot_rows are the users' pilots
    as rows and mf_gain their M rho_d beta_home.  Removes the user's own
    pilot through its estimate and normalizes the desired symbol to unit
    gain: (matched - rho_p power p^T) / mf_gain, written into matched.
    """
    matched -= _per_row(rho_p * power) * pilot_rows
    matched /= _per_row(mf_gain)
    return matched


class Receiver(NamedTuple):
    """What receive reads besides the projection, for a run of users of one payload length.

    sp indexes the run's SP users, pilots holds their superimposed pilots
    as rows (sp.size, n), n the payload (and output) symbols of every user,
    the trailing n of the block, and rho_p is the pilot amplitude.
    gain (..., users) is each user's matched-filter gain, M beta_home for a
    TP user and M rho_d beta_home for an SP user, with a leading axis per
    placement when the cells' gains have one.
    """

    sp: np.ndarray
    pilots: np.ndarray
    rho_p: float
    gain: np.ndarray

    @property
    def n(self) -> int:
        """Payload symbols per user: the length of the pilot rows."""
        return self.pilots.shape[-1]


def receiver(cells, powers: PowerAllocation, config: SystemConfig) -> Receiver:
    """The Receiver of the K users of each listed cell, cell after cell.

    cells lists (book, partition, cell, beta_home): the cell's users under
    that book and partition, and beta_home (..., K) their gains at the
    cell's BS, with any leading axes, the same for every cell.  config
    gives M and C_u.  Every cell's users must carry one payload length
    (PilotBook.payload_length).  A mask of another shape than the book's
    (L, K) raises ValueError, an SP user without a pilot column KeyError.
    """
    M, C_u = config.M, config.C_u
    lengths, sp, pilots, gain = set(), [], [], []
    for i, (book, partition, cell, beta_home) in enumerate(cells):
        _check_mask(book, partition)
        in_sp = partition.sp[cell]
        K, users = in_sp.size, np.flatnonzero(in_sp)
        lengths.add(book.payload_length(partition, C_u))
        sp.append(i * K + users)
        if users.size:
            pilots.append(book.sp_columns(cell * K + users).T)
        gain.append(np.where(in_sp, M * powers.rho_d, float(M)) * beta_home)
    if len(lengths) != 1:
        raise ValueError(f"one receiver for payloads of {sorted(lengths)} symbols")
    (n,) = lengths
    return Receiver(np.concatenate(sp),
                    np.concatenate(pilots) if pilots else np.empty((0, n), dtype=complex),
                    powers.rho_p, np.concatenate(gain, axis=-1))


def receive(projection: Projection, users, rx: Receiver, placement=()) -> np.ndarray:
    """Matched-filter outputs of the projected users `users`, one row each.

    users indexes the projection's users (estimate columns and matched
    rows) in the order of rx's users; the result is (..., users, rx.n),
    over each user's trailing payload symbols, behind the projection's
    leading axes.  A TP user's output is conj(h) Y_d over its gain; an SP
    user's removes its own pilot through its estimate first, (conj(h) Y_d -
    rho_p ||h||^2 p^T) / gain (sp_output).  The gains are
    rx.gain[placement].  Every step is per user, so a user's output has the
    same bits in any run of users and in any stack of projections.  M is
    read from the gains, not from the projection's row count (project).
    """
    estimates, matched = projection
    users = np.asarray(users)
    x_tilde = matched[..., users, matched.shape[-1] - rx.n :]
    if rx.sp.size:
        power = _powers(estimates[..., users[rx.sp]])
        x_tilde[..., rx.sp, :] -= _per_row(rx.rho_p * power) * rx.pilots
    x_tilde /= _per_row(rx.gain[placement])
    return x_tilde
