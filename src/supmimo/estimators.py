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
Projection.  project makes every scheme's projection at one BS from the
draws they share, without forming any M x C_u block, and from their
triangular factor, without any M-row array.

receive_cell is the one receiver every pilot scheme uses: the partition's
SP mask says which users of a cell carry a superimposed pilot over the
trailing sp_length symbols (SP); the others train in the first tau symbols
(TP).  Pure TP and pure SP are the all-TP and all-SP masks; a hybrid frame
mixes them.
The caller makes the nearest-point decision (waveform.decide).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import waveform
from .hybrid import Partition
from .sysmodel import PowerAllocation
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
    with rho_p = 0.
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
    rho_p = powers.rho_p.reshape(-1)[users[sp]]
    if np.any(rho_p == 0):
        raise ZeroDivisionError("rho_p must be nonzero for an SP estimate")
    E[C_u - n :, sp] = np.conj(book.sp_columns(users[sp])) / (n * rho_p)
    return E


def project(
    factor: np.ndarray,
    sigma: float,
    frames,
    roots,
    columns: list,
) -> list:
    """Each scheme's Projection at one BS, from the draws every scheme shares.

    Scheme i would receive Y_i = Z (roots[i] * frames[i]) + W: Z (M, N) is
    the unit-variance fading and W (M, C_u) the noise at the BS, frames[i]
    (N, C_u) the scheme's frame rows and roots[i] (N,) the square roots of
    its users' gains there.  factor is X = [Z, W / sigma], or any F with
    F^H F = X^H X, such as sysmodel.draw_channels's triangular factor R =
    Q^H X: a projection reads X only through such inner products, so it
    comes out rotated by Q^H, with as many rows as factor has, and every
    norm and inner product the receivers take is the same.  columns[i]
    (C_u, n_i) are the estimator columns of the users scheme i scores.  One
    product, waveform.synthesize_received, makes every estimate,
    Y_i E_i = F [roots_i * (S_i E_i) ; sigma E_i], and one product every
    matched filter, conj(Y_i E_i)^T F, split at column N into its fading
    part, which meets roots_i * S_i, and its noise part, scaled by sigma.
    No Y_i is formed.  A user's results are a column and a row of products
    over all the users projected, so their last bits can depend on which
    other users share the call.
    """
    N = frames[0].shape[0]
    stacked = np.empty((factor.shape[1], sum(E.shape[1] for E in columns)), dtype=complex)
    lo = 0
    for S, root, E in zip(frames, roots, columns):
        hi = lo + E.shape[1]
        np.multiply(root[:, np.newaxis], S @ E, out=stacked[:N, lo:hi])
        np.multiply(E, sigma, out=stacked[N:, lo:hi])
        lo = hi
    estimates = waveform.synthesize_received(factor, stacked, 0.0)
    del stacked
    # conjugated in place for the product and back after it: exact, and no
    # copy of the estimates
    through = np.conj(estimates, out=estimates).T @ factor
    np.conj(estimates, out=estimates)
    through[:, N:] *= sigma
    projections, lo = [], 0
    for S, root, E in zip(frames, roots, columns):
        hi = lo + E.shape[1]
        matched = (through[lo:hi, :N] * root) @ S
        matched += through[lo:hi, N:]
        projections.append(Projection(estimates[:, lo:hi], matched))
        lo = hi
    return projections


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


def receive_cell(
    projection: Projection,
    book: PilotBook,
    partition: Partition,
    powers: PowerAllocation,
    cell: int,
    beta_home: np.ndarray,
    M: int,
) -> np.ndarray:
    """Matched-filter outputs of the users of `cell` at its BS, one row per user.

    projection is the BS's block seen through the estimator columns of the
    cell's K users in order (estimator_columns of cell * K + k); the result
    is (..., K, symbols), over each user's trailing payload symbols
    (PilotBook.payload_length).  A TP user's output is conj(h) Y_d / (M
    beta_home); an SP user's (partition.sp[cell, k]) removes its own pilot
    first (sp_output).  The two groups are filtered apart and written into
    one array.  beta_home[k] is user k's gain at this BS, and M its antenna
    count, which the projection's row count need not be (project).  A mask
    of another shape than the book's (L, K) raises ValueError.
    """
    _check_mask(book, partition)
    in_sp = partition.sp[cell]
    K, tp, sp = in_sp.size, np.flatnonzero(~in_sp), np.flatnonzero(in_sp)
    estimates, matched = projection
    C_u = matched.shape[-1]
    # TP and SP rows span equally many symbols, or payload_length raises
    payload = matched[..., C_u - book.payload_length(partition, C_u) :]
    beta_home = np.asarray(beta_home)
    groups = []
    if tp.size:
        groups.append((tp, payload[..., tp, :] / _per_row(M * beta_home[tp])))
    if sp.size:
        pilots = book.sp_columns(cell * K + sp)
        rho_d, rho_p = powers.rho_d[cell, sp], powers.rho_p[cell, sp]
        groups.append((sp, sp_output(payload[..., sp, :], _powers(estimates[..., sp]), pilots.T,
                                     rho_p, M * rho_d * beta_home[sp])))
    if len(groups) == 1:
        return groups[0][1]
    x_tilde = np.empty(payload.shape, dtype=complex)
    for ks, x in groups:
        x_tilde[..., ks, :] = x
    return x_tilde
