"""Non-iterative channel estimation and matched-filter detection.

All estimators run at a single BS on its received block.  The TP estimator
correlates the pilot-phase slice with the user's pilot; under pilot reuse
the result is the exact sum of the co-pilot channels plus scaled noise.
The SP estimator correlates the symbols that carry the user's dedicated
column with it, treating everyone's data as noise.  Estimators return
h_hat and detectors the matched-filter output x_tilde; the caller makes
the nearest-point decision (waveform.decide).

Every function takes a block Y of shape (M, C) or a stack (..., M, C) of
blocks, e.g. one per Monte-Carlo trial.  The estimators take one user or
several users of a cell: h_hat is (..., M) for one user and (..., n, M)
for n, and the detectors read the same layout.  Each is one stacked
numpy.matmul whose slices are the matrix-vector products of one user and
one block, so a user's result has the same bits whether it is computed
alone, with its cell, or in a stack of blocks.

receive_cell is the one receiver every pilot scheme uses: a partition says
which users of a cell train in the first tau symbols (TP) and which carry a
superimposed pilot over the trailing sp_length symbols (SP).  Pure TP and
pure SP are the all-TP and all-SP partitions; a hybrid frame mixes them.
It makes one estimate and one detection call per pilot scheme present.
"""

from __future__ import annotations

import numpy as np

from .hybrid import Partition
from .sysmodel import PowerAllocation
# decide stays bound here: bench/tracer.py patches it in every module that
# binds it, and bench/test_bench.py checks it is restored in this one
from .waveform import PilotBook, decide, _partition_rows  # noqa: F401


def _conj_rows(pilot: np.ndarray) -> np.ndarray:
    """Conjugated pilot columns as contiguous rows: (C,) -> (C,), (C, n) -> (n, C)."""
    return np.ascontiguousarray(np.conj(pilot).T)


def _per_row(value) -> np.ndarray:
    """A scalar, or one value per user, shaped to scale the rows it belongs to."""
    return np.asarray(value)[..., np.newaxis]


def _project(Y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Y @ row for each block of Y and each row: (..., M) or (..., n, M)."""
    if rows.ndim == 1:
        return Y @ rows
    return np.matmul(Y[..., np.newaxis, :, :], rows[..., np.newaxis])[..., 0]


def _matched(Y: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """conj(h) @ Y for each estimate h: (..., C) or, with a user axis, (..., n, C)."""
    if h_hat.ndim == Y.ndim:  # a user axis before M
        Y = Y[..., np.newaxis, :, :]
    return np.matmul(np.conj(h_hat)[..., np.newaxis, :], Y)[..., 0, :]


def tp_ls_estimate(
    Y_pilot: np.ndarray,
    pilot_book: PilotBook,
    user: tuple,
) -> np.ndarray:
    """Least-squares estimate from the M x tau pilot-phase slice.

    h_hat = Y_p conj(phi_b) / tau with phi_b the user's unit-modulus pilot.
    user is (cell, k); k may be an array of the cell's users.
    """
    cell, k = user
    tau = pilot_book.tau
    if Y_pilot.shape[-1] != tau:
        raise ValueError(f"pilot slice has {Y_pilot.shape[-1]} columns, expected {tau}")
    b = np.asarray(pilot_book.tp_assignment[cell, k])
    if np.any((b < 0) | (b >= tau)):
        raise KeyError(f"pilot index {b} outside the {tau}-column book")
    rows = _conj_rows(pilot_book.tp_matrix[:, b])
    return _project(Y_pilot, rows) / tau


def sp_ls_estimate(
    Y: np.ndarray,
    pilot: np.ndarray,
    rho_p,
) -> np.ndarray:
    """Least-squares estimate against superimposed pilot columns.

    h_hat = Y conj(p) / (len(p) * rho_p); the slice Y must span exactly the
    symbols carrying the pilot (the whole block for pure SP, the trailing
    C_u - tau columns for hybrid SP users).  pilot is one column (C,) or one
    per user (C, n), with rho_p one value or one per user.
    """
    if np.any(np.asarray(rho_p) == 0):
        raise ZeroDivisionError("rho_p must be nonzero for an SP estimate")
    n = pilot.shape[0]
    if Y.shape[-1] != n:
        raise ValueError(f"observation has {Y.shape[-1]} columns, pilot has {n}")
    return _project(Y, _conj_rows(pilot)) / _per_row(n * rho_p)


def mf_detect_sp(
    Y: np.ndarray,
    h_hat: np.ndarray,
    rho_d,
    rho_p,
    beta_home,
    pilot: np.ndarray,
) -> np.ndarray:
    """Matched filter for superimposed-pilot users.

    Removes the user's own pilot via the estimate, correlates with it, and
    normalizes so the desired symbol appears at unit gain:
    x_tilde^T = h_hat^H (Y - rho_p h_hat p^T) / (M rho_d beta_home).
    The scalars and pilot columns are per user when h_hat has a user axis.
    """
    if np.any(np.asarray(beta_home) <= 0):
        raise ValueError("beta_home must be positive")
    if np.any(np.asarray(rho_d) <= 0):
        raise ValueError("rho_d must be positive")
    M = h_hat.shape[-1]
    return sp_output(_matched(Y, h_hat), np.vecdot(h_hat, h_hat).real, pilot.T, rho_p,
                     M * rho_d * beta_home)


def sp_output(matched, power, pilot_rows, rho_p, mf_gain) -> np.ndarray:
    """mf_detect_sp's output from an estimate's matched filter and power.

    matched is conj(h) Y and power ||h||^2, per user when matched has a
    user axis; pilot_rows are the users' pilots as rows and mf_gain their
    M rho_d beta_home.  Returns (matched - rho_p power p^T) / mf_gain,
    written into matched, so a caller holding conj(h) Y and ||h||^2 but
    not h gets the detector's bits.
    """
    matched -= _per_row(rho_p * power) * pilot_rows
    matched /= _per_row(mf_gain)
    return matched


def mf_detect_tp(
    Y_data: np.ndarray,
    h_hat: np.ndarray,
    beta_home,
) -> np.ndarray:
    """Matched filter over the data phase of time-multiplexed users.

    x_tilde^T = h_hat^H Y_d / (M beta_home), per user when h_hat has a user
    axis.
    """
    if np.any(np.asarray(beta_home) <= 0):
        raise ValueError("beta_home must be positive")
    M = h_hat.shape[-1]
    return _matched(Y_data, h_hat) / _per_row(M * beta_home)


def receive_cell(
    Y: np.ndarray,
    book: PilotBook,
    partition: Partition,
    powers: PowerAllocation,
    cell: int,
    beta_home: np.ndarray,
) -> np.ndarray:
    """Matched-filter outputs of the users of `cell` at its BS, one row per user.

    Y is one block (M, C_u) or a stack (..., M, C_u); the result is
    (..., K, symbols).  TP members are estimated from the first tau symbols
    and detected over the rest; SP members are estimated and detected over
    the trailing book.sp_length symbols, which carry their superimposed
    pilots (the whole block for the full-length book).
    beta_home[k] is user k's gain at this BS.  Raises KeyError for a user of
    the network in neither set (waveform._partition_rows).
    """
    L, K = powers.rho_d.shape
    _tp_rows, _sp_rows, cells = _partition_rows(partition, L, K)
    tp, sp = cells[cell]
    beta_home = np.asarray(beta_home)
    groups = []
    if tp.size:
        h_hat = tp_ls_estimate(Y[..., : book.tau], book, (cell, tp))
        groups.append((tp, mf_detect_tp(Y[..., book.tau :], h_hat, beta_home[tp])))
    if sp.size:
        pilots = book.sp_columns(cell * K + sp)
        rho_d, rho_p = powers.rho_d[cell, sp], powers.rho_p[cell, sp]
        Y_sp = Y[..., Y.shape[-1] - book.sp_length :]
        h_hat = sp_ls_estimate(Y_sp, pilots, rho_p)
        groups.append((sp, mf_detect_sp(Y_sp, h_hat, rho_d, rho_p, beta_home[sp], pilots)))
    if len(groups) == 1:
        return groups[0][1]
    x_first = groups[0][1]
    x_tilde = np.empty(x_first.shape[:-2] + (K, x_first.shape[-1]), dtype=complex)
    for ks, x in groups:
        x_tilde[..., ks, :] = x  # TP and SP rows must span equally many symbols
    return x_tilde
