"""Non-iterative channel estimation and matched-filter detection.

All estimators run at a single BS on its received block.  The TP estimator
correlates the pilot-phase slice with the user's pilot; under pilot reuse
the result is the exact sum of the co-pilot channels plus scaled noise.
The SP estimator correlates the symbols that carry the user's dedicated
column with it, treating everyone's data as noise.  Detection is a
conjugate matched filter followed by the nearest-point decision.

receive_cell is the one receiver every pilot scheme uses: a partition says
which users of a cell train in the first tau symbols (TP) and which carry a
superimposed pilot over the trailing sp_length symbols (SP).  Pure TP and
pure SP are the all-TP and all-SP partitions; a hybrid frame mixes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hybrid import Partition
from .sysmodel import PowerAllocation
from .waveform import PilotBook, decide


@dataclass(frozen=True)
class ChannelEstimate:
    h_hat: np.ndarray

    @property
    def M(self) -> int:
        return self.h_hat.shape[0]


@dataclass(frozen=True)
class DetectionResult:
    """Matched-filter output; the P-QAM decisions are made on first access."""

    x_tilde: np.ndarray
    P: int

    @cached_property
    def x_hat(self) -> np.ndarray:
        return decide(self.x_tilde, self.P)


def tp_ls_estimate(
    Y_pilot: np.ndarray,
    pilot_book: PilotBook,
    user: tuple,
    q: float,
) -> ChannelEstimate:
    """Least-squares estimate from the M x tau pilot-phase slice.

    h_hat = Y_p conj(phi_b) / (tau sqrt(q)) with phi_b the user's pilot.
    """
    cell, k = user
    tau = pilot_book.tau
    if Y_pilot.shape[1] != tau:
        raise ValueError(f"pilot slice has {Y_pilot.shape[1]} columns, expected {tau}")
    b = int(pilot_book.tp_assignment[cell, k])
    if not 0 <= b < tau:
        raise KeyError(f"pilot index {b} outside the {tau}-column book")
    phi = pilot_book.tp_matrix[:, b]
    h_hat = (Y_pilot @ np.conj(phi)) / (tau * np.sqrt(q))
    return ChannelEstimate(h_hat=h_hat)


def sp_ls_estimate(
    Y: np.ndarray,
    pilot: np.ndarray,
    rho_p: float,
) -> ChannelEstimate:
    """Least-squares estimate against one superimposed pilot column.

    h_hat = Y conj(p) / (len(p) * rho_p); the slice Y must span exactly the
    symbols carrying this pilot (the whole block for pure SP, the trailing
    C_u - tau columns for hybrid SP users).
    """
    if rho_p == 0:
        raise ZeroDivisionError("rho_p must be nonzero for an SP estimate")
    n = pilot.shape[0]
    if Y.shape[1] != n:
        raise ValueError(f"observation has {Y.shape[1]} columns, pilot has {n}")
    h_hat = (Y @ np.conj(pilot)) / (n * rho_p)
    return ChannelEstimate(h_hat=h_hat)


def mf_detect_sp(
    Y: np.ndarray,
    estimate: ChannelEstimate,
    rho_d: float,
    rho_p: float,
    beta_home: float,
    pilot: np.ndarray,
    P: int,
) -> DetectionResult:
    """Matched filter for a superimposed-pilot user.

    Removes the user's own pilot via the estimate, correlates with it, and
    normalizes so the desired symbol appears at unit gain:
    x_tilde^T = h_hat^H (Y - rho_p h_hat p^T) / (M rho_d beta_home).
    """
    if beta_home <= 0:
        raise ValueError("beta_home must be positive")
    if rho_d <= 0:
        raise ValueError("rho_d must be positive")
    x_tilde = _mf_sp_output(Y, estimate.h_hat, pilot, rho_d, rho_p, beta_home)
    return DetectionResult(x_tilde=x_tilde, P=P)


def _mf_sp_output(
    Y: np.ndarray,
    h_hat: np.ndarray,
    pilot: np.ndarray,
    rho_d: float,
    rho_p: float,
    beta_home: float,
) -> np.ndarray:
    M = h_hat.shape[0]
    corr = np.conj(h_hat) @ Y
    pilot_part = rho_p * float(np.real(np.vdot(h_hat, h_hat))) * pilot
    return (corr - pilot_part) / (M * rho_d * beta_home)


def mf_detect_tp(
    Y_data: np.ndarray,
    estimate: ChannelEstimate,
    beta_home: float,
    q: float,
    P: int,
) -> DetectionResult:
    """Matched filter over the data phase of a time-multiplexed user.

    x_tilde^T = h_hat^H Y_d / (M sqrt(q) beta_home).
    """
    if beta_home <= 0:
        raise ValueError("beta_home must be positive")
    M = estimate.M
    x_tilde = (np.conj(estimate.h_hat) @ Y_data) / (M * np.sqrt(q) * beta_home)
    return DetectionResult(x_tilde=x_tilde, P=P)


def receive_cell(
    Y: np.ndarray,
    book: PilotBook,
    partition: Partition,
    powers: PowerAllocation,
    cell: int,
    beta_home: np.ndarray,
    P: int,
) -> np.ndarray:
    """Matched-filter outputs of the users of `cell` at its BS, one row per user.

    TP members are estimated from the first tau symbols at unit pilot power
    and detected over the rest; SP members are estimated and detected over
    the trailing book.sp_length symbols, which carry their superimposed
    pilots (the whole block for the full-length book).  beta_home[k] is
    user k's gain at this BS.  Raises KeyError for a user in neither set.
    """
    tau = book.tau
    Y_sp = Y[:, Y.shape[1] - book.sp_length :]
    rows = []
    # one matrix-vector product per user: a batched product may round
    # differently and so change the output bytes
    for k in range(powers.q.shape[1]):
        user = (cell, k)
        if user in partition.u_tp:
            est = tp_ls_estimate(Y[:, :tau], book, user, 1.0)
            det = mf_detect_tp(Y[:, tau:], est, float(beta_home[k]), 1.0, P)
        elif user in partition.u_sp:
            pilot = book.sp_column(cell, k)
            rho_d, rho_p = float(powers.rho_d[cell, k]), float(powers.rho_p[cell, k])
            est = sp_ls_estimate(Y_sp, pilot, rho_p)
            det = mf_detect_sp(Y_sp, est, rho_d, rho_p, float(beta_home[k]), pilot, P)
        else:
            raise KeyError(f"user {user} is in neither partition set")
        rows.append(det.x_tilde)
    return np.stack(rows)
