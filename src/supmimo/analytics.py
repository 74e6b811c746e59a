"""Closed-form SINR, rate, power-split, and crossover expressions.

Conventions: the gain map is the (L, L, K) array beta, whose entry
beta[j, l, k] is the large-scale gain between BS j and user (l, k), with
any power control already folded in (sysmodel.power_control); it is the
array sysmodel.path_loss returns and hybrid, iterative and the estimators
read.  Every user transmits at unit power, split by one PowerAllocation
into data and pilot amplitudes rho_d and rho_p with rho_d^2 + rho_p^2 = 1.

The SINR forms are maps: each returns one (L, K) array whose entry [j, k]
is the SINR of user (j, k) at its own BS j.  Each takes what it reads: the
gain map, whose shape sets the cell and user counts L and K; the
PowerAllocation, when it reads the split; and the SystemConfig, when it
reads M, C_u or the reuse factor r.  Pilot contamination is
hybrid.copilot_sum, whose cells that share a pilot are those of one
hybrid.reuse_groups group, as in the pilot books.

Empty interference sums give +inf; the rate rule optionally caps the
spectral efficiency at log2(P) to model a fixed constellation.
"""

from __future__ import annotations

import math

import numpy as np

from .hybrid import copilot_sum
from .sysmodel import PowerAllocation, SystemConfig


def _home(beta: np.ndarray) -> np.ndarray:
    """The (L, K) gains beta[j, j, k] of every user at its own BS."""
    return beta.diagonal().T


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and +inf where den is 0: an empty interference sum.

    den broadcasts to num's shape.
    """
    out = np.full(num.shape, math.inf)
    return np.divide(num, den, out=out, where=den != 0)


def _sp_signal(beta: np.ndarray, powers: PowerAllocation) -> np.ndarray:
    """The SP forms' signal factor rho_p^2 rho_d^2 beta[j, j, k]^2, as an (L, K) map."""
    home = _home(beta)
    return powers.rho_p**2 * powers.rho_d**2 * (home * home)


def sinr_tp_asymptotic(beta: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Large-M SINR map of time-multiplexed users: pilot contamination only.

    Entry [j, k] is beta[j, j, k]^2 over the summed squared gains of the
    same-pilot users in the other reuse-group cells.
    """
    home = _home(beta)
    return _ratio(home * home, copilot_sum(beta, config))


def sinr_sp_asymptotic(
    beta: np.ndarray, powers: PowerAllocation, config: SystemConfig
) -> np.ndarray:
    """Large-M SINR map of superimposed users: the self-interference term alone.

    Entry [j, k] is C_u rho_p^2 rho_d^2 beta[j, j, k]^2 over the summed
    rho_d^2 beta^2 of the users at BS j.

    C_u * TP / SP of this map and sinr_tp_asymptotic's is the uplink-length
    crossover kappa: SP beats TP (asymptotically) for user (j, k) iff C_u
    exceeds it (kappa_symmetric on a symmetric system).
    """
    weighted = powers.rho_d**2 * (beta * beta)
    den = weighted.reshape(beta.shape[0], -1).sum(axis=1)[:, np.newaxis] / config.C_u
    return _ratio(_sp_signal(beta, powers), den)


def sinr_sp_finite_m(
    beta: np.ndarray, powers: PowerAllocation, config: SystemConfig
) -> np.ndarray:
    """Finite-antenna SINR map at the matched-filter output of SP users.

    Inverse of a three-part interference budget: the O(1) term from data
    leaking into everyone's channel estimate (the inverse of
    sinr_sp_asymptotic), plus two O(1/M) terms (direct cross-channel
    leakage and the estimate-error cross products).  Both exclusion
    patterns drop single flattened users, not whole cells.  Raises
    ValueError unless every user has a positive home gain and the split
    puts power on both data and pilot.
    """
    signal = _sp_signal(beta, powers)
    if signal.min() <= 0:
        raise ValueError("every user needs a positive home gain and both amplitudes")
    M, C_u = config.M, config.C_u
    home, adm2 = _home(beta), powers.rho_d**2
    # BS j's gains, and its rho_d^2 beta, flat over users n = l*K + k
    rows = beta.reshape(beta.shape[0], -1)
    weighted = adm2 * rows

    term_self = 1.0 / sinr_sp_asymptotic(beta, powers, config)
    # sums over n != t, the target user t = (j, k): the sum over all n less t's term
    term_cross = (rows.sum(axis=1)[:, np.newaxis] - home) / (M * adm2 * home)
    # inner[j, n] = sum over k != n of rho_d^2 beta[j, k]
    inner = weighted.sum(axis=1)[:, np.newaxis] - weighted
    pair = (rows * inner).sum(axis=1)[:, np.newaxis] - home * _home(inner.reshape(beta.shape))
    term_pair = pair / (M * C_u * signal)
    return 1.0 / (term_self + term_cross + term_pair)


def rate(config: SystemConfig, sinr, n, cap_order: int | None = None):
    """Rate of users whose frames carry n payload symbols: n / C * log2(1 + SINR).

    n is the scheme's waveform.PilotBook.payload_length: C_u - tau when
    users train in the first tau symbols (TP, hybrid), else the length of
    the SP segment (C_u on the full-length book).  Element-wise on arrays;
    with cap_order P the spectral efficiency is capped at log2(P).
    """
    se = np.log2(1.0 + sinr)
    if cap_order is not None:
        se = np.minimum(se, np.log2(cap_order))
    return n / config.C * se


def _require_finite(**values) -> None:
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{name} is too large for a float") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def sinr_sp_lower_bound(L: int, K: int, C_u: int, M: int, lambda2: float) -> float:
    """Worst-case SP SINR under power control with a common data share.

    lambda2 is the data power fraction; the bound degenerates to zero at
    either endpoint of (0, 1).  Non-finite parameters raise ValueError.
    """
    _require_finite(L=L, K=K, C_u=C_u, M=M, lambda2=lambda2)
    for name, value in (("L", L), ("K", K), ("C_u", C_u), ("M", M)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 0.0 < lambda2 < 1.0:
        return 0.0
    n = L * K
    mu2 = 1.0 - lambda2
    den = n / (C_u * mu2) + ((n - 1) / lambda2 + (n - 1) ** 2 / (C_u * mu2)) / M
    return 1.0 / den


def optimal_rho(
    M: int,
    L: int,
    K: int,
    C_u: int,
    approximate: bool = False,
) -> tuple[float, float]:
    """Data/pilot power split maximizing the SP SINR lower bound.

    Returns (lambda2, mu2) with lambda2 + mu2 = 1.  The approximate form
    assumes L*K >> 1; the exact form is the stationary point of the bound.
    Non-finite parameters raise ValueError.
    """
    _require_finite(M=M, L=L, K=K, C_u=C_u)
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if C_u < 1:
        raise ValueError(f"C_u must be >= 1, got {C_u}")
    n = L * K
    if approximate:
        lam2 = 1.0 / (1.0 + math.sqrt((M + n) / C_u))
    else:
        if n < 2:
            raise ValueError("need at least two users for the exact split")
        ratio = (n / C_u + (n - 1) ** 2 / (M * C_u)) / ((n - 1) / M)
        lam2 = 1.0 / (1.0 + math.sqrt(ratio))
    return lam2, 1.0 - lam2


def kappa_symmetric(K: int, L: int, beta: float) -> float:
    """Crossover for the symmetric cell: unit home gains, equal power split,
    every cross gain equal to beta, all cells sharing pilots.  A single cell
    (L=1) has no contaminating interferers, so SP never pays off: +inf.
    Non-finite parameters raise ValueError."""
    _require_finite(K=K, L=L, beta=beta)
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if beta <= 0 or L == 1:
        return math.inf
    return 2.0 * K * (1.0 + 1.0 / ((L - 1) * beta**2))
