"""Closed-form SINR, rate, power-split, and crossover expressions.

Conventions: beta[j, l, k] is the large-scale gain between BS j and user
(l, k), with any power control already folded in (PathLossMap.normalized);
every user transmits at unit power, split into data and pilot amplitudes
rho_d and rho_p with rho_d^2 + rho_p^2 = 1.

Each form takes what it reads: the gain map (PathLossMap), which also sets
the cell and user counts L and K; the PowerAllocation, when it reads the
amplitudes; and the SystemConfig, when it reads M, C_u, C, tau or the reuse
factor r.  Pilot reuse is hybrid's: the cells that share a pilot are those
of one hybrid.reuse_groups group, as in the pilot books.

Empty interference sums return +inf; the rate helpers optionally cap the
spectral efficiency at log2(P) to model a fixed constellation.
"""

from __future__ import annotations

import math

import numpy as np

from .hybrid import Partition, _copilot_power
from .sysmodel import PathLossMap, PowerAllocation, SystemConfig


def sinr_tp_asymptotic(gains: PathLossMap, config: SystemConfig, j: int, m: int) -> float:
    """Large-M SINR of a time-multiplexed user: pilot contamination only.

    Equals beta_home^2 over the summed squared gains of the same-pilot
    users in the other reuse-group cells.
    """
    num = gains.beta[j, j, m] ** 2
    den = _copilot_power(gains.beta, config.r, j, m)
    if den == 0.0:
        return math.inf
    return num / den


def rate_tp(config: SystemConfig, sinr: float, cap_order: int | None = None) -> float:
    """Per-user rate of a scheme with a training phase in the first tau symbols.

    ((C_u - tau) / C) * log2(1 + SINR), optionally capped: TP, and hybrid,
    whose SP users stay silent through the training phase.  The pre-log is
    waveform.PilotBook.payload_length over C for such a partition.
    """
    return (config.C_u - config.tau) / config.C * _spectral_efficiency(sinr, cap_order)


def rate_sp(config: SystemConfig, sinr: float, cap_order: int | None = None) -> float:
    """Per-user pure-SP rate: (C_u / C) * log2(1 + SINR), optionally capped.

    Data fills every symbol of the full-length book (waveform.PilotBook.
    payload_length of the all-SP partition over C).
    """
    return config.C_u / config.C * _spectral_efficiency(sinr, cap_order)


def _spectral_efficiency(sinr: float, cap_order: int | None) -> float:
    se = math.log2(1.0 + sinr) if math.isfinite(sinr) else math.inf
    if cap_order is not None:
        se = min(se, math.log2(cap_order))
    return se


def _target(gains: PathLossMap, powers: PowerAllocation, j: int, m: int):
    """What the SP forms read of BS j and its user (j, m), flat over users.

    Returns (beta_row, rho_d2, t, adm2, apm2): BS j's gains and every user's
    rho_d^2 in l*K + k order, the target's flat index t, and the target's
    rho_d^2 and rho_p^2.
    """
    beta_row = gains.beta[j].reshape(-1)
    rho_d2 = (powers.rho_d.reshape(-1)) ** 2
    t = j * gains.beta.shape[2] + m
    return beta_row, rho_d2, t, rho_d2[t], (powers.rho_p.reshape(-1)[t]) ** 2


def sinr_sp_finite_m(
    gains: PathLossMap, powers: PowerAllocation, config: SystemConfig, j: int, m: int
) -> float:
    """Finite-antenna SINR at the matched-filter output for an SP user.

    Inverse of a three-part interference budget: the O(1) term from data
    leaking into everyone's channel estimate, plus two O(1/M) terms (direct
    cross-channel leakage and the estimate-error cross products).  Both
    exclusion patterns drop single flattened users, not whole cells.
    """
    beta_row, rho_d2, t, adm2, apm2 = _target(gains, powers, j, m)
    C_u, M = config.C_u, config.M
    bm = beta_row[t]
    if bm <= 0 or adm2 <= 0 or apm2 <= 0:
        raise ValueError("target user needs positive gain and both amplitudes")

    w = rho_d2 * beta_row**2
    term_self = float(np.sum(w)) / (C_u * apm2 * adm2 * bm**2)

    others = np.ones(beta_row.shape[0], dtype=bool)
    others[t] = False
    term_cross = float(np.sum(beta_row[others])) / (M * adm2 * bm)

    # sum over n != t of beta_n * (sum over k != n of rho_dk^2 beta_k)
    inner_total = float(np.sum(rho_d2 * beta_row))
    inner = inner_total - rho_d2 * beta_row  # drop k == n
    term_pair = float(np.sum(beta_row[others] * inner[others])) / (
        M * C_u * apm2 * adm2 * bm**2
    )
    return 1.0 / (term_self + term_cross + term_pair)


def sinr_sp_asymptotic(
    gains: PathLossMap, powers: PowerAllocation, config: SystemConfig, j: int, m: int
) -> float:
    """Large-M limit of the SP SINR: the self-interference term alone."""
    beta_row, rho_d2, t, adm2, apm2 = _target(gains, powers, j, m)
    num = apm2 * adm2 * beta_row[t] ** 2
    den = float(np.sum(rho_d2 * beta_row**2)) / config.C_u
    if den == 0.0:
        return math.inf
    return num / den


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


def kappa(
    gains: PathLossMap, powers: PowerAllocation, config: SystemConfig, j: int, m: int
) -> float:
    """Uplink-length crossover: SP beats TP (asymptotically) iff C_u > kappa."""
    beta_row, rho_d2, _t, adm2, apm2 = _target(gains, powers, j, m)
    num = float(np.sum(rho_d2 * beta_row**2))
    den = _copilot_power(gains.beta, config.r, j, m)
    if den == 0.0:
        return math.inf
    return num / (apm2 * adm2 * den)


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


def hybrid_tp_sinr(
    gains: PathLossMap, config: SystemConfig, partition: Partition, j: int, m: int
) -> float:
    """Large-M SINR of a TP member of a hybrid system.

    Only same-pilot users that stayed in the TP set contaminate; silent SP
    users are invisible to the training phase.
    """
    num = gains.beta[j, j, m] ** 2
    den = _copilot_power(gains.beta, config.r, j, m, partition.sp)
    if den == 0.0:
        return math.inf
    return num / den


def hybrid_sp_sinr(
    gains: PathLossMap,
    powers: PowerAllocation,
    config: SystemConfig,
    partition: Partition,
    j: int,
    m: int,
) -> float:
    """Large-M SINR of an SP member of a hybrid system.

    The superimposed segment spans C_u - tau symbols, so the residual
    data-interference floor sums the squared gains of the SP users, in
    (cell, user) order, scaled by 1 / ((C_u - tau) * pilot share).
    """
    t_rho_d2 = powers.rho_d[j, m] ** 2
    t_rho_p2 = powers.rho_p[j, m] ** 2
    num = gains.beta[j, j, m] ** 2
    den = 0.0
    for l, k in np.argwhere(partition.sp).tolist():
        den += (powers.rho_d[l, k] ** 2) * gains.beta[j, l, k] ** 2
    den /= (config.C_u - config.tau) * t_rho_p2 * t_rho_d2
    if den == 0.0:
        return math.inf
    return num / den


def hybrid_rates(
    gains: PathLossMap,
    powers: PowerAllocation,
    config: SystemConfig,
    partition: Partition,
    j: int,
    cap_order: int | None = None,
) -> dict:
    """Per-user (sinr, rate) of every user of cell j, keyed by (j, k).

    Both branches carry rate_tp's (C_u - tau) / C efficiency: TP users
    spend the training phase on pilots, SP users on radio silence.
    """
    out = {}
    for k, sp in enumerate(partition.sp[j]):
        sinr = (hybrid_sp_sinr(gains, powers, config, partition, j, k) if sp
                else hybrid_tp_sinr(gains, config, partition, j, k))
        out[(j, k)] = (sinr, rate_tp(config, sinr, cap_order))
    return out


def cell_sum_rate(rates: dict) -> float:
    return float(sum(rate for _sinr, rate in rates.values()))
