"""Data-aided iterative channel estimation with interference prediction.

The estimator sweeps the N = L*K users in decreasing order of their gains
at the serving BS.  For each target it rebuilds the superimposed-pilot
least-squares estimate after subtracting the reconstructed data
contributions rho_d * h_hat * x_hat^T of a chosen feedback set: users
already updated this sweep contribute current-iteration values, the rest
contribute the previous iteration's.  When the set is fixed, only its
members are needed in every sweep; the others are estimated once, in the
last sweep, against the set's values at that point.  A deterministic
companion recursion predicts the per-user matched-filter error variance,
drives the decision-error model for square QAM, and selects which users
are safe to feed back.

All prediction formulas assume unit total power per user, i.e. gains are
the power-controlled equivalents and rho_d^2 + rho_p^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import _mf_sp_output
from .waveform import decide

SELECTION_RULES = ("none", "all", "fixed", "per_iteration")


def q_function(x: float) -> float:
    """Standard Gaussian tail probability."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def alpha_pqam(interference: float, P: int) -> float:
    """Decision-error variance of a unit-power square-QAM slicer.

    Models symbol errors as jumps to nearest neighbors under Gaussian
    residual interference of the given variance.  Zero interference gives
    zero; the value grows monotonically and saturates at half the
    nearest-neighbor coefficient.
    """
    if interference < 0:
        raise ValueError("interference variance must be non-negative")
    side = math.isqrt(P)
    if P < 4 or side * side != P:
        raise ValueError(f"P must be a square QAM order >= 4, got {P}")
    coef = 24.0 / (side * (side + 1.0))
    if interference == 0.0:
        return 0.0
    arg = math.sqrt((3.0 / (P - 1)) / interference)
    return coef * q_function(arg)


def psi_recursion(
    m: int,
    beta: np.ndarray,
    rho_d: np.ndarray,
    rho_p_m: float,
    alpha_cur: np.ndarray,
    psi_cur: np.ndarray,
    alpha_prev: np.ndarray,
    psi_prev: np.ndarray,
    sigma2: float,
    M: int,
    C_u: int,
    in_set: np.ndarray,
) -> float:
    """Channel-error energy auxiliary for target m at the current sweep.

    Users in the feedback set contribute their decision-error-scaled
    residuals (current-iteration values when already updated, i.e. index
    < m, previous-iteration otherwise); users outside it contribute their
    full data power; noise adds a flat term.
    """
    beta = np.asarray(beta, dtype=float)
    n_users = beta.shape[0]
    sum_beta = float(np.sum(beta))
    idx = np.arange(n_users)
    alpha_used = np.where(idx < m, alpha_cur, alpha_prev)
    psi_used = np.where(idx < m, psi_cur, psi_prev)

    base = beta**2 + beta * sum_beta / M
    fed = in_set.astype(bool)
    core = float(
        np.sum(rho_d[fed] ** 2 * (base[fed] * alpha_used[fed] + (1.0 + alpha_used[fed]) * psi_used[fed] / M**2))
    )
    core += float(np.sum(rho_d[~fed] ** 2 * base[~fed]))
    core += sigma2 * sum_beta / M
    return (M**2 / (C_u * rho_p_m**2)) * core


def predict_interference(
    m: int,
    beta: np.ndarray,
    rho_d_m: float,
    sigma2: float,
    M: int,
    psi_m: float,
) -> float:
    """Matched-filter error variance of target m given its channel-error
    auxiliary: direct cross-channel leakage, noise, and the psi part."""
    beta = np.asarray(beta, dtype=float)
    bm = float(beta[m])
    cross = float(np.sum(beta)) - bm
    return (bm * cross / M + sigma2 * bm / M + psi_m / M**2) / (rho_d_m**2 * bm**2)


def gamma_threshold(beta: np.ndarray, psi_k: float, k: int, M: int) -> float:
    """Feedback-admission threshold on the decision-error variance of user
    k: below it, feeding the user back cannot raise the predicted error."""
    beta = np.asarray(beta, dtype=float)
    a = float(beta[k]) ** 2 + float(beta[k]) * float(np.sum(beta)) / M
    return (a - psi_k / M**2) / (a + psi_k / M**2)


def select_user_set_fixed(
    beta: np.ndarray,
    rho_d: np.ndarray,
    rho_p: np.ndarray,
    sigma2: float,
    M: int,
    C_u: int,
    P: int,
) -> np.ndarray:
    """Conservative one-shot feedback set.

    User m is admitted iff predicted self-feedback at the second sweep
    strictly beats never feeding anyone back.  The set is computed once and
    reused for every sweep and every target.
    """
    beta = np.asarray(beta, dtype=float)
    n_users = beta.shape[0]
    sum_beta = float(np.sum(beta))
    base = beta**2 + beta * sum_beta / M
    core0 = float(np.sum(rho_d**2 * base)) + sigma2 * sum_beta / M
    keep = np.zeros(n_users, dtype=bool)
    for m in range(n_users):
        psi1 = (M**2 / (C_u * rho_p[m] ** 2)) * core0
        i1 = predict_interference(m, beta, float(rho_d[m]), sigma2, M, psi1)
        a1 = alpha_pqam(i1, P)
        keep[m] = a1 * base[m] + (1.0 + a1) * psi1 / M**2 < base[m]
    return keep


@dataclass(frozen=True)
class PredictionProfile:
    """Per-sweep prediction history; row i of each array is iteration i.

    interference[0] is +inf (no estimate exists yet) and alpha[0] is 1 by
    definition of the all-wrong initial decisions.  include[i][k] records
    whether user k passed the admission threshold after sweep i.
    fixed_mask is the feedback set every sweep uses, or None when the set
    follows include sweep by sweep (per_iteration).
    """

    interference: np.ndarray
    alpha: np.ndarray
    psi: np.ndarray
    include: np.ndarray
    fixed_mask: np.ndarray | None

    @property
    def sweeps(self) -> int:
        return self.interference.shape[0] - 1


def _resolve_fixed_mask(selection, beta, rho_d, rho_p, sigma2, M, C_u, P) -> np.ndarray | None:
    n_users = beta.shape[0]
    if isinstance(selection, np.ndarray):
        if selection.shape != (n_users,):
            raise ValueError(f"explicit feedback set must have shape ({n_users},)")
        return selection.astype(bool)
    if selection == "none":
        return np.zeros(n_users, dtype=bool)
    if selection == "all":
        return np.ones(n_users, dtype=bool)
    if selection == "fixed":
        return select_user_set_fixed(beta, rho_d, rho_p, sigma2, M, C_u, P)
    if selection == "per_iteration":
        return None
    raise ValueError(f"unknown selection rule {selection!r}; expected {SELECTION_RULES}")


def predict_profile(
    beta: np.ndarray,
    rho_d: np.ndarray,
    rho_p: np.ndarray,
    sigma2: float,
    M: int,
    C_u: int,
    P: int,
    sweeps: int,
    selection="fixed",
) -> PredictionProfile:
    """Run the deterministic error-prediction recursion for `sweeps` sweeps.

    beta must already be sorted in decreasing order (ties broken by the
    caller); rho_d and rho_p are the matching per-user amplitude arrays.
    """
    beta = np.asarray(beta, dtype=float)
    n_users = beta.shape[0]
    rho_d = np.asarray(rho_d, dtype=float)
    rho_p = np.asarray(rho_p, dtype=float)
    fixed_mask = _resolve_fixed_mask(selection, beta, rho_d, rho_p, sigma2, M, C_u, P)

    interference = np.full((sweeps + 1, n_users), math.inf)
    alpha = np.ones((sweeps + 1, n_users))
    psi = np.zeros((sweeps + 1, n_users))
    include = np.zeros((sweeps + 1, n_users), dtype=bool)

    for i in range(1, sweeps + 1):
        for m in range(n_users):
            if fixed_mask is not None:
                mask = fixed_mask
            else:
                idx = np.arange(n_users)
                mask = np.where(idx < m, include[i], include[i - 1])
            psi_m = psi_recursion(
                m, beta, rho_d, float(rho_p[m]),
                alpha_cur=alpha[i], psi_cur=psi[i],
                alpha_prev=alpha[i - 1], psi_prev=psi[i - 1],
                sigma2=sigma2, M=M, C_u=C_u, in_set=mask,
            )
            psi[i, m] = psi_m
            interference[i, m] = predict_interference(m, beta, float(rho_d[m]), sigma2, M, psi_m)
            alpha[i, m] = alpha_pqam(interference[i, m], P)
            include[i, m] = alpha[i, m] < gamma_threshold(beta, psi_m, m, M)
    return PredictionProfile(interference=interference, alpha=alpha, psi=psi, include=include,
                             fixed_mask=fixed_mask)


@dataclass(frozen=True)
class IterationState:
    """Final state of the data-aided estimator, in sweep (sorted) order.

    The predicted error statistics of each sweep are in the profile.
    """

    h_hat: np.ndarray
    x_tilde: np.ndarray
    x_hat: np.ndarray
    user_sets: np.ndarray


def decreasing_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting values in decreasing order; ties keep index order."""
    return np.argsort(-np.asarray(values), kind="stable")


def iterative_estimate(
    Y: np.ndarray,
    pilots: np.ndarray,
    beta: np.ndarray,
    rho_d: np.ndarray,
    rho_p: np.ndarray,
    P: int,
    sigma2: float,
    sweeps: int,
    selection="fixed",
    profile: PredictionProfile | None = None,
) -> IterationState:
    """Joint channel/data estimation over `sweeps` ordered sweeps.

    Y is the M x C_u block; pilots holds each user's dedicated column
    (C_u x N, sorted like beta).  With a fixed feedback set (every rule but
    per_iteration) only the set's members are re-estimated in every sweep,
    in gain order, each deciding its data at once for the users after it.
    Nobody reads the estimates of users outside the set, so they are
    computed once, in their place in the last sweep, and decided together at
    its end; the result equals re-estimating every user in every sweep.
    per_iteration may feed any user back at some sweep, so it runs the full
    schedule.  With an empty feedback set the result reproduces the one-shot
    estimator and detector exactly.  The prediction profile is
    data-independent, so callers running many blocks with the same
    large-scale state should compute it once and pass it in; it carries the
    feedback set, and `selection` is used only to build a profile when none
    is passed.
    """
    beta = np.asarray(beta, dtype=float)
    n_users = beta.shape[0]
    if np.any(np.diff(beta) > 0):
        raise ValueError("beta must be sorted in decreasing order")
    if pilots.shape != (Y.shape[1], n_users):
        raise ValueError(f"pilots must be (C_u, N) = {(Y.shape[1], n_users)}, got {pilots.shape}")
    if n_users > Y.shape[1]:
        raise ValueError(f"{n_users} users exceed the {Y.shape[1]}-symbol block")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    M, C_u = Y.shape
    rho_d = np.asarray(rho_d, dtype=float)
    rho_p = np.asarray(rho_p, dtype=float)

    if profile is None:
        profile = predict_profile(beta, rho_d, rho_p, sigma2, M, C_u, P, sweeps, selection)
    elif profile.sweeps < sweeps:
        raise ValueError(f"profile covers {profile.sweeps} sweeps, need {sweeps}")
    fixed_mask = profile.fixed_mask
    feeders = np.ones(n_users, dtype=bool) if fixed_mask is None else fixed_mask

    conj_rows = np.conj(pilots).T.copy()
    base = np.stack([Y @ conj_rows[n] for n in range(n_users)])
    h_work = np.zeros((n_users, M), dtype=complex)
    x_work = np.zeros((n_users, C_u), dtype=complex)
    x_tilde = np.zeros((n_users, C_u), dtype=complex)
    last_masks = np.zeros((n_users, n_users), dtype=bool)

    members = np.flatnonzero(feeders)
    for i in range(1, sweeps + 1):
        # users outside the set feed nobody back: only their last sweep counts
        for m in range(n_users) if i == sweeps else members:
            if fixed_mask is not None:
                mask = fixed_mask
            else:
                idx = np.arange(n_users)
                mask = np.where(idx < m, profile.include[i], profile.include[i - 1])
            last_masks[m] = mask
            fed = np.flatnonzero(mask)
            if fed.size:
                coefs = (x_work[fed] @ conj_rows[m]) * rho_d[fed]
                corrected = base[m] - coefs @ h_work[fed]
                h_new = corrected / (C_u * rho_p[m])
            else:
                h_new = base[m] / (C_u * rho_p[m])
            h_work[m] = h_new
            x_tilde[m] = _mf_sp_output(Y, h_new, pilots[:, m], float(rho_d[m]), float(rho_p[m]), float(beta[m]))
            if feeders[m]:
                x_work[m] = decide(x_tilde[m], P)
    if not feeders.all():
        x_work[~feeders] = decide(x_tilde[~feeders], P)

    return IterationState(
        h_hat=h_work,
        x_tilde=x_tilde,
        x_hat=x_work,
        user_sets=last_masks,
    )

