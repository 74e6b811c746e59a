"""Data-aided iterative channel estimation with interference prediction.

The estimator sweeps the N = L*K users in decreasing order of their gains
at the serving BS.  For each target it rebuilds the superimposed-pilot
least-squares estimate after subtracting the reconstructed data
contributions rho_d * h_hat * x_hat^T of a chosen feedback set: users
already updated this sweep contribute current-iteration values, the rest
contribute the previous iteration's.  When the set is fixed, only its
members are needed in every sweep; the others are estimated once, in the
last sweep, against the set's values at that point.

predict_profile is the deterministic companion recursion.  It predicts each
target's channel-error energy psi, its matched-filter error variance and,
through the square-QAM decision-error model, its decision-error variance
alpha, and admits the target to the feedback set when feeding it back
cannot raise its predicted error.  It runs the same Gauss-Seidel schedule
as the estimator: row i of alpha, psi and include starts as a copy of row
i - 1 and entry m is overwritten once target m is predicted, so each target
reads this sweep's values below it and the previous sweep's from it on.
The "fixed" feedback set is the admission row of one sweep in which nobody
is fed back; the profile carries that set (or None for per_iteration, where
the set follows the admission rows sweep by sweep), and the estimator takes
its sweep count and feedback set from the profile.

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


def _recursion(beta, rho_d, rho_p, sigma2, M, C_u, P, sweeps, fixed_mask):
    """The four profile arrays of `sweeps` Gauss-Seidel sweeps.

    Row i of alpha, psi and include is the working row of sweep i: it starts
    as a copy of row i - 1 and entry m is overwritten once target m is
    predicted, so target m sees this sweep's values below m and the previous
    sweep's from m on.
    """
    n_users = beta.shape[0]
    sum_beta = float(np.sum(beta))
    M2 = M**2
    base = beta**2 + beta * sum_beta / M
    rho_d2 = rho_d**2
    full_power = rho_d2 * base
    noise = sigma2 * sum_beta / M
    bs = [float(b) for b in beta]
    # per-target scalars: psi scale, leakage plus noise, MF gain, admission base
    scale = [M2 / (C_u * float(r) ** 2) for r in rho_p]
    leak = [b * (sum_beta - b) / M + sigma2 * b / M for b in bs]
    gain = [float(r) ** 2 * b**2 for r, b in zip(rho_d, bs)]
    adm = [b**2 + b * sum_beta / M for b in bs]

    interference = np.full((sweeps + 1, n_users), math.inf)
    alpha = np.ones((sweeps + 1, n_users))
    psi = np.zeros((sweeps + 1, n_users))
    include = np.zeros((sweeps + 1, n_users), dtype=bool)
    for i in range(1, sweeps + 1):
        alpha[i], psi[i], include[i] = alpha[i - 1], psi[i - 1], include[i - 1]
        alpha_w, psi_w, include_w = alpha[i], psi[i], include[i]
        for m in range(n_users):
            fed = include_w if fixed_mask is None else fixed_mask
            # fed users leave their decision-error-scaled residual, the rest
            # their full data power; noise adds a flat term
            a_fed, psi_fed = alpha_w[fed], psi_w[fed]
            core = float(np.sum(rho_d2[fed] * (base[fed] * a_fed + (1.0 + a_fed) * psi_fed / M2)))
            core += float(np.sum(full_power[~fed]))
            core += noise
            psi_w[m] = psi_m = scale[m] * core
            p = psi_m / M2
            interference[i, m] = inter = (leak[m] + p) / gain[m]
            alpha_w[m] = a = alpha_pqam(inter, P)
            # admission: feeding m back cannot raise its predicted error
            include_w[m] = a < (adm[m] - p) / (adm[m] + p)
    return interference, alpha, psi, include


def predict_profile(
    beta: np.ndarray,
    rho_d: np.ndarray,
    rho_p: np.ndarray,
    sigma2: float,
    M: int,
    C_u: int,
    P: int,
    sweeps: int,
    selection: str = "fixed",
) -> PredictionProfile:
    """Run the deterministic error-prediction recursion for `sweeps` sweeps.

    beta must already be sorted in decreasing order (ties broken by the
    caller); rho_d and rho_p are the matching per-user amplitude arrays.
    selection is one of SELECTION_RULES.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    beta = np.asarray(beta, dtype=float)
    rho_d = np.asarray(rho_d, dtype=float)
    rho_p = np.asarray(rho_p, dtype=float)
    args = (beta, rho_d, rho_p, sigma2, M, C_u, P)
    nobody = np.zeros(beta.shape[0], dtype=bool)
    if selection == "none":
        fixed_mask = nobody
    elif selection == "all":
        fixed_mask = ~nobody
    elif selection == "fixed":
        # admitted iff, with nobody fed back, feeding it back cannot raise its error
        fixed_mask = _recursion(*args, 1, nobody)[3][1]
    elif selection == "per_iteration":
        fixed_mask = None
    else:
        raise ValueError(f"unknown selection rule {selection!r}; expected {SELECTION_RULES}")
    interference, alpha, psi, include = _recursion(*args, sweeps, fixed_mask)
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
    profile: PredictionProfile,
) -> IterationState:
    """Joint channel/data estimation over the profile's ordered sweeps.

    Y is the M x C_u block; pilots holds each user's dedicated column
    (C_u x N, sorted like beta).  The profile, computed for these users,
    supplies the sweep count and the feedback set.  With a fixed feedback
    set (every rule but per_iteration) only the set's members are
    re-estimated in every sweep, in gain order, each deciding its data at
    once for the users after it.  Nobody reads the estimates of users outside
    the set, so they are computed once, in their place in the last sweep, and
    decided together at its end; the result equals re-estimating every user
    in every sweep.  per_iteration may feed any user back at some sweep, so
    it runs the full schedule.  With an empty feedback set the result
    reproduces the one-shot estimator and detector exactly.  The profile is
    data-independent, so callers running many blocks with the same
    large-scale state compute it once.
    """
    beta = np.asarray(beta, dtype=float)
    n_users = beta.shape[0]
    if np.any(np.diff(beta) > 0):
        raise ValueError("beta must be sorted in decreasing order")
    if pilots.shape != (Y.shape[1], n_users):
        raise ValueError(f"pilots must be (C_u, N) = {(Y.shape[1], n_users)}, got {pilots.shape}")
    if n_users > Y.shape[1]:
        raise ValueError(f"{n_users} users exceed the {Y.shape[1]}-symbol block")
    if profile.include.shape[1] != n_users:
        raise ValueError(f"profile covers {profile.include.shape[1]} users, need {n_users}")
    M, C_u = Y.shape
    rho_d = np.asarray(rho_d, dtype=float)
    rho_p = np.asarray(rho_p, dtype=float)
    sweeps = profile.sweeps
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

