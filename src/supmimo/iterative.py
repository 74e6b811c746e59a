"""Data-aided iterative channel estimation with interference prediction.

The estimator sweeps the N = L*K users in decreasing order of their gains
at the serving BS, ties in the order given.  Only this module knows that
order: callers pass per-user arrays in any order (the harness passes flat
l*K + k) and get back the rows of the users they list.  Inputs are
permuted into sweep order once on entry and results back once on exit, so
every step works on contiguous slices.  For each target it rebuilds the
superimposed-pilot least-squares estimate after subtracting the
reconstructed data contributions rho_d * h_hat * x_hat^T of a chosen
feedback set: users already updated this sweep contribute
current-iteration values, the rest the previous iteration's.  When the set
is fixed, only its members are needed in every sweep.  The caller names
the users it reads (report); those outside the set are estimated once, in
the last sweep, against the set's values at that point, and a user in
neither is neither projected nor matched-filtered.  Every computed user
gets the bits of the full schedule.  per_iteration may feed any user back,
so it computes everyone.  It takes one block or a stack of blocks with the
same users, e.g. one per Monte-Carlo trial, and runs each step of its
sequential schedule on the whole stack.

predict_profile is the deterministic companion recursion.  It predicts each
target's channel-error energy psi, its matched-filter error variance and,
through the square-QAM decision-error model, its decision-error variance
alpha, and admits the target to the feedback set when feeding it back
cannot raise its predicted error.  It runs the same Gauss-Seidel schedule
as the estimator: in sweep order, row i of alpha, psi and include starts as
a copy of row i - 1 and entry m is overwritten once target m is predicted,
so each target reads this sweep's values before it and the previous
sweep's from it on.  The "fixed" feedback set is the admission row of one
sweep in which nobody is fed back.  The profile carries that set (or None
for per_iteration, where the set follows the admission rows sweep by
sweep) and the sweep order, and the estimator's schedule (_schedule) comes
from the profile.  The recursion takes one layout or a batch of layouts,
each with its own gains, and runs each (sweep, target) step on the whole
batch.  Its sums over the feedback set are taken over rows grouped by the
set's size, so every layout gets the bits it gets alone; padding the rows
with zeros would change numpy's pairwise-summation lanes.

All prediction formulas assume unit total power per user, i.e. gains are
the power-controlled equivalents and rho_d^2 + rho_p^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import _conj_rows, _mf_sp_output, _per_row, _project
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

    Columns are users in flat order.  interference[0] is +inf (no estimate
    exists yet) and alpha[0] is 1 by definition of the all-wrong initial
    decisions.  include[i][n] records whether user n passed the admission
    threshold after sweep i.  fixed_mask is the feedback set every sweep
    uses, or None when the set follows include sweep by sweep
    (per_iteration).  order[j] is the user swept j-th.  A profile of a batch
    of B layouts carries a leading B axis on every array; layout(b) is the
    profile of one of them.
    """

    interference: np.ndarray
    alpha: np.ndarray
    psi: np.ndarray
    include: np.ndarray
    fixed_mask: np.ndarray | None
    order: np.ndarray

    @property
    def sweeps(self) -> int:
        return self.interference.shape[-2] - 1

    def layout(self, b: int) -> "PredictionProfile":
        """The one-layout profile of row b of a batched profile."""
        return PredictionProfile(
            interference=self.interference[b], alpha=self.alpha[b], psi=self.psi[b],
            include=self.include[b],
            fixed_mask=None if self.fixed_mask is None else self.fixed_mask[b],
            order=self.order[b])


def _row_groups(mask: np.ndarray) -> list:
    """The rows of a (B, N) mask grouped by their count of set entries.

    Each group is (rows, idx): idx[g] holds the flat (B * N) indices of row
    rows[g]'s set entries, in column order.  _grouped_sums reduces a group
    in one call.
    """
    counts = np.count_nonzero(mask, axis=1)
    groups = []
    for size in set(counts.tolist()):
        rows = np.flatnonzero(counts == size)
        cols = np.nonzero(mask[rows])[1].reshape(rows.size, size)
        groups.append((rows, rows[:, np.newaxis] * mask.shape[1] + cols))
    return groups


def _grouped_sums(values: np.ndarray, groups: list) -> np.ndarray:
    """Per-row sums of a (B, N) array over the grouped entries.

    Each sum has the bits of np.add.reduce over that row's compacted
    entries: numpy sums a C-contiguous (G, F) array along axis 1 row by row
    with the same pairwise lanes as a 1-D array of F.  Padding the rows to
    one length with zeros would change those lanes, hence the groups.
    """
    sums = np.empty(values.shape[0])
    for rows, idx in groups:
        sums[rows] = np.add.reduce(values.take(idx), axis=1)
    return sums


def _squares(values: np.ndarray) -> np.ndarray:
    """Elementwise squares by Python's float power.

    That is libm's pow, which the profile's bits are pinned to; numpy's
    x**2 is x*x and need not round the same.
    """
    return np.array([[v**2 for v in row] for row in values.tolist()]).reshape(values.shape)


def _recursion(beta, rho_d, rho_p, sigma2, M, C_u, P, sweeps, fixed_mask):
    """The four (B, sweeps + 1, N) profile arrays of `sweeps` Gauss-Seidel sweeps.

    beta, rho_d and rho_p are (B, N), one layout per row; fixed_mask is
    (B, N) or None.  Row i of alpha, psi and include is the working row of
    sweep i: it starts as a copy of row i - 1 and entry m is overwritten
    once target m is predicted, so target m sees this sweep's values below
    m and the previous sweep's from m on.  Each step runs on all B layouts
    at once and gives every layout the bits it has alone.
    """
    n_layouts, n_users = beta.shape
    sum_beta = np.add.reduce(beta, axis=1)
    M2 = M**2
    base = beta**2 + beta * sum_beta[:, np.newaxis] / M
    rho_d2 = rho_d**2
    full_power = rho_d2 * base
    noise = sigma2 * sum_beta / M
    # per-target (N, B) columns: psi scale, leakage plus noise, MF gain,
    # admission base
    b2 = _squares(beta)
    scale = (M2 / (C_u * _squares(rho_p))).T.copy()
    leak = (beta * (sum_beta[:, np.newaxis] - beta) / M + sigma2 * beta / M).T.copy()
    gain = (_squares(rho_d) * b2).T.copy()
    adm = (b2 + beta * sum_beta[:, np.newaxis] / M).T.copy()

    shape = (n_layouts, sweeps + 1, n_users)
    interference = np.full(shape, math.inf)
    alpha = np.ones(shape)
    psi = np.zeros(shape)
    include = np.zeros(shape, dtype=bool)
    if fixed_mask is not None:
        # the same sets in every step: group the rows once
        fed_groups = _row_groups(fixed_mask)
        rest = _grouped_sums(full_power, _row_groups(~fixed_mask))
    for i in range(1, sweeps + 1):
        alpha[:, i], psi[:, i], include[:, i] = alpha[:, i - 1], psi[:, i - 1], include[:, i - 1]
        alpha_w, psi_w, include_w = alpha[:, i], psi[:, i], include[:, i]
        for m in range(n_users):
            if fixed_mask is None:
                fed_groups = _row_groups(include_w)
                rest = _grouped_sums(full_power, _row_groups(~include_w))
            # fed users leave their decision-error-scaled residual, the rest
            # their full data power; noise adds a flat term
            term = rho_d2 * (base * alpha_w + (1.0 + alpha_w) * psi_w / M2)
            core = _grouped_sums(term, fed_groups) + rest + noise
            psi_w[:, m] = psi_m = scale[m] * core
            p = psi_m / M2
            interference[:, i, m] = inter = (leak[m] + p) / gain[m]
            alpha_w[:, m] = a = np.array([alpha_pqam(x, P) for x in inter.tolist()])
            # admission: feeding m back cannot raise its predicted error
            include_w[:, m] = a < (adm[m] - p) / (adm[m] + p)
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

    beta is one layout's gains (N,) or a batch of B layouts (B, N), users in
    any order; rho_d and rho_p are the matching per-user amplitudes, of
    beta's shape or broadcast to it.  Each row is sorted into sweep order for
    the recursion and its results are returned in the row's own order.  A
    batch gives a profile with a leading B axis whose layout(b) equals the
    profile of row b alone, bit for bit.  selection is one of SELECTION_RULES.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    beta = np.asarray(beta, dtype=float)
    batch = np.atleast_2d(beta)
    # the sweep order: decreasing gain, ties in the order given
    order = np.argsort(-batch, axis=1, kind="stable")
    args = tuple(np.take_along_axis(np.broadcast_to(np.asarray(a, dtype=float), batch.shape),
                                    order, axis=1) for a in (batch, rho_d, rho_p))
    args += (sigma2, M, C_u, P)
    nobody = np.zeros(batch.shape, dtype=bool)
    if selection == "none":
        fixed_mask = nobody
    elif selection == "all":
        fixed_mask = ~nobody
    elif selection == "fixed":
        # admitted iff, with nobody fed back, feeding it back cannot raise its error
        fixed_mask = _recursion(*args, 1, nobody)[3][:, 1]
    elif selection == "per_iteration":
        fixed_mask = None
    else:
        raise ValueError(f"unknown selection rule {selection!r}; expected {SELECTION_RULES}")
    # sweep positions back to each row's own order
    flat = np.argsort(order, axis=1)[:, np.newaxis]
    interference, alpha, psi, include = (np.take_along_axis(a, flat, axis=2)
                                         for a in _recursion(*args, sweeps, fixed_mask))
    if fixed_mask is not None:
        fixed_mask = np.take_along_axis(fixed_mask, flat[:, 0], axis=1)
    profile = PredictionProfile(interference=interference, alpha=alpha, psi=psi, include=include,
                                fixed_mask=fixed_mask, order=order)
    return profile if beta.ndim == 2 else profile.layout(0)


@dataclass(frozen=True)
class IterationState:
    """Final state of the data-aided estimator, users in flat order.

    The predicted error statistics of each sweep are in the profile.
    """

    h_hat: np.ndarray
    x_tilde: np.ndarray
    x_hat: np.ndarray


def iterative_estimate(
    Y: np.ndarray,
    pilots: np.ndarray,
    beta: np.ndarray,
    rho_d: np.ndarray,
    rho_p: np.ndarray,
    P: int,
    profile: PredictionProfile,
    report: np.ndarray,
) -> IterationState:
    """Joint channel/data estimation over the profile's ordered sweeps.

    Y is the M x C_u block, or a stack (T, M, C_u) of T blocks with the same
    users, e.g. one per trial; pilots holds each user's dedicated column
    (C_u x N), and pilots, beta, rho_d and rho_p list the users in the same
    order as the profile, which is computed for them and supplies the sweep
    order, the sweep count and the feedback set.  report lists the users
    the caller reads, as indices into that order; the state holds their
    rows only, in report's order.

    With a fixed feedback set (every rule but per_iteration) only the set's
    members are re-estimated in every sweep, in sweep order, each deciding
    its data at once for the users after it.  Of the users outside the set
    only the reported ones are read, so they are computed once, in their
    place in the last sweep, where a run of them between two members is one
    step, and the others not at all.  A reported user's result equals
    re-estimating every user in every sweep.
    per_iteration may feed any user back at some sweep, so it runs the full
    schedule.  With an empty feedback set the result reproduces the
    one-shot estimator and detector exactly.  The profile is
    data-independent, so callers running many blocks with the same
    large-scale state compute it once.

    The schedule is sequential; each of its steps runs on all T blocks at
    once, as one stacked matrix-vector product per block and user, so a
    user's result depends neither on the other blocks in the stack nor on
    which other users are computed.  The state arrays carry the leading T
    axis when Y does.
    """
    n_users = np.shape(beta)[0]
    if Y.ndim not in (2, 3):
        raise ValueError(f"Y must be (M, C_u) or (T, M, C_u), got shape {Y.shape}")
    M, C_u = Y.shape[-2:]
    if pilots.shape != (C_u, n_users):
        raise ValueError(f"pilots must be (C_u, N) = {(C_u, n_users)}, got {pilots.shape}")
    if n_users > C_u:
        raise ValueError(f"{n_users} users exceed the {C_u}-symbol block")
    if profile.include.shape != (profile.sweeps + 1, n_users):
        raise ValueError(f"need one layout's profile of {n_users} users, "
                         f"got include of shape {profile.include.shape}")
    report = np.asarray(report)
    if report.ndim != 1 or np.any((report < 0) | (report >= n_users)):
        raise ValueError(f"report must list user indices in [0, {n_users}), got {report!r}")
    stack = Y if Y.ndim == 3 else Y[np.newaxis]
    T = stack.shape[0]
    # the computed users, in sweep order, so every step below reads
    # contiguous slices
    position = np.argsort(profile.order)
    kept, steps = _schedule(profile, position[report])
    users_kept = profile.order[kept]
    pilots = pilots[:, users_kept]
    beta, rho_d, rho_p = (np.asarray(a, dtype=float)[users_kept] for a in (beta, rho_d, rho_p))

    conj_rows = _conj_rows(pilots)
    base = _project(stack, conj_rows)
    h_hat = np.zeros((T, kept.size, M), dtype=complex)
    x_tilde = np.zeros((T, kept.size, C_u), dtype=complex)
    x_hat = np.zeros((T, kept.size, C_u), dtype=complex)
    for users, fed in steps:
        if fed.size:
            # (T, G, F) coefficients, then (T, G, M) estimates: per block and
            # user, the matrix-vector products of one user alone
            coefs = np.matmul(x_hat[:, np.newaxis, fed], conj_rows[users, :, np.newaxis])[..., 0]
            coefs *= rho_d[fed]
            leak = np.matmul(coefs[..., np.newaxis, :], h_hat[:, np.newaxis, fed])[..., 0, :]
            h_new = (base[:, users] - leak) / _per_row(C_u * rho_p[users])
        else:
            h_new = base[:, users] / _per_row(C_u * rho_p[users])
        h_hat[:, users] = h_new
        x_tilde[:, users] = x_new = _mf_sp_output(
            stack, h_new, pilots[:, users], rho_d[users], rho_p[users], beta[users])
        x_hat[:, users] = decide(x_new, P)

    # the reported rows in report's order
    rows = np.searchsorted(kept, position[report])
    h_hat, x_tilde, x_hat = h_hat[:, rows], x_tilde[:, rows], x_hat[:, rows]
    if Y.ndim == 2:
        h_hat, x_tilde, x_hat = h_hat[0], x_tilde[0], x_hat[0]
    return IterationState(h_hat=h_hat, x_tilde=x_tilde, x_hat=x_hat)


def _schedule(profile: PredictionProfile, report: np.ndarray):
    """The users the estimator computes and its steps, in sweep positions.

    report holds the sweep positions the caller reads.  Returns (kept,
    steps): kept lists the sweep positions computed, in sweep order, and
    each step (users, fed) indexes kept, users being the slice it
    re-estimates and fed the feedback set it reads.  With a fixed set,
    kept is the members and the reported users; the members are
    re-estimated one at a time in every sweep and the reported others only
    in the last, where each run of them between two members reads the same
    state and is one step.  per_iteration keeps every user and makes it a
    step in every sweep, fed by this sweep's admissions before it and the
    previous sweep's from it on.
    """
    n_users, sweeps = profile.order.size, profile.sweeps
    if profile.fixed_mask is None:
        include = profile.include[:, profile.order]
        steps = [(slice(m, m + 1),
                  np.flatnonzero(np.concatenate((include[i, :m], include[i - 1, m:]))))
                 for i in range(1, sweeps + 1) for m in range(n_users)]
        return np.arange(n_users), steps
    member = profile.fixed_mask[profile.order]
    keep = member.copy()
    keep[report] = True
    kept = np.flatnonzero(keep)
    fed = np.flatnonzero(member[kept])
    members = fed.tolist()
    steps = [(slice(m, m + 1), fed) for _ in range(1, sweeps) for m in members]
    edges = sorted({0, kept.size, *members, *(m + 1 for m in members)})
    steps += [(slice(lo, hi), fed) for lo, hi in zip(edges, edges[1:])]
    return kept, steps
