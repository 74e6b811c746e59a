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
neither is neither reduced nor matched-filtered.  per_iteration may feed
any user back, so it computes everyone.

The sweeps never touch the M-antenna block.  Every estimate they make is a
linear combination of the kept users' one-shot estimates h0_n = Y conj(p_n)
/ (C_u rho_p,n), so the estimator reads a block only through two arrays
over the n kept users: G = conj(h0) Y (n x C_u), their matched-filter
outputs, and R = conj(h0) h0^T (n x n).  The caller projects the block
onto the kept users' estimator columns (estimators.project), which gives
h0 and G without forming the block, and reduce_block adds R.  The
estimator then carries each user as a row of coefficients over that basis;
its matched-filter output is a combination of G's rows and its power a
quadratic form in R.  A block's state is thus n (C_u + n) entries whatever
M is, and a step's matched filter costs n C_u instead of M C_u, so a caller
can reduce each Monte-Carlo trial as it is drawn and run the sweeps on a
stack of many trials' (G, R) pairs at once.  A user with an empty feedback
set gets the one-shot estimator's bits, and every computed user gets the
bits it has alone, whatever else is reported or stacked.

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
sweep), the sweep order, and the gains, amplitudes, M and P it was computed
for; the estimator reads all of them, its schedule (_schedule) included,
from the profile.  The recursion takes one layout or a batch of layouts,
each with its own gains, and runs each (sweep, target) step on the whole
batch.  A step's psi core is one masked row sum of a C-contiguous (B, N)
array, and numpy sums each row of such an array along axis 1 with the
pairwise lanes of a 1-D sum of that row, so every layout gets the bits it
gets alone.

All prediction formulas assume unit total power per user, i.e. gains are
the power-controlled equivalents and rho_d^2 + rho_p^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimators import Projection, _conj_rows, _per_row, _powers, sp_output
from .waveform import _side, decide

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
    side = _side(P)
    coef = 24.0 / (side * (side + 1.0))
    if interference == 0.0:
        return 0.0
    arg = math.sqrt((3.0 / (P - 1)) / interference)
    return coef * q_function(arg)


@dataclass(frozen=True)
class PredictionProfile:
    """Per-sweep prediction history; row i of each array is iteration i.

    Columns are users in the caller's order.  interference[0] is +inf (no
    estimate exists yet) and alpha[0] is 1 by definition of the all-wrong
    initial decisions.  include[i][n] records whether user n passed the
    admission threshold after sweep i.  fixed_mask is the feedback set every
    sweep uses, or None when the set follows include sweep by sweep
    (per_iteration).  order[j] is the user swept j-th.  beta, rho_d and
    rho_p are the per-user gains and amplitudes the profile was computed
    for, M its antenna count and P its QAM order.  A profile of a batch of B
    layouts carries a leading B axis on every array; layout(b) is the
    profile of one of them.
    """

    interference: np.ndarray
    alpha: np.ndarray
    psi: np.ndarray
    include: np.ndarray
    fixed_mask: np.ndarray | None
    order: np.ndarray
    beta: np.ndarray
    rho_d: np.ndarray
    rho_p: np.ndarray
    M: int
    P: int

    @property
    def sweeps(self) -> int:
        return self.interference.shape[-2] - 1

    def layout(self, b: int) -> "PredictionProfile":
        """The one-layout profile of row b of a batched profile."""
        rows = {name: getattr(self, name)[b] for name in
                ("interference", "alpha", "psi", "include", "order", "beta", "rho_d", "rho_p")}
        return replace(self, fixed_mask=None if self.fixed_mask is None else self.fixed_mask[b],
                       **rows)


def _recursion(beta, rho_d, rho_p, sigma2, M, C_u, P, sweeps, fixed_mask):
    """The four (B, sweeps + 1, N) profile arrays of `sweeps` Gauss-Seidel sweeps.

    beta, rho_d and rho_p are (B, N), one layout per row; fixed_mask is
    (B, N) or None.  Row i of alpha, psi and include is the working row of
    sweep i: it starts as a copy of row i - 1 and entry m is overwritten
    once target m is predicted, so target m sees this sweep's values below
    m and the previous sweep's from m on.  Each step runs on all B layouts
    at once and gives every layout the bits it has alone: the psi core is
    one masked sum of a C-contiguous (B, N) array along its rows.
    """
    n_layouts, n_users = beta.shape
    sum_beta = np.add.reduce(beta, axis=1)
    M2 = M**2
    b2 = beta * beta
    base = b2 + beta * sum_beta[:, np.newaxis] / M
    rho_d2 = rho_d * rho_d
    full_power = rho_d2 * base
    noise = sigma2 * sum_beta / M
    # per-target (N, B) columns: psi scale, leakage plus noise, MF gain
    scale = (M2 / (C_u * (rho_p * rho_p))).T.copy()
    leak = (beta * (sum_beta[:, np.newaxis] - beta) / M + sigma2 * beta / M).T.copy()
    gain = (rho_d2 * b2).T.copy()

    shape = (n_layouts, sweeps + 1, n_users)
    interference = np.full(shape, math.inf)
    alpha = np.ones(shape)
    psi = np.zeros(shape)
    include = np.zeros(shape, dtype=bool)
    for i in range(1, sweeps + 1):
        alpha[:, i], psi[:, i], include[:, i] = alpha[:, i - 1], psi[:, i - 1], include[:, i - 1]
        alpha_w, psi_w, include_w = alpha[:, i], psi[:, i], include[:, i]
        # per_iteration feeds back the working row, updated in place below
        fed = include_w if fixed_mask is None else fixed_mask
        for m in range(n_users):
            # fed users leave their decision-error-scaled residual, the rest
            # their full data power; noise adds a flat term
            term = rho_d2 * (base * alpha_w + (1.0 + alpha_w) * psi_w / M2)
            core = np.where(fed, term, full_power).sum(axis=1) + noise
            psi_w[:, m] = psi_m = scale[m] * core
            p = psi_m / M2
            interference[:, i, m] = inter = (leak[m] + p) / gain[m]
            alpha_w[:, m] = a = np.array([alpha_pqam(x, P) for x in inter.tolist()])
            # admission: feeding m back cannot raise its predicted error
            include_w[:, m] = a < (base[:, m] - p) / (base[:, m] + p)
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
    The profile keeps copies of beta, rho_d and rho_p, at beta's shape, with
    M and P: they are what iterative_estimate reads.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    single = np.ndim(beta) == 1
    batch = np.atleast_2d(np.array(beta, dtype=float))
    rho_d, rho_p = (np.broadcast_to(np.asarray(a, dtype=float), batch.shape).copy()
                    for a in (rho_d, rho_p))
    # the sweep order: decreasing gain, ties in the order given
    order = np.argsort(-batch, axis=1, kind="stable")
    args = tuple(np.take_along_axis(a, order, axis=1) for a in (batch, rho_d, rho_p))
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
                                fixed_mask=fixed_mask, order=order, beta=batch, rho_d=rho_d,
                                rho_p=rho_p, M=M, P=P)
    return profile.layout(0) if single else profile


def reduced_users(profile: PredictionProfile, report: np.ndarray) -> np.ndarray:
    """The users iterative_estimate keeps for (profile, report), in sweep order."""
    return profile.order[_kept(profile, np.argsort(profile.order)[report])[0]]


def reduce_block(projection: Projection) -> tuple[np.ndarray, np.ndarray]:
    """The (G, R) statistics the estimator reads from an SP block's projection.

    projection is the block, or a stack of T blocks, seen through the
    one-shot estimator columns conj(p_n) / (C_u rho_p,n) of the n users the
    estimator keeps, as reduced_users lists them (estimators.estimator_columns
    under the all-SP partition): its estimates are their h0 and its matched
    rows G[..., i, :] = conj(h0_i) Y.  R[..., i, j] = conj(h0_i) . h0_j, with
    a real diagonal that has the bits of the powers estimators.receive_cell
    reads, so a user with an empty feedback set gets receive_cell's output.
    """
    estimates, G = projection
    h0 = np.ascontiguousarray(np.swapaxes(estimates, -1, -2))
    # every entry is one dot product of two estimates, whatever else is kept
    R = np.vecdot(h0[..., :, np.newaxis, :], h0[..., np.newaxis, :, :])
    diagonal = np.arange(estimates.shape[-1])
    R[..., diagonal, diagonal] = _powers(estimates)
    return G, R


def iterative_estimate(
    G: np.ndarray,
    R: np.ndarray,
    pilots: np.ndarray,
    profile: PredictionProfile,
    report: np.ndarray,
) -> np.ndarray:
    """Joint channel/data estimation over the profile's ordered sweeps.

    G (T, n, C_u) and R (T, n, n) are the reduce_block statistics of a stack
    of T blocks over the same n kept users (reduced_users), e.g. one block
    per trial; one block is a stack of one.  profile is one layout's: it
    supplies the users' gains and amplitudes, M, P, the sweep order, the
    sweep count and the feedback set.  pilots holds each user's dedicated
    column (C_u x N), users in the order the profile was computed for, and
    report lists the users the caller reads, as indices into that order.
    Returns their final matched-filter outputs only, in report's order, as a
    (T, len(report), C_u) array; only the feedback set's decisions are made,
    the ones fed back.

    With a fixed feedback set (every rule but per_iteration) only the set's
    members are re-estimated in every sweep, in sweep order, each deciding
    its data at once for the users after it.  Of the users outside the set
    only the reported ones are read, so they are computed once, in their
    place in the last sweep, where a run of them between two members is one
    step, and the others not at all: they are neither reduced nor filtered.
    per_iteration may feed any user back at some sweep, so it runs the full
    schedule for everyone.

    Every estimate is a combination of one-shot estimates: a user's update
    h = h0 - sum_f rho_d,f (x_hat_f . conj(p)) h_f / (C_u rho_p) keeps it in
    the span of the basis (the feedback set; everyone under per_iteration)
    plus the user's own h0.  So a user is a row a of coefficients over the
    basis, plus its own h0 at coefficient 1 when it is outside the basis,
    and its matched-filter output conj(h) Y and power ||h||^2 come from G
    and R: conj(a) G_B (+ G_u) and conj(a) R_BB a (+ 2 Re(R_uB a) + R_uu).
    A user with an empty feedback set is its own h0, so it reproduces the
    one-shot estimator and detector exactly.  Each sum runs over the user's
    own basis in sweep order, as one stacked matrix-vector product per
    block and user, so a user's result depends neither on report, nor on
    the other blocks in the stack, nor on which other users are computed.
    The profile is data-independent, so callers running many blocks with
    the same large-scale state compute it once.
    """
    if profile.order.ndim != 1:
        raise ValueError(f"need one layout's profile, got a batch of {profile.order.shape[0]}")
    n_users = profile.order.size
    report = _check_report(report, n_users)
    position = np.argsort(profile.order)
    kept, basis = _kept(profile, position[report])
    n = kept.size
    if G.ndim != 3 or G.shape[1] != n or R.shape != (G.shape[0], n, n):
        raise ValueError(f"need G (T, {n}, C_u) and R (T, {n}, {n}) over the {n} users this "
                         f"profile and report keep, got {G.shape} and {R.shape}")
    T, _, C_u = G.shape
    if pilots.shape != (C_u, n_users):
        raise ValueError(f"pilots must be (C_u, N) = {(C_u, n_users)}, got {pilots.shape}")
    if n_users > C_u:
        raise ValueError(f"{n_users} users exceed the {C_u}-symbol block")
    # the computed users, in sweep order, so every step below reads
    # contiguous slices
    users_kept = profile.order[kept]
    pilots = pilots[:, users_kept]
    conj_rows = _conj_rows(pilots)
    pilot_rows = np.ascontiguousarray(pilots.T)
    beta, rho_d, rho_p = (a[users_kept] for a in (profile.beta, profile.rho_d, profile.rho_p))
    ls_scale = C_u * rho_p
    mf_gain = profile.M * rho_d * beta
    slot = np.full(kept.size, -1)
    slot[basis] = np.arange(basis.size)
    # C-contiguous gathers: a product's bits follow its operands' strides,
    # and a fancy index lays its axes out by the stack size
    G_basis = G.take(basis, axis=1)
    R_basis = R.take(basis, axis=1).take(basis, axis=2)
    # coefficient rows and decisions of the basis users, the ones fed back;
    # zero rows are the zero estimates nobody has computed yet
    coefs = np.zeros((T, basis.size, basis.size), dtype=complex)
    x_basis = np.zeros((T, basis.size, C_u), dtype=complex)
    x_tilde = np.zeros((T, kept.size, C_u), dtype=complex)
    for users, fed in _schedule(profile, kept, basis):
        inside = slot[users.start]
        everyone = fed.size == basis.size
        x_fed, coefs_fed = ((x_basis, coefs) if everyone
                            else (a.take(slot[fed], axis=1) for a in (x_basis, coefs)))
        # (T, G, F) weights, then (T, G, B) coefficients: per block and
        # user, the matrix-vector products of one user alone
        weights = np.matmul(x_fed[:, np.newaxis], conj_rows[users, :, np.newaxis])[..., 0]
        weights *= rho_d[fed]
        weights /= _per_row(ls_scale[users])
        a = np.matmul(weights[..., np.newaxis, :], coefs_fed[:, np.newaxis])[..., 0, :]
        np.negative(a, out=a)
        if inside >= 0:
            a[..., inside] += 1.0
            coefs[:, inside] = a[:, 0]
        out = np.matmul(np.conj(a)[..., np.newaxis, :], G_basis[:, np.newaxis])[..., 0, :]
        power = np.vecdot(a, np.matmul(R_basis[:, np.newaxis], a[..., np.newaxis])[..., 0]).real
        if inside < 0:
            # the users' own h0, at coefficient 1
            out += G[:, users]
            cross = np.matmul(R[:, users].take(basis, axis=2)[..., np.newaxis, :],
                              a[..., np.newaxis])[..., 0, 0]
            power += 2.0 * cross.real
            power += np.diagonal(R[:, users, users], axis1=1, axis2=2).real
        x_tilde[:, users] = x_new = sp_output(out, power, pilot_rows[users], rho_p[users],
                                              mf_gain[users])
        if inside >= 0:
            x_basis[:, inside] = decide(x_new[:, 0], profile.P)

    # the reported rows in report's order
    rows = np.searchsorted(kept, position[report])
    return x_tilde[:, rows]


def _check_report(report, n_users: int) -> np.ndarray:
    report = np.asarray(report)
    if report.ndim != 1 or np.any((report < 0) | (report >= n_users)):
        raise ValueError(f"report must list user indices in [0, {n_users}), got {report!r}")
    return report


def _kept(profile: PredictionProfile, report: np.ndarray):
    """The sweep positions the estimator computes, and its basis.

    report holds the sweep positions the caller reads.  Returns (kept,
    basis): kept lists the sweep positions computed, in sweep order, and
    basis indexes kept.  With a fixed set, kept is the members and the
    reported users, and the basis the members; per_iteration keeps
    everyone, all in the basis.
    """
    if profile.fixed_mask is None:
        everyone = np.arange(profile.order.size)
        return everyone, everyone
    member = profile.fixed_mask[profile.order]
    keep = member.copy()
    keep[report] = True
    kept = np.flatnonzero(keep)
    return kept, np.flatnonzero(member[kept])


def _schedule(profile: PredictionProfile, kept: np.ndarray, basis: np.ndarray) -> list:
    """The estimator's steps over _kept's users, in sweep order.

    Each step (users, fed) indexes kept, users being the slice it
    re-estimates and fed the feedback set it reads.  With a fixed set, the
    members are re-estimated one at a time in every sweep and the reported
    others only in the last, where each run of them between two members
    reads the same state and is one step.  per_iteration makes every user a
    step in every sweep, fed by this sweep's admissions before it and the
    previous sweep's from it on.
    """
    n_users, sweeps = profile.order.size, profile.sweeps
    if profile.fixed_mask is None:
        include = profile.include[:, profile.order]
        return [(slice(m, m + 1),
                 np.flatnonzero(np.concatenate((include[i, :m], include[i - 1, m:]))))
                for i in range(1, sweeps + 1) for m in range(n_users)]
    members = basis.tolist()
    steps = [(slice(m, m + 1), basis) for _ in range(1, sweeps) for m in members]
    edges = sorted({0, kept.size, *members, *(m + 1 for m in members)})
    steps += [(slice(lo, hi), basis) for lo, hi in zip(edges, edges[1:])]
    return steps
