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
the users it reads (report) when it plans a layout's pass (plan_pass);
those outside the set are estimated once, in the last sweep, against the
set's values at that point, and a user in neither is neither reduced nor
matched-filtered.  per_iteration may feed any user back, so it computes
everyone.

The sweeps never touch the M-antenna block.  Every estimate they make is a
linear combination of the kept users' one-shot estimates h0_n = Y conj(p_n)
/ (C_u rho_p), so the estimator reads a block only through two arrays
over the n kept users: G = conj(h0) Y (n x C_u), their matched-filter
outputs, and R = conj(h0) h0^T (n x n).  The caller projects the block
onto the estimator columns of the users the plan keeps
(estimators.project), which gives h0 and G without forming the block, and
reduce_block adds R.  The estimator then carries each user as a row of
coefficients over that basis; its matched-filter output is a combination
of G's rows and its power a quadratic form in R.  A block's state is thus
n (C_u + n) entries whatever M is, and a step's matched filter costs n C_u
instead of M C_u, so a caller can reduce each Monte-Carlo trial as it is
drawn and run the sweeps on many trials' (G, R) pairs at once.  A pass is
planned once per layout and report, and iterative_estimate reads each
block's plan: the users it keeps, the reported rows among them, the
schedule's key and the one-layout profile the plan was made for, which
gives the block its gains.  It plans nothing itself, and blocks whose plans
share a key run as one stack.  A user with an empty feedback set gets the
one-shot estimator's bits, and every computed user gets the bits it has
alone, whatever else is reported or stacked.

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
sweep), the sweep order, and the gains, PowerAllocation and SystemConfig
it was computed for; the estimator reads all of them, its schedule
(_schedule) included, from the profile a plan carries.  The recursion
takes a batch of layouts, each with its own gains, and runs each step on
the whole batch.  A target reads the working row only at the users fed
back, so under a fixed set a run of targets that no layout of the batch
feeds back is one step, and a sweep takes one step per member and one per
run between them; the one-sweep recursion that picks the fixed set, in
which nobody is fed back, is one step.  A step's psi core is one
masked row sum of a C-contiguous (B, N) array, and numpy sums each row of
such an array along axis 1 with the pairwise lanes of a 1-D sum of that
row, so every layout gets the bits it gets alone.

All prediction formulas assume unit total power per user, i.e. gains are
the power-controlled equivalents and every user splits it by one
PowerAllocation, rho_d^2 + rho_p^2 = 1.  As in analytics, each function
takes the system objects it reads: the gains, the PowerAllocation and the
SystemConfig (sigma2, M, C_u, P and the sweep count) go to predict_profile,
and the profile, through a plan, carries them to the estimator.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .estimators import Projection, _conj_rows, _powers, sp_output
from .sysmodel import PowerAllocation, SystemConfig
from .waveform import _side, decide

# the feedback set: every user, those admitted after one sweep in which
# nobody is fed back, or each sweep's admissions
SELECTION_RULES = ("all", "fixed", "per_iteration")


# math.erfc over an array, entry by entry, so each keeps the bits of its scalar call
_erfc = np.frompyfunc(math.erfc, 1, 1)


@functools.cache
def _slicer(P: int) -> tuple:
    """(coefficient, 3 / (P - 1)) of alpha_pqam at QAM order P, checked once."""
    side = _side(P)
    return 24.0 / (side * (side + 1.0)), 3.0 / (P - 1)


def alpha_pqam(interference, config: SystemConfig):
    """Decision-error variance of the config's unit-power square-QAM slicer.

    Models symbol errors as jumps to nearest neighbors under Gaussian
    residual interference of the given variance.  Zero interference gives
    zero; the value grows monotonically and saturates at half the
    nearest-neighbor coefficient.  interference is a number, which gives a
    float, or an ndarray, which gives an array of the values its entries
    give alone, bit for bit.  A negative variance raises ValueError.
    """
    coef, scale = _slicer(config.P)
    if not isinstance(interference, np.ndarray):
        if interference < 0:
            raise ValueError("interference variance must be non-negative")
        if interference == 0.0:
            return 0.0
        return coef * (0.5 * math.erfc(math.sqrt(scale / interference) / math.sqrt(2.0)))
    if np.any(interference < 0):
        raise ValueError("interference variance must be non-negative")
    alpha = np.zeros(interference.shape)
    some = interference != 0.0
    tail = 0.5 * _erfc(np.sqrt(scale / interference[some]) / math.sqrt(2.0))
    alpha[some] = coef * tail.astype(float)
    return alpha


@dataclass(frozen=True)
class PredictionProfile:
    """Per-sweep prediction history; row i of each array is iteration i.

    Columns are users in the caller's order.  interference[0] is +inf (no
    estimate exists yet) and alpha[0] is 1 by definition of the all-wrong
    initial decisions.  include[i][n] records whether user n passed the
    admission threshold after sweep i.  fixed_mask is the feedback set every
    sweep uses, or None when the set follows include sweep by sweep
    (per_iteration).  order[j] is the user swept j-th.  beta holds the
    per-user gains the profile was computed for, and powers and config the
    split, antenna count, QAM order and sweep count.  A profile of a batch
    of B layouts carries a leading B axis on every array; layout(b) is the
    profile of one of them.
    """

    interference: np.ndarray
    alpha: np.ndarray
    psi: np.ndarray
    include: np.ndarray
    fixed_mask: np.ndarray | None
    order: np.ndarray
    beta: np.ndarray
    powers: PowerAllocation
    config: SystemConfig

    @property
    def sweeps(self) -> int:
        return self.interference.shape[-2] - 1

    def layout(self, b) -> "PredictionProfile":
        """The one-layout profile of row b of a batched profile."""
        b = operator.index(b)
        rows = {name: getattr(self, name)[b] for name in
                ("interference", "alpha", "psi", "include", "order", "beta")}
        return replace(self, fixed_mask=None if self.fixed_mask is None else self.fixed_mask[b],
                       **rows)


def _recursion(beta, powers, config, sweeps, fixed_mask):
    """The four (B, sweeps + 1, N) profile arrays of `sweeps` Gauss-Seidel sweeps.

    beta is (B, N), one layout per row; fixed_mask is (B, N) or None.  Row i
    of alpha, psi and include is the working row of sweep i: it starts as a
    copy of row i - 1 and entry m is overwritten once target m is predicted,
    so target m sees this sweep's values below m and the previous sweep's
    from m on.  Each step runs on all B layouts at once and gives every
    layout the bits it has alone: the psi core is one masked sum of a
    C-contiguous (B, N) array along its rows.  A target's core reads the
    working row only where the target's layout feeds back, so under a fixed
    set a run of targets that no layout feeds back reads one core, and is
    one step; a fed target, and every target under per_iteration, whose set
    is the working row itself, is a step of its own.
    """
    n_layouts, n_users = beta.shape
    M, sigma2 = config.M, config.sigma2
    sum_beta = np.add.reduce(beta, axis=1)
    M2 = M**2
    b2 = beta * beta
    base = b2 + beta * sum_beta[:, np.newaxis] / M
    rho_d2 = powers.rho_d * powers.rho_d
    full_power = rho_d2 * base
    noise = sigma2 * sum_beta / M
    # psi scale, then per-target leakage plus noise, and MF gain
    scale = M2 / (config.C_u * (powers.rho_p * powers.rho_p))
    leak = beta * (sum_beta[:, np.newaxis] - beta) / M + sigma2 * beta / M
    gain = rho_d2 * b2
    # the steps in sweep order: a run of targets, as a slice, or a lone one
    if fixed_mask is None:
        edges = list(range(n_users + 1))
    else:
        fed_somewhere = np.flatnonzero(fixed_mask.any(axis=0)).tolist()
        edges = sorted({0, n_users, *fed_somewhere, *(m + 1 for m in fed_somewhere)})
    steps = [(slice(lo, hi), True) if hi - lo > 1 else (lo, False)
             for lo, hi in zip(edges, edges[1:])]

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
        for at, run in steps:
            # fed users leave their decision-error-scaled residual, the rest
            # their full data power; noise adds a flat term
            term = rho_d2 * (base * alpha_w + (1.0 + alpha_w) * psi_w / M2)
            core = np.add.reduce(np.where(fed, term, full_power), axis=1) + noise
            # a run's targets are a (B, run) block, a lone target a (B,) column
            psi_w[:, at] = psi_m = (scale * core)[:, np.newaxis] if run else scale * core
            p = psi_m / M2
            interference[:, i, at] = inter = (leak[:, at] + p) / gain[:, at]
            # scalar calls cost less than the array path for a lone target
            alpha_w[:, at] = a = (alpha_pqam(inter, config) if run
                                  else np.array([alpha_pqam(x, config) for x in inter.tolist()]))
            # admission: feeding the target back cannot raise its predicted error
            base_at = base[:, at]
            include_w[:, at] = a < (base_at - p) / (base_at + p)
    return interference, alpha, psi, include


def predict_profile(
    beta: np.ndarray,
    powers: PowerAllocation,
    config: SystemConfig,
    selection: str = "fixed",
) -> PredictionProfile:
    """Run the deterministic error-prediction recursion for config.iterations sweeps.

    beta is a batch of B layouts' gains (B, N), users in any order, all
    under the one split powers; config gives sigma2, M, C_u, P and the sweep
    count, and N must be its L*K.  Each row is sorted into sweep order for
    the recursion and its results are returned in the row's own order.  The
    profile has a leading B axis, and its layout(b) equals the profile of
    row b alone, bit for bit.  selection is one of SELECTION_RULES.  The
    profile keeps a copy of beta with powers and config: they are what
    iterative_estimate reads.
    """
    batch = np.array(beta, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != config.L * config.K:
        raise ValueError(f"need a (B, N) batch of one gain per user, N = {config.L * config.K} "
                         f"for L={config.L}, K={config.K}, got shape {batch.shape}")
    # the sweep order: decreasing gain, ties in the order given
    order = np.argsort(-batch, axis=1, kind="stable")
    sorted_beta = np.take_along_axis(batch, order, axis=1)
    nobody = np.zeros(batch.shape, dtype=bool)
    if selection == "all":
        fixed_mask = ~nobody
    elif selection == "fixed":
        # admitted iff, with nobody fed back, feeding it back cannot raise its error
        fixed_mask = _recursion(sorted_beta, powers, config, 1, nobody)[3][:, 1]
    elif selection == "per_iteration":
        fixed_mask = None
    else:
        raise ValueError(f"unknown selection rule {selection!r}; expected {SELECTION_RULES}")
    # sweep positions back to each row's own order
    flat = np.argsort(order, axis=1)[:, np.newaxis]
    interference, alpha, psi, include = (
        np.take_along_axis(a, flat, axis=2)
        for a in _recursion(sorted_beta, powers, config, config.iterations, fixed_mask))
    if fixed_mask is not None:
        fixed_mask = np.take_along_axis(fixed_mask, flat[:, 0], axis=1)
    return PredictionProfile(interference=interference, alpha=alpha, psi=psi, include=include,
                             fixed_mask=fixed_mask, order=order, beta=batch, powers=powers,
                             config=config)


def plan_pass(profile: PredictionProfile, report) -> tuple:
    """The estimator's pass over one layout for the users `report` lists.

    profile is one layout's; report lists the users the caller reads, as
    indices into the order the profile was computed for.  Returns (users,
    rows, kept, basis, key, profile): users are the users the pass keeps,
    in sweep order, whose reduce_block G and R it reads; rows are the
    reported users' places among them, in report's order; kept and basis
    are their sweep positions and the basis's places among them (_kept).
    _schedule depends on the layout only through the number of kept users,
    the basis and, under per_iteration, the admission rows in sweep order,
    which key names, so iterative_estimate runs the blocks of one key as
    one stack.  The plan carries the profile it was made for, which
    iterative_estimate reads it from.
    """
    if profile.order.ndim != 1:
        raise ValueError(f"plan one layout's profile at a time, got a batch of "
                         f"{profile.order.shape[0]}")
    report = np.asarray(report)
    if report.ndim != 1 or np.any((report < 0) | (report >= profile.order.size)):
        raise ValueError(f"report must list user indices in [0, {profile.order.size}), "
                         f"got {report!r}")
    position = np.argsort(profile.order)
    kept, basis = _kept(profile, position[report])
    key = (kept.size, basis.tobytes(),
           None if profile.fixed_mask is not None else profile.include[:, profile.order].tobytes())
    return (profile.order[kept], np.searchsorted(kept, position[report]), kept, basis, key,
            profile)


def reduce_block(projection: Projection) -> tuple[np.ndarray, np.ndarray]:
    """The (G, R) statistics the estimator reads from an SP block's projection.

    projection is the block, or a stack of T blocks, seen through the
    one-shot estimator columns conj(p_n) / (C_u rho_p) of the n users the
    estimator keeps, as plan_pass lists them (estimators.estimator_columns
    under the all-SP partition): its estimates are their h0 and its matched
    rows G[..., i, :] = conj(h0_i) Y.  R[..., i, j] = conj(h0_i) . h0_j, with
    a real diagonal that has the bits of the powers estimators.receive
    reads, so a user with an empty feedback set gets its one-shot output.
    """
    estimates, G = projection
    h0 = np.ascontiguousarray(np.swapaxes(estimates, -1, -2))
    # every entry is one dot product of two estimates, whatever else is kept
    R = np.vecdot(h0[..., :, np.newaxis, :], h0[..., np.newaxis, :, :])
    diagonal = np.arange(estimates.shape[-1])
    R[..., diagonal, diagonal] = _powers(estimates)
    return G, R


def iterative_estimate(G, R, pilots: np.ndarray, plans) -> np.ndarray:
    """Joint channel/data estimation over the profile's ordered sweeps.

    G and R are (T, n, C_u) and (T, n, n) stacks of the reduce_block
    statistics of T blocks, e.g. one block per trial, and plans one
    plan_pass plan per block, of one report: block t's statistics are the
    leading n_t rows of G[t] and n_t x n_t block of R[t], over the n_t <= n
    users plans[t] keeps; the rows after them are not read.  A plan's profile
    supplies its blocks' gains, the sweep order and the feedback set, and
    the first plan's the split, M, P and the sweep count.  pilots holds each
    user's dedicated column (C_u x N), users in the order the profiles were
    computed for.  Returns the reported users' final matched-filter outputs
    only, in report's order, as a (T, len(report), C_u) array; only the
    feedback set's decisions are made, the ones fed back.

    With a fixed feedback set (every rule but per_iteration) only the set's
    members are re-estimated in every sweep, in sweep order, each deciding
    its data at once for the users after it.  Of the users outside the set
    only the reported ones are read, so they are computed once, in their
    place in the last sweep, where a run of them between two members is one
    step, and the others not at all: they are neither reduced nor filtered.
    per_iteration may feed any user back at some sweep, so it runs the full
    schedule for everyone.

    Every estimate is a combination of one-shot estimates: a user's update
    h = h0 - sum_f rho_d (x_hat_f . conj(p)) h_f / (C_u rho_p) keeps it in
    the span of the basis (the feedback set; everyone under per_iteration)
    plus the user's own h0.  So a user is a row a of coefficients over the
    basis, plus its own h0 at coefficient 1 when it is outside the basis,
    and its matched-filter output conj(h) Y and power ||h||^2 come from G
    and R: conj(a) G_B (+ G_u) and conj(a) R_BB a (+ 2 Re(R_uB a) + R_uu).
    A user with an empty feedback set is its own h0, so it reproduces the
    one-shot estimator and detector exactly.

    Blocks whose plans have one key, and so one schedule, run as one stack,
    each with its own users' pilot rows and gains, and blocks of other
    schedules as other stacks; no block is padded to another's size.  Each
    sum runs over the user's own basis in sweep order, as one stacked
    matrix-vector product per block and user, so a user's result depends
    neither on report, nor on the other blocks in the stack, nor on which
    other users are computed.  Plans and profiles are data-independent, so
    callers running many blocks with the same large-scale state make them
    once.
    """
    T = len(G)
    if len(plans) != T:
        raise ValueError(f"need one plan per block, got {len(plans)} for {T} blocks")
    profile = plans[0][5]
    n_users = profile.order.size
    C_u = pilots.shape[0]
    if pilots.shape != (C_u, n_users):
        raise ValueError(f"pilots must be (C_u, N) = {(C_u, n_users)}, got {pilots.shape}")
    if n_users > C_u:
        raise ValueError(f"{n_users} users exceed the {C_u}-symbol block")
    n = G.shape[1] if G.ndim == 3 else -1
    if G.shape != (T, n, C_u) or R.shape != (T, n, n):
        raise ValueError(f"need G (T, n, {C_u}) and R (T, n, n) stacks, got {G.shape} and "
                         f"{R.shape}")
    kept_most = max(plan[0].size for plan in plans)
    if kept_most > n:
        raise ValueError(f"a plan keeps {kept_most} users, more than the {n} rows of its stack")
    groups = {}
    for t, plan in enumerate(plans):
        groups.setdefault(plan[4], []).append(t)
    x_report = np.empty((T, plans[0][1].size, C_u), dtype=complex)
    conj_all = _conj_rows(pilots)
    rho_d, rho_p = profile.powers.rho_d, profile.powers.rho_p
    ls_scale = C_u * rho_p
    for blocks in groups.values():
        _users, _rows, kept, basis, _key, layout = plans[blocks[0]]
        # the kept users and their MF gains per block
        users = np.stack([plans[t][0] for t in blocks])
        mf_gain = profile.config.M * rho_d * np.stack([plans[t][5].beta[plans[t][0]]
                                                       for t in blocks])
        n_basis = basis.size
        slot = np.full(kept.size, -1)
        slot[basis] = np.arange(n_basis)
        # C-contiguous gathers: a product's bits follow its operands' strides
        G_basis = G[np.ix_(blocks, basis)]
        R_basis = R[np.ix_(blocks, basis, basis)]
        # coefficient rows and decisions of the basis users, the ones fed
        # back; zero rows are the zero estimates nobody has computed yet
        coefs = np.zeros((len(blocks), n_basis, n_basis), dtype=complex)
        x_basis = np.zeros((len(blocks), n_basis, C_u), dtype=complex)
        x_tilde = np.zeros((len(blocks), kept.size, C_u), dtype=complex)
        for step, fed in _schedule(layout, kept, basis):
            inside = slot[step.start]
            everyone = fed.size == n_basis
            x_fed, coefs_fed = ((x_basis, coefs) if everyone
                                else (a.take(slot[fed], axis=1) for a in (x_basis, coefs)))
            # (T, G, F) weights, then (T, G, B) coefficients: per block and
            # user, the matrix-vector products of one user alone
            conj_rows = conj_all[users[:, step]]
            weights = np.matmul(x_fed[:, np.newaxis], conj_rows[..., np.newaxis])[..., 0]
            weights *= rho_d
            weights /= ls_scale
            a = np.matmul(weights[..., np.newaxis, :], coefs_fed[:, np.newaxis])[..., 0, :]
            np.negative(a, out=a)
            if inside >= 0:
                a[..., inside] += 1.0
                coefs[:, inside] = a[:, 0]
            out = np.matmul(np.conj(a)[..., np.newaxis, :], G_basis[:, np.newaxis])[..., 0, :]
            power = np.vecdot(a, np.matmul(R_basis[:, np.newaxis],
                                           a[..., np.newaxis])[..., 0]).real
            if inside < 0:
                # the users' own h0, at coefficient 1
                out += G[blocks, step]
                R_step = R[blocks, step]
                cross = np.matmul(R_step.take(basis, axis=2)[..., np.newaxis, :],
                                  a[..., np.newaxis])[..., 0, 0]
                power += 2.0 * cross.real
                power += np.diagonal(R_step[:, :, step], axis1=1, axis2=2).real
            x_tilde[:, step] = x_new = sp_output(out, power, np.conj(conj_rows), rho_p,
                                                 mf_gain[:, step])
            if inside >= 0:
                x_basis[:, inside] = decide(x_new[:, 0], profile.config.P)
        # the reported rows in report's order, block by block
        for k, t in enumerate(blocks):
            x_report[t] = x_tilde[k, plans[t][1]]
    return x_report


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
