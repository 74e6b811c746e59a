import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supmimo import analytics, iterative
from supmimo.estimators import Projection, estimator_columns, project, receive_cell, sp_output
from supmimo.hybrid import all_sp
from supmimo.iterative import (
    SELECTION_RULES,
    _grouped_sums,
    _row_groups,
    alpha_pqam,
    iterative_estimate,
    predict_profile,
    reduce_block,
    reduced_users,
)
from supmimo.rng import substream
from supmimo.sysmodel import (
    Scenario1,
    SystemConfig,
    draw_channels,
    draw_noise,
    path_loss,
    place_users,
    uniform_power,
)
from supmimo.waveform import assemble_frames, decide, make_pilot_books, synthesize_received


def reference_estimate(block, pilots, beta, rho_d, rho_p, P, sweeps, fixed_mask, profile):
    """Every user re-estimated in every sweep of the profile's order, each
    deciding at once, in the estimator's reduced arithmetic, one user or one
    pair of users at a time, from the block's projection onto every user;
    users in and out in flat order.  Returns (x_tilde, x_hat)."""
    order = profile.order
    pilots, beta, rho_d, rho_p = pilots[:, order], beta[order], rho_d[order], rho_p[order]
    include = profile.include[:, order]
    fixed_mask = None if fixed_mask is None else fixed_mask[order]
    n_users = beta.shape[0]
    M, C_u = block.Y.shape
    # one-shot estimates, their matched-filter outputs and inner products
    h0 = list(np.ascontiguousarray(block.projection.estimates.T[order]))
    G = block.projection.matched[order]
    R = np.array([[np.vecdot(h, g) for g in h0] for h in h0])
    R[np.diag_indices(n_users)] = [np.vecdot(h, h).real for h in h0]
    # estimates as coefficient rows over the basis: the feedback set, or
    # everyone under per_iteration
    basis = np.arange(n_users) if fixed_mask is None else np.flatnonzero(fixed_mask)
    slot = {int(n): j for j, n in enumerate(basis)}
    G_basis, R_basis = G[basis], R[np.ix_(basis, basis)]
    coefs = np.zeros((n_users, basis.size), dtype=complex)
    x_work = np.zeros((n_users, C_u), dtype=complex)
    x_tilde = np.zeros((n_users, C_u), dtype=complex)
    for i in range(1, sweeps + 1):
        for m in range(n_users):
            if fixed_mask is not None:
                mask = fixed_mask
            else:
                idx = np.arange(n_users)
                mask = np.where(idx < m, include[i], include[i - 1])
            fed = np.flatnonzero(mask)
            weights = (x_work[fed] @ np.conj(pilots[:, m])) * rho_d[fed]
            weights = weights / (C_u * rho_p[m])
            a = -(weights @ coefs[fed])
            if m in slot:
                a[slot[m]] += 1.0
            out = np.conj(a) @ G_basis
            power = np.vecdot(a, R_basis @ a).real
            if m not in slot:
                # its own h0 at coefficient 1
                out = out + G[m]
                power = power + 2.0 * (R[m, basis] @ a).real
                power = power + R[m, m].real
            coefs[m] = a
            x_tilde[m] = (out - (rho_p[m] * power) * pilots[:, m]) / (M * rho_d[m] * beta[m])
            x_work[m] = decide(x_tilde[m], P)
    flat = np.argsort(order)
    return x_tilde[flat], x_work[flat]


def m_space_estimate(Y, pilots, beta, rho_d, rho_p, P, sweeps, fixed_mask, profile):
    """The same schedule on M-entry estimates: each user's update is formed
    from the block itself, h = (Y conj(p) - sum_f rho_d,f (x_hat_f .
    conj(p)) h_f) / (C_u rho_p), and filtered against it.  Returns
    (x_tilde, x_hat) in flat order."""
    order = profile.order
    pilots, beta, rho_d, rho_p = pilots[:, order], beta[order], rho_d[order], rho_p[order]
    include = profile.include[:, order]
    fixed_mask = None if fixed_mask is None else fixed_mask[order]
    n_users = beta.shape[0]
    M, C_u = Y.shape
    base = np.stack([Y @ np.conj(pilots[:, n]) for n in range(n_users)])
    h_work = np.zeros((n_users, M), dtype=complex)
    x_work = np.zeros((n_users, C_u), dtype=complex)
    x_tilde = np.zeros((n_users, C_u), dtype=complex)
    for i in range(1, sweeps + 1):
        for m in range(n_users):
            if fixed_mask is not None:
                mask = fixed_mask
            else:
                idx = np.arange(n_users)
                mask = np.where(idx < m, include[i], include[i - 1])
            fed = np.flatnonzero(mask)
            coefs = (x_work[fed] @ np.conj(pilots[:, m])) * rho_d[fed]
            h_new = (base[m] - coefs @ h_work[fed]) / (C_u * rho_p[m])
            h_work[m] = h_new
            own_pilot = rho_p[m] * np.outer(h_new, pilots[:, m])
            x_tilde[m] = np.conj(h_new) @ (Y - own_pilot) / (M * rho_d[m] * beta[m])
            x_work[m] = decide(x_tilde[m], P)
    flat = np.argsort(order)
    return x_tilde[flat], x_work[flat]


# Reference prediction recursion: one call per (sweep, target) for each of
# psi, the interference and the admission threshold, every call rebuilding
# its sums and masks from scratch.


def ref_psi_recursion(m, beta, rho_d, rho_p_m, alpha_cur, psi_cur, alpha_prev, psi_prev,
                      sigma2, M, C_u, in_set):
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


def ref_predict_interference(m, beta, rho_d_m, sigma2, M, psi_m):
    bm = float(beta[m])
    cross = float(np.sum(beta)) - bm
    return (bm * cross / M + sigma2 * bm / M + psi_m / M**2) / (rho_d_m**2 * bm**2)


def ref_gamma_threshold(beta, psi_k, k, M):
    a = float(beta[k]) ** 2 + float(beta[k]) * float(np.sum(beta)) / M
    return (a - psi_k / M**2) / (a + psi_k / M**2)


def ref_select_user_set_fixed(beta, rho_d, rho_p, sigma2, M, C_u, P):
    n_users = beta.shape[0]
    sum_beta = float(np.sum(beta))
    base = beta**2 + beta * sum_beta / M
    core0 = float(np.sum(rho_d**2 * base)) + sigma2 * sum_beta / M
    keep = np.zeros(n_users, dtype=bool)
    for m in range(n_users):
        psi1 = (M**2 / (C_u * rho_p[m] ** 2)) * core0
        i1 = ref_predict_interference(m, beta, float(rho_d[m]), sigma2, M, psi1)
        a1 = alpha_pqam(i1, P)
        keep[m] = a1 * base[m] + (1.0 + a1) * psi1 / M**2 < base[m]
    return keep


def ref_predict_profile(beta, rho_d, rho_p, sigma2, M, C_u, P, sweeps, selection):
    n_users = beta.shape[0]
    fixed_mask = {
        "none": np.zeros(n_users, dtype=bool),
        "all": np.ones(n_users, dtype=bool),
        "per_iteration": None,
    }.get(selection)
    if selection == "fixed":
        fixed_mask = ref_select_user_set_fixed(beta, rho_d, rho_p, sigma2, M, C_u, P)
    interference = np.full((sweeps + 1, n_users), math.inf)
    alpha = np.ones((sweeps + 1, n_users))
    psi = np.zeros((sweeps + 1, n_users))
    include = np.zeros((sweeps + 1, n_users), dtype=bool)
    for i in range(1, sweeps + 1):
        for m in range(n_users):
            if fixed_mask is not None:
                mask = fixed_mask
            else:
                mask = np.where(np.arange(n_users) < m, include[i], include[i - 1])
            psi_m = ref_psi_recursion(m, beta, rho_d, float(rho_p[m]), alpha[i], psi[i],
                                      alpha[i - 1], psi[i - 1], sigma2, M, C_u, mask)
            psi[i, m] = psi_m
            interference[i, m] = ref_predict_interference(m, beta, float(rho_d[m]), sigma2, M,
                                                          psi_m)
            alpha[i, m] = alpha_pqam(interference[i, m], P)
            include[i, m] = alpha[i, m] < ref_gamma_threshold(beta, psi_m, m, M)
    return interference, alpha, psi, include, fixed_mask


def layout_users(cfg, seed):
    """Gains and amplitudes of BS 0's users in flat order, as the harness builds them."""
    beta = path_loss(place_users(cfg, substream(seed, "layout")), cfg.path_loss_exponent)
    beta = beta.normalized(cfg.omega).beta[0].reshape(-1)
    lam2, _ = analytics.optimal_rho(cfg.M, cfg.L, cfg.K, cfg.C_u)
    powers = uniform_power(cfg.L, cfg.K, lam2)
    return beta, powers.rho_d.reshape(-1), powers.rho_p.reshape(-1)


class Block(NamedTuple):
    """SP blocks at BS 0: Y (M, C_u), or a stack of trials' (T, M, C_u), and
    their projection onto every user's one-shot estimator column, users in
    flat order, made from the draws as the harness makes it."""

    Y: np.ndarray
    projection: Projection


def sp_block(cfg, seed, trials=None):
    """One SP block at BS 0 with its users' pilot columns and estimator inputs, in flat
    order; every user is reported.  With `trials`, a stack of blocks over the
    same layout."""
    beta, rho_d, rho_p = layout_users(cfg, seed)
    lam2, _ = analytics.optimal_rho(cfg.M, cfg.L, cfg.K, cfg.C_u)
    powers = uniform_power(cfg.L, cfg.K, lam2)
    book = make_pilot_books(cfg)
    everyone = np.arange(beta.size)
    columns = estimator_columns(book, all_sp(cfg.L, cfg.K), powers, everyone, cfg.C_u)
    roots = np.sqrt(beta)

    def received(*key):
        Z = draw_channels(cfg, substream(*key, "channels"))
        S = assemble_frames(cfg, book, powers, substream(*key, "frames"),
                            all_sp(cfg.L, cfg.K)).S
        W = draw_noise(cfg, substream(*key, "noise"))
        (projection,) = project(Z, W, [S], [roots], [columns])
        return synthesize_received(Z, roots[:, np.newaxis] * S, W), projection

    if trials is None:
        block = Block(*received(seed))
    else:
        blocks = [received(seed, t) for t in range(trials)]
        block = Block(np.stack([Y for Y, _ in blocks]),
                      Projection(*(np.stack(part) for part in zip(*(p for _, p in blocks)))))
    pilots = book.sp_matrix[:, book.sp_assignment.reshape(-1)]
    return block, pilots, dict(beta=beta, rho_d=rho_d, rho_p=rho_p, P=cfg.P, report=everyone)


def stack_of_one(block):
    return Block(block.Y[np.newaxis], Projection(*(part[np.newaxis] for part in block.projection)))


def permuted(block, perm):
    """The block's projection with its users in the order perm lists them."""
    estimates, matched = block.projection
    return Block(block.Y, Projection(estimates[..., perm], matched[..., perm, :]))


def reduction(block, profile, report):
    """reduce_block on the kept users' columns of the block's projection."""
    users = reduced_users(profile, report)
    estimates, matched = block.projection
    return reduce_block(Projection(estimates[..., users], matched[..., users, :]), profile, report)


def estimate(block, pilots, beta, rho_d, rho_p, P, profile, report):
    """iterative_estimate on a block, or a stack of them, through reduce_block.

    A single block is reduced as a stack of one, and its outputs are
    returned without the stack axis.
    """
    single = block.Y.ndim == 2
    stats = reduction(stack_of_one(block) if single else block, profile, report)
    x_tilde = iterative_estimate(stats, pilots, beta, rho_d, rho_p, P, profile, report)
    return x_tilde[0] if single else x_tilde


@pytest.mark.parametrize("M", [50, 500])
@pytest.mark.parametrize("K", [1, 5, 10])
@pytest.mark.parametrize("selection", SELECTION_RULES)
def test_profile_matches_per_call_recursion(selection, K, M):
    for seed in range(3):
        cfg = SystemConfig(K=K, M=M, C_u=70, seed=seed, scenario=Scenario1())
        beta, rho_d, rho_p = layout_users(cfg, seed)
        rest = (cfg.sigma2, cfg.M, cfg.C_u, cfg.P, cfg.iterations, selection)
        profile = predict_profile(beta, rho_d, rho_p, *rest)
        # decreasing gain, ties in index order; the reference sweeps its
        # inputs in index order
        order = profile.order
        assert sorted(order.tolist()) == list(range(beta.size))
        steps = np.diff(beta[order])
        assert np.all((steps < 0) | ((steps == 0) & (np.diff(order) > 0)))
        interference, alpha, psi, include, fixed_mask = ref_predict_profile(
            beta[order], rho_d[order], rho_p[order], *rest)
        assert np.array_equal(profile.interference[:, order], interference)
        assert np.array_equal(profile.alpha[:, order], alpha)
        assert np.array_equal(profile.psi[:, order], psi)
        assert np.array_equal(profile.include[:, order], include)
        if fixed_mask is None:
            assert profile.fixed_mask is None
        else:
            assert np.array_equal(profile.fixed_mask[order], fixed_mask)


@pytest.mark.parametrize("K", [5, 10])
@pytest.mark.parametrize("selection", SELECTION_RULES)
def test_batched_profile_equals_one_layout_calls(selection, K):
    cfg = SystemConfig(K=K, M=50 * K, C_u=70, scenario=Scenario1())
    beta, rho_d, rho_p = (np.stack(rows) for rows in zip(*(layout_users(cfg, s) for s in range(6))))
    rest = (cfg.sigma2, cfg.M, cfg.C_u, cfg.P, cfg.iterations)
    # fixed sets of several sizes, so the recursion sums over several row groups
    sizes = predict_profile(beta, rho_d, rho_p, *rest, "fixed").fixed_mask.sum(axis=1)
    assert len(set(sizes.tolist())) > 1
    batch = predict_profile(beta, rho_d, rho_p, *rest, selection)
    assert batch.include.shape == (6, cfg.iterations + 1, cfg.L * K)
    for b in range(6):
        one = predict_profile(beta[b], rho_d[b], rho_p[b], *rest, selection)
        row = batch.layout(b)
        assert np.array_equal(row.interference, one.interference)
        assert np.array_equal(row.alpha, one.alpha)
        assert np.array_equal(row.psi, one.psi)
        assert np.array_equal(row.include, one.include)
        assert np.array_equal(row.order, one.order)
        if one.fixed_mask is None:
            assert row.fixed_mask is None
        else:
            assert np.array_equal(row.fixed_mask, one.fixed_mask)


def test_grouped_sums_have_the_bits_of_each_rows_own_sum():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((40, 70)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(40, 70))
    mask = rng.random((40, 70)) < rng.random((40, 1))
    sizes = mask.sum(axis=1).tolist()
    # some rows share a size but not their entries
    assert any(sizes.count(n) > 1 and len({tuple(np.flatnonzero(mask[b])) for b in range(40)
                                            if sizes[b] == n}) > 1 for n in sizes)
    sums = _grouped_sums(values, _row_groups(mask))
    assert np.array_equal(sums, [np.add.reduce(v[m]) for v, m in zip(values, mask)])


def test_unknown_selection_rule_rejected():
    with pytest.raises(ValueError, match="selection"):
        predict_profile(np.ones(2), np.full(2, 0.6), np.full(2, 0.8), 0.1, 10, 20, 4, 2, "bogus")


@given(P=st.sampled_from([4, 16, 64, 256]))
def test_alpha_pqam_is_zero_without_interference(P):
    assert alpha_pqam(0.0, P) == 0.0


@given(P=st.sampled_from([4, 16, 64, 256]),
       a=st.floats(0.0, 1e6, allow_subnormal=False),
       b=st.floats(0.0, 1e6, allow_subnormal=False))
def test_alpha_pqam_is_non_decreasing_and_bounded(P, a, b):
    lo, hi = sorted((a, b))
    side = math.isqrt(P)
    assert alpha_pqam(lo, P) <= alpha_pqam(hi, P) <= 12.0 / (side * (side + 1))


@st.composite
def profile_inputs(draw):
    n_users = draw(st.integers(1, 12))
    beta = draw(st.lists(st.floats(1e-3, 1.0), min_size=n_users, max_size=n_users))
    lam2 = draw(st.floats(0.05, 0.95))
    rho_d = np.full(n_users, math.sqrt(lam2))
    rho_p = np.full(n_users, math.sqrt(1.0 - lam2))
    return dict(
        beta=np.array(beta), rho_d=rho_d, rho_p=rho_p,
        sigma2=draw(st.floats(0.0, 10.0)), M=draw(st.integers(1, 500)),
        C_u=draw(st.integers(n_users, 200)), P=draw(st.sampled_from([4, 16, 64])),
        sweeps=draw(st.integers(1, 5)), selection=draw(st.sampled_from(SELECTION_RULES)),
    )


@settings(max_examples=60, deadline=None)
@given(inputs=profile_inputs())
def test_profile_rows_start_from_no_estimate(inputs):
    profile = predict_profile(**inputs)
    shape = (inputs["sweeps"] + 1, inputs["beta"].size)
    for row in (profile.interference, profile.alpha, profile.psi, profile.include):
        assert row.shape == shape
    assert profile.sweeps == inputs["sweeps"]
    assert np.all(profile.interference[0] == math.inf)
    assert np.all(profile.alpha[0] == 1.0)
    assert np.all(profile.psi[0] == 0.0)
    assert not profile.include[0].any()


@pytest.fixture(scope="module")
def block():
    """A 35-user SP block at BS 0 with a feedback set that is neither empty nor full."""
    cfg = SystemConfig(M=40, seed=3)
    blk, pilots, args = sp_block(cfg, 3)
    # the reference selection, run in the profile's sweep order
    order = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                            cfg.C_u, cfg.P, 1, "none").order
    fixed = np.empty(order.size, dtype=bool)
    fixed[order] = ref_select_user_set_fixed(args["beta"][order], args["rho_d"][order],
                                             args["rho_p"][order], cfg.sigma2, cfg.M, cfg.C_u,
                                             cfg.P)
    assert 0 < fixed.sum() < fixed.size
    return cfg, blk, pilots, args, fixed


@pytest.mark.parametrize("selection", ["none", "all", "fixed", "per_iteration", "explicit"])
def test_matches_every_user_every_sweep(block, selection):
    cfg, blk, pilots, args, fixed = block
    n_users = fixed.size
    explicit = np.arange(n_users) % 3 == 1
    fixed_mask = {
        "none": np.zeros(n_users, dtype=bool), "all": np.ones(n_users, dtype=bool),
        "fixed": fixed, "per_iteration": None, "explicit": explicit,
    }[selection]
    rule = "fixed" if selection == "explicit" else selection
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, rule)
    if selection == "explicit":
        # any fixed set the profile carries drives the estimator
        profile = dataclasses.replace(profile, fixed_mask=explicit)
    got = estimate(blk, pilots, profile=profile, **args)
    x_tilde, x_hat = reference_estimate(
        blk, pilots, args["beta"], args["rho_d"], args["rho_p"], cfg.P, cfg.iterations,
        fixed_mask, profile)
    assert np.array_equal(got, x_tilde)
    assert np.array_equal(decide(got, cfg.P), x_hat)


@pytest.mark.parametrize("selection", ["none", "all", "fixed", "per_iteration"])
def test_reduced_estimates_match_the_m_space_loop(block, selection):
    cfg, blk, pilots, args, _fixed = block
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, selection)
    got = estimate(blk, pilots, profile=profile, **args)
    x_tilde, x_hat = m_space_estimate(
        blk.Y, pilots, args["beta"], args["rho_d"], args["rho_p"], cfg.P, cfg.iterations,
        profile.fixed_mask, profile)
    np.testing.assert_allclose(got, x_tilde, rtol=0, atol=1e-12 * np.max(np.abs(x_tilde)))
    assert np.array_equal(decide(got, cfg.P), x_hat)


def test_a_reduction_is_estimated_like_its_block(block):
    cfg, blk, pilots, args, fixed = block
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, "fixed")
    report = args["report"][:cfg.K]
    stats = reduction(blk, profile, report)
    # the members and the reported users, in sweep order, and nothing of size M
    kept = fixed.copy()
    kept[report] = True
    assert sorted(stats.users.tolist()) == np.flatnonzero(kept).tolist()
    assert np.array_equal(stats.users, reduced_users(profile, report))
    assert stats.M == cfg.M
    assert stats.G.shape == (kept.sum(), cfg.C_u) and stats.R.shape == (kept.sum(),) * 2
    # the one block's reduction, given a stack axis, is estimated like the
    # block reduced as a stack of one
    stacked = dataclasses.replace(stats, G=stats.G[np.newaxis], R=stats.R[np.newaxis])
    from_block = estimate(blk, pilots, profile=profile, **{**args, "report": report})
    from_stats = iterative_estimate(stacked, pilots, profile=profile, **{**args, "report": report})
    assert np.array_equal(from_stats[0], from_block)
    # a reduction made for other users is refused, and so is one without a stack axis
    with pytest.raises(ValueError, match="other users"):
        iterative_estimate(stacked, pilots, profile=profile, **args)
    with pytest.raises(ValueError, match="stacked reduction"):
        iterative_estimate(stats, pilots, profile=profile, **{**args, "report": report})


def test_empty_feedback_set_is_the_one_shot_estimator(block):
    cfg, blk, pilots, args, _fixed = block
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, "none")
    got = estimate(blk, pilots, profile=profile, **args)
    # receive_cell on each cell's columns of the same projection; its
    # arithmetic is per user, so at BS 0 it serves every cell's users
    lam2, _ = analytics.optimal_rho(cfg.M, cfg.L, cfg.K, cfg.C_u)
    book, powers = make_pilot_books(cfg), uniform_power(cfg.L, cfg.K, lam2)
    estimates, matched = blk.projection
    for cell in range(cfg.L):
        users = cell * cfg.K + np.arange(cfg.K)
        x_tilde = receive_cell(Projection(estimates[:, users], matched[users]), book,
                               all_sp(cfg.L, cfg.K), powers, cell, args["beta"][users])
        assert np.array_equal(got[users], x_tilde)


def test_passed_profile_supplies_the_feedback_set(block):
    cfg, blk, pilots, args, fixed = block
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, "fixed")
    assert np.array_equal(profile.fixed_mask, fixed)
    got = estimate(blk, pilots, profile=profile, **args)
    x_tilde, x_hat = reference_estimate(
        blk, pilots, args["beta"], args["rho_d"], args["rho_p"], cfg.P, cfg.iterations, fixed,
        profile)
    assert np.array_equal(got, x_tilde)
    assert np.array_equal(decide(got, cfg.P), x_hat)
    # so does the sweep count
    one_sweep = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                                cfg.C_u, cfg.P, 1, "all")
    once = estimate(blk, pilots, profile=one_sweep, **args)
    x_tilde, _x = reference_estimate(
        blk, pilots, args["beta"], args["rho_d"], args["rho_p"], cfg.P, 1,
        np.ones(fixed.size, dtype=bool), one_sweep)
    assert np.array_equal(once, x_tilde)


def test_a_batched_or_foreign_profile_is_rejected(block):
    cfg, blk, pilots, args, _fixed = block
    rest = (cfg.sigma2, cfg.M, cfg.C_u, cfg.P, cfg.iterations)
    batched = predict_profile(np.stack([args["beta"]] * 2), np.stack([args["rho_d"]] * 2),
                              np.stack([args["rho_p"]] * 2), *rest)
    foreign = predict_profile(args["beta"][:-1], args["rho_d"][:-1], args["rho_p"][:-1], *rest)
    good = predict_profile(args["beta"], args["rho_d"], args["rho_p"], *rest)
    stats = reduction(stack_of_one(blk), good, args["report"])
    for profile in (batched, foreign):
        with pytest.raises(ValueError, match="one layout's profile"):
            iterative_estimate(stats, pilots, profile=profile, **args)


@pytest.mark.parametrize("selection", SELECTION_RULES)
def test_users_in_any_order_give_the_permuted_bits(selection):
    cfg = SystemConfig(K=5, M=60, C_u=70, scenario=Scenario1())
    rest = (cfg.sigma2, cfg.M, cfg.C_u, cfg.P, cfg.iterations, selection)
    blocks = [sp_block(cfg, seed) for seed in (1, 2)]
    rng = np.random.default_rng(5)
    # each layout's users shuffled, and the same users in their sweep order:
    # by gain, equal gains (the home cell's) in their shuffled order; perm[j]
    # is the flat user passed j-th
    shuffled = [rng.permutation(cfg.L * cfg.K) for _ in blocks]
    perms = {
        "sorted": [perm[np.argsort(-args["beta"][perm], kind="stable")]
                   for perm, (_blk, _pilots, args) in zip(shuffled, blocks)],
        "shuffled": shuffled,
    }
    flat = {}
    for name, layout_perms in perms.items():
        inputs = [{key: args[key][perm] for key in ("beta", "rho_d", "rho_p")}
                  for (_blk, _pilots, args), perm in zip(blocks, layout_perms)]
        batch = predict_profile(*(np.stack([one[key] for one in inputs])
                                  for key in ("beta", "rho_d", "rho_p")), *rest)
        flat[name] = []
        for b, ((blk, pilots, _args), perm) in enumerate(zip(blocks, layout_perms)):
            profile = batch.layout(b)
            x_tilde = estimate(permuted(blk, perm), pilots[:, perm], P=cfg.P, profile=profile,
                               report=np.arange(perm.size), **inputs[b])
            back = np.argsort(perm)
            fields = [perm[profile.order], x_tilde[back]]
            fields += [np.take(getattr(profile, key), back, axis=-1)
                       for key in ("interference", "alpha", "psi", "include")]
            if profile.fixed_mask is not None:
                fields.append(profile.fixed_mask[back])
            flat[name].append(fields)
    assert not all(np.array_equal(s, h) for s, h in zip(*perms.values()))
    for sorted_fields, shuffled_fields in zip(flat["sorted"], flat["shuffled"]):
        assert len(sorted_fields) == len(shuffled_fields)
        for a, b in zip(sorted_fields, shuffled_fields):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def reports(n_users, K):
    """The harness's cell-0 users, and a scattered subset out of sweep and index order."""
    return [np.arange(K), np.random.default_rng(n_users).permutation(n_users)[: n_users // 3]]


@pytest.mark.parametrize("trials", [None, 3])
@pytest.mark.parametrize("K", [5, 10])
@pytest.mark.parametrize("selection", SELECTION_RULES)
def test_reported_rows_equal_the_all_user_rows(selection, K, trials):
    cfg = SystemConfig(K=K, M=100, C_u=70, scenario=Scenario1())
    blk, pilots, args = sp_block(cfg, 6, trials)
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, selection)
    everyone = estimate(blk, pilots, profile=profile, **args)
    for report in reports(args["beta"].size, K):
        got = estimate(blk, pilots, profile=profile, **{**args, "report": report})
        assert got.shape == everyone[..., report, :].shape
        assert np.array_equal(got, everyone[..., report, :])


def test_unreported_non_members_are_not_computed(monkeypatch):
    cfg = SystemConfig(K=10, M=500, C_u=70, scenario=Scenario1())
    blk, pilots, args = sp_block(cfg, 6, 2)
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, "fixed")
    report = np.arange(cfg.K)
    kept = set(np.flatnonzero(profile.fixed_mask).tolist()) | set(report.tolist())
    # members outside the report, and users in neither
    assert not kept <= set(report.tolist()) and len(kept) < pilots.shape[1]
    # a reduction reads the kept users' estimates only, and refuses a
    # projection onto others
    assert set(reduced_users(profile, report).tolist()) == kept
    with pytest.raises(ValueError, match="keep"):
        reduce_block(blk.projection, profile, report)
    column_of = {col.tobytes(): n for n, col in enumerate(pilots.T)}
    filtered = set()

    def output_spy(out, power, pilot_rows, *rest):
        filtered.update(column_of[row.tobytes()] for row in np.ascontiguousarray(pilot_rows))
        return sp_output(out, power, pilot_rows, *rest)

    monkeypatch.setattr(iterative, "sp_output", output_spy)
    estimate(blk, pilots, profile=profile, **{**args, "report": report})
    assert filtered == kept


def test_a_reduction_reads_the_block_through_its_projection(block):
    # G = conj(h0) Y and R = conj(h0) h0^T of the kept users' one-shot
    # estimates h0 = Y conj(p) / (C_u rho_p), written out on the block
    cfg, blk, pilots, args, _fixed = block
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, "fixed")
    report = args["report"][:cfg.K]
    users = reduced_users(profile, report)
    stats = reduction(blk, profile, report)
    h0 = blk.Y @ np.conj(pilots[:, users]) / (cfg.C_u * args["rho_p"][users])
    G, R = np.conj(h0).T @ blk.Y, np.conj(h0).T @ h0
    np.testing.assert_allclose(stats.G, G, rtol=1e-12, atol=1e-12 * np.max(np.abs(G)))
    np.testing.assert_allclose(stats.R, R, rtol=1e-12, atol=1e-12 * np.max(np.abs(R)))
    assert np.all(np.diagonal(stats.R).imag == 0)
