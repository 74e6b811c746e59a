import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supmimo import analytics
from supmimo.estimators import _mf_sp_output, mf_detect_sp, sp_ls_estimate
from supmimo.iterative import (
    SELECTION_RULES,
    alpha_pqam,
    decreasing_order,
    iterative_estimate,
    predict_profile,
)
from supmimo.rng import substream
from supmimo.sysmodel import (
    Scenario1,
    SystemConfig,
    draw_channels,
    path_loss,
    place_users,
    uniform_power,
)
from supmimo.waveform import assemble_frames, decide, make_pilot_books, synthesize_received


def reference_estimate(Y, pilots, beta, rho_d, rho_p, P, sweeps, fixed_mask, profile):
    """Every user re-estimated in every sweep, each deciding at once."""
    n_users = beta.shape[0]
    M, C_u = Y.shape
    base = np.stack([Y @ np.conj(pilots[:, n]) for n in range(n_users)])
    h_work = np.zeros((n_users, M), dtype=complex)
    x_work = np.zeros((n_users, C_u), dtype=complex)
    x_tilde = np.zeros((n_users, C_u), dtype=complex)
    last_masks = np.zeros((n_users, n_users), dtype=bool)
    for i in range(1, sweeps + 1):
        for m in range(n_users):
            if fixed_mask is not None:
                mask = fixed_mask
            else:
                idx = np.arange(n_users)
                mask = np.where(idx < m, profile.include[i], profile.include[i - 1])
            last_masks[m] = mask
            fed = np.flatnonzero(mask)
            if fed.size:
                coefs = (x_work[fed] @ np.conj(pilots[:, m])) * rho_d[fed]
                h_new = (base[m] - coefs @ h_work[fed]) / (C_u * rho_p[m])
            else:
                h_new = base[m] / (C_u * rho_p[m])
            h_work[m] = h_new
            x_tilde[m] = _mf_sp_output(Y, h_new, pilots[:, m], float(rho_d[m]), float(rho_p[m]),
                                       float(beta[m]))
            x_work[m] = decide(x_tilde[m], P)
    return h_work, x_tilde, x_work, last_masks


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


def sorted_users(cfg, seed):
    """Sorted gains and amplitudes of BS 0's users, as the harness builds them."""
    beta = path_loss(place_users(cfg, substream(seed, "layout")), cfg.path_loss_exponent)
    beta = beta.normalized(cfg.omega).beta[0].reshape(-1)
    lam2, _ = analytics.optimal_rho(cfg.M, cfg.L, cfg.K, cfg.C_u)
    powers = uniform_power(cfg.L, cfg.K, 1.0, lam2)
    order = decreasing_order(beta)
    return beta[order], powers.rho_d.reshape(-1)[order], powers.rho_p.reshape(-1)[order]


@pytest.mark.parametrize("M", [50, 500])
@pytest.mark.parametrize("K", [1, 5, 10])
@pytest.mark.parametrize("selection", SELECTION_RULES)
def test_profile_matches_per_call_recursion(selection, K, M):
    for seed in range(3):
        cfg = SystemConfig(K=K, tau=K, M=M, C_u=70, seed=seed, scenario=Scenario1())
        beta, rho_d, rho_p = sorted_users(cfg, seed)
        args = (beta, rho_d, rho_p, cfg.sigma2, cfg.M, cfg.C_u, cfg.P, cfg.iterations, selection)
        profile = predict_profile(*args)
        interference, alpha, psi, include, fixed_mask = ref_predict_profile(*args)
        assert np.array_equal(profile.interference, interference)
        assert np.array_equal(profile.alpha, alpha)
        assert np.array_equal(profile.psi, psi)
        assert np.array_equal(profile.include, include)
        if fixed_mask is None:
            assert profile.fixed_mask is None
        else:
            assert np.array_equal(profile.fixed_mask, fixed_mask)


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
    beta = sorted(draw(st.lists(st.floats(1e-3, 1.0), min_size=n_users, max_size=n_users)),
                  reverse=True)
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
    beta_eff = path_loss(place_users(cfg, substream(3, "layout")), cfg.path_loss_exponent)
    beta_eff = beta_eff.normalized(cfg.omega)
    lam2, _ = analytics.optimal_rho(cfg.M, cfg.L, cfg.K, cfg.C_u)
    powers = uniform_power(cfg.L, cfg.K, 1.0, lam2)
    book = make_pilot_books(cfg)
    H = draw_channels(beta_eff.beta[0].reshape(-1), cfg.M, substream(3, "channels"))
    frames = assemble_frames(cfg, book, powers, substream(3, "frames"), scheme="sp")
    Y = synthesize_received(H, frames.S, cfg.sigma2, substream(3, "noise"))
    order = decreasing_order(beta_eff.beta[0].reshape(-1))
    args = dict(
        beta=beta_eff.beta[0].reshape(-1)[order],
        rho_d=powers.rho_d.reshape(-1)[order],
        rho_p=powers.rho_p.reshape(-1)[order],
        P=cfg.P,
    )
    pilots = book.sp_matrix[:, book.sp_assignment.reshape(-1)[order]]
    fixed = ref_select_user_set_fixed(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2,
                                      cfg.M, cfg.C_u, cfg.P)
    assert 0 < fixed.sum() < fixed.size
    return cfg, Y, pilots, args, fixed


@pytest.mark.parametrize("selection", ["none", "all", "fixed", "per_iteration", "explicit"])
def test_matches_every_user_every_sweep(block, selection):
    cfg, Y, pilots, args, fixed = block
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
    state = iterative_estimate(Y, pilots, profile=profile, **args)
    h_hat, x_tilde, x_hat, user_sets = reference_estimate(
        Y, pilots, args["beta"], args["rho_d"], args["rho_p"], cfg.P, cfg.iterations,
        fixed_mask, profile)
    assert np.array_equal(state.h_hat, h_hat)
    assert np.array_equal(state.x_tilde, x_tilde)
    assert np.array_equal(state.x_hat, x_hat)
    assert np.array_equal(state.user_sets, user_sets)


def test_empty_feedback_set_is_the_one_shot_estimator(block):
    cfg, Y, pilots, args, _fixed = block
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, "none")
    state = iterative_estimate(Y, pilots, profile=profile, **args)
    for n in range(pilots.shape[1]):
        rho_d, rho_p = float(args["rho_d"][n]), float(args["rho_p"][n])
        h_hat = sp_ls_estimate(Y, pilots[:, n], rho_p)
        x_tilde = mf_detect_sp(Y, h_hat, rho_d, rho_p, float(args["beta"][n]), pilots[:, n])
        assert np.array_equal(state.h_hat[n], h_hat)
        assert np.array_equal(state.x_tilde[n], x_tilde)
        assert np.array_equal(state.x_hat[n], decide(x_tilde, cfg.P))


def test_passed_profile_supplies_the_feedback_set(block):
    cfg, Y, pilots, args, fixed = block
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, "fixed")
    assert np.array_equal(profile.fixed_mask, fixed)
    state = iterative_estimate(Y, pilots, profile=profile, **args)
    assert np.array_equal(state.user_sets, np.tile(fixed, (fixed.size, 1)))
    # so does the sweep count
    one_sweep = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                                cfg.C_u, cfg.P, 1, "all")
    once = iterative_estimate(Y, pilots, profile=one_sweep, **args)
    _h, x_tilde, _x, _sets = reference_estimate(
        Y, pilots, args["beta"], args["rho_d"], args["rho_p"], cfg.P, 1,
        np.ones(fixed.size, dtype=bool), one_sweep)
    assert np.array_equal(once.x_tilde, x_tilde)
