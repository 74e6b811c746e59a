import numpy as np
import pytest

from supmimo import analytics, iterative
from supmimo.estimators import _mf_sp_output, mf_detect_sp, sp_ls_estimate
from supmimo.iterative import (
    decreasing_order,
    iterative_estimate,
    predict_profile,
    select_user_set_fixed,
)
from supmimo.rng import substream
from supmimo.sysmodel import SystemConfig, draw_channels, path_loss, place_users, uniform_power
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
    fixed = select_user_set_fixed(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2,
                                  cfg.M, cfg.C_u, cfg.P)
    assert 0 < fixed.sum() < fixed.size
    return cfg, Y, pilots, args, fixed


@pytest.mark.parametrize("selection", ["none", "all", "fixed", "per_iteration", "explicit"])
def test_matches_every_user_every_sweep(block, selection):
    cfg, Y, pilots, args, fixed = block
    n_users = fixed.size
    explicit = np.arange(n_users) % 3 == 1
    rule = explicit if selection == "explicit" else selection
    fixed_mask = {
        "none": np.zeros(n_users, dtype=bool), "all": np.ones(n_users, dtype=bool),
        "fixed": fixed, "per_iteration": None, "explicit": explicit,
    }[selection]
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, rule)
    state = iterative_estimate(Y, pilots, sigma2=cfg.sigma2, sweeps=cfg.iterations,
                               selection=rule, profile=profile, **args)
    h_hat, x_tilde, x_hat, user_sets = reference_estimate(
        Y, pilots, args["beta"], args["rho_d"], args["rho_p"], cfg.P, cfg.iterations,
        fixed_mask, profile)
    assert np.array_equal(state.h_hat, h_hat)
    assert np.array_equal(state.x_tilde, x_tilde)
    assert np.array_equal(state.x_hat, x_hat)
    assert np.array_equal(state.user_sets, user_sets)


def test_empty_feedback_set_is_the_one_shot_estimator(block):
    cfg, Y, pilots, args, _fixed = block
    state = iterative_estimate(Y, pilots, sigma2=cfg.sigma2, sweeps=cfg.iterations,
                               selection="none", **args)
    for n in range(pilots.shape[1]):
        rho_d, rho_p = float(args["rho_d"][n]), float(args["rho_p"][n])
        est = sp_ls_estimate(Y, pilots[:, n], rho_p)
        det = mf_detect_sp(Y, est, rho_d, rho_p, float(args["beta"][n]), pilots[:, n], cfg.P)
        assert np.array_equal(state.h_hat[n], est.h_hat)
        assert np.array_equal(state.x_tilde[n], det.x_tilde)
        assert np.array_equal(state.x_hat[n], det.x_hat)


def test_passed_profile_supplies_the_feedback_set(block, monkeypatch):
    cfg, Y, pilots, args, fixed = block
    profile = predict_profile(args["beta"], args["rho_d"], args["rho_p"], cfg.sigma2, cfg.M,
                              cfg.C_u, cfg.P, cfg.iterations, "fixed")
    assert np.array_equal(profile.fixed_mask, fixed)
    calls = []
    original = iterative.select_user_set_fixed
    monkeypatch.setattr(iterative, "select_user_set_fixed",
                        lambda *a, **kw: calls.append(1) or original(*a, **kw))
    state = iterative_estimate(Y, pilots, sigma2=cfg.sigma2, sweeps=cfg.iterations,
                               selection="fixed", profile=profile, **args)
    assert calls == []
    assert np.array_equal(state.user_sets, np.tile(fixed, (fixed.size, 1)))
    iterative_estimate(Y, pilots, sigma2=cfg.sigma2, sweeps=cfg.iterations,
                       selection="fixed", **args)
    assert calls == [1]
