import math

import numpy as np
import pytest

from supmimo.analytics import (
    kappa_symmetric,
    optimal_rho,
    rate,
    sinr_sp_asymptotic,
    sinr_sp_finite_m,
    sinr_sp_lower_bound,
    sinr_tp_asymptotic,
)
from supmimo.hybrid import all_sp, all_tp, interference_tp
from supmimo.rng import substream
from supmimo.sysmodel import PowerAllocation, SystemConfig, power_control
from supmimo.waveform import make_pilot_books


def make_inputs(beta, lam2, cfg):
    """(beta, powers, config): the leading arguments of the SP closed forms."""
    powers = PowerAllocation(lam2, 1.0 - lam2)
    return np.asarray(beta, dtype=float), powers, cfg


def make_config(**kw):
    defaults = dict(L=7, K=5, M=100, C_u=100, C=200, r=1, P=4)
    defaults.update(kw)
    return SystemConfig(**defaults)


def scalar_sp_finite_m(inputs, j, m):
    """Independent loop-by-loop transcription of the finite-antenna SINR.

    Both exclusion patterns drop single (cell, user) tuples: the target from
    the outer sums, the outer tuple from the inner one.
    """
    beta, powers, cfg = inputs
    rho_d, rho_p = powers.rho_d, powers.rho_p
    L, _, K = beta.shape
    C_u, M = cfg.C_u, cfg.M
    bm = beta[j, j, m]
    adm2 = rho_d**2
    apm2 = rho_p**2
    t1 = 0.0
    for l in range(L):
        for k in range(K):
            t1 += (rho_d**2 * beta[j, l, k] ** 2) / (
                C_u * apm2 * adm2 * bm**2
            )
    t2 = 0.0
    t3 = 0.0
    for l in range(L):
        for k in range(K):
            if (l, k) == (j, m):
                continue
            t2 += beta[j, l, k] / (M * adm2 * bm)
            for n in range(L):
                for p in range(K):
                    if (n, p) == (l, k):
                        continue
                    t3 += (
                        rho_d**2
                        * beta[j, l, k]
                        * beta[j, n, p]
                    ) / (M * C_u * apm2 * adm2 * bm**2)
    return 1.0 / (t1 + t2 + t3)


def scalar_tp_asymptotic(beta, r, j, m):
    """Loop-by-loop large-M TP SINR of user (j, m): its co-pilot cells one by one."""
    den = 0.0
    for l in range(beta.shape[0]):
        if l != j and l % r == j % r:
            den += beta[j, l, m] ** 2
    return beta[j, j, m] ** 2 / den if den else math.inf


class TestOptimalRho:
    def test_reference_values(self):
        lam2, mu2 = optimal_rho(100, 7, 5, 100)
        assert lam2 == pytest.approx(0.4608, abs=5e-4)
        lam2a, _ = optimal_rho(100, 7, 5, 100, approximate=True)
        assert lam2a == pytest.approx(0.4626, abs=5e-4)

    def test_split_sums_to_one(self):
        for args in ((100, 7, 5, 100), (1000, 19, 5, 40), (50, 1, 2, 70)):
            lam2, mu2 = optimal_rho(*args)
            assert lam2 + mu2 == pytest.approx(1.0, abs=1e-14)
            assert 0 < lam2 < 1

    def test_large_antenna_limit_starves_data(self):
        lam2, _ = optimal_rho(10**12, 7, 5, 100)
        assert lam2 < 1e-4

    def test_exact_form_maximizes_bound(self):
        M, L, K, C_u = 100, 7, 5, 100
        lam2, _ = optimal_rho(M, L, K, C_u)
        grid = np.linspace(0.01, 0.99, 981)
        values = [sinr_sp_lower_bound(L, K, C_u, M, g) for g in grid]
        best = grid[int(np.argmax(values))]
        assert abs(best - lam2) <= (grid[1] - grid[0])


class TestLowerBound:
    def test_degenerate_endpoints(self):
        assert sinr_sp_lower_bound(7, 5, 100, 100, 0.0) == 0.0
        assert sinr_sp_lower_bound(7, 5, 100, 100, 1.0) == 0.0

    def test_bounded_by_asymptotic_at_uniform_gain(self):
        cfg = make_config()
        inputs = make_inputs(np.ones((7, 7, 5)), 0.46, cfg)
        bound = sinr_sp_lower_bound(7, 5, 100, 100, 0.46)
        assert bound <= sinr_sp_asymptotic(*inputs)[0, 0]

    def test_true_lower_bound_under_power_control(self):
        # random normalized maps: home gains pinned at omega, cross below it
        rng = substream(31, "bound")
        cfg = make_config()
        for _ in range(25):
            lam2 = float(rng.uniform(0.1, 0.9))
            beta = rng.uniform(0.0, 1.0, size=(7, 7, 5))
            idx = np.arange(7)
            beta[idx, idx, :] = 1.0
            inputs = make_inputs(beta, lam2, cfg)
            exact = sinr_sp_finite_m(*inputs)[0, 0]
            bound = sinr_sp_lower_bound(7, 5, cfg.C_u, cfg.M, lam2)
            assert exact >= bound - 1e-12


class TestSpSinr:
    def test_matches_scalar_oracle(self):
        rng = substream(32, "oracle")
        cfg = make_config(L=7, K=3, M=64, C_u=50, C=100)
        for trial in range(10):
            beta = rng.uniform(0.05, 2.0, size=(7, 7, 3))
            lam2 = float(rng.uniform(0.2, 0.8))
            inputs = make_inputs(beta, lam2, cfg)
            j, m = int(rng.integers(0, 7)), int(rng.integers(0, 3))
            assert sinr_sp_finite_m(*inputs)[j, m] == pytest.approx(
                scalar_sp_finite_m(inputs, j, m), rel=1e-12
            )

    def test_limit_consistency(self):
        rng = substream(34, "limit")
        cfg = make_config(M=10**12)
        beta = rng.uniform(0.1, 1.5, size=(7, 7, 5))
        inputs = make_inputs(beta, 0.46, cfg)
        for m in range(5):
            finite = sinr_sp_finite_m(*inputs)[0, m]
            asym = sinr_sp_asymptotic(*inputs)[0, m]
            assert abs(finite - asym) / asym < 1e-6

    def test_symmetric_closed_form(self):
        cfg = make_config()
        inputs = make_inputs(np.ones((7, 7, 5)), 0.5, cfg)
        assert sinr_sp_asymptotic(*inputs)[0, 0] == pytest.approx(100 / 70)

    def test_single_user_asymptotic(self):
        cfg = make_config(L=1, K=1, C_u=64, C=128)
        lam2 = 0.3
        inputs = make_inputs(np.ones((1, 1, 1)), lam2, cfg)
        # C_u * rho_p^2 with rho_p^2 = 1 - lam2
        assert sinr_sp_asymptotic(*inputs)[0, 0] == pytest.approx(64 * (1 - lam2))

    def test_scale_invariance_under_power_control(self):
        # doubling all gains rescales q, leaving the normalized system alone
        cfg = make_config()
        rng = substream(35, "scale")
        beta = rng.uniform(0.1, 1.0, size=(7, 7, 5))
        idx = np.arange(7)
        beta[idx, idx, :] = 1.0

        def controlled(b):
            return make_inputs(power_control(b, 1.0), 0.46, cfg)

        a = sinr_sp_asymptotic(*controlled(beta))[0, 0]
        b = sinr_sp_asymptotic(*controlled(2.0 * beta))[0, 0]
        assert a == pytest.approx(b, rel=1e-12)


class TestTpSinr:
    def test_no_reuse_sentinel_and_capped_rate(self):
        cfg = make_config(L=7, K=5, r=7)
        sinr = sinr_tp_asymptotic(np.ones((7, 7, 5)), cfg)
        assert np.all(sinr == math.inf)
        assert rate(cfg, sinr[0, 0], cfg.C_u - cfg.tau, cap_order=4) == pytest.approx(
            (65 / 200) * 2.0)

    def test_six_interferers(self):
        cfg = make_config()
        beta = np.full((7, 7, 5), 0.5)
        idx = np.arange(7)
        beta[idx, idx, :] = 1.0
        assert sinr_tp_asymptotic(beta, cfg)[0, 0] == pytest.approx(1.0 / 1.5)

    def test_rate_weights(self):
        # the pre-log is the payload length of the scheme's frames
        cfg = make_config(r=7)
        book = make_pilot_books(cfg)
        tp, sp = (book.payload_length(p, cfg.C_u) for p in (all_tp(7, 5), all_sp(7, 5)))
        assert rate(cfg, 1.0, tp) == pytest.approx((65 / 200) * 1.0)
        assert rate(cfg, 1.0, sp) == pytest.approx((100 / 200) * 1.0)
        # element-wise on arrays, with the cap on every entry
        np.testing.assert_array_equal(rate(cfg, np.array([1.0, 15.0, math.inf]), sp, 4),
                                      [0.5, 1.0, 1.0])


class TestKappa:
    def test_symmetric_values(self):
        assert kappa_symmetric(5, 7, 1.0) == pytest.approx(11.667, abs=1e-3)
        assert kappa_symmetric(5, 7, 0.5) == pytest.approx(16.667, abs=1e-3)

    def test_vanishing_contamination(self):
        assert kappa_symmetric(5, 7, 0.0) == math.inf
        assert kappa_symmetric(5, 7, 1e-9) > 1e15

    def test_general_matches_symmetric(self):
        # kappa is C_u times the ratio of the large-M TP and SP maps
        beta = np.full((7, 7, 5), 0.5)
        idx = np.arange(7)
        beta[idx, idx, :] = 1.0
        cfg = make_config()
        inputs = make_inputs(beta, 0.5, cfg)
        kappa = cfg.C_u * sinr_tp_asymptotic(beta, cfg) / sinr_sp_asymptotic(*inputs)
        np.testing.assert_allclose(kappa, kappa_symmetric(5, 7, 0.5), rtol=1e-12)

    def test_crossover_property(self):
        beta = np.full((7, 7, 5), 0.5)
        idx = np.arange(7)
        beta[idx, idx, :] = 1.0
        for C_u, sp_wins in ((15, False), (18, True)):
            cfg = make_config(C_u=C_u, C=200)
            inputs = make_inputs(beta, 0.5, cfg)
            sp = sinr_sp_asymptotic(*inputs)[0, 0]
            tp = sinr_tp_asymptotic(beta, cfg)[0, 0]
            assert (sp > tp) == sp_wins


def test_maps_match_per_user_loops():
    # 19 cells in three reuse groups, gains drawn per user and one drawn power split
    cfg = make_config(L=19, K=5, r=3)
    rng = substream(38, "maps")
    beta = rng.uniform(0.05, 2.0, size=(19, 19, 5))
    inputs = make_inputs(beta, rng.uniform(0.2, 0.8), cfg)
    tp = sinr_tp_asymptotic(beta, cfg)
    for j in range(19):
        for m in range(5):
            assert tp[j, m] == pytest.approx(scalar_tp_asymptotic(beta, 3, j, m), rel=1e-12)
    # the finite-M oracle is quadratic in the users: a few of them
    finite = sinr_sp_finite_m(*inputs)
    for j, m in ((0, 0), (7, 2), (18, 4)):
        assert finite[j, m] == pytest.approx(scalar_sp_finite_m(inputs, j, m), rel=1e-12)


@pytest.mark.parametrize("L", [7, 19])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_books_and_closed_forms_share_pilots_with_the_same_cells(L, r):
    # a cell counts when its one cross gain to cell j contaminates user (j, 1):
    # in the TP closed form (beta[j, l]) and in the partitioner (beta[l, j])
    cfg = make_config(L=L, K=2, r=r)
    rows = make_pilot_books(cfg).tp_assignment
    for j in range(L):
        in_book = {l for l in range(L) if np.array_equal(rows[l], rows[j])}
        counted = {j}
        for l in set(range(L)) - {j}:
            beta = np.zeros((L, L, 2))
            beta[j, j, 1] = beta[j, l, 1] = 1.0
            sinr = sinr_tp_asymptotic(beta, cfg)
            # the other cells' users have no home gain and no co-pilot power
            assert np.all(np.delete(sinr, j, axis=0) == math.inf)
            closed_form = sinr[j, 1] < math.inf
            greedy = interference_tp(all_tp(L, 2), beta.transpose(1, 0, 2), cfg)[j, 1] > 0
            assert closed_form == greedy
            if closed_form:
                counted.add(l)
        assert counted == in_book


# the closed forms behind `supmimo analytic`, with finite reference arguments
CLI_FORMS = [
    (optimal_rho, (100, 7, 5, 100)),
    (kappa_symmetric, (5, 7, 0.5)),
    (sinr_sp_lower_bound, (7, 5, 100, 100, 0.5)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form, args", CLI_FORMS, ids=[f.__name__ for f, _ in CLI_FORMS])
def test_cli_forms_reject_each_non_finite_parameter(form, args, bad):
    form(*args)  # accepted as given
    for i in range(len(args)):
        with pytest.raises(ValueError, match="must be finite"):
            form(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("form, args", CLI_FORMS, ids=[f.__name__ for f, _ in CLI_FORMS])
def test_cli_forms_reject_an_integer_beyond_the_float_range(form, args):
    huge = 10**400  # math.isfinite raises OverflowError on it
    for i in range(len(args)):
        with pytest.raises(ValueError, match="too large for a float"):
            form(*args[:i], huge, *args[i + 1:])
