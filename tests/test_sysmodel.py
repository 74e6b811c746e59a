import math
from dataclasses import replace

import numpy as np
import pytest

from supmimo.rng import substream
from supmimo.sysmodel import (
    PathLossMap,
    PowerAllocation,
    Scenario1,
    Scenario2,
    SystemConfig,
    draw_channels,
    draw_noise,
    hex_centers,
    in_hexagon,
    path_loss,
    place_users,
    received_sir,
    uniform_power,
)


def make_config(**kw):
    defaults = dict(L=7, K=5, M=32, C_u=100, C=200, r=1, P=4, seed=0)
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestSystemConfig:
    def test_defaults_are_consistent(self):
        cfg = SystemConfig()
        assert cfg.tau == cfg.r * cfg.K

    def test_sigma2_from_snr(self):
        cfg = make_config(snr_db=10.0, omega=1.0)
        assert cfg.sigma2 == pytest.approx(0.1)
        cfg = make_config(snr_db=0.0, omega=2.0)
        assert cfg.sigma2 == pytest.approx(2.0)

    def test_tau_follows_reuse(self):
        cfg = make_config()
        for K, r in ((5, 1), (2, 3), (7, 7)):
            assert replace(cfg, K=K, r=r).tau == r * K
        with pytest.raises(TypeError):
            replace(cfg, tau=6)
        for C_u in (15, 14):
            with pytest.raises(ValueError, match="tau"):
                replace(cfg, K=5, r=3, C_u=C_u)

    def test_coherence_block_bound(self):
        with pytest.raises(ValueError, match="C "):
            make_config(C=50)

    def test_non_square_qam_rejected(self):
        with pytest.raises(ValueError, match="square"):
            make_config(P=8)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, 0.0, -3.0])
    def test_path_loss_exponent_must_be_positive_and_finite(self, exponent):
        with pytest.raises(ValueError, match="path_loss_exponent"):
            make_config(path_loss_exponent=exponent)


@pytest.mark.parametrize("make, match", [
    (lambda: Scenario1(cell_radius_m=math.inf), "cell_radius_m"),
    (lambda: Scenario1(min_dist_m=math.nan), "min_dist_m"),
    (lambda: Scenario1(min_dist_m=0.0), "min_dist_m"),
    (lambda: Scenario1(cell_radius_m=100.0, min_dist_m=100.0), "min_dist_m < cell_radius_m"),
    (lambda: Scenario2(cell_radius_m=math.inf), "cell_radius_m"),
    (lambda: Scenario2(cell_radius_m=-1.0), "cell_radius_m"),
    (lambda: Scenario2(user_circle_radius_m=math.inf), "user_circle_radius_m"),
    (lambda: Scenario2(user_circle_radius_m=0.0), "user_circle_radius_m"),
])
def test_a_scenario_is_checked_where_it_is_made(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_the_keep_out_stays_inside_the_hexagon_inradius():
    # beyond the inradius only the corner slivers of the hexagon are kept:
    # about 1e-6 of the square's draws at 999 m
    inradius = 1000.0 * math.sqrt(3.0) / 2.0
    for min_dist in (999.999, inradius):
        with pytest.raises(ValueError, match="inradius"):
            Scenario1(1000.0, min_dist)
    # just inside, about 6 % of the draws are kept and placement finishes
    scen = Scenario1(1000.0, math.nextafter(inradius, 0.0))
    layout = place_users(make_config(L=1, K=20, scenario=scen), substream(0, "layout"))
    offsets = layout.positions[0] - layout.bs_positions[0]
    assert np.all(np.hypot(offsets[:, 0], offsets[:, 1]) >= scen.min_dist_m)


class TestGeometry:
    def test_seven_cell_grid(self):
        centers = hex_centers(7, 1000.0)
        assert centers.shape == (7, 2)
        assert np.allclose(centers[0], 0.0)
        dists = np.hypot(centers[1:, 0], centers[1:, 1])
        assert np.allclose(dists, math.sqrt(3.0) * 1000.0)

    def test_nineteen_cell_grid(self):
        centers = hex_centers(19, 500.0)
        assert centers.shape == (19, 2)
        dists = np.sort(np.hypot(centers[:, 0], centers[:, 1]))
        step = math.sqrt(3.0) * 500.0
        assert np.allclose(dists[1:7], step)
        # second tier: six cells at 2*step and six at sqrt(3)*step
        assert np.allclose(np.sort(dists[7:]), np.sort([2 * step] * 6 + [3 * 500.0] * 6))

    def test_unsupported_cell_count(self):
        with pytest.raises(ValueError, match="unsupported"):
            hex_centers(3, 1000.0)

    def test_hexagon_membership(self):
        R = 1000.0
        assert in_hexagon(np.array([0.0, 0.0]), R)
        assert in_hexagon(np.array([0.0, R - 1e-6]), R)  # vertex direction
        assert not in_hexagon(np.array([math.sqrt(3) / 2 * R + 1.0, 0.0]), R)
        points = substream(2, "hexagon").uniform(-R, R, size=(500, 2))
        assert in_hexagon(points, R).tolist() == [point_in_hexagon(p, R) for p in points]


def point_in_hexagon(point, cell_radius_m):
    """One point's hexagon test, in Python floats."""
    half_width = 0.5 * math.sqrt(3.0) * cell_radius_m
    x, y = float(point[0]), float(point[1])
    for theta in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
        if abs(x * math.cos(theta) + y * math.sin(theta)) > half_width + 1e-9:
            return False
    return True


def per_user_placement(config, rng):
    """Scenario 1 user by user: two-number draws until one is accepted."""
    scen = config.scenario
    R = scen.cell_radius_m
    centers = hex_centers(config.L, R)
    positions = np.zeros((config.L, config.K, 2))
    for cell in range(config.L):
        for k in range(config.K):
            while True:
                p = rng.uniform(-R, R, size=2)
                if math.hypot(p[0], p[1]) >= scen.min_dist_m and point_in_hexagon(p, R):
                    break
            positions[cell, k] = centers[cell] + p
    return positions


class Candidates:
    """A generator stand-in whose uniform draws start with given offsets."""

    def __init__(self, first):
        self.first = np.asarray(first, dtype=float)

    def uniform(self, low, high, size):
        out = np.full(size, 0.25 * high)  # inside the hexagon, far from the BS
        out[: len(self.first)] = self.first
        return out


def hypot_disagreement(sign):
    """An offset at about 100 m whose np.hypot is above (+1) or below (-1) math.hypot."""
    rng = np.random.default_rng(5)
    while True:
        p = rng.standard_normal(2)
        p *= 100.0 / math.hypot(p[0], p[1])
        if np.sign(np.hypot(p[0], p[1]) - math.hypot(p[0], p[1])) == sign:
            return p


class TestPlacement:
    def test_scenario2_ring(self):
        cfg = make_config(scenario=Scenario2(cell_radius_m=1000.0, user_circle_radius_m=800.0))
        layout = place_users(cfg, substream(0, "layout"))
        rel = layout.positions - layout.bs_positions[:, np.newaxis, :]
        dists = np.hypot(rel[..., 0], rel[..., 1])
        assert np.allclose(dists, 800.0, rtol=0.0, atol=1e-9)
        angles = np.arctan2(rel[0, :, 1], rel[0, :, 0])
        expected = np.array([0, 2, 4, -4, -2]) * np.pi / 5.0
        assert np.allclose(np.sort(angles), np.sort(expected))

    def test_scenario2_single_user(self):
        cfg = make_config(K=1, scenario=Scenario2(1000.0, 640.0))
        layout = place_users(cfg, substream(0, "layout"))
        d = np.hypot(*(layout.positions[0, 0] - layout.bs_positions[0]))
        assert d == pytest.approx(640.0, abs=1e-9)

    def test_scenario1_respects_bounds(self):
        cfg = make_config(L=1, K=100, scenario=Scenario1(1000.0, 100.0), r=1, C_u=150)
        rng = substream(3, "layout")
        dists = []
        for _ in range(100):  # 10^4 draws total
            layout = place_users(cfg, rng)
            rel = layout.positions[0] - layout.bs_positions[0]
            d = np.hypot(rel[:, 0], rel[:, 1])
            dists.append(d)
            for p in rel:
                assert in_hexagon(p, 1000.0)
        dists = np.concatenate(dists)
        assert dists.min() >= 100.0
        assert dists.max() <= 1000.0

    @pytest.mark.parametrize("L", [1, 7, 19])
    @pytest.mark.parametrize("K", [1, 5, 10])
    def test_scenario1_matches_the_per_user_loop(self, L, K):
        # 12 layouts each, 108 in all; an 800 m keep-out rejects most
        # candidates, so those layouts take several blocks
        for seed in range(12):
            scen = Scenario1(1000.0, (100.0, 800.0)[seed % 2])
            cfg = make_config(L=L, K=K, scenario=scen)
            layout = place_users(cfg, substream(seed, "layout", L, K))
            assert np.array_equal(layout.positions,
                                  per_user_placement(cfg, substream(seed, "layout", L, K)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_distance_near_the_keep_out_follows_math_hypot(self, sign):
        p = hypot_disagreement(sign)
        # the keep-out radius sits on one of the two distances, so the two
        # hypots decide differently
        min_dist = float(np.hypot(p[0], p[1])) if sign == 1 else math.hypot(p[0], p[1])
        cfg = make_config(L=1, K=1, scenario=Scenario1(1000.0, min_dist))
        got = place_users(cfg, Candidates([p])).positions[0, 0]
        accepted = math.hypot(p[0], p[1]) >= min_dist
        assert accepted == (sign == -1)
        assert np.array_equal(got, p if accepted else np.full(2, 250.0))

    def test_determinism(self):
        cfg = make_config(scenario=Scenario1(1000.0, 100.0))
        a = place_users(cfg, substream(7, "layout"))
        b = place_users(cfg, substream(7, "layout"))
        assert np.array_equal(a.positions, b.positions)


class TestPathLoss:
    def test_edge_user_normalization(self):
        cfg = make_config(K=1, scenario=Scenario2(1000.0, 1000.0))
        layout = place_users(cfg, substream(0, "x"))
        beta = path_loss(layout, 3.0)
        assert beta.beta[0, 0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_half_radius_gain(self):
        cfg = make_config(K=1, scenario=Scenario2(1000.0, 500.0))
        layout = place_users(cfg, substream(0, "x"))
        beta = path_loss(layout, 3.0)
        assert beta.beta[0, 0, 0] == pytest.approx(8.0, rel=1e-12)

    def test_ring_at_800m(self):
        cfg = make_config(scenario=Scenario2(1000.0, 800.0))
        layout = place_users(cfg, substream(0, "x"))
        beta = path_loss(layout, 3.0)
        assert np.allclose(beta.home(), 0.8**-3, rtol=1e-12)
        assert beta.home()[0, 0] == pytest.approx(1.9531, abs=5e-5)

    def test_zero_distance_rejected(self):
        from supmimo.sysmodel import UserLayout

        layout = UserLayout(
            positions=np.zeros((1, 1, 2)),
            bs_positions=np.zeros((1, 2)),
            cell_radius_m=1000.0,
        )
        with pytest.raises(ValueError, match="zero"):
            path_loss(layout, 3.0)


class TestPowerControl:
    def test_received_home_power_is_omega(self):
        cfg = make_config(scenario=Scenario1(1000.0, 100.0))
        layout = place_users(cfg, substream(11, "x"))
        eff = path_loss(layout, 3.0).normalized(omega=2.5)
        assert np.allclose(eff.home(), 2.5, rtol=1e-12)

    def test_cross_power_bounded_when_home_dominates(self):
        # hexagonal cells are the Voronoi regions of their BSs, so the home
        # gain dominates and power control caps every cross gain at omega
        cfg = make_config(scenario=Scenario1(1000.0, 100.0))
        for trial in range(5):
            layout = place_users(cfg, substream(trial, "cross"))
            beta = path_loss(layout, 3.0)
            eff = beta.normalized(omega=1.0)
            assert np.all(eff.beta <= 1.0 + 1e-9)
            assert np.allclose(eff.home(), 1.0)

    def test_power_split_invariant(self):
        with pytest.raises(ValueError, match="split"):
            PowerAllocation(rho_d=np.ones((1, 1)), rho_p=np.ones((1, 1)))
        powers = uniform_power(2, 3, data_power_fraction=0.25)
        assert np.allclose(powers.rho_d**2 + powers.rho_p**2, 1.0)
        assert np.allclose(powers.rho_d**2, 0.25)


def reference_draw(M, N, rng):
    """The unit-variance fading formula, written out: (a + 1j*b) * sqrt(1/2)."""
    shape = (M, N)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def fading_config(L=1, K=1, M=16):
    return SystemConfig(L=L, K=K, M=M)


class TestChannels:
    def test_matches_reference_formula_bit_for_bit(self):
        Z = draw_channels(fading_config(L=7, K=5, M=200), substream(3, "h"))
        assert Z.shape == (200, 35)
        reference = reference_draw(200, 35, substream(3, "h"))
        assert np.array_equal(Z.view(np.int64), reference.view(np.int64))

    def test_norm_concentration(self):
        M = 10_000
        Z = draw_channels(fading_config(M=M), substream(1, "h"))
        assert 0.97 <= np.vdot(Z[:, 0], Z[:, 0]).real / M <= 1.03

    def test_asymptotic_orthogonality(self):
        M = 10_000
        Z = draw_channels(fading_config(K=2, M=M), substream(2, "h"))
        assert abs(np.vdot(Z[:, 0], Z[:, 1])) / M < 0.05

    def test_unit_second_moment_split_evenly(self):
        M, T = 64, 400
        acc = np.zeros((2, 2))
        for t in range(T):
            Z = draw_channels(fading_config(K=2, M=M), substream(5, "h", t))
            acc += [np.sum(Z.real**2, axis=0), np.sum(Z.imag**2, axis=0)]
        assert np.allclose(acc / (M * T), 0.5, rtol=0.05)

    def test_noise_matches_reference_formula_bit_for_bit(self):
        # 300 x 100 is drawn in blocks of 40 rows: the same stream as one draw
        cfg = SystemConfig(L=1, K=1, M=300, C_u=100, snr_db=4.0)
        W = draw_noise(cfg, substream(7, "n"))
        rng = substream(7, "n")
        scale = math.sqrt(cfg.sigma2 / 2.0)
        reference = scale * rng.standard_normal((300, 100)) + 1j * (
            scale * rng.standard_normal((300, 100)))
        assert np.array_equal(W.view(np.int64), reference.view(np.int64))

    def test_noise_block_has_the_config_variance(self):
        cfg = SystemConfig(L=1, K=1, M=400, C_u=50, snr_db=3.0)
        W = draw_noise(cfg, substream(6, "n"))
        assert W.shape == (400, 50)
        # 20,000 entries: a relative standard error of 0.7 %
        assert np.mean(np.abs(W) ** 2) == pytest.approx(cfg.sigma2, rel=0.03)

    def test_determinism(self):
        a = draw_channels(fading_config(K=3, M=8), substream(9, "h"))
        b = draw_channels(fading_config(K=3, M=8), substream(9, "h"))
        assert np.array_equal(a, b)


class TestReceivedSir:
    def test_single_cell_sentinel(self):
        beta = PathLossMap(np.ones((1, 1, 4)))
        assert received_sir(beta, 1.0, 0) == math.inf

    def test_one_interferer(self):
        b = np.zeros((2, 2, 1))
        b[0, 0, 0] = 1.0
        b[1, 1, 0] = 1.0
        b[0, 1, 0] = 0.5
        b[1, 0, 0] = 0.5
        assert received_sir(PathLossMap(b), 1.0, 0) == pytest.approx(4.0)

    def test_two_interferers(self):
        b = np.zeros((2, 2, 2))
        b[0, 0, :] = 1.0
        b[1, 1, :] = 1.0
        b[0, 1, :] = 1.0
        assert received_sir(PathLossMap(b), 10.0, 0) == pytest.approx(5.0)
