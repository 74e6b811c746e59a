import math

import numpy as np
import pytest

from supmimo.estimators import (
    mf_detect_sp,
    mf_detect_tp,
    receive_cell,
    sp_ls_estimate,
    tp_ls_estimate,
)
from supmimo.hybrid import Partition, all_sp, all_tp
from supmimo.rng import substream
from supmimo.sysmodel import (
    PowerAllocation,
    SystemConfig,
    draw_channels,
    draw_noise,
    uniform_power,
)
from supmimo.waveform import (
    PilotBook,
    assemble_frames,
    constellation,
    decide,
    make_pilot_books,
    synthesize_received,
)


def make_config(**kw):
    defaults = dict(L=7, K=5, M=32, C_u=100, C=200, r=1, P=4, seed=0)
    defaults.update(kw)
    return SystemConfig(**defaults)


def draw(beta_array, bs, M, key):
    """Channels (M, L*K) at BS bs: unit-variance fading, each column scaled by sqrt(beta)."""
    _, L, K = beta_array.shape
    Z = draw_channels(SystemConfig(L=L, K=K, M=M), substream(*key))
    return Z * np.sqrt(beta_array[bs].reshape(-1))


class TestTpEstimator:
    def test_exact_without_noise_or_reuse(self):
        # tau = r*K = L*K pilots: every user in the system has its own
        cfg = make_config(L=7, K=2, r=7, M=24)
        book = make_pilot_books(cfg)
        beta = np.full((7, 7, 2), 0.8)
        H = draw(beta, 0, cfg.M, (1, "h"))
        frames = assemble_frames(cfg, book, uniform_power(7, 2), substream(1, "f"), all_tp(7, 2))
        Y = synthesize_received(H, frames.S, 0.0)
        est = tp_ls_estimate(Y[:, : cfg.tau], book, (0, 1))
        assert np.allclose(est, H[:, 1], atol=1e-12)

    def test_contamination_is_copilot_sum(self):
        cfg = make_config(L=7, K=2, r=1, M=16)
        book = make_pilot_books(cfg)
        beta = np.full((7, 7, 2), 0.5)
        H = draw(beta, 0, cfg.M, (2, "h"))
        frames = assemble_frames(cfg, book, uniform_power(7, 2), substream(2, "f"), all_tp(7, 2))
        Y = synthesize_received(H, frames.S, 0.0)
        est = tp_ls_estimate(Y[:, : cfg.tau], book, (0, 0))
        copilot_sum = H[:, 0::2].sum(axis=1)  # user 0 of every cell
        assert np.allclose(est, copilot_sum, atol=1e-10)

    def test_two_cell_contamination_single_pilot_bitexact(self):
        # one pilot symbol, unit pilot: the estimate IS the column sum
        book = PilotBook(
            tp_matrix=np.ones((1, 1), dtype=complex),
            tp_assignment=np.zeros((2, 1), dtype=int),
            sp_matrix=np.ones((1, 1), dtype=complex),
            sp_assignment=np.zeros((2, 1), dtype=int),
        )
        h = np.array([[1.25 + 0.5j, -0.75 + 2.0j]])
        Y_pilot = (h[:, 0] + h[:, 1]).reshape(1, 1)
        est = tp_ls_estimate(Y_pilot, book, (0, 0))
        assert np.array_equal(est, h[:, 0] + h[:, 1])

    def test_noise_only_error_variance(self):
        cfg = make_config(L=1, K=2, r=1, M=48, snr_db=3.0)
        book = make_pilot_books(cfg)
        beta = np.full((1, 1, 2), 1.0)
        acc = 0.0
        trials = 1000
        for t in range(trials):
            H = draw(beta, 0, cfg.M, (3, "h", t))
            frames = assemble_frames(cfg, book, uniform_power(1, 2), substream(3, "f", t),
                                     all_tp(1, 2))
            Y = synthesize_received(H, frames.S, draw_noise(cfg, substream(3, "n", t)))
            est = tp_ls_estimate(Y[:, : cfg.tau], book, (0, 0))
            acc += np.linalg.norm(est - H[:, 0]) ** 2
        expected = cfg.M * cfg.sigma2 / cfg.tau
        assert acc / trials == pytest.approx(expected, rel=0.05)

    def test_unknown_pilot_index(self):
        cfg = make_config(L=1, K=2, r=1)
        book = make_pilot_books(cfg)
        bad = PilotBook(
            tp_matrix=book.tp_matrix,
            tp_assignment=np.array([[0, 5]]),
            sp_matrix=book.sp_matrix,
            sp_assignment=book.sp_assignment,
        )
        with pytest.raises(KeyError):
            tp_ls_estimate(np.zeros((4, 2), dtype=complex), bad, (0, 1))


class TestSpEstimator:
    def test_exact_when_data_free_and_noiseless(self):
        cfg = make_config(L=1, K=1, C_u=16)
        book = make_pilot_books(cfg)
        powers = PowerAllocation(rho_d=np.zeros((1, 1)), rho_p=np.ones((1, 1)))
        H = draw(np.ones((1, 1, 1)), 0, 8, (4, "h"))
        frames = assemble_frames(cfg, book, powers, substream(4, "f"), all_sp(1, 1))
        Y = synthesize_received(H, frames.S, 0.0)
        est = sp_ls_estimate(Y, book.sp_matrix[:, book.sp_assignment[0, 0]], 1.0)
        assert np.allclose(est, H[:, 0], atol=1e-12)

    def test_single_user_error_identity(self):
        # noiseless single user: h_hat - h = (rho_d / (C_u rho_p)) h (x^T p*)
        cfg = make_config(L=1, K=1, C_u=16)
        book = make_pilot_books(cfg)
        rho_d, rho_p = math.sqrt(0.4), math.sqrt(0.6)
        powers = PowerAllocation(rho_d=np.full((1, 1), rho_d), rho_p=np.full((1, 1), rho_p))
        H = draw(np.ones((1, 1, 1)), 0, 8, (5, "h"))
        frames = assemble_frames(cfg, book, powers, substream(5, "f"), all_sp(1, 1))
        Y = synthesize_received(H, frames.S, 0.0)
        pilot = book.sp_matrix[:, book.sp_assignment[0, 0]]
        est = sp_ls_estimate(Y, pilot, rho_p)
        leak = (rho_d / (cfg.C_u * rho_p)) * H[:, 0] * (frames.data[0] @ np.conj(pilot))
        assert np.allclose(est - H[:, 0], leak, atol=1e-12)

    def test_error_second_moment_symmetric(self):
        # E||h_hat - h||^2 / M = sum_n rho_d^2 beta_n / (C_u rho_p^2), noiseless
        cfg = make_config(M=256)
        book = make_pilot_books(cfg)
        lam2 = 0.46
        powers = uniform_power(7, 5, data_power_fraction=lam2)
        beta = np.full((7, 7, 5), 1.0)
        acc = 0.0
        trials = 60
        for t in range(trials):
            H = draw(beta, 0, cfg.M, (6, "h", t))
            frames = assemble_frames(cfg, book, powers, substream(6, "f", t), all_sp(7, 5))
            Y = synthesize_received(H, frames.S, 0.0)
            pilot = book.sp_matrix[:, book.sp_assignment[0, 0]]
            est = sp_ls_estimate(Y, pilot, float(powers.rho_p[0, 0]))
            acc += np.linalg.norm(est - H[:, 0]) ** 2 / cfg.M
        expected = 35 * lam2 / (cfg.C_u * (1 - lam2))
        assert acc / trials == pytest.approx(expected, rel=0.10)

    def test_zero_pilot_amplitude_rejected(self):
        with pytest.raises(ZeroDivisionError):
            sp_ls_estimate(np.zeros((2, 4), dtype=complex), np.ones(4, dtype=complex), 0.0)

    def test_linearity(self):
        rng = substream(7, "lin")
        Y = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        p = np.exp(2j * np.pi * np.arange(8) / 8)
        a = sp_ls_estimate(3.0 * Y, p, 0.7)
        b = 3.0 * sp_ls_estimate(Y, p, 0.7)
        assert np.allclose(a, b, atol=1e-12)


class TestMatchedFilters:
    def test_sp_pilot_removal_exact_with_true_channel(self):
        cfg = make_config(L=1, K=1, C_u=32, M=4096)
        book = make_pilot_books(cfg)
        rho_d, rho_p = math.sqrt(0.5), math.sqrt(0.5)
        powers = PowerAllocation(rho_d=np.full((1, 1), rho_d), rho_p=np.full((1, 1), rho_p))
        H = draw(np.ones((1, 1, 1)), 0, cfg.M, (8, "h"))
        frames = assemble_frames(cfg, book, powers, substream(8, "f"), all_sp(1, 1))
        Y = synthesize_received(H, frames.S, 0.0)
        pilot = book.sp_matrix[:, book.sp_assignment[0, 0]]
        x_tilde = mf_detect_sp(Y, H[:, 0], rho_d, rho_p, 1.0, pilot)
        gain = np.vdot(H[:, 0], H[:, 0]).real / cfg.M
        # own pilot cancels exactly; what remains is the scaled data alone
        assert np.allclose(x_tilde, gain * frames.data[0], atol=1e-10)
        assert gain == pytest.approx(1.0, abs=0.05)
        assert np.array_equal(decide(x_tilde, cfg.P), frames.data[0])

    def test_decisions_live_on_constellation(self):
        rng = substream(9, "mf")
        pts = constellation(16)
        x_tilde = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        x_hat = decide(mf_detect_sp(np.outer(np.ones(4), x_tilde), np.ones(4, dtype=complex),
                                    1.0, 0.5, 1.0, np.ones(64, dtype=complex)), 16)
        dist = np.min(np.abs(x_hat[:, None] - pts[None, :]), axis=1)
        assert np.max(dist) < 1e-12

    def test_qpsk_decisions_invariant_to_gain_scaling(self):
        rng = substream(10, "mf")
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        Y = rng.standard_normal((16, 12)) + 1j * rng.standard_normal((16, 12))
        p = np.exp(-2j * np.pi * np.arange(12) * 3 / 12)
        a = mf_detect_sp(Y, h, 0.7, 0.7, 1.0, p)
        b = mf_detect_sp(Y, h, 0.7, 0.7, 5.0, p)
        assert np.allclose(b * 5.0, a, rtol=1e-12)
        assert np.array_equal(decide(a, 4), decide(b, 4))

    def test_tp_symbol_exact_recovery_noiseless(self):
        cfg = make_config(L=1, K=1, C_u=16, M=512)
        book = make_pilot_books(cfg)
        H = draw(np.ones((1, 1, 1)), 0, cfg.M, (11, "h"))
        frames = assemble_frames(cfg, book, uniform_power(1, 1), substream(11, "f"), all_tp(1, 1))
        Y = synthesize_received(H, frames.S, 0.0)
        est = tp_ls_estimate(Y[:, :1], book, (0, 0))
        x_hat = decide(mf_detect_tp(Y[:, 1:], est, 1.0), cfg.P)
        assert np.array_equal(x_hat, frames.data[0])
        errors = np.sum(x_hat != frames.data[0])
        assert errors == 0


class TestHybridEstimates:
    """receive_cell, the one receiver of every pilot scheme, against the
    per-user estimate -> matched-filter chains it replaces."""

    def _system(self, noisy=False, seed=12, M=64):
        cfg = make_config(M=M)
        sp = {(0, 1)} | {(2, k) for k in range(5)}
        part = Partition(
            u_tp=frozenset((l, k) for l in range(7) for k in range(5)) - sp,
            u_sp=frozenset(sp),
        )
        book = make_pilot_books(cfg, partition=part)
        powers = uniform_power(7, 5, data_power_fraction=0.4)
        beta = np.full((7, 7, 5), 0.3)
        beta[0, 0, :] = 1.0
        H = draw(beta, 0, cfg.M, (seed, "h"))
        frames = assemble_frames(cfg, book, powers, substream(seed, "f"), part)
        noise = draw_noise(cfg, substream(seed, "n")) if noisy else 0.0
        Y = synthesize_received(H, frames.S, noise)
        return cfg, part, book, powers, H, frames, Y

    def test_all_tp_partition_matches_plain_tp_estimator(self):
        cfg = make_config()
        book = make_pilot_books(cfg, partition=all_tp(7, 5))
        rng = substream(13, "y")
        Y = rng.standard_normal((cfg.M, cfg.C_u)) + 1j * rng.standard_normal((cfg.M, cfg.C_u))
        powers = uniform_power(7, 5)
        beta_home = np.linspace(0.5, 1.5, 5)
        x_tilde = receive_cell(Y, book, all_tp(7, 5), powers, 0, beta_home)
        assert x_tilde.shape == (5, cfg.C_u - cfg.tau)
        for k in range(5):
            est = tp_ls_estimate(Y[:, : cfg.tau], book, (0, k))
            direct = mf_detect_tp(Y[:, cfg.tau :], est, float(beta_home[k]))
            assert np.array_equal(x_tilde[k], direct)

    def test_all_sp_with_no_training_phase_matches_plain_sp(self):
        # a zero-length training phase makes the SP branch the plain
        # whole-block estimator and detector
        from supmimo.waveform import dft_matrix

        C_u = 16
        book = PilotBook(
            tp_matrix=np.zeros((0, 0), dtype=complex),
            tp_assignment=np.zeros((1, 2), dtype=int),
            sp_matrix=dft_matrix(C_u),
            sp_assignment=np.array([[0, 1]]),
        )
        powers = uniform_power(1, 2, data_power_fraction=0.5)
        rng = substream(14, "y")
        Y = rng.standard_normal((8, C_u)) + 1j * rng.standard_normal((8, C_u))
        beta_home = np.array([1.0, 0.7])
        x_tilde = receive_cell(Y, book, all_sp(1, 2), powers, 0, beta_home)
        for k in range(2):
            pilot = book.sp_matrix[:, book.sp_assignment[0, k]]
            rho_d, rho_p = float(powers.rho_d[0, k]), float(powers.rho_p[0, k])
            est = sp_ls_estimate(Y, pilot, rho_p)
            direct = mf_detect_sp(Y, est, rho_d, rho_p, float(beta_home[k]), pilot)
            assert np.array_equal(x_tilde[k], direct)

    def test_mixed_partition_matches_per_user_chains(self):
        cfg, part, book, powers, H, frames, Y = self._system(noisy=True)
        tau = cfg.tau
        for cell in (0, 2):
            beta_home = np.linspace(0.8, 1.2, 5)
            x_tilde = receive_cell(Y, book, part, powers, cell, beta_home)
            for k in range(5):
                if (cell, k) in part.u_tp:
                    est = tp_ls_estimate(Y[:, :tau], book, (cell, k))
                    det = mf_detect_tp(Y[:, tau:], est, float(beta_home[k]))
                else:
                    pilot = book.sp_matrix[:, book.sp_assignment[cell, k]]
                    rho_d, rho_p = float(powers.rho_d[cell, k]), float(powers.rho_p[cell, k])
                    est = sp_ls_estimate(Y[:, tau:], pilot, rho_p)
                    det = mf_detect_sp(Y[:, tau:], est, rho_d, rho_p, float(beta_home[k]), pilot)
                assert np.array_equal(x_tilde[k], det)

    def test_sp_branch_error_moment_matches_short_book(self):
        # the TP users do not reach BS 0, so over the C_u - tau segment the SP
        # estimate error is driven by the data of the SP set alone
        cfg = make_config(M=256)
        part = Partition(
            u_tp=frozenset((l, k) for l in range(7) for k in range(5) if l > 0),
            u_sp=frozenset((0, k) for k in range(5)),
        )
        book = make_pilot_books(cfg, partition=part)
        lam2 = 0.5
        powers = uniform_power(7, 5, data_power_fraction=lam2)
        beta = np.full((7, 7, 5), 1.0)
        beta[0, 1:, :] = 0.0
        acc = 0.0
        trials = 60
        for t in range(trials):
            H = draw(beta, 0, cfg.M, (15, "h", t))
            frames = assemble_frames(cfg, book, powers, substream(15, "f", t), part)
            Y = synthesize_received(H, frames.S, 0.0)
            pilot, rho_p = book.sp_matrix[:, book.sp_assignment[0, 0]], float(powers.rho_p[0, 0])
            est = sp_ls_estimate(Y[:, cfg.tau :], pilot, rho_p)
            acc += np.linalg.norm(est - H[:, 0]) ** 2 / cfg.M
        expected = 5 * lam2 / ((cfg.C_u - cfg.tau) * (1 - lam2))
        assert acc / trials == pytest.approx(expected, rel=0.10)

    def test_unpartitioned_user_rejected(self):
        cfg, part, book, powers, H, frames, Y = self._system()
        bad = Partition(u_tp=part.u_tp - {(1, 0)}, u_sp=part.u_sp)
        with pytest.raises(KeyError, match="neither"):
            receive_cell(Y, book, bad, powers, 1, np.ones(5))

    def test_sp_user_without_a_column_rejected(self):
        cfg, part, book, powers, H, frames, Y = self._system()
        # (1, 0) trained in the book's partition, so the book has no SP column for it
        bad = Partition(u_tp=part.u_tp - {(1, 0)}, u_sp=part.u_sp | {(1, 0)})
        with pytest.raises(KeyError, match=r"\(1, 0\) has no superimposed pilot"):
            receive_cell(Y, book, bad, powers, 1, np.ones(5))
