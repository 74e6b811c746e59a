import math
import weakref
from typing import NamedTuple

import numpy as np
import pytest

from supmimo.estimators import Projection, estimator_columns, project, receive, receiver
from supmimo.hybrid import Partition, all_sp, all_tp
from supmimo.rng import substream
from supmimo.sysmodel import PowerAllocation, SystemConfig, draw_channels
from supmimo.waveform import (
    PilotBook,
    _draw_payloads,
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


# an even split of every user's power
HALF = PowerAllocation(0.5, 0.5)


def gaussian(shape, rng):
    """i.i.d. CN(0, 1) entries, the variance split evenly between the parts."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def fading(cfg, key):
    """Unit-variance fading (M, L*K) at one BS."""
    return gaussian((cfg.M, cfg.L * cfg.K), substream(*key))


def noise(cfg, key):
    """A receiver noise block (M, C_u) of CN(0, sigma2) entries."""
    return math.sqrt(cfg.sigma2) * gaussian((cfg.M, cfg.C_u), substream(*key))


def no_noise(cfg):
    return np.zeros((cfg.M, cfg.C_u), dtype=complex)


class Frames(NamedTuple):
    S: np.ndarray
    data: np.ndarray
    bits: np.ndarray | None


def draw_frames(cfg, book, powers, rng, partition, data_dist="qam"):
    """One block's frames, on a payload draw as long as the partition's payloads."""
    n = book.payload_length(partition, cfg.C_u)
    data, bits = _draw_payloads(cfg.L * cfg.K, n, cfg.P, data_dist, [rng])
    return Frames(assemble_frames(cfg, book, powers, data[0], partition), data[0],
                  None if bits is None else bits[0])


def project_one(factor, sigma, frames, pairs, roots, columns):
    """project on one trial's factor and frame matrices: a stack of one, without its axis."""
    estimates, matched = project([factor], sigma, np.stack(frames)[:, np.newaxis], pairs, roots,
                                 columns)
    return Projection(estimates[0], matched[0])


def projection_of(Z, W, S, roots, book, partition, powers, users, C_u):
    """The block Z (roots * S) + W seen through the listed users' estimator columns."""
    columns = estimator_columns(book, partition, powers, users, C_u)
    return project_one(np.concatenate([Z, W], axis=1), 1.0, [S], [(0, 0)], [roots], [columns])


def cell_outputs(projection, book, partition, powers, cell, beta_home, config):
    """The receiver of `cell`'s K users, the projection's users in order."""
    K = partition.sp.shape[1]
    rx = receiver([(book, partition, cell, np.asarray(beta_home))], powers, config)
    return receive(projection, np.arange(K), rx)


class TestTpEstimator:
    def test_exact_without_noise_or_reuse(self):
        # tau = r*K = L*K pilots: every user in the system has its own
        cfg = make_config(L=7, K=2, r=7, M=24)
        book = make_pilot_books(cfg)
        powers = HALF
        Z = fading(cfg, (1, "h"))
        frames = draw_frames(cfg, book, powers, substream(1, "f"), all_tp(7, 2))
        roots = np.full(14, math.sqrt(0.8))
        est = projection_of(Z, no_noise(cfg), frames.S, roots, book, all_tp(7, 2), powers,
                            [1], cfg.C_u).estimates
        assert np.allclose(est[:, 0], roots[1] * Z[:, 1], atol=1e-12)

    def test_contamination_is_copilot_sum(self):
        cfg = make_config(L=7, K=2, r=1, M=16)
        book = make_pilot_books(cfg)
        powers = HALF
        H = math.sqrt(0.5) * fading(cfg, (2, "h"))
        frames = draw_frames(cfg, book, powers, substream(2, "f"), all_tp(7, 2))
        est = projection_of(H, no_noise(cfg), frames.S, np.ones(14), book, all_tp(7, 2), powers,
                            [0], cfg.C_u).estimates
        copilot_sum = H[:, 0::2].sum(axis=1)  # user 0 of every cell
        assert np.allclose(est[:, 0], copilot_sum, atol=1e-10)

    def test_two_cell_contamination_single_pilot_bitexact(self):
        # one pilot symbol, unit pilot: the estimate IS the column sum
        book = PilotBook(
            tp_matrix=np.ones((1, 1), dtype=complex),
            tp_assignment=np.zeros((2, 1), dtype=int),
            sp_matrix=np.ones((1, 1), dtype=complex),
            sp_assignment=np.zeros((2, 1), dtype=int),
        )
        h = np.array([[1.25 + 0.5j, -0.75 + 2.0j]])
        S = np.ones((2, 1), dtype=complex)
        est = projection_of(h, np.zeros((1, 1), dtype=complex), S, np.ones(2), book,
                            all_tp(2, 1), HALF, [0], 1).estimates
        assert np.array_equal(est[:, 0], h[:, 0] + h[:, 1])

    def test_noise_only_error_variance(self):
        cfg = make_config(L=1, K=2, r=1, M=48, snr_db=3.0)
        book = make_pilot_books(cfg)
        powers = HALF
        acc = 0.0
        trials = 1000
        for t in range(trials):
            Z = fading(cfg, (3, "h", t))
            frames = draw_frames(cfg, book, powers, substream(3, "f", t), all_tp(1, 2))
            W = noise(cfg, (3, "n", t))
            est = projection_of(Z, W, frames.S, np.ones(2), book, all_tp(1, 2), powers, [0],
                                cfg.C_u).estimates
            acc += np.linalg.norm(est[:, 0] - Z[:, 0]) ** 2
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
            estimator_columns(bad, all_tp(1, 2), HALF, [1], cfg.C_u)


class TestSpEstimator:
    def test_exact_when_data_free_and_noiseless(self):
        cfg = make_config(L=1, K=1, C_u=16, M=8)
        book = make_pilot_books(cfg)
        powers = PowerAllocation(0.0, 1.0)
        Z = fading(cfg, (4, "h"))
        frames = draw_frames(cfg, book, powers, substream(4, "f"), all_sp(1, 1))
        est = projection_of(Z, no_noise(cfg), frames.S, np.ones(1), book, all_sp(1, 1), powers,
                            [0], cfg.C_u).estimates
        assert np.allclose(est[:, 0], Z[:, 0], atol=1e-12)

    def test_single_user_error_identity(self):
        # noiseless single user: h_hat - h = (rho_d / (C_u rho_p)) h (x^T p*)
        cfg = make_config(L=1, K=1, C_u=16, M=8)
        book = make_pilot_books(cfg)
        powers = PowerAllocation(0.4, 0.6)
        rho_d, rho_p = powers.rho_d, powers.rho_p
        Z = fading(cfg, (5, "h"))
        frames = draw_frames(cfg, book, powers, substream(5, "f"), all_sp(1, 1))
        est = projection_of(Z, no_noise(cfg), frames.S, np.ones(1), book, all_sp(1, 1), powers,
                            [0], cfg.C_u).estimates
        pilot = book.sp_matrix[:, book.sp_assignment[0, 0]]
        leak = (rho_d / (cfg.C_u * rho_p)) * Z[:, 0] * (frames.data[0] @ np.conj(pilot))
        assert np.allclose(est[:, 0] - Z[:, 0], leak, atol=1e-12)

    def test_error_second_moment_symmetric(self):
        # E||h_hat - h||^2 / M = sum_n rho_d^2 beta_n / (C_u rho_p^2), noiseless
        cfg = make_config(M=256)
        book = make_pilot_books(cfg)
        lam2 = 0.46
        powers = PowerAllocation(lam2, 1.0 - lam2)
        acc = 0.0
        trials = 60
        for t in range(trials):
            Z = fading(cfg, (6, "h", t))
            frames = draw_frames(cfg, book, powers, substream(6, "f", t), all_sp(7, 5))
            est = projection_of(Z, no_noise(cfg), frames.S, np.ones(35), book, all_sp(7, 5),
                                powers, [0], cfg.C_u).estimates
            acc += np.linalg.norm(est[:, 0] - Z[:, 0]) ** 2 / cfg.M
        expected = 35 * lam2 / (cfg.C_u * (1 - lam2))
        assert acc / trials == pytest.approx(expected, rel=0.10)

    def test_zero_pilot_amplitude_rejected(self):
        cfg = make_config(L=1, K=1, C_u=4)
        powers = PowerAllocation(1.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            estimator_columns(make_pilot_books(cfg), all_sp(1, 1), powers, [0], cfg.C_u)

    def test_linearity(self):
        # scaling the frames and the noise scales every estimate, and every
        # matched filter by the square of the scale
        cfg = make_config(L=1, K=2, C_u=8, M=4)
        book = make_pilot_books(cfg)
        powers = PowerAllocation(0.7, 0.3)
        rng = substream(7, "lin")
        Z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        W = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        S = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        args = (np.ones(2), book, all_sp(1, 2), powers, [0, 1], cfg.C_u)
        a = projection_of(Z, 3.0 * W, 3.0 * S, *args)
        b = projection_of(Z, W, S, *args)
        assert np.allclose(a.estimates, 3.0 * b.estimates, atol=1e-12)
        assert np.allclose(a.matched, 9.0 * b.matched, atol=1e-11)


class TestMatchedFilters:
    def test_sp_own_pilot_removal_is_exact(self):
        # noiseless single user: h_hat = c h with c = 1 + rho_d (x . conj(p)) /
        # (C_u rho_p), and removing the own pilot through h_hat leaves the
        # data without its pilot component, at gain conj(c) ||h||^2 / M
        cfg = make_config(L=1, K=1, C_u=32, M=4096)
        book = make_pilot_books(cfg)
        powers = HALF
        rho_d, rho_p = powers.rho_d, powers.rho_p
        Z = fading(cfg, (8, "h"))
        frames = draw_frames(cfg, book, powers, substream(8, "f"), all_sp(1, 1))
        projection = projection_of(Z, no_noise(cfg), frames.S, np.ones(1), book, all_sp(1, 1),
                                   powers, [0], cfg.C_u)
        x_tilde = cell_outputs(projection, book, all_sp(1, 1), powers, 0, np.ones(1), cfg)[0]
        x, pilot = frames.data[0], book.sp_matrix[:, book.sp_assignment[0, 0]]
        overlap = x @ np.conj(pilot) / cfg.C_u
        c = 1.0 + rho_d * overlap / rho_p
        gain = np.vdot(Z[:, 0], Z[:, 0]).real / cfg.M
        assert np.allclose(x_tilde, np.conj(c) * gain * (x - overlap * pilot), atol=1e-10)
        assert gain == pytest.approx(1.0, abs=0.05)
        assert np.array_equal(decide(x_tilde, cfg.P), x)

    def test_decisions_live_on_constellation(self):
        rng = substream(9, "mf")
        pts = constellation(16)
        cfg = make_config(L=1, K=1, C_u=64, M=4)
        book = make_pilot_books(cfg)
        projection = Projection(np.ones((4, 1), dtype=complex),
                                (rng.standard_normal(64) + 1j * rng.standard_normal(64))[None])
        x_tilde = cell_outputs(projection, book, all_sp(1, 1), HALF, 0, np.ones(1), cfg)
        x_hat = decide(x_tilde[0], 16)
        dist = np.min(np.abs(x_hat[:, None] - pts[None, :]), axis=1)
        assert np.max(dist) < 1e-12

    def test_qpsk_decisions_invariant_to_gain_scaling(self):
        rng = substream(10, "mf")
        cfg = make_config(L=1, K=1, C_u=12, M=16)
        book = make_pilot_books(cfg)
        projection = Projection(rng.standard_normal((16, 1)) + 1j * rng.standard_normal((16, 1)),
                                rng.standard_normal((1, 12)) + 1j * rng.standard_normal((1, 12)))
        powers = HALF
        a = cell_outputs(projection, book, all_sp(1, 1), powers, 0, np.ones(1), cfg)
        b = cell_outputs(projection, book, all_sp(1, 1), powers, 0, np.full(1, 5.0), cfg)
        assert np.allclose(b * 5.0, a, rtol=1e-12)
        assert np.array_equal(decide(a, 4), decide(b, 4))

    def test_tp_symbol_exact_recovery_noiseless(self):
        cfg = make_config(L=1, K=1, C_u=16, M=512)
        book = make_pilot_books(cfg)
        powers = HALF
        Z = fading(cfg, (11, "h"))
        frames = draw_frames(cfg, book, powers, substream(11, "f"), all_tp(1, 1))
        projection = projection_of(Z, no_noise(cfg), frames.S, np.ones(1), book, all_tp(1, 1),
                                   powers, [0], cfg.C_u)
        x_hat = decide(cell_outputs(projection, book, all_tp(1, 1), powers, 0, np.ones(1),
                                    cfg)[0], cfg.P)
        assert np.array_equal(x_hat, frames.data[0])


def hybrid_partition(L, K):
    """Users with (l + k) % 3 == 0 on superimposed pilots, the rest trained."""
    l, k = np.indices((L, K))
    return Partition((l + k) % 3 == 0)


def sp_partition(sp_users, L=7, K=5):
    """The partition whose SP users are sp_users; every other user is TP."""
    sp = np.zeros((L, K), dtype=bool)
    for user in sp_users:
        sp[user] = True
    return Partition(sp)


def textbook_outputs(Y, book, partition, powers, cell, beta_home):
    """LS, then MF, then SP own-pilot removal, one user of `cell` at a time on Y."""
    M, C_u = Y.shape
    K = partition.sp.shape[1]
    n = book.payload_length(partition, C_u)
    rows = []
    for k in range(K):
        if not partition.sp[cell, k]:
            tau = book.tau
            phi = book.tp_matrix[:, book.tp_assignment[cell, k]]
            h = Y[:, :tau] @ np.conj(phi) / tau
            rows.append(np.conj(h) @ Y[:, tau:] / (M * beta_home[k]))
        else:
            p = book.sp_matrix[:, book.sp_assignment[cell, k]]
            rho_d, rho_p = powers.rho_d, powers.rho_p
            Y_sp = Y[:, C_u - p.size :]
            h = Y_sp @ np.conj(p) / (p.size * rho_p)
            own_pilot = rho_p * np.outer(h, p)
            rows.append(np.conj(h) @ (Y_sp - own_pilot) / (M * rho_d * beta_home[k]))
        assert rows[-1].size == n
    return np.array(rows)


@pytest.mark.parametrize("K", [1, 5])
@pytest.mark.parametrize("reuse", [False, True], ids=["dedicated", "reuse"])
def test_receiver_matches_the_textbook_formulas_on_the_block(reuse, K):
    # all-TP, all-SP and a hybrid partition projected together at each BS;
    # the superimposed book either gives every user its own column or, with
    # fewer columns than users, reuses them (allow_sp_reuse)
    L = 7
    cfg = make_config(L=L, K=K, M=40, C_u=(4 if reuse else 8) * K)
    assert (L * K > cfg.C_u) == reuse
    book = make_pilot_books(cfg, allow_sp_reuse=reuse)
    hybrid = hybrid_partition(L, K)
    schemes = [(book, all_tp(L, K)), (book, all_sp(L, K)),
               (make_pilot_books(cfg, partition=hybrid), hybrid)]
    assert hybrid.sp.any() and not hybrid.sp.all()
    powers = PowerAllocation(0.4, 0.6)
    beta = substream(12, "gains", K).uniform(0.1, 1.0, (L, L, K))
    frames = [draw_frames(cfg, b, powers, substream(12, "f", i), part).S
              for i, (b, part) in enumerate(schemes)]
    for j in (0, 2):
        Z, W = fading(cfg, (12, "h", j)), noise(cfg, (12, "n", j))
        roots = np.sqrt(beta[j].reshape(-1))
        cell = j * K + np.arange(K)
        columns = [estimator_columns(b, part, powers, cell, cfg.C_u) for b, part in schemes]
        sigma = math.sqrt(cfg.sigma2)
        projection = project_one(np.concatenate([Z, W / sigma], axis=1), sigma, frames,
                                 [(0, 0), (1, 1), (2, 2)], [roots] * 3, columns)
        assert projection.estimates.shape == (cfg.M, 3 * K)
        for i, ((b, part), S) in enumerate(zip(schemes, frames)):
            Y = synthesize_received(Z, roots[:, np.newaxis] * S) + W
            got = receive(projection, i * K + np.arange(K),
                          receiver([(b, part, j, beta[j, j])], powers, cfg))
            expected = textbook_outputs(Y, b, part, powers, j, beta[j, j])
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(expected)))


def test_schemes_that_send_one_frame_matrix_share_its_products():
    # four schemes over two frame matrices, each sent by two schemes that
    # are not adjacent, on gains and estimator columns of their own; every
    # scheme's estimates and matched filters are those of its own block
    L, K = 7, 2
    cfg = make_config(L=L, K=K, M=24, C_u=16)
    powers = PowerAllocation(0.4, 0.6)
    book = make_pilot_books(cfg)
    tp, sp = all_tp(L, K), all_sp(L, K)
    S_tp = draw_frames(cfg, book, powers, substream(17, "f", 0), tp).S
    S_sp = draw_frames(cfg, book, powers, substream(17, "f", 1), sp).S
    E_tp = estimator_columns(book, tp, powers, np.arange(K), cfg.C_u)
    column_sets = [E_tp, estimator_columns(book, sp, powers, np.arange(K), cfg.C_u),
                   estimator_columns(book, sp, powers, np.arange(3), cfg.C_u)]
    # (frame matrix, column set): S_tp and S_sp, the TP pair sent twice
    pairs = [(0, 0), (1, 1), (0, 0), (1, 2)]
    schemes = [((S_tp, S_sp)[f], column_sets[c]) for f, c in pairs]
    roots = np.sqrt(substream(17, "gains").uniform(0.1, 1.0, (4, L * K)))
    Z, W = fading(cfg, (17, "h")), noise(cfg, (17, "n"))
    sigma = math.sqrt(cfg.sigma2)
    projection = project_one(np.concatenate([Z, W / sigma], axis=1), sigma, [S_tp, S_sp], pairs,
                             roots, column_sets)
    lo = 0
    for (S, E), root in zip(schemes, roots):
        Y = synthesize_received(Z, root[:, np.newaxis] * S) + W
        estimates = Y @ E
        users = slice(lo, lo + E.shape[1])
        lo = users.stop
        np.testing.assert_allclose(projection.estimates[:, users], estimates, rtol=1e-12)
        np.testing.assert_allclose(projection.matched[users], np.conj(estimates).T @ Y,
                                   rtol=1e-11)
    assert lo == projection.matched.shape[0] == 2 * K + K + 3


def test_a_stack_of_trials_projects_each_as_it_would_alone():
    # four schemes over two frame matrices, each sent by two schemes that
    # are not adjacent, in three trials: every trial's estimates and matched
    # filters have the bits of its own one-trial projection, and project
    # draws each trial's factor only once the one before it is released
    L, K = 7, 2
    cfg = make_config(L=L, K=K, M=24, C_u=16)
    powers = PowerAllocation(0.4, 0.6)
    book = make_pilot_books(cfg)
    tp, sp = all_tp(L, K), all_sp(L, K)
    E_tp = estimator_columns(book, tp, powers, np.arange(K), cfg.C_u)
    columns = [E_tp, estimator_columns(book, sp, powers, np.arange(K), cfg.C_u),
               estimator_columns(book, sp, powers, np.arange(3), cfg.C_u)]
    pairs = [(0, 0), (1, 1), (0, 0), (1, 2)]
    roots = np.sqrt(substream(18, "gains").uniform(0.1, 1.0, (4, L * K)))
    sigma = math.sqrt(cfg.sigma2)
    S_tp, S_sp = (np.stack([draw_frames(cfg, book, powers, substream(18, "f", i, t), part).S
                            for t in range(3)]) for i, part in enumerate((tp, sp)))
    made = []

    def factors():
        for t in range(3):
            assert all(factor() is None for factor in made)
            factor = draw_channels(cfg, substream(18, "h", t))
            made.append(weakref.ref(factor))
            yield factor
            del factor

    stack = project(factors(), sigma, np.stack([S_tp, S_sp]), pairs, roots, columns)
    assert len(made) == 3
    assert stack.estimates.shape == (3, cfg.M, 3 * K + 3)
    assert stack.matched.shape == (3, 3 * K + 3, cfg.C_u)
    for t in range(3):
        alone = project_one(draw_channels(cfg, substream(18, "h", t)), sigma,
                            [S_tp[t], S_sp[t]], pairs, roots, columns)
        assert np.array_equal(stack.estimates[t], alone.estimates)
        assert np.array_equal(stack.matched[t], alone.matched)


def test_a_factor_with_fewer_rows_than_m_receives_as_its_block():
    # X = [Z, W / sigma] and its triangular factor F (F^H F = X^H X) give
    # rotated estimates, of d < M rows, with the same norms and matched
    # filters; the receiver normalises by the config's M, not by the rows
    L, K = 7, 2
    cfg = make_config(L=L, K=K, M=120, C_u=16)
    d = L * K + cfg.C_u
    hybrid = hybrid_partition(L, K)
    book = make_pilot_books(cfg, partition=hybrid)
    powers = PowerAllocation(0.4, 0.6)
    beta = substream(16, "gains").uniform(0.1, 1.0, (L, K))
    frames = draw_frames(cfg, book, powers, substream(16, "f"), hybrid).S
    X = gaussian((cfg.M, d), substream(16, "x"))
    columns = estimator_columns(book, hybrid, powers, np.arange(K), cfg.C_u)
    sigma = math.sqrt(cfg.sigma2)
    block, factor = (project_one(F, sigma, [frames], [(0, 0)], [np.sqrt(beta.reshape(-1))],
                                 [columns])
                     for F in (X, np.linalg.qr(X, mode="r")))
    assert block.estimates.shape == (cfg.M, K) and factor.estimates.shape == (d, K)
    gram = np.conj(block.estimates.T) @ block.estimates
    np.testing.assert_allclose(np.conj(factor.estimates.T) @ factor.estimates, gram, rtol=1e-12)
    np.testing.assert_allclose(factor.matched, block.matched, rtol=1e-11)
    got, expected = (cell_outputs(p, book, hybrid, powers, 0, beta[0], cfg)
                     for p in (factor, block))
    np.testing.assert_allclose(got, expected, rtol=1e-11)


class TestHybridEstimates:
    """receive, the one receiver of every pilot scheme, on a hybrid frame."""

    def _system(self, seed=12, M=64):
        cfg = make_config(M=M)
        part = sp_partition({(0, 1)} | {(2, k) for k in range(5)})
        book = make_pilot_books(cfg, partition=part)
        powers = PowerAllocation(0.4, 0.6)
        frames = draw_frames(cfg, book, powers, substream(seed, "f"), part)
        projection = projection_of(fading(cfg, (seed, "h")), no_noise(cfg), frames.S,
                                   np.ones(35), book, part, powers, np.arange(5, 10), cfg.C_u)
        return cfg, part, book, powers, projection

    @staticmethod
    def _block_projection(Y, book, partition, powers, cell):
        """An arbitrary block Y seen through the estimator columns of `cell`'s users.

        Zero fading and Y as the noise make the projected block exactly Y.
        """
        L, K = partition.sp.shape
        M, C_u = Y.shape
        users = cell * K + np.arange(K)
        S = np.zeros((L * K, C_u), dtype=complex)
        return projection_of(np.zeros((M, L * K)), Y, S, np.ones(L * K), book, partition,
                             powers, users, C_u)

    @staticmethod
    def _assert_close(got, expected):
        np.testing.assert_allclose(got, expected, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_all_tp_partition_matches_plain_tp_estimator(self):
        cfg = make_config()
        book = make_pilot_books(cfg, partition=all_tp(7, 5))
        rng = substream(13, "y")
        Y = rng.standard_normal((cfg.M, cfg.C_u)) + 1j * rng.standard_normal((cfg.M, cfg.C_u))
        powers = HALF
        beta_home = np.linspace(0.5, 1.5, 5)
        projection = self._block_projection(Y, book, all_tp(7, 5), powers, 0)
        x_tilde = cell_outputs(projection, book, all_tp(7, 5), powers, 0, beta_home, cfg)
        assert x_tilde.shape == (5, cfg.C_u - cfg.tau)
        self._assert_close(x_tilde, textbook_outputs(Y, book, all_tp(7, 5), powers, 0,
                                                     beta_home))

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
        powers = HALF
        rng = substream(14, "y")
        Y = rng.standard_normal((8, C_u)) + 1j * rng.standard_normal((8, C_u))
        beta_home = np.array([1.0, 0.7])
        projection = self._block_projection(Y, book, all_sp(1, 2), powers, 0)
        x_tilde = cell_outputs(projection, book, all_sp(1, 2), powers, 0, beta_home,
                               make_config(L=1, K=2, C_u=C_u, M=8))
        assert x_tilde.shape == (2, C_u)
        self._assert_close(x_tilde, textbook_outputs(Y, book, all_sp(1, 2), powers, 0,
                                                     beta_home))

    def test_mixed_partition_matches_per_user_chains(self):
        cfg = make_config(M=64)
        part = sp_partition({(0, 1)} | {(2, k) for k in range(5)})
        book = make_pilot_books(cfg, partition=part)
        powers = PowerAllocation(0.4, 0.6)
        frames = draw_frames(cfg, book, powers, substream(12, "f"), part)
        beta_home = np.linspace(0.8, 1.2, 5)
        for cell in (0, 2):
            beta = np.full((7, 5), 0.3)
            beta[cell] = 1.0
            roots = np.sqrt(beta.reshape(-1))
            Z, W = fading(cfg, (12, "h", cell)), noise(cfg, (12, "n", cell))
            projection = projection_of(Z, W, frames.S, roots, book, part, powers,
                                       cell * 5 + np.arange(5), cfg.C_u)
            x_tilde = cell_outputs(projection, book, part, powers, cell, beta_home, cfg)
            Y = synthesize_received(Z, roots[:, np.newaxis] * frames.S) + W
            self._assert_close(x_tilde, textbook_outputs(Y, book, part, powers, cell,
                                                         beta_home))

    def test_sp_branch_error_moment_matches_short_book(self):
        # the TP users do not reach BS 0, so over the C_u - tau segment the SP
        # estimate error is driven by the data of the SP set alone
        cfg = make_config(M=256)
        part = sp_partition((0, k) for k in range(5))
        book = make_pilot_books(cfg, partition=part)
        lam2 = 0.5
        powers = PowerAllocation(lam2, 1.0 - lam2)
        roots = np.zeros(35)
        roots[:5] = 1.0
        acc = 0.0
        trials = 60
        for t in range(trials):
            Z = fading(cfg, (15, "h", t))
            frames = draw_frames(cfg, book, powers, substream(15, "f", t), part)
            est = projection_of(Z, no_noise(cfg), frames.S, roots, book, part, powers, [0],
                                cfg.C_u).estimates
            acc += np.linalg.norm(est[:, 0] - Z[:, 0]) ** 2 / cfg.M
        expected = 5 * lam2 / ((cfg.C_u - cfg.tau) * (1 - lam2))
        assert acc / trials == pytest.approx(expected, rel=0.10)

    def test_sp_user_without_a_column_rejected(self):
        cfg, part, book, powers, projection = self._system()
        # (1, 0) trained in the book's partition, so the book has no SP column for it
        bad = sp_partition({(0, 1), (1, 0)} | {(2, k) for k in range(5)})
        with pytest.raises(KeyError, match=r"\(1, 0\) has no superimposed pilot"):
            cell_outputs(projection, book, bad, powers, 1, np.ones(5), cfg)
        with pytest.raises(KeyError, match=r"\(1, 0\) has no superimposed pilot"):
            estimator_columns(book, bad, powers, np.arange(5, 10), cfg.C_u)

    def test_a_mask_of_another_shape_than_the_book_is_refused(self):
        cfg = make_config()
        book = make_pilot_books(cfg)
        # as many users as the system, but transposed: read in flat order it
        # would name other users
        with pytest.raises(ValueError, match=r"\(5, 7\) partition for a system of \(7, 5\)"):
            estimator_columns(book, all_tp(5, 7), HALF, np.arange(5), cfg.C_u)
        # the receiver refuses a mask of too few cells or too few users per cell
        # too, where it would read a row of the mask as cell 0's users
        projection = self._block_projection(np.ones((cfg.M, cfg.C_u), dtype=complex), book,
                                            all_tp(7, 5), HALF, 0)
        for L, K in ((3, 5), (7, 4)):
            with pytest.raises(ValueError, match=rf"\({L}, {K}\) partition for a system of"):
                cell_outputs(projection, book, all_tp(L, K), HALF, 0, np.ones(5), cfg)
