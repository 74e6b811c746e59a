import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from supmimo.hybrid import Partition, all_sp, all_tp
from supmimo.rng import substream
from supmimo.sysmodel import PowerAllocation, SystemConfig
from supmimo.waveform import (
    CapacityError,
    _draw_bits,
    _draw_payloads,
    bits_per_symbol,
    constellation,
    decide,
    demap,
    dft_matrix,
    make_pilot_books,
    modulate,
    synthesize_received,
    assemble_frames,
)


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


def make_config(**kw):
    defaults = dict(L=7, K=5, M=16, C_u=100, C=200, r=1, P=4, seed=0)
    defaults.update(kw)
    return SystemConfig(**defaults)


# an even split of every user's power
HALF = PowerAllocation(0.5, 0.5)


class TestPilotBooks:
    def test_trivial_single_pilot(self):
        cfg = make_config(L=1, K=1, C_u=4)
        book = make_pilot_books(cfg)
        assert book.tp_matrix.shape == (1, 1)
        assert book.tp_matrix[0, 0] == pytest.approx(1.0)

    def test_sp_orthogonality_exact(self):
        cfg = make_config(L=1, K=1, C_u=4)
        book = make_pilot_books(cfg)
        gram = book.sp_matrix.conj().T @ book.sp_matrix
        assert np.allclose(gram, 4.0 * np.eye(4), atol=1e-12)

    def test_orthogonality_tolerance_at_scale(self):
        cfg = make_config()
        book = make_pilot_books(cfg)
        gram = book.sp_matrix.conj().T @ book.sp_matrix
        err = np.linalg.norm(gram - cfg.C_u * np.eye(cfg.C_u))
        assert err < 1e-9 * cfg.C_u
        tp_gram = book.tp_matrix.conj().T @ book.tp_matrix
        assert np.allclose(tp_gram, cfg.tau * np.eye(cfg.tau), atol=1e-10)

    def test_full_assignment_is_injective(self):
        book = make_pilot_books(make_config())
        cols = book.sp_assignment.reshape(-1)
        assert len(set(cols.tolist())) == 35
        assert cols.min() >= 0

    def test_tp_reuse_pattern(self):
        cfg = make_config(L=7, K=2, r=2)
        book = make_pilot_books(cfg)
        assert book.tp_matrix.shape == (4, 4)
        # cells alternate between the two pilot blocks with period r
        assert np.array_equal(book.tp_assignment[0], [0, 1])
        assert np.array_equal(book.tp_assignment[1], [2, 3])
        assert np.array_equal(book.tp_assignment[2], [0, 1])

    def test_capacity_error_without_reuse(self):
        cfg = make_config(L=7, K=5, C_u=20, C=40)
        # in the spec's terms: the CLI prints this for an over-capacity K
        with pytest.raises(CapacityError, match=r"^L=7, K=5: 35 users exceed the C_u=20 "):
            make_pilot_books(cfg)

    def test_reuse_groups_when_allowed(self):
        cfg = make_config(L=7, K=5, C_u=20, C=40)
        book = make_pilot_books(cfg, allow_sp_reuse=True)
        # 4 cell groups of 5 columns; cells 4..6 repeat groups 0..2
        assert np.array_equal(book.sp_assignment[4], book.sp_assignment[0])
        assert book.sp_assignment.max() == 19

    def test_hybrid_book_uses_short_columns(self):
        cfg = make_config()
        sp = np.zeros((7, 5), dtype=bool)
        sp[0, :2] = True
        book = make_pilot_books(cfg, partition=Partition(sp))
        assert book.sp_matrix.shape == (95, 95)
        assert book.sp_assignment[0, 0] >= 0
        assert book.sp_assignment[0, 2] == -1
        cols = [book.sp_assignment[0, 1], book.sp_assignment[0, 0]]
        assert np.array_equal(book.sp_columns(np.array([1, 0])), book.sp_matrix[:, cols])
        with pytest.raises(KeyError, match=r"\(0, 2\)"):
            book.sp_columns(np.array([0, 2]))

    def test_hybrid_capacity(self):
        cfg = make_config(L=7, K=5, C_u=20, C=40)
        with pytest.raises(CapacityError):
            make_pilot_books(cfg, partition=all_sp(7, 5))


class TestQam:
    def test_nearest_qpsk_point(self):
        out = decide(np.array([0.8 + 0.1j]), 4)
        assert out[0] == pytest.approx((1 + 1j) / math.sqrt(2))

    def test_decide_idempotent(self):
        rng = substream(0, "qam")
        v = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        for P in (4, 16, 64):
            once = decide(v, P)
            assert np.array_equal(decide(once, P), once)

    def test_unit_average_power(self):
        for P in (4, 16, 64, 256):
            pts = constellation(P)
            assert len(pts) == P
            assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_min_distance_formula(self):
        for P in (4, 16, 64):
            pts = constellation(P)
            d = min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])
            # adjacent levels sit 2c apart, c^2 = 3 / (2 (P - 1))
            assert d == pytest.approx(math.sqrt(6.0 / (P - 1)), rel=1e-12)

    def test_modulate_demap_roundtrip(self):
        rng = substream(1, "bits")
        for P in (4, 16, 64):
            bits = rng.integers(0, 2, size=50 * bits_per_symbol(P), dtype=np.uint8)
            assert np.array_equal(demap(modulate(bits, P), P), bits)

    def test_gray_neighbors_differ_in_one_bit(self):
        for P in (16, 64):
            side = math.isqrt(P)
            pts = constellation(P).reshape(side, side)
            for i in range(side):
                for j in range(side - 1):
                    a = demap(np.array([pts[i, j]]), P)
                    b = demap(np.array([pts[i, j + 1]]), P)
                    assert np.sum(a != b) == 1

    @pytest.mark.parametrize("P", [4, 16, 64, 256])
    def test_demap_reads_the_nearest_point(self, P):
        # random components and huge ones, which the slicer clips to the outer levels
        rng = substream(14, "demap", P)
        parts = rng.standard_normal((2, 400)) * np.array([[1.0], [1e300]])
        # (real, imaginary) pairs, viewed as complex without arithmetic on inf
        x = np.concatenate([parts.reshape(-1), [np.inf, -np.inf, 1e300, -1e300]]).view(complex)
        assert np.array_equal(demap(x, P), demap(decide(x, P), P))

    def test_non_square_order_rejected(self):
        with pytest.raises(ValueError, match="square"):
            modulate(np.zeros(3, dtype=np.uint8), 8)
        with pytest.raises(ValueError, match="square"):
            decide(np.zeros(2, dtype=complex), 32)

    @pytest.mark.parametrize("n_bits", [1, 5, 7, 190, 200])
    @pytest.mark.parametrize("n_users", [1, 3, 35])
    def test_one_bit_draw_equals_a_draw_per_user(self, n_users, n_bits):
        # same bits and same generator state afterwards, also when a user's
        # bit count is not a multiple of 4
        one, each = substream(3, "bits"), substream(3, "bits")
        bits = _draw_bits(n_users, n_bits, one)
        ref = np.stack([each.integers(0, 2, size=n_bits, dtype=np.uint8)
                        for _ in range(n_users)])
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, ref)
        assert one.bit_generator.state == each.bit_generator.state
        assert one.integers(0, 2**63) == each.integers(0, 2**63)

    def test_modulated_bits_land_on_the_alphabet(self):
        rng = substream(2, "sym")
        sym = modulate(rng.integers(0, 2, size=500 * bits_per_symbol(16), dtype=np.uint8), 16)
        pts = constellation(16)
        dist = np.min(np.abs(sym[:, None] - pts[None, :]), axis=1)
        assert np.max(dist) < 1e-12


def reference_frames(cfg, book, power, rng, partition, data_dist="qam"):
    """User-by-user frame assembly, one payload draw per user."""
    S = np.zeros((cfg.L * cfg.K, cfg.C_u), dtype=complex)
    size = book.sp_length if partition.sp.all() else cfg.C_u - cfg.tau
    data = []
    for cell in range(cfg.L):
        for k in range(cfg.K):
            n = cell * cfg.K + k
            if data_dist == "qam":
                x = modulate(rng.integers(0, 2, size=size * bits_per_symbol(cfg.P),
                                          dtype=np.uint8), cfg.P)
            else:
                x = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)
            if not partition.sp[cell, k]:
                S[n, : cfg.tau] = book.tp_matrix[:, book.tp_assignment[cell, k]]
                S[n, cfg.tau :] = x
            else:
                cols = slice(cfg.C_u - size, cfg.C_u)
                pilot = book.sp_matrix[:, book.sp_assignment[cell, k]]
                S[n, cols] = power.rho_d * x + power.rho_p * pilot
            data.append(x)
    return S, np.array(data)


# a third of the 35 users superimpose their pilots, the rest train
HYBRID = Partition(np.add.outer(np.arange(7), np.arange(5)) % 3 == 0)
# all-TP, all-SP and hybrid frames
PARTITIONS = {"tp": all_tp(7, 5), "sp": all_sp(7, 5), "hybrid": HYBRID}


class TestFrames:
    @pytest.mark.parametrize("name", PARTITIONS)
    @pytest.mark.parametrize("data_dist", ["qam", "gaussian"])
    def test_matches_user_by_user_assembly(self, name, data_dist):
        # C_u - tau = 95 QAM symbols: 190 bits per user, not a multiple of 4
        cfg = make_config()
        part = PARTITIONS[name]
        book = make_pilot_books(cfg, partition=part if name == "hybrid" else None)
        powers = PowerAllocation(0.6, 0.4)
        frames = draw_frames(cfg, book, powers, substream(9, "f"), part, data_dist)
        S, data = reference_frames(cfg, book, powers, substream(9, "f"), part, data_dist)
        assert np.array_equal(frames.S, S)
        assert np.array_equal(frames.data, data)

    @pytest.mark.parametrize("name, short_book, length", [
        ("tp", False, 95), ("tp", True, 95), ("sp", False, 100), ("sp", True, 95),
        ("hybrid", True, 95),
    ])
    def test_payload_length(self, name, short_book, length):
        # C_u - tau with training, else the book's SP segment
        cfg = make_config()
        part = PARTITIONS[name]
        book = make_pilot_books(cfg, partition=part if short_book else None)
        assert book.payload_length(part, cfg.C_u) == length
        # from a draw of C_u symbols per user, each sends its trailing
        # `length`, the frames of that slice alone, and nothing before them
        # but its TP pilot
        (data,), _ = _draw_payloads(35, cfg.C_u, cfg.P, "qam", [substream(0, "f")])
        S = assemble_frames(cfg, book, HALF, data, part)
        tail = data[:, cfg.C_u - length :]
        assert np.array_equal(S, assemble_frames(cfg, book, HALF, tail.copy(), part))
        sp = part.sp.reshape(-1)
        expected = tail.copy()
        if sp.any():
            expected[sp] = HALF.rho_d * tail[sp] + HALF.rho_p * book.sp_columns(sp).T
        np.testing.assert_allclose(S[:, cfg.C_u - length :], expected, rtol=0, atol=1e-12)
        assert np.all(S[sp, : cfg.C_u - length] == 0)
        assert np.all(S[~sp, cfg.tau : cfg.C_u - length] == 0)

    @pytest.mark.parametrize("name", PARTITIONS)
    @pytest.mark.parametrize("data_dist", ["qam", "gaussian"])
    def test_a_stack_of_draws_gives_each_draws_frames(self, name, data_dist):
        # three trials' payloads drawn and assembled as stacks: each slice is
        # the draw of its generator alone, which ends in the same state, and
        # its frames are those of that draw (the hybrid's SP rows come in
        # several runs)
        cfg = make_config()
        part = PARTITIONS[name]
        book = make_pilot_books(cfg, partition=part if name == "hybrid" else None)
        rngs = [substream(9, "stack", t) for t in range(3)]
        data, bits = _draw_payloads(35, cfg.C_u, cfg.P, data_dist, rngs)
        S = assemble_frames(cfg, book, HALF, data, part)
        assert data.shape == S.shape == (3, 35, cfg.C_u)
        assert (bits is None) == (data_dist == "gaussian")
        for t, rng in enumerate(rngs):
            alone = substream(9, "stack", t)
            (one,), one_bits = _draw_payloads(35, cfg.C_u, cfg.P, data_dist, [alone])
            assert rng.bit_generator.state == alone.bit_generator.state
            assert np.array_equal(data[t], one)
            assert bits is None or np.array_equal(bits[t], one_bits[0])
            assert np.array_equal(S[t], assemble_frames(cfg, book, HALF, one, part))

    def test_bad_arguments(self):
        cfg = make_config()
        book = make_pilot_books(cfg)
        powers = HALF
        with pytest.raises(ValueError, match="distribution"):
            draw_frames(cfg, book, powers, substream(0, "f"), all_sp(7, 5), "uniform")
        # payloads of too few users, or too few symbols for the partition's
        (data,), _ = _draw_payloads(35, cfg.C_u, cfg.P, "qam", [substream(0, "f")])
        for short in (data[:-1], data[:, 1:]):
            with pytest.raises(ValueError, match="payloads of shape"):
                assemble_frames(cfg, book, powers, short, all_sp(7, 5))
        with pytest.raises(KeyError, match=r"\(0, 0\)"):
            draw_frames(cfg, make_pilot_books(cfg, partition=all_tp(7, 5)), powers,
                            substream(0, "f"), all_sp(7, 5))
        # as many users as the system, but transposed
        with pytest.raises(ValueError, match=r"\(5, 7\) partition"):
            draw_frames(cfg, book, powers, substream(0, "f"), all_tp(5, 7))

    def test_mixed_partition_needs_the_short_book(self):
        # on the full-length book the SP rows would carry C_u symbols, the TP rows C_u - tau
        cfg = make_config()
        with pytest.raises(ValueError, match="C_u - tau"):
            draw_frames(cfg, make_pilot_books(cfg), HALF, substream(0, "f"),
                            HYBRID)

    def test_pure_pilot_when_data_amplitude_zero(self):
        cfg = make_config(L=1, K=1, C_u=8)
        book = make_pilot_books(cfg)
        powers = PowerAllocation(0.0, 1.0)
        frames = draw_frames(cfg, book, powers, substream(0, "f"), all_sp(1, 1))
        assert np.allclose(frames.S[0], book.sp_matrix[:, book.sp_assignment[0, 0]])

    def test_sp_frame_average_power(self):
        cfg = make_config(L=1, K=2, r=1, C_u=64, C=128)
        book = make_pilot_books(cfg)
        powers = PowerAllocation(0.4, 0.6)
        acc = 0.0
        n_frames = 200
        for t in range(n_frames):
            frames = draw_frames(cfg, book, powers, substream(3, "f", t), all_sp(1, 2))
            acc += np.mean(np.abs(frames.S[0]) ** 2)
        assert acc / n_frames == pytest.approx(1.0, rel=0.02)

    def test_tp_pilot_phase_power_exact(self):
        cfg = make_config()
        book = make_pilot_books(cfg)
        frames = draw_frames(cfg, book, HALF, substream(4, "f"), all_tp(7, 5))
        assert np.allclose(np.abs(frames.S[:, : cfg.tau]) ** 2, 1.0, atol=1e-12)
        assert frames.data[0].shape == (cfg.C_u - cfg.tau,)

    def test_a_book_is_framed_by_its_own_training_length(self):
        # a book of reuse factor 3 under the default config (r = 1): its 15
        # TP pilot symbols lead each row and its 85 payload symbols follow
        cfg = SystemConfig()
        book = make_pilot_books(replace(cfg, r=3))
        assert (cfg.tau, book.tau, book.payload_length(all_tp(7, 5), cfg.C_u)) == (5, 15, 85)
        (data,), _ = _draw_payloads(35, cfg.C_u, cfg.P, "qam", [substream(0, "f")])
        S = assemble_frames(cfg, book, HALF, data, all_tp(7, 5))
        assert np.array_equal(S[:, :15], book.tp_matrix[:, book.tp_assignment.reshape(-1)].T)
        assert np.array_equal(S[:, 15:], data[:, 15:])
        # as under the book's own config
        assert np.array_equal(S, assemble_frames(replace(cfg, r=3), book, HALF, data, all_tp(7, 5)))

    def test_hybrid_sp_user_is_silent_during_training(self):
        cfg = make_config()
        sp = np.zeros((7, 5), dtype=bool)
        sp[0] = True
        part = Partition(sp)
        book = make_pilot_books(cfg, partition=part)
        frames = draw_frames(cfg, book, HALF, substream(5, "f"), part)
        assert np.all(frames.S[:5, : cfg.tau] == 0.0)
        assert np.all(frames.S[5:, : cfg.tau] != 0.0)
        assert np.allclose(np.abs(frames.S[5:, : cfg.tau]), 1.0, atol=1e-12)

    def test_gaussian_payload(self):
        cfg = make_config(L=1, K=1, C_u=2000, C=4000)
        book = make_pilot_books(cfg)
        frames = draw_frames(cfg, book, HALF, substream(6, "f"), all_sp(1, 1),
                                 "gaussian")
        assert np.mean(np.abs(frames.data[0]) ** 2) == pytest.approx(1.0, rel=0.1)


def noise_block(cfg, rng):
    """A receiver noise block: (M, C_u) i.i.d. CN(0, sigma2) entries."""
    shape, scale = (cfg.M, cfg.C_u), math.sqrt(cfg.sigma2 / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestSynthesis:
    def test_zero_channels_zero_noise(self):
        cfg = make_config(L=1, K=1, C_u=8)
        book = make_pilot_books(cfg)
        frames = draw_frames(cfg, book, HALF, substream(0, "f"), all_sp(1, 1))
        Y = synthesize_received(np.zeros((4, 1), dtype=complex), frames.S)
        assert np.all(Y == 0.0)

    def test_single_symbol_identity(self):
        Y = synthesize_received(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]]))
        assert Y[0, 0] == 2.0 + 0j

    def test_received_energy_budget(self):
        # symmetric case: E||Y||_F^2 = sum_n M beta C_u + M C_u sigma2
        cfg = make_config(L=1, K=4, C_u=32, C=64, M=8, snr_db=7.0)
        book = make_pilot_books(cfg)
        powers = HALF
        beta = 0.6
        total = 0.0
        trials = 1000
        for t in range(trials):
            rng = substream(8, "h", t)
            H = math.sqrt(beta / 2) * (rng.standard_normal((8, 4))
                                       + 1j * rng.standard_normal((8, 4)))
            frames = draw_frames(cfg, book, powers, substream(8, "f", t), all_sp(1, 4))
            Y = synthesize_received(H, frames.S) + noise_block(cfg, substream(8, "n", t))
            total += np.linalg.norm(Y) ** 2
        expected = 4 * 8 * beta * 32 + 8 * 32 * cfg.sigma2
        assert total / trials == pytest.approx(expected, rel=0.02)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="users"):
            synthesize_received(np.zeros((4, 3), dtype=complex), np.zeros((2, 4), dtype=complex))

    def test_matches_reference_formula_bit_for_bit(self):
        rng = substream(12, "x")
        H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        S = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        Y = synthesize_received(H, S)
        assert np.array_equal(Y.view(np.int64), (H @ S).view(np.int64))

    def test_stacked_slices_share_one_noise_block(self):
        rng = substream(13, "x")
        H = rng.standard_normal((3, 6, 4)) + 1j * rng.standard_normal((3, 6, 4))
        S = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        W = noise_block(make_config(L=1, K=1, M=6, C_u=5), substream(13, "n"))
        # the caller adds one noise block to every slice of the stack
        Y = synthesize_received(H, S) + W
        assert Y.shape == (3, 6, 5)
        for i in range(3):
            assert np.allclose(Y[i] - H[i] @ S[i], W, rtol=0.0, atol=1e-12)


def test_dft_matrix_unit_modulus():
    F = dft_matrix(9)
    assert np.allclose(np.abs(F), 1.0, atol=1e-12)
