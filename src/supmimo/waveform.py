"""Pilot books, QAM mapping, frame assembly, and received-signal synthesis.

A user's uplink frame follows its pilot type in the partition
(hybrid.Partition, an (L, K) mask that is True for the SP users):

* a time-multiplexed (TP) user sends its pilot over the first tau symbols,
  then data over the remaining C_u - tau;
* a superimposed (SP) user sends rho_d * data + rho_p * pilot over the
  trailing book.sp_length symbols, on a dedicated pilot column, and stays
  silent before them.

Pure TP and pure SP are the all-TP and all-SP partitions; with the
full-length book the SP frames fill the whole block.  A hybrid partition
mixes both and needs the (C_u - tau)-length book, so that every user carries
C_u - tau payload symbols.  Every user transmits at unit power: power
control is folded into the gain map (sysmodel.power_control).

Payloads are drawn apart from the frames (_draw_payloads), one row per
user, and assemble_frames sends the trailing payload_length symbols of each
row.  So frames of different partitions can carry one draw: each sends the
same symbols where their payloads overlap.

Pilot matrices are DFT-based, so entries have unit modulus and orthogonality
is exact up to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hybrid import Partition, reuse_groups
from .sysmodel import PowerAllocation, SystemConfig


class CapacityError(ValueError):
    """More pilot-needing users than available orthogonal columns."""


@dataclass(frozen=True)
class PilotBook:
    """Pilot matrices plus the user-to-column assignments.

    tp_matrix is tau x tau; tp_assignment[l, k] indexes its columns, by
    reuse_groups: the cells of one group have equal rows.  sp_matrix is
    square with sp_length columns; sp_assignment[l, k] is the dedicated
    column of user (l, k), or -1 when that user has no superimposed pilot.
    """

    tp_matrix: np.ndarray
    tp_assignment: np.ndarray
    sp_matrix: np.ndarray
    sp_assignment: np.ndarray

    @property
    def tau(self) -> int:
        return self.tp_matrix.shape[0]

    @property
    def sp_length(self) -> int:
        return self.sp_matrix.shape[0]

    def sp_columns(self, users) -> np.ndarray:
        """The superimposed pilot columns (sp_length, n) of the given users.

        users indexes the flat l*K + k order: an index array, a bool mask or
        a slice.  Raises KeyError for a user with no superimposed pilot.
        """
        cols = self.sp_assignment.reshape(-1)[users]
        if np.any(cols < 0):
            n = int(np.arange(self.sp_assignment.size)[users][np.argmax(cols < 0)])
            K = self.sp_assignment.shape[1]
            raise KeyError(f"user ({n // K}, {n % K}) has no superimposed pilot")
        return self.sp_matrix[:, cols]

    def payload_length(self, partition: Partition, C_u: int) -> int:
        """Payload (and matched-filter output) symbols per user of a partition's frames.

        C_u - tau when some user trains in the first tau symbols, else
        sp_length.  Raises ValueError for a partition with both kinds of
        user on a book whose SP segment is not C_u - tau long.  The frames
        (assemble_frames) and the simulation harness both read this rule,
        and analytics.rate takes it as the pre-log's n.
        """
        n_sp = np.count_nonzero(partition.sp)
        if n_sp == partition.sp.size:
            return self.sp_length
        n = C_u - self.tau
        if n_sp and self.sp_length != n:
            raise ValueError(f"TP users carry {n} payload symbols but the SP segment is "
                             f"{self.sp_length} long; a mixed partition needs the "
                             "(C_u - tau)-length book")
        return n


@functools.cache
def dft_matrix(n: int) -> np.ndarray:
    """Unnormalized DFT matrix: unit-modulus entries, F^H F = n I.

    Built once per size and read-only, so every pilot book of that size
    shares it.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    idx = np.arange(n)
    F = np.exp(-2j * np.pi * np.outer(idx, idx) / n)
    F.flags.writeable = False
    return F


def make_pilot_books(
    config: SystemConfig,
    partition: Partition | None = None,
    allow_sp_reuse: bool = False,
) -> PilotBook:
    """Build TP and SP pilot matrices with their user assignments.

    Without a partition every user gets a dedicated superimposed column of
    length C_u, which requires L*K <= C_u unless allow_sp_reuse is set (then
    each of the C_u // K column blocks serves one reuse_groups group of
    cells, mimicking pilot reuse).  With a partition, only the superimposed
    users are assigned columns, drawn from a (C_u - tau)-length book in
    (cell, user) order.
    """
    L, K, C_u, tau, r = config.L, config.K, config.C_u, config.tau, config.r
    tp_matrix = dft_matrix(tau)
    tp_assignment = reuse_groups(L, r)[:, np.newaxis] * K + np.arange(K)

    sp_assignment = np.full((L, K), -1, dtype=int)
    if partition is not None:
        sp_len = C_u - tau
        n_sp = np.count_nonzero(partition.sp)
        if n_sp > sp_len:
            raise CapacityError(f"{n_sp} superimposed users exceed {sp_len} available columns")
        sp_matrix = dft_matrix(sp_len)
        sp_assignment[partition.sp] = np.arange(n_sp)
    else:
        sp_matrix = dft_matrix(C_u)
        if L * K <= C_u:
            sp_assignment = np.arange(L * K).reshape(L, K)
        elif allow_sp_reuse:
            groups = C_u // K
            if groups < 1:
                raise CapacityError(f"C_u ({C_u}) cannot fit even one cell of {K} pilots")
            sp_assignment = reuse_groups(L, groups)[:, np.newaxis] * K + np.arange(K)
        else:
            raise CapacityError(
                f"L={L}, K={K}: {L * K} users exceed the C_u={C_u} superimposed pilot columns"
            )
    return PilotBook(
        tp_matrix=tp_matrix,
        tp_assignment=tp_assignment,
        sp_matrix=sp_matrix,
        sp_assignment=sp_assignment,
    )


# ---------------------------------------------------------------------------
# Square-QAM mapping
# ---------------------------------------------------------------------------


def _side(P: int) -> int:
    side = math.isqrt(P)
    if P < 4 or side * side != P:
        raise ValueError(f"P must be a square QAM order >= 4, got {P}")
    return side


def _axis_scale(P: int) -> float:
    # unit average power: adjacent amplitude levels sit 2*c apart
    return math.sqrt(3.0 / (2.0 * (P - 1)))


def constellation(P: int) -> np.ndarray:
    """All P points of the Gray-labelled unit-average-power square QAM."""
    side = _side(P)
    c = _axis_scale(P)
    levels = (2 * np.arange(side) - (side - 1)) * c
    re, im = np.meshgrid(levels, levels, indexing="ij")
    return (re + 1j * im).reshape(-1)


def bits_per_symbol(P: int) -> int:
    return int(round(math.log2(P)))


@functools.cache
def _qam_table(P: int):
    """(points, bits) of the Gray-labelled P-QAM, read-only.

    points[label] is the symbol of a label, whose first half of bits (most
    significant first) is the Gray code of the in-phase level and whose
    second half that of the quadrature level.  bits[i * side + j] is the
    label of the point at in-phase level i and quadrature level j, as
    bits_per_symbol(P) bits, most significant first.
    """
    side = _side(P)
    width = bits_per_symbol(P)
    idx = np.arange(side)
    gray = idx ^ (idx >> 1)
    labels = ((gray[:, np.newaxis] << (width // 2)) | gray[np.newaxis, :]).reshape(-1)
    points = np.empty(P, dtype=complex)
    points[labels] = constellation(P)
    bits = ((labels[:, np.newaxis] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
    points.flags.writeable = bits.flags.writeable = False
    return points, bits


def modulate(bits: np.ndarray, P: int) -> np.ndarray:
    """Map a flat 0/1 array onto Gray-labelled square-QAM symbols.

    The first half of each symbol's bit group selects the in-phase level,
    the second half the quadrature level.
    """
    points, _ = _qam_table(P)
    b = bits_per_symbol(P)
    bits = np.asarray(bits).reshape(-1)
    if bits.size % b != 0:
        raise ValueError(f"bit count {bits.size} is not a multiple of {b}")
    groups = bits.reshape(-1, b)
    labels = groups[:, 0].astype(np.intp)
    for j in range(1, b):
        labels <<= 1
        labels |= groups[:, j]
    return points.take(labels)


def _levels(parts: np.ndarray, side: int, c: float) -> np.ndarray:
    """The nearest amplitude level, 0 .. side - 1, of each real component, as floats.

    Clipped in floating point, so a huge or infinite component goes to the
    outer level.
    """
    level = parts / c
    level += side - 1
    level /= 2.0
    np.rint(level, out=level)
    np.maximum(level, 0.0, out=level)
    np.minimum(level, side - 1.0, out=level)
    return level


def demap(symbols: np.ndarray, P: int) -> np.ndarray:
    """The Gray-coded bits of each symbol's nearest constellation point."""
    _, bits = _qam_table(P)
    side = _side(P)
    # (in-phase, quadrature) level pairs, one row per symbol
    parts = np.ascontiguousarray(symbols, dtype=complex).reshape(-1).view(np.float64)
    level = _levels(parts, side, _axis_scale(P)).astype(np.intp).reshape(-1, 2)
    return bits.take(level[:, 0] * side + level[:, 1], axis=0).reshape(-1)


def decide(symbols: np.ndarray, P: int) -> np.ndarray:
    """Elementwise projection onto the nearest constellation point."""
    side = _side(P)
    c = _axis_scale(P)
    # real and imaginary parts side by side in one float array
    point = _levels(np.ascontiguousarray(symbols, dtype=complex).view(np.float64), side, c)
    point *= 2.0
    point -= side - 1
    point *= c
    return point.view(complex).reshape(np.shape(symbols))


# ---------------------------------------------------------------------------
# Frames and received blocks
# ---------------------------------------------------------------------------


def assemble_frames(
    config: SystemConfig,
    pilot_book: PilotBook,
    power: PowerAllocation,
    data: np.ndarray,
    partition: Partition,
) -> np.ndarray:
    """Every user's transmitted frame for one coherence block, S (L*K, C_u).

    data holds one row of payload symbols per user (_draw_payloads), at
    least PilotBook.payload_length long; each user sends the trailing
    payload_length symbols of its row.  Row l*K + k of S is an SP frame
    where partition.sp is True, else a TP frame (see the module docstring).
    A stack of draws (..., L*K, n) gives a stack of frames (..., L*K, C_u),
    each as its draw alone would.  A mask of another shape than (L, K), or
    too few rows or symbols, raises ValueError.
    """
    L, K, C_u, tau = config.L, config.K, config.C_u, pilot_book.tau
    if partition.sp.shape != (L, K):
        raise ValueError(f"a {partition.sp.shape} partition for a system of ({L}, {K}) users")
    payload_len = pilot_book.payload_length(partition, C_u)
    if data.ndim < 2 or data.shape[-2] != L * K or data.shape[-1] < payload_len:
        raise ValueError(f"payloads of shape {data.shape} for {L * K} users of "
                         f"{payload_len} symbols")
    data = data[..., data.shape[-1] - payload_len :]
    sp = partition.sp.reshape(-1)
    tp = ~sp

    S = np.zeros((*data.shape[:-1], C_u), dtype=complex)
    # every row's payload, then the TP pilots; the SP rows are overwritten
    S[..., C_u - payload_len :] = data
    if tp.any():
        columns = pilot_book.tp_assignment.reshape(-1)[tp]
        S[..., tp, :tau] = pilot_book.tp_matrix[:, columns].T
    if sp.any():
        # rho_d * data + rho_p * pilot on the SP rows, in place, run by run of
        # consecutive SP rows
        pilots = pilot_book.sp_columns(sp).T
        pilots *= power.rho_p
        edges = [0, *(np.flatnonzero(sp[1:] != sp[:-1]) + 1).tolist(), sp.size]
        at = 0
        for lo, hi in zip(edges, edges[1:]):
            if sp[lo]:
                rows = S[..., lo:hi, C_u - payload_len :]
                rows *= power.rho_d
                rows += pilots[at : at + hi - lo]
                at += hi - lo
    return S


def _draw_payloads(n_users: int, n: int, P: int, data_dist: str, rngs):
    """A stack of n_users x n payload draws, each user by user from one stream, and their bits.

    rngs is a sequence of Generators; the draws are (len(rngs), n_users, n),
    each the draw of its Generator alone.  data_dist is "qam" (unit-power
    P-QAM) or "gaussian" (unit-variance complex normal).  A draw's bits are
    n_users rows of n * bits_per_symbol(P), symbol i's bits at columns i *
    bits_per_symbol(P) on, stacked like the draws, or None for Gaussian
    payloads.  So the trailing m symbols of a row carry its trailing m *
    bits_per_symbol(P) bits.
    """
    if data_dist == "qam":
        bits = np.stack([_draw_bits(n_users, n * bits_per_symbol(P), one) for one in rngs])
        return modulate(bits, P).reshape(len(rngs), n_users, n), bits
    if data_dist == "gaussian":
        # same stream as per-user real then imaginary draws
        z = np.stack([one.standard_normal((n_users, 2, n)) for one in rngs])
        return (z[:, :, 0] + 1j * z[:, :, 1]) / math.sqrt(2.0), None
    raise ValueError(f"unknown data distribution {data_dist!r}")


def _draw_bits(n_users: int, n_bits: int, rng: np.random.Generator) -> np.ndarray:
    """n_users rows of n_bits uniform 0/1 values from one draw.

    The bits, and the stream they use, are those of one
    rng.integers(0, 2, n_bits, dtype=np.uint8) per user: that draw takes one
    32-bit word per 4 bits, reads its bytes low byte first, drops a user's
    unused bytes, and a byte's bit is its top bit.
    """
    words = rng.integers(0, 2**32, size=n_users * -(-n_bits // 4), dtype=np.uint32)
    octets = words.astype("<u4", copy=False).view(np.uint8).reshape(n_users, -1)
    return octets[:, :n_bits] >> 7


def synthesize_received(H: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Noiseless received block Y = H @ S, or a block seen through columns E.

    H is (M, N) and S is (N, C_u), or either or both carry a leading stack
    axis: (n, M, N) and (n, N, C_u).  With unit-variance fading H and each
    frame row scaled by the square root of its user's gain, Y is the block
    received over the gain map before noise.  Given a trial's factor
    [Z, W / sigma] (sysmodel.draw_channels) for H, and the stacked
    [sqrt(beta) * (S E) ; sigma E] for S, with E (C_u, n) any n columns, it
    returns the noisy block seen through E without forming the block: the
    estimates of the users whose estimator columns E holds
    (estimators.project).
    """
    if H.shape[-1] != S.shape[-2]:
        raise ValueError(f"channel columns ({H.shape[-1]}) != users ({S.shape[-2]})")
    return np.asarray(H @ S, dtype=complex)
