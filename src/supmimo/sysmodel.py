"""Cell geometry, user placement, path loss, power control, and a trial's draws.

The network is a hexagonal grid of L cells (L in {1, 7, 19}) with one
M-antenna base station at each cell center and K single-antenna users per
cell.  Large-scale gains are distance-based path loss, normalized so that a
user at the cell edge has unit gain, held as one (L, L, K) array whose
entry [j, l, k] couples BS j and user (l, k); power_control folds
statistics-aware power control into it.  Small-scale fading is i.i.d.
circularly-symmetric complex Gaussian of unit variance; a user's channel is
its fading column scaled by the square root of its gain.  A trial draws the
fading and noise at a BS as the small triangular factor of their joint
matrix (draw_channels), not as M-row matrices.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

HEX_CELL_COUNTS = (1, 7, 19)


def _check_lengths(scenario) -> None:
    """Every length of a scenario must be positive and finite."""
    for item in fields(scenario):
        value = getattr(scenario, item.name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{item.name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Scenario1:
    """Users drawn uniformly over each hexagonal cell, kept min_dist_m off the BS.

    min_dist_m stays below the hexagon's inradius, so that at least 6 % of
    the placement draws are kept; beyond it only the corners are."""

    cell_radius_m: float = 1000.0
    min_dist_m: float = 100.0

    def __post_init__(self):
        _check_lengths(self)
        inradius = self.cell_radius_m * math.sqrt(3.0) / 2.0
        if not self.min_dist_m < inradius:
            raise ValueError(f"need 0 < min_dist_m < cell_radius_m * sqrt(3)/2 = {inradius}, "
                             f"the hexagon's inradius; got {self.min_dist_m}")


@dataclass(frozen=True)
class Scenario2:
    """K users per cell at fixed, equally spaced positions on a ring."""

    cell_radius_m: float = 1000.0
    user_circle_radius_m: float = 800.0

    def __post_init__(self):
        _check_lengths(self)


Scenario = Scenario1 | Scenario2


@dataclass(frozen=True)
class SystemConfig:
    """Full experiment parameterization.

    Each pilot is reused once every r cells.  The time-multiplexed training
    length tau is derived, not set: one K-symbol pilot block per reuse
    group, so tau = r * K, and it must stay below C_u.  snr_db is
    omega / sigma^2 in dB.  iterations is the sweep count of the data-aided
    estimator.
    """

    L: int = 7
    K: int = 5
    M: int = 100
    C_u: int = 100
    C: int = 200
    r: int = 1
    P: int = 4
    snr_db: float = 10.0
    omega: float = 1.0
    scenario: Scenario = field(default_factory=Scenario2)
    path_loss_exponent: float = 3.0
    iterations: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("L", "K", "M", "C_u", "C", "r", "P", "iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("L", "K", "M", "C_u"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.C < self.C_u:
            raise ValueError(f"C ({self.C}) must be >= C_u ({self.C_u})")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.tau >= self.C_u:
            raise ValueError(f"tau = r*K ({self.tau}) must be < C_u ({self.C_u})")
        root = math.isqrt(self.P)
        if self.P < 4 or root * root != self.P:
            raise ValueError(f"P must be a square QAM order >= 4, got {self.P}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if not (math.isfinite(self.path_loss_exponent) and self.path_loss_exponent > 0):
            raise ValueError("path_loss_exponent must be positive and finite, "
                             f"got {self.path_loss_exponent}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def tau(self) -> int:
        """Time-multiplexed training length: one K-symbol block per reuse group."""
        return self.r * self.K

    @property
    def sigma2(self) -> float:
        """Noise variance implied by the SNR target omega / sigma^2."""
        return self.omega / 10.0 ** (self.snr_db / 10.0)


@dataclass(frozen=True)
class UserLayout:
    """Positions of all base stations and users, in meters.

    positions has shape (L, K, 2); bs_positions has shape (L, 2).
    Flattened user n = l*K + k lives in cell l.
    """

    positions: np.ndarray
    bs_positions: np.ndarray
    cell_radius_m: float


@dataclass(frozen=True)
class PowerAllocation:
    """The data/pilot split of a unit transmit power, shared by every user.

    data and pilot are the power fractions lambda^2 and mu^2, each in [0, 1]
    and summing to 1; PowerAllocation(*analytics.optimal_rho(...)) is the
    split that maximizes the SP SINR bound.  rho_d and rho_p are the
    matching amplitudes.  Power control lives in the gain map
    (power_control), not here.
    """

    data: float
    pilot: float

    def __post_init__(self):
        for name in ("data", "pilot"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"the {name} fraction must lie in [0, 1], got {value!r}")
        if not math.isclose(self.data + self.pilot, 1.0, rel_tol=1e-10):
            raise ValueError(f"the fractions must sum to 1, got {self.data!r} + {self.pilot!r}")

    @property
    def rho_d(self) -> float:
        """Data amplitude, sqrt(data)."""
        return math.sqrt(self.data)

    @property
    def rho_p(self) -> float:
        """Pilot amplitude, sqrt(pilot)."""
        return math.sqrt(self.pilot)


def hex_centers(L: int, cell_radius_m: float) -> np.ndarray:
    """Cell-center coordinates for the supported hexagonal layouts.

    Adjacent centers are sqrt(3) * cell_radius_m apart (cell_radius_m is the
    hexagon circumradius).  L = 1 is the single reference cell, L = 7 adds
    the first tier, L = 19 the second.
    """
    if L not in HEX_CELL_COUNTS:
        raise ValueError(f"unsupported cell count {L}; expected one of {HEX_CELL_COUNTS}")
    tiers = {1: 0, 7: 1, 19: 2}[L]
    step = math.sqrt(3.0) * cell_radius_m
    centers = [(0.0, 0.0)]
    for ring in range(1, tiers + 1):
        for a in range(-ring, ring + 1):
            for b in range(-ring, ring + 1):
                if max(abs(a), abs(b), abs(a + b)) != ring:
                    continue
                x = step * (a + 0.5 * b)
                y = step * (0.5 * math.sqrt(3.0)) * b
                centers.append((x, y))
    out = np.array(centers, dtype=float)
    # reference cell first, then stable near-to-far ordering
    order = np.lexsort((np.arctan2(out[:, 1], out[:, 0]), np.hypot(out[:, 0], out[:, 1]).round(6)))
    return out[order]


def in_hexagon(points: np.ndarray, cell_radius_m: float) -> np.ndarray:
    """Membership test for the hexagon centered at the origin.

    points is one point (2,) or an array (..., 2) of them; the result has
    the leading shape.  Orientation matches hex_centers: edge normals point
    along 0, 60 and 120 degrees, so the apothem constraint is
    |p . n| <= sqrt(3)/2 * R per axis.
    """
    points = np.asarray(points, dtype=float)
    x, y = points[..., 0], points[..., 1]
    half_width = 0.5 * math.sqrt(3.0) * cell_radius_m
    inside = np.ones(x.shape, dtype=bool)
    for theta in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
        inside &= np.abs(x * math.cos(theta) + y * math.sin(theta)) <= half_width + 1e-9
    return inside


def place_users(config: SystemConfig, rng: np.random.Generator) -> UserLayout:
    """Draw (or construct) user positions for the configured scenario.

    Scenario 1 rejection-samples uniform positions inside each hexagon at
    distance >= min_dist_m from the BS: candidate offsets are drawn in
    blocks, and the accepted ones go, in draw order, to the users in cell
    then user order.  A user gets the position a per-user loop of two-number
    draws would give it, but the generator ends in another state (the last
    block's unused draws are consumed), so pass a generator used for
    nothing else.  Scenario 2 is deterministic: K users per cell at angles
    2*pi*k/K on the configured ring.
    """
    scen = config.scenario
    centers = hex_centers(config.L, scen.cell_radius_m)
    K = config.K
    if isinstance(scen, Scenario2):
        angles = 2.0 * np.pi * np.arange(K) / K
        ring = scen.user_circle_radius_m * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        positions = centers[:, np.newaxis, :] + ring[np.newaxis, :, :]
    elif isinstance(scen, Scenario1):
        offsets = _sample_hex_points(config.L * K, scen.cell_radius_m, scen.min_dist_m, rng)
        positions = centers[:, np.newaxis, :] + offsets.reshape(config.L, K, 2)
    else:
        raise TypeError(f"unknown scenario {scen!r}")
    return UserLayout(positions=positions, bs_positions=centers, cell_radius_m=scen.cell_radius_m)


def _sample_hex_points(n: int, cell_radius_m: float, min_dist_m: float,
                       rng: np.random.Generator) -> np.ndarray:
    """The first n accepted (n, 2) offsets of uniform draws over the square.

    An offset is accepted inside the hexagon and at distance >= min_dist_m.
    np.hypot and math.hypot can differ in the last bit, so offsets whose
    distance lies within 1e-9 relative of min_dist_m are decided by
    math.hypot.
    """
    R = cell_radius_m
    # about 64% of the square is accepted; a block of twice the need rarely falls short
    block = 2 * n + 16
    accepted = []
    have = 0
    while have < n:
        p = rng.uniform(-R, R, size=(block, 2))
        x, y = p[:, 0], p[:, 1]
        d = np.hypot(x, y)
        ok = d >= min_dist_m
        for j in np.flatnonzero(np.abs(d - min_dist_m) <= 1e-9 * min_dist_m).tolist():
            ok[j] = math.hypot(x[j], y[j]) >= min_dist_m
        ok &= in_hexagon(p, R)
        accepted.append(p[ok])
        have += accepted[-1].shape[0]
    return np.concatenate(accepted)[:n]


def path_loss(layout: UserLayout, exponent: float) -> np.ndarray:
    """Distance-based gains beta = (d / R) ** (-exponent), R the cell radius.

    beta[j, l, k], shape (L, L, K), couples BS j and user (l, k).  A user at
    the cell edge has beta = 1.  All downstream ratios are invariant to this
    normalization.
    """
    if layout.cell_radius_m <= 0:
        raise ValueError("cell radius must be positive")
    diff = layout.bs_positions[:, np.newaxis, np.newaxis, :] - layout.positions[np.newaxis, :, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    if np.any(dist <= 0.0):
        raise ValueError("zero BS-user distance; path loss undefined")
    return (dist / layout.cell_radius_m) ** (-float(exponent))


def power_control(beta: np.ndarray, omega: float) -> np.ndarray:
    """Equivalent gains under statistics-aware power control.

    Scales user (l, k) by q = omega / beta[l, l, k], so cross gains become
    at most omega whenever the home gain dominates, and sets every
    home-cell gain to exactly omega: beta * q can miss it in the last bit,
    which would break the tie of a cell's users at their BS by rounding.
    This is the power-control path: each user's q is folded into its gains,
    not into its transmit power, so every frame keeps unit total power (see
    PowerAllocation).
    """
    idx = np.arange(beta.shape[0])
    controlled = beta * (omega / beta[idx, idx, :])[np.newaxis, :, :]
    controlled[idx, idx, :] = omega
    return controlled


def draw_channels(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """One trial's draws at one BS, as the (r, d) factor R of X = [Z, W / sigma].

    Z (M, L*K) is the unit-variance Rayleigh fading at the BS, column l*K + k
    user (l, k)'s, and W (M, C_u) the receiver noise, CN(0, sigma2) entries;
    so X is M x d with d = L*K + C_u and i.i.d. CN(0, 1) entries, the
    variance split evenly between real and imaginary parts.  Write X = Q R
    with Q (M, r) orthonormal and R (r, d) upper trapezoidal, r = min(M, d).
    Every receiver reads X only through inner products of its columns with
    each other and with fixed vectors (estimators.project), which R gives as
    X does: X^H X = R^H R, and Q^H X = R.  So R is drawn instead of X, from
    its exact law (the complex Bartlett decomposition; Goodman 1963, Ann.
    Math. Stat.; Edelman and Rao 2005, Acta Numerica): R[i, i] is the square
    root of a Gamma(M - i, 1) draw, the entries above the diagonal are i.i.d.
    CN(0, 1), and those below it are zero.  For M >= d the diagonal and the
    entries above it are those of the Cholesky factor of the complex Wishart
    X^H X; for M < d the first M columns are that factor of X's first M
    columns, and the columns after them are Q^H applied to columns
    independent of Q, so i.i.d. CN(0, 1) again.  The draw is r*d numbers at
    most, whatever M is.

    Large-scale gains are not applied here: a user's channel is sqrt(beta)
    times its column, and the harness folds sqrt(beta) into the user's frame
    row instead, so one draw serves every gain map at that BS.  The
    diagonal's Gamma variates are drawn first, then the entries above the
    diagonal in row-major order, as interleaved real and imaginary parts.
    """
    d = config.L * config.K + config.C_u
    r = min(config.M, d)
    R = np.zeros((r, d), dtype=complex)
    diagonal = np.arange(r)
    R[diagonal, diagonal] = np.sqrt(rng.gamma(config.M - diagonal))
    above = _above_diagonal(r, d)
    draws = rng.standard_normal(2 * above.size).view(complex)
    draws *= math.sqrt(0.5)
    R.reshape(-1)[above] = draws
    return R


@functools.cache
def _above_diagonal(r: int, d: int) -> np.ndarray:
    """Flat indices of the entries above the diagonal of an (r, d) array, row-major; read-only."""
    above = np.flatnonzero(~np.tri(r, d, dtype=bool))
    above.flags.writeable = False
    return above


def received_sir(beta: np.ndarray, omega: float, j: int) -> float:
    """omega over the summed squared cross gains seen at BS j.

    Pass the power-controlled (L, L, K) gain map; with no interfering cells
    the result is +inf.
    """
    mask = np.ones(beta.shape[0], dtype=bool)
    mask[j] = False
    interference = float(np.sum(beta[j, mask, :] ** 2))
    if interference == 0.0:
        return math.inf
    return omega / interference
