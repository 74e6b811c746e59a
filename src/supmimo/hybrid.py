"""User partitioning between time-multiplexed (TP) and superimposed (SP) pilots.

A Partition is one (L, K) mask, True for the SP users, and each cost is an
(L, K) map on the same grid: entry [j, m] is the interference user (j, m)
injects given its pilot type.  A TP user contaminates the channel estimates
of the same-pilot TP users in the other cells of its reuse group, while an
SP user raises the residual data interference floor of every SP user
(itself included).  The total cost is the two maps summed under the mask.
The greedy optimizer starts all-TP and keeps moving the worst TP offender
to the SP set while the total cost does not increase; a brute-force oracle
covers small instances.

Pilot reuse is one rule, reuse_groups, and pilot contamination one map,
copilot_sum: the pilot books (waveform) read the first, and the closed
forms (analytics) and the partitioner the second, the partitioner with
BSs and cells swapped.

As in analytics, each function takes the system objects it reads: the
gains beta, the SystemConfig for the reuse factor r, C_u and tau, and the
PowerAllocation for the pilot fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .sysmodel import PowerAllocation, SystemConfig


@dataclass(frozen=True, eq=False)
class Partition:
    """The pilot type of every user: sp[l, k] is True for SP, False for TP.

    sp is a read-only (L, K) bool copy of the caller's mask.  Partitions
    compare and hash by identity, so one object keys what is built for it.
    """

    sp: np.ndarray

    def __post_init__(self):
        sp = np.array(self.sp, dtype=bool)
        if sp.ndim != 2:
            raise ValueError(f"the SP mask must be (L, K), got shape {sp.shape}")
        sp.flags.writeable = False
        object.__setattr__(self, "sp", sp)


def all_tp(L: int, K: int) -> Partition:
    return Partition(np.zeros((L, K), dtype=bool))


def all_sp(L: int, K: int) -> Partition:
    return Partition(np.ones((L, K), dtype=bool))


def reuse_groups(L: int, r: int) -> np.ndarray:
    """The reuse group of each of L cells when a pilot block serves every r-th cell.

    Cells in one group send the same pilots: group l % r, so cells l and
    l' share pilots iff l % r == l' % r.
    """
    return np.arange(L) % r


def copilot_sum(beta: np.ndarray, config: SystemConfig, sp=None) -> np.ndarray:
    """The (L, K) map of summed beta[j, l, k]^2 over the other cells l of cell j's reuse group.

    Entry [j, k] is the pilot contamination of user (j, k) at BS j: the
    power of the users (l, k) that send its pilot from the other cells of
    its group, under the config's reuse factor r.  With an SP mask sp, the
    cells l whose user (l, k) is SP do not count.  The cells are summed in
    ascending order.
    """
    groups = reuse_groups(beta.shape[0], config.r)
    shared = groups[:, np.newaxis] == groups
    np.fill_diagonal(shared, False)
    # counted[l, j, k]: cell l's user k contaminates user (j, k)
    counted = shared[:, :, np.newaxis]
    if sp is not None:
        counted = counted & ~sp[:, np.newaxis]
    # squares laid out [l, j, k], so the sum over l adds whole (L, K) slices
    squares = np.square(beta.transpose(1, 0, 2), order="C")
    return squares.sum(axis=0, where=counted)


def interference_tp(partition: Partition, beta: np.ndarray, config: SystemConfig) -> np.ndarray:
    """The (L, K) map of the pilot contamination each user injects as a TP member.

    Entry [j, m] sums beta[l, j, m]^2 over the other cells l that reuse the
    pilot of user (j, m) and currently field a TP user (l, m): copilot_sum
    on beta with BSs and cells swapped.
    """
    return copilot_sum(beta.transpose(1, 0, 2), config, partition.sp)


def interference_sp(
    partition: Partition,
    beta: np.ndarray,
    config: SystemConfig,
    powers: PowerAllocation,
) -> np.ndarray:
    """The (L, K) map of the residual-interference power each user injects as an SP member.

    Every SP user (l, k), itself included, absorbs beta[l, j, m]^2 of user
    (j, m) through its channel-estimate error, scaled by the pilot fraction
    over the (C_u - tau)-symbol superimposed segment.  Raises ValueError
    when the pilot fraction is 0, as an SP user then sends no pilot, and for
    a map whose K is not the config's, from which tau = r K comes.
    """
    if powers.pilot == 0:
        raise ValueError("the SP cost needs a positive pilot fraction, got 0")
    if beta.shape[2] != config.K:
        raise ValueError(f"a gain map of K={beta.shape[2]} users per cell for a config of "
                         f"K={config.K}")
    # each cell's beta^2 weighted by its count of SP users
    n_sp = np.count_nonzero(partition.sp, axis=1)
    absorbed = (n_sp[:, np.newaxis, np.newaxis] * (beta * beta)).sum(axis=0)
    return absorbed / ((config.C_u - config.tau) * powers.pilot)


def total_cost(
    partition: Partition,
    beta: np.ndarray,
    config: SystemConfig,
    powers: PowerAllocation,
) -> float:
    """Summed interference the users inject under the partition, each by its pilot type."""
    sp_cost = interference_sp(partition, beta, config, powers)
    return float(np.sum(np.where(partition.sp, sp_cost, interference_tp(partition, beta, config))))


@dataclass(frozen=True)
class GreedyResult:
    partition: Partition
    cost_trace: tuple  # cost after init and after each accepted move

    @property
    def cost(self) -> float:
        return self.cost_trace[-1]


def greedy_partition(
    beta: np.ndarray, config: SystemConfig, powers: PowerAllocation
) -> GreedyResult:
    """Greedy cost minimizer over TP/SP assignments.

    beta is the (L, L, K) gain map of the cells partitioned, which may be
    fewer than config.L; the config gives the reuse factor r, C_u and tau,
    and a map whose K is not the config's raises ValueError.
    Starts with every user TP.  Each step moves the TP user with the largest
    TP-side contribution into the SP set and keeps the move when the total
    cost does not increase (ties accepted).  Stops on the first rejected
    move, when the TP set is empty, or when the SP set fills the C_u - tau
    available pilot columns.  Argmax ties go to the lowest (cell, user)
    tuple.
    """
    L, _, K = beta.shape
    flat = np.arange(L * K).reshape(L, K)
    current = all_tp(L, K)
    cost = total_cost(current, beta, config, powers)
    trace = [cost]
    for _ in range(min(L * K, config.C_u - config.tau)):
        # argmax keeps the first of equal maxima, the lowest flat index
        candidate = np.argmax(np.where(current.sp, -np.inf, interference_tp(current, beta, config)))
        moved = Partition(current.sp | (flat == candidate))
        moved_cost = total_cost(moved, beta, config, powers)
        if not moved_cost <= cost:
            break
        current, cost = moved, moved_cost
        trace.append(cost)
    return GreedyResult(partition=current, cost_trace=tuple(trace))


def brute_force_partition(
    beta: np.ndarray, config: SystemConfig, powers: PowerAllocation
) -> GreedyResult:
    """Exhaustive cost minimizer; only viable for at most 16 users.

    beta and config as for greedy_partition.  The SP set is capped at the
    C_u - tau available pilot columns.  Ties are broken toward fewer SP
    users, then lexicographically, so the result is deterministic.
    """
    L, _, K = beta.shape
    flat = np.arange(L * K).reshape(L, K)
    if flat.size > 16:
        raise ValueError(f"brute force capped at 16 users, got {flat.size}")
    best = None
    best_key = None
    for size in range(0, min(config.C_u - config.tau, flat.size) + 1):
        # flat l*K + k indices, whose order is that of the (cell, user) tuples
        for users in itertools.combinations(range(flat.size), size):
            part = Partition(np.isin(flat, users))
            cost = total_cost(part, beta, config, powers)
            key = (cost, size, users)
            if best_key is None or key < best_key:
                best, best_key = part, key
    return GreedyResult(partition=best, cost_trace=(best_key[0],))
