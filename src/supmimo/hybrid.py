"""User partitioning between time-multiplexed (TP) and superimposed (SP) pilots.

A Partition is one (L, K) mask, True for the SP users.  Each user is charged
the interference it injects given its pilot type: a TP user contaminates the
channel estimates of same-pilot TP users in other cells, while an SP user
raises the residual data interference floor of every SP user (itself
included).  The greedy optimizer starts all-TP and keeps moving the worst TP
offender to the SP set while the total cost does not increase; a brute-force
oracle covers small instances.  Sums over users run in (cell, user) order.

Pilot reuse is one rule, reuse_groups: the pilot books (waveform) and the
closed forms (analytics) read it from here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

User = tuple[int, int]


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


@functools.cache
def reuse_groups(L: int, r: int) -> np.ndarray:
    """The reuse group of each of L cells when a pilot block serves every r-th cell.

    Cells in one group send the same pilots: group l % r, so cells l and
    l' share pilots iff l % r == l' % r.  Read-only and cached: the
    partitioner reads it once per user and move.
    """
    groups = np.arange(L) % r
    groups.flags.writeable = False
    return groups


def _copilot_power(beta: np.ndarray, r: int, j: int, m: int, sp=None) -> float:
    """Summed beta[j, l, m]^2 over the other cells l in cell j's reuse group.

    With an SP mask sp, the cells l whose user (l, m) is SP do not count.
    The cells are summed in ascending order.
    """
    groups = reuse_groups(beta.shape[0], r).tolist()
    total = 0.0
    for l, group in enumerate(groups):
        if group == groups[j] and l != j and (sp is None or not sp[l, m]):
            total += float(beta[j, l, m]) ** 2
    return total


def interference_tp(
    user: User,
    partition: Partition,
    beta: np.ndarray,
    r: int,
) -> float:
    """Pilot-contamination power user (j, m) injects as a TP member.

    Sums beta[l, j, m]^2 over the other cells l that reuse its pilot and
    currently field a TP user with the same pilot index.
    """
    j, m = user
    return _copilot_power(beta.transpose(1, 0, 2), r, j, m, partition.sp)


def interference_sp(
    user: User,
    partition: Partition,
    beta: np.ndarray,
    C_u: int,
    tau: int,
    rho_p2: float,
) -> float:
    """Residual-interference power user (j, m) injects as an SP member.

    Every SP user (l, k), itself included, absorbs beta[l, j, m]^2 through
    its channel-estimate error, scaled by the pilot share over the
    (C_u - tau)-symbol superimposed segment.
    """
    j, m = user
    # the pilot share of unit total power: rho_d^2 + rho_p^2 = 1
    if not 0 < rho_p2 <= 1:
        raise ValueError(f"rho_p2 must lie in (0, 1], got {rho_p2}")
    if C_u - tau <= 0:
        raise ValueError("need C_u > tau")
    total = 0.0
    for l in np.nonzero(partition.sp)[0].tolist():
        total += float(beta[l, j, m]) ** 2
    return total / ((C_u - tau) * rho_p2)


def total_cost(
    partition: Partition,
    beta: np.ndarray,
    r: int,
    C_u: int,
    tau: int,
    rho_p2: float,
) -> float:
    """Summed per-user interference contributions under the partition."""
    cost = 0.0
    for user, sp in np.ndenumerate(partition.sp):
        if sp:
            cost += interference_sp(user, partition, beta, C_u, tau, rho_p2)
        else:
            cost += interference_tp(user, partition, beta, r)
    return cost


def _check_block(C_u: int, tau: int) -> None:
    """Training must leave room for data in the C_u-symbol block."""
    if C_u <= tau:
        raise ValueError(f"C_u ({C_u}) must exceed the training length tau ({tau})")


@dataclass(frozen=True)
class GreedyResult:
    partition: Partition
    cost_trace: tuple  # cost after init and after each accepted move

    @property
    def cost(self) -> float:
        return self.cost_trace[-1]


def greedy_partition(
    beta: np.ndarray,
    r: int,
    C_u: int,
    tau: int,
    rho_p2: float,
) -> GreedyResult:
    """Greedy cost minimizer over TP/SP assignments.

    Starts with every user TP.  Each step moves the TP user with the largest
    TP-side contribution into the SP set and keeps the move when the total
    cost does not increase (ties accepted).  Stops on the first rejected
    move, when the TP set is empty, or when the SP set fills the C_u - tau
    available pilot columns.  Argmax ties go to the lowest (cell, user)
    tuple.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    _check_block(C_u, tau)
    L, _, K = beta.shape
    flat = np.arange(L * K).reshape(L, K)
    current = all_tp(L, K)
    cost = total_cost(current, beta, r, C_u, tau, rho_p2)
    trace = [cost]
    for _ in range(min(L * K, C_u - tau)):
        # the flat TP users ascend, so max keeps the lowest on ties
        candidate = max(
            flat[~current.sp].tolist(),
            key=lambda n: interference_tp(divmod(n, K), current, beta, r),
        )
        moved = Partition(current.sp | (flat == candidate))
        moved_cost = total_cost(moved, beta, r, C_u, tau, rho_p2)
        if not moved_cost <= cost:
            break
        current, cost = moved, moved_cost
        trace.append(cost)
    return GreedyResult(partition=current, cost_trace=tuple(trace))


def brute_force_partition(
    beta: np.ndarray,
    r: int,
    C_u: int,
    tau: int,
    rho_p2: float,
) -> GreedyResult:
    """Exhaustive cost minimizer; only viable for at most 16 users.

    The SP set is capped at the C_u - tau available pilot columns.  Ties are
    broken toward fewer SP users, then lexicographically, so the result is
    deterministic.
    """
    _check_block(C_u, tau)
    L, _, K = beta.shape
    flat = np.arange(L * K).reshape(L, K)
    if flat.size > 16:
        raise ValueError(f"brute force capped at 16 users, got {flat.size}")
    best = None
    best_key = None
    for size in range(0, min(C_u - tau, flat.size) + 1):
        # flat l*K + k indices, whose order is that of the (cell, user) tuples
        for users in itertools.combinations(range(flat.size), size):
            part = Partition(np.isin(flat, users))
            cost = total_cost(part, beta, r, C_u, tau, rho_p2)
            key = (cost, size, users)
            if best_key is None or key < best_key:
                best, best_key = part, key
    return GreedyResult(partition=best, cost_trace=(best_key[0],))
