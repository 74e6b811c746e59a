"""Invariants of the greedy TP/SP partitioner against the brute-force oracle.

Over the 40 random instances below (L=4 cells, K=2 users, reuse r in {1, 2},
pilot share mu2 in {0.2, 0.5}, cross gains log-uniform in [10^-2.5, 10^-0.5]
under unit home gains), greedy lands above the brute-force optimum on 5 of
them (12.5%); the mean gap is +1.8% and the worst +19.5%.
"""

from dataclasses import replace

import numpy as np
import pytest

from supmimo.analytics import optimal_rho
from supmimo.hybrid import (
    Partition,
    all_sp,
    brute_force_partition,
    greedy_partition,
    interference_sp,
    interference_tp,
    total_cost,
)
from supmimo.rng import substream
from supmimo.simharness import RunOptions
from supmimo.sysmodel import (
    PowerAllocation,
    Scenario1,
    Scenario2,
    SystemConfig,
    path_loss,
    place_users,
)

C_U = 20


def split(mu2):
    """The PowerAllocation of pilot fraction mu2."""
    return PowerAllocation(1.0 - mu2, mu2)


def instances():
    for i in range(40):
        rng = substream(41, "partition", i)
        L, K = 4, 2
        beta = 10.0 ** rng.uniform(-2.5, -0.5, size=(L, L, K))
        idx = np.arange(L)
        beta[idx, idx, :] = 1.0
        r = 1 + i % 2
        mu2 = (0.2, 0.5)[(i // 2) % 2]
        yield beta, SystemConfig(L=L, K=K, C_u=C_U, r=r), split(mu2)


@pytest.fixture(scope="module")
def solved():
    return [(args, greedy_partition(*args), brute_force_partition(*args))
            for args in instances()]


def test_greedy_cost_trace_never_increases(solved):
    for (beta, config, powers), greedy, _brute in solved:
        trace = greedy.cost_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert greedy.cost == pytest.approx(total_cost(greedy.partition, beta, config, powers),
                                            rel=1e-12)


def test_greedy_never_beats_brute_force(solved):
    gaps = []
    for _args, greedy, brute in solved:
        # the two sums may visit the same users in another set order
        assert greedy.cost >= brute.cost * (1.0 - 1e-12)
        gaps.append(greedy.cost / brute.cost - 1.0)
    assert np.mean(gaps) == pytest.approx(0.018, abs=0.001)
    assert max(gaps) == pytest.approx(0.195, abs=0.001)


@pytest.mark.parametrize("mu2", [0.0, -0.5, 1.5, np.nan, np.inf])
def test_pilot_share_outside_the_unit_interval_is_rejected(mu2):
    # PowerAllocation refuses a fraction outside [0, 1], the SP cost a zero one
    beta, config, _ = next(instances())
    with pytest.raises(ValueError, match="fraction"):
        greedy_partition(beta, config, split(mu2))


@pytest.mark.parametrize("fractions", [(0.5, np.nan), (0.3, 0.3), (0.6, 0.6)],
                         ids=["one-nan", "sum-below-1", "sum-above-1"])
def test_power_allocation_refuses_fractions_that_are_not_a_split(fractions):
    with pytest.raises(ValueError, match="fraction"):
        PowerAllocation(*fractions)


@pytest.mark.parametrize("search", [greedy_partition, brute_force_partition])
def test_partitioners_refuse_a_split_without_pilot_power(search):
    beta, config, _ = next(instances())
    with pytest.raises(ValueError, match="positive pilot fraction"):
        search(beta, config, PowerAllocation(1.0, 0.0))


@pytest.mark.parametrize("search", [greedy_partition, brute_force_partition])
def test_partitioners_refuse_a_config_of_another_k(search):
    # a 3-cell, K = 2 map: its own config gives tau = 2, a K = 5 one gave
    # tau = 5 and another partition before the two K were compared
    beta = np.full((3, 3, 2), 0.3)
    idx = np.arange(3)
    beta[idx, idx, :] = 1.0
    powers = split(0.5)
    assert search(beta, SystemConfig(L=3, K=2, C_u=C_U), powers).partition.sp.shape == (3, 2)
    with pytest.raises(ValueError, match="K=2 users per cell for a config of K=5"):
        search(beta, SystemConfig(L=3, K=5, C_u=C_U), powers)
    # fewer cells than the config's are partitioned as given
    assert search(beta, SystemConfig(L=7, K=2, C_u=C_U), powers).partition.sp.shape == (3, 2)


def test_a_full_pilot_share_is_accepted():
    beta = np.ones((2, 2, 1))
    config = SystemConfig(L=2, K=1, C_u=C_U)
    # two SP users absorb beta^2 = 1 each over the C_U - 1 symbols
    assert interference_sp(all_sp(2, 1), beta, config, split(1.0))[0, 0] == 2.0 / (C_U - 1)


def test_partition_copies_and_freezes_its_mask():
    mask = np.zeros((2, 3), dtype=bool)
    part = Partition(mask)
    mask[0, 0] = True
    assert part.sp.shape == (2, 3) and part.sp.dtype == bool and not part.sp.any()
    with pytest.raises(ValueError, match="read-only"):
        part.sp[0, 0] = True
    # compared and hashed by identity: an equal mask is another partition
    assert Partition(part.sp) != part and {part: 0}.get(Partition(part.sp)) is None


@pytest.mark.parametrize("mask", [True, np.zeros(3, dtype=bool), np.zeros((1, 2, 3), dtype=bool)],
                         ids=["scalar", "1-D", "3-D"])
def test_partition_refuses_a_mask_that_is_not_2d(mask):
    with pytest.raises(ValueError, match=r"\(L, K\)"):
        Partition(mask)


def test_interference_tp_matches_a_per_user_loop():
    # 19 cells in three reuse groups and a random SP mask: user (j, m) is
    # contaminated by the TP users (l, m) of the other cells of its group,
    # and an SP user (l, m), silent in training, does not count
    cfg = SystemConfig(L=19, K=5, r=3)
    rng = substream(38, "tp-mask")
    beta = rng.uniform(0.05, 2.0, size=(19, 19, 5))
    part = Partition(rng.uniform(size=(19, 5)) < 0.4)
    assert part.sp.any() and not part.sp.all()
    injected = interference_tp(part, beta, cfg)
    for j in range(19):
        for m in range(5):
            loop = sum(beta[l, j, m] ** 2 for l in range(19)
                       if l != j and l % 3 == j % 3 and not part.sp[l, m])
            assert injected[j, m] == pytest.approx(loop, rel=1e-12)


def set_greedy(beta, config, powers):
    """The greedy partitioner on (cell, user) sets, each sum in set order.

    Returns the SP set.  Moves the worst TP offender to SP while the cost
    does not rise, as greedy_partition does.
    """
    r, C_u, tau, rho_p2 = config.r, config.C_u, config.tau, powers.pilot
    L, _, K = beta.shape
    groups = np.arange(L) % r

    def tp_cost(user, u_tp):
        j, m = user
        total = 0.0
        for l in range(L):
            if groups[l] == groups[j] and l != j and (l, m) in u_tp:
                total += float(beta[l, j, m]) ** 2
        return total

    def cost(u_tp, u_sp):
        total = 0.0
        for user in u_tp:
            total += tp_cost(user, u_tp)
        for j, m in u_sp:
            absorbed = 0.0
            for l, _k in u_sp:
                absorbed += float(beta[l, j, m]) ** 2
            total += absorbed / ((C_u - tau) * rho_p2)
        return total

    u_tp, u_sp = frozenset((l, k) for l in range(L) for k in range(K)), frozenset()
    current = cost(u_tp, u_sp)
    while u_tp and len(u_sp) < C_u - tau:
        candidate = max(sorted(u_tp), key=lambda u: tp_cost(u, u_tp))
        moved_tp, moved_sp = u_tp - {candidate}, u_sp | {candidate}
        moved = cost(moved_tp, moved_sp)
        if not moved <= current:
            break
        u_tp, u_sp, current = moved_tp, moved_sp, moved
    return u_sp


def partition_instances():
    """(beta, config, powers) of the sum_rate_vs_sir metric cells and of Scenario 1 layouts."""
    for K in (2, 5):
        for r in (1, 3):
            cfg = SystemConfig(L=19, K=K, M=200, C_u=40, omega=10.0, r=r)
            powers = PowerAllocation(*optimal_rho(cfg.M, 7, K, cfg.C_u))
            for ri, radius in enumerate(RunOptions().radii_m):
                ring = replace(cfg, scenario=Scenario2(user_circle_radius_m=radius))
                layout = place_users(ring, substream(0, "sum_rate", ri, "layout"))
                beta = path_loss(layout, cfg.path_loss_exponent)[:7, :7]
                yield beta, cfg, powers
    for seed in range(20):
        cfg = SystemConfig(scenario=Scenario1(), seed=seed)
        powers = PowerAllocation(*optimal_rho(cfg.M, cfg.L, cfg.K, cfg.C_u))
        layout = place_users(cfg, substream(seed, "layout"))
        yield path_loss(layout, cfg.path_loss_exponent), cfg, powers


def test_greedy_mask_equals_the_set_greedy():
    moved = 0
    for args in partition_instances():
        sp = greedy_partition(*args).partition.sp
        assert {tuple(u) for u in np.argwhere(sp).tolist()} == set_greedy(*args)
        moved += np.count_nonzero(sp)
    assert moved > 0
