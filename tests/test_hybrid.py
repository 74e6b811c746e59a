"""Invariants of the greedy TP/SP partitioner against the brute-force oracle.

Over the 40 random instances below (L=4 cells, K=2 users, reuse r in {1, 2},
pilot share mu2 in {0.2, 0.5}, cross gains log-uniform in [10^-2.5, 10^-0.5]
under unit home gains), greedy lands above the brute-force optimum on 5 of
them (12.5%); the mean gap is +1.8% and the worst +19.5%.
"""

import numpy as np
import pytest

from supmimo.hybrid import (
    all_sp,
    brute_force_partition,
    greedy_partition,
    interference_sp,
    total_cost,
)
from supmimo.rng import substream

C_U = 20


def instances():
    for i in range(40):
        rng = substream(41, "partition", i)
        L, K = 4, 2
        beta = 10.0 ** rng.uniform(-2.5, -0.5, size=(L, L, K))
        idx = np.arange(L)
        beta[idx, idx, :] = 1.0
        r = 1 + i % 2
        mu2 = (0.2, 0.5)[(i // 2) % 2]
        yield beta, r, r * K, mu2


@pytest.fixture(scope="module")
def solved():
    return [
        (args, greedy_partition(args[0], args[1], C_U, args[2], args[3]),
         brute_force_partition(args[0], args[1], C_U, args[2], args[3]))
        for args in instances()
    ]


def test_greedy_cost_trace_never_increases(solved):
    for (beta, r, tau, mu2), greedy, _brute in solved:
        trace = greedy.cost_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert greedy.cost == pytest.approx(total_cost(greedy.partition, beta, r, C_U, tau, mu2),
                                            rel=1e-12)


def test_greedy_never_beats_brute_force(solved):
    gaps = []
    for _args, greedy, brute in solved:
        # the two sums may visit the same users in another set order
        assert greedy.cost >= brute.cost * (1.0 - 1e-12)
        gaps.append(greedy.cost / brute.cost - 1.0)
    assert np.mean(gaps) == pytest.approx(0.018, abs=0.001)
    assert max(gaps) == pytest.approx(0.195, abs=0.001)


@pytest.mark.parametrize("search", [greedy_partition, brute_force_partition])
@pytest.mark.parametrize("c_u", [2, 1])
def test_training_without_room_for_data_is_rejected(search, c_u):
    beta, r, tau, mu2 = next(instances())  # r = 1 and K = 2, so tau = 2
    with pytest.raises(ValueError, match="training length"):
        search(beta, r, c_u, tau, mu2)


@pytest.mark.parametrize("rho_p2", [0.0, -0.5, 1.5, np.nan, np.inf])
def test_pilot_share_outside_the_unit_interval_is_rejected(rho_p2):
    beta = np.ones((2, 2, 1))
    with pytest.raises(ValueError, match="rho_p2"):
        interference_sp((0, 0), all_sp(2, 1), beta, C_U, 1, rho_p2)


def test_a_full_pilot_share_is_accepted():
    beta = np.ones((2, 2, 1))
    # two SP users absorb beta^2 = 1 each over the C_U - 1 symbols
    assert interference_sp((0, 0), all_sp(2, 1), beta, C_U, 1, 1.0) == 2.0 / (C_U - 1)
