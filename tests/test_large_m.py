"""Large-M gate: at M = 10^6 the empirical SINRs sit at their large-M limits.

A trial's cost does not grow with M (sysmodel.draw_channels draws the
d x d factor of its fading and noise, d = L*K + C_u), so the harness can
run where the large-M closed forms hold.  sinr_vs_m's defaults (L=7, K=5,
C_u=100, the 800 m ring) at M = 10^6, 40 trials, seed 0, BS 0's five users:

* TP sits within 4 standard errors of sinr_tp_asymptotic;
* one-shot SP sits within 4 standard errors of sinr_sp_asymptotic.

A standard error is the delta method's for the ratio of the summed signal
and residual energies over the trials.  On seeds 0-39 the largest |z| of the
ten was 3.03 (TP) and 3.11 (SP); the standard errors were about 1 % of TP's
SINR (0.04 dB) and 5 % of SP's (0.2 dB).  sinr_sp_finite_m is 0.06 dB below
the SP limit at this M.
"""

import dataclasses

import numpy as np
import pytest

from supmimo import analytics, simharness
from supmimo.rng import substream
from supmimo.simharness import RunOptions, SystemConfig
from supmimo.sysmodel import place_users

M, TRIALS, SEED, BOUND_SE = 10**6, 40, 0, 4.0


@pytest.fixture(scope="module")
def gate():
    """Per-user empirical SINR, its standard error and the large-M limit, (2, K) each:
    row 0 TP, row 1 one-shot SP."""
    cfg = SystemConfig(M=M, seed=SEED)
    layout = place_users(cfg, substream(SEED, "sinr_vs_m", "layout", 0))
    (bench,) = simharness._make_benches(cfg, RunOptions(), [layout])
    bench = dataclasses.replace(bench, profile=None)  # TP and one-shot SP only
    with simharness._one_blas_thread():
        sig_res, _errs = simharness._run_trials(
            bench, [(SEED, "large_m", t) for t in range(TRIALS)])
    signal, residual = sig_res[:, :, 0, 0], sig_res[:, :, 1, 0]  # (T, 2, K)
    sinr = signal.sum(axis=0) / residual.sum(axis=0)
    spread = signal - sinr * residual
    stderr = np.sqrt(np.sum(spread**2, axis=0) / (TRIALS * (TRIALS - 1))) / residual.mean(axis=0)
    gains = bench.schemes[0].gains
    limit = np.stack([analytics.sinr_tp_asymptotic(gains, cfg)[0],
                      analytics.sinr_sp_asymptotic(gains, bench.powers, cfg)[0]])
    return sinr, stderr, limit


def test_tp_sits_at_its_large_m_limit(gate):
    sinr, stderr, limit = gate
    assert np.all(np.abs(sinr[0] - limit[0]) <= BOUND_SE * stderr[0])
    assert np.all(stderr[0] < 0.02 * sinr[0])


def test_one_shot_sp_sits_at_its_large_m_limit(gate):
    sinr, stderr, limit = gate
    assert np.all(np.abs(sinr[1] - limit[1]) <= BOUND_SE * stderr[1])
    assert np.all(stderr[1] < 0.1 * sinr[1])
