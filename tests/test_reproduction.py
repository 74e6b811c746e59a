"""Statistical gates on the reproduction: empirical SINR against the closed forms.

sinr_vs_m at its defaults (L=7, K=5, M in {50, 100, 200}) with 100 trials at
seed 0.  At that trial count, for every user:

* one-shot SP sat within 0.31 dB of sinr_sp_finite_m;
* iterative SP was at least 1.89 dB above one-shot SP;
* TP was at least 0.84 dB below its large-M limit sinr_tp_asymptotic, and
  rose by at least 0.47 dB from each antenna count to the next;
* the iterative predictor (1 / the profile's last-sweep interference) was
  conservative: the empirical SINR was at least 0.64 dB above it.
"""

import dataclasses
import math

import pytest

from supmimo import analytics
from supmimo.rng import substream
from supmimo.simharness import (
    ITER_METHOD,
    SP_METHOD,
    TP_METHOD,
    RunOptions,
    SystemConfig,
    run_experiment,
)
from supmimo.sysmodel import path_loss, place_users, power_control

TRIALS = 100


@pytest.fixture(scope="module")
def records():
    recs = run_experiment(SystemConfig(seed=0), "sinr_vs_m", RunOptions(trials=TRIALS))
    return {(r.method, r.sweep_value, r.user): r for r in recs}


def db(ratio):
    return 10.0 * math.log10(ratio)


def points(records, method):
    return [(M, user) for (m, M, user) in records if m == method]


def test_one_shot_sp_is_within_half_a_db_of_its_finite_m_form(records):
    sp = points(records, SP_METHOD)
    assert len(sp) == 15  # 3 antenna counts x 5 users
    for M, user in sp:
        rec = records[(SP_METHOD, M, user)]
        assert rec.trials == TRIALS
        assert abs(db(rec.value / rec.analytic_value)) <= 0.5, (M, user)


def test_iterative_sp_is_at_least_one_shot_sp_for_each_user(records):
    for M, user in points(records, SP_METHOD):
        assert records[(ITER_METHOD, M, user)].value >= records[(SP_METHOD, M, user)].value, \
            (M, user)


def test_tp_stays_below_its_large_m_limit(records):
    # the limit computed here, from the layout sinr_vs_m draws at each M and
    # its power-controlled gains, not read from the record's analytic_value
    tp = points(records, TP_METHOD)
    assert len(tp) == 15
    config = SystemConfig(seed=0)
    for mi, M in enumerate(RunOptions().m_values):
        cfg = dataclasses.replace(config, M=M)
        layout = place_users(cfg, substream(cfg.seed, "sinr_vs_m", "layout", mi))
        gains = power_control(path_loss(layout, cfg.path_loss_exponent), cfg.omega)
        limit = analytics.sinr_tp_asymptotic(gains, cfg)[0]
        for k, value in enumerate(limit):
            rec = records[(TP_METHOD, float(M), f"0:{k}")]
            assert rec.value <= value, (M, k)


def test_tp_does_not_fall_as_antennas_are_added(records):
    users = sorted({user for _M, user in points(records, TP_METHOD)})
    antennas = sorted({M for M, _user in points(records, TP_METHOD)})
    assert len(antennas) == 3
    for user in users:
        sinr = [records[(TP_METHOD, M, user)].value for M in antennas]
        assert sinr == sorted(sinr), user


def test_the_iterative_predictor_is_conservative(records):
    # predicted <= empirical + 0.25 dB
    for M, user in points(records, ITER_METHOD):
        rec = records[(ITER_METHOD, M, user)]
        assert db(rec.analytic_value) <= db(rec.value) + 0.25, (M, user)
