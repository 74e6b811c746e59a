"""The batched set-up, the trial-batched reference trial and the BLAS thread pin."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from supmimo import iterative, simharness, waveform
from supmimo.estimators import receive_cell
from supmimo.hybrid import all_sp
from supmimo.rng import substream
from supmimo.simharness import RunOptions, SystemConfig, run_experiment
from supmimo.sysmodel import Scenario1, place_users

BLAS = simharness._openblas_threads()
needs_blas = pytest.mark.skipif(BLAS is None, reason="numpy's OpenBLAS thread calls not found")


@pytest.fixture(scope="module")
def bench():
    cfg = SystemConfig(M=40, seed=4)
    layout = place_users(cfg, substream(4, "layout"))
    return next(simharness._make_benches(cfg, RunOptions(), [layout]))


def assert_same_fields(a, b):
    """Dataclasses equal field by field, arrays under np.array_equal."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for field in dataclasses.fields(a):
            assert_same_fields(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("selection", ["fixed", "per_iteration"])
def test_each_bench_of_a_batch_equals_its_one_layout_bench(selection):
    cfg = SystemConfig(K=5, M=250, C_u=70, scenario=Scenario1(), seed=4)
    options = RunOptions(selection=selection)
    layouts = [place_users(cfg, substream(4, "layout", b)) for b in range(5)]
    batch = list(simharness._make_benches(cfg, options, layouts))
    assert len(batch) == 5
    for layout, bench in zip(layouts, batch):
        (one,) = simharness._make_benches(cfg, options, [layout])
        assert_same_fields(bench, one)


def keys(n):
    return [(4, "test", 0, t) for t in range(n)]


def test_a_batch_of_trials_equals_one_trial_batches(bench):
    with simharness._one_blas_thread():
        sig_res, errs = simharness._reference_trials(bench, keys(5))
        singles = [simharness._reference_trials(bench, [key]) for key in keys(5)]
    assert sig_res.shape == (5, 3, 2, bench.config.K)
    assert np.array_equal(sig_res, np.concatenate([one for one, _ in singles]))
    assert np.array_equal(errs, sum(e for _, e in singles))
    cfg = bench.config
    bits = 5 * cfg.K * 2  # trials x users x bits per QPSK symbol
    assert np.all(sig_res > 0)
    assert errs[:, 1].tolist() == [bits * (cfg.C_u - cfg.tau), bits * cfg.C_u, bits * cfg.C_u]


def test_tp_and_sp_share_each_trials_noise(bench, monkeypatch):
    calls = []
    synthesize = waveform.synthesize_received

    def spy(H, S, sigma2, rng, out=None):
        Y = synthesize(H, S, sigma2, rng, out=out)
        # a copy: the next trial overwrites the TP slot
        calls.append((H, S, Y.copy()))
        return Y

    monkeypatch.setattr(simharness.waveform, "synthesize_received", spy)
    with simharness._one_blas_thread():
        simharness._reference_trials(bench, keys(2))
    assert len(calls) == 2  # one per trial
    noises = []
    for H, S, Y in calls:
        assert S.shape[0] == Y.shape[0] == 2  # SP, then TP
        noise_sp, noise_tp = Y - H @ S
        np.testing.assert_allclose(noise_tp, noise_sp, rtol=0, atol=1e-12)
        noises.append(noise_tp)
    # the trials' draws differ
    assert not np.allclose(*noises)


@pytest.mark.parametrize("selection", ["fixed", "per_iteration"])
def test_one_shot_sp_from_the_reduction_equals_receive_cell(selection):
    # at this layout the sweep takes cell 0's users out of flat order, and
    # the two rules keep different users around them
    cfg = SystemConfig(M=40, scenario=Scenario1(), seed=7)
    layout = place_users(cfg, substream(7, "layout"))
    (bench,) = simharness._make_benches(cfg, RunOptions(selection=selection), [layout])
    K, book, powers = cfg.K, bench.book, bench.powers
    rng = substream(7, "blocks")
    shape = (3, cfg.M, cfg.C_u)
    Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    with simharness._one_blas_thread():
        reduced = iterative.reduce_block(Y, book.sp_columns(slice(None)),
                                         powers.rho_p.reshape(-1), bench.profile, np.arange(K))
        x_sp = simharness._one_shot_sp(bench, reduced)
        expected = receive_cell(Y, book, all_sp(cfg.L, K), powers, 0, bench.beta_eff.beta[0, 0])
    assert reduced.users[:K].tolist() != list(range(K))
    assert x_sp.shape == (3, K, cfg.C_u)
    assert np.array_equal(x_sp, expected)


def batch_sizes(monkeypatch):
    """Spy on the reference trial; returns the list its batch sizes go to."""
    sizes = []
    reference = simharness._reference_trials

    def spy(bench, keys):
        sizes.append(len(keys))
        return reference(bench, keys)

    monkeypatch.setattr(simharness, "_reference_trials", spy)
    return sizes


@pytest.mark.parametrize("per_chunk", [2, 3])
def test_totals_do_not_depend_on_the_chunk_size(bench, monkeypatch, per_chunk):
    # 5 trials: chunks of 2, 2, 1 and of 3, 2 against chunks of 1 and of 5
    sizes = batch_sizes(monkeypatch)
    totals = {}
    with simharness._one_blas_thread():
        for trials_per_chunk in (1, per_chunk, 5):
            budget = trials_per_chunk * simharness._trial_bytes(bench)
            monkeypatch.setattr(simharness, "_CHUNK_BYTES", budget)
            totals[trials_per_chunk] = simharness._sum_trials(bench, keys(5))
    assert sizes == [1] * 5 + {2: [2, 2, 1], 3: [3, 2]}[per_chunk] + [5]
    for sig, errs in totals.values():
        assert np.array_equal(sig, totals[1][0])
        assert np.array_equal(errs, totals[1][1])


def test_a_chunk_holds_at_least_one_trial(bench, monkeypatch):
    sizes = batch_sizes(monkeypatch)
    monkeypatch.setattr(simharness, "_CHUNK_BYTES", simharness._trial_bytes(bench) - 1)
    sig, errs = simharness._sum_trials(bench, keys(2))
    assert sizes == [1, 1]
    assert np.all(sig > 0) and errs[0, 1] > 0


# Traced peak of _sum_trials over the 4 trials below under the SP-block rule
# this rule replaced (512 KiB of stacked SP block, so one trial per batch at
# M=200): 1,774,632 bytes, numpy 2.4.  The rule in force holds 2 trials per
# batch and peaked at 1,654,888 bytes.
PEAK_BOUND_BYTES = 1_775_000


def test_two_trials_fit_a_batch_at_m_200_within_the_earlier_peak(monkeypatch):
    cfg = SystemConfig(M=200, seed=5)
    layout = place_users(cfg, substream(5, "sinr_vs_m", "layout", 2))
    (bench_200,) = simharness._make_benches(cfg, RunOptions(), [layout])
    sizes = batch_sizes(monkeypatch)
    trials = [(5, "sinr_vs_m", 2, t) for t in range(4)]
    with simharness._one_blas_thread():
        simharness._sum_trials(bench_200, trials)  # warm-up: first-call caches
        sizes.clear()
        tracemalloc.start()
        try:
            simharness._sum_trials(bench_200, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert min(sizes) >= 2
    assert peak < PEAK_BOUND_BYTES


@needs_blas
@pytest.mark.parametrize("fails", [False, True])
def test_run_experiment_pins_one_blas_thread_and_restores_the_callers(monkeypatch, fails):
    get, set_ = BLAS
    before = get()
    seen = []

    def record(config, options):
        seen.append(get())
        if fails:
            raise RuntimeError("boom")
        return []

    monkeypatch.setitem(simharness._DISPATCH, "sinr_vs_m", record)
    try:
        set_(2)
        if fails:
            with pytest.raises(RuntimeError):
                run_experiment(SystemConfig(), "sinr_vs_m")
        else:
            assert run_experiment(SystemConfig(), "sinr_vs_m") == []
        assert seen == [1]
        assert get() == 2
    finally:
        set_(before)
