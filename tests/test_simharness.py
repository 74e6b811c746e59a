"""The measurement primitives, the batched set-up, the trial kernel and the BLAS thread pin."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from supmimo import iterative, simharness, waveform
from supmimo.estimators import Projection, estimator_columns, project, receive_cell
from supmimo.rng import substream
from supmimo.simharness import RunOptions, SystemConfig, run_experiment
from supmimo.sysmodel import (
    PathLossMap,
    Scenario1,
    Scenario2,
    draw_channels,
    path_loss,
    place_users,
)

BLAS = simharness._openblas_threads()
needs_blas = pytest.mark.skipif(BLAS is None, reason="numpy's OpenBLAS thread calls not found")


def test_signal_and_residual_energies_of_a_hand_built_output():
    # x_tilde = g x + e with e on the symbol x leaves out: exact in floating point
    x = np.array([[1, 1j, -1, 0], [0, 2, 0, 1j]])
    e = np.array([[0, 0, 0, 3], [1j, 0, -2, 0]])
    gain = np.array([2.0, 0.5])
    signal, residual = simharness.signal_residual_power(gain[:, np.newaxis] * x + e, x, gain)
    assert signal.tolist() == [12.0, 1.25]
    assert residual.tolist() == [9.0, 5.0]
    # a stack of users, and a noiseless output that is all signal
    rng = substream(9, "energies")
    x = rng.standard_normal((2, 3, 8)) + 1j * rng.standard_normal((2, 3, 8))
    e = rng.standard_normal((2, 3, 8)) + 1j * rng.standard_normal((2, 3, 8))
    gain = rng.uniform(0.5, 2.0, (2, 3))
    signal, residual = simharness.signal_residual_power(gain[..., np.newaxis] * x + e, x, gain)
    np.testing.assert_allclose(signal, gain**2 * np.sum(np.abs(x) ** 2, axis=-1), rtol=1e-12)
    np.testing.assert_allclose(residual, np.sum(np.abs(e) ** 2, axis=-1), rtol=1e-12)
    signal, residual = simharness.signal_residual_power(gain[..., np.newaxis] * x, x, gain)
    assert np.all(residual == 0) and np.all(signal > 0)


def test_count_ber_counts_flipped_bits():
    P = 16
    bits = substream(9, "bits").integers(0, 2, (3, 40), dtype=np.uint8)  # 3 users, 10 symbols
    symbols = waveform.modulate(bits, P).reshape(3, 10)
    assert simharness.count_ber(symbols, bits, P) == (0, 120)
    flipped = bits.copy()
    flipped[0, [0, 5]] ^= 1
    flipped[2, 39] ^= 1
    assert simharness.count_ber(symbols, flipped, P) == (3, 120)
    with pytest.raises(ValueError, match="bit count mismatch"):
        simharness.count_ber(symbols, bits[:, :-4], P)


def test_empirical_cdf_sorts_and_ends_at_one():
    values, probs = simharness.empirical_cdf([3.0, -1.0, 2.0])
    assert values.tolist() == [-1.0, 2.0, 3.0]
    assert probs.tolist() == [1 / 3, 2 / 3, 1.0]
    with pytest.raises(ValueError, match="at least one sample"):
        simharness.empirical_cdf([])


@pytest.fixture(scope="module")
def bench():
    cfg = SystemConfig(M=40, seed=4)
    layout = place_users(cfg, substream(4, "layout"))
    return next(simharness._make_benches(cfg, RunOptions(), [layout]))


def sum_rate_layouts(cfg, radii):
    return [place_users(dataclasses.replace(cfg, scenario=Scenario2(user_circle_radius_m=radius)),
                        substream(cfg.seed, "sum_rate", ri, "layout"))
            for ri, radius in enumerate(radii)]


def sum_rate_bench(K, radii=(300.0, 850.0)):
    cfg = SystemConfig(L=7, K=K, M=40, C_u=40, omega=10.0, seed=4)
    return simharness._sum_rate_bench(cfg, sum_rate_layouts(cfg, radii))


@pytest.fixture(scope="module", params=["reference", "sum_rate"])
def any_bench(request, bench):
    return bench if request.param == "reference" else sum_rate_bench(5)


def assert_same_fields(a, b):
    """Dataclasses and tuples equal field by field, arrays under np.array_equal."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for field in dataclasses.fields(a):
            assert_same_fields(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, tuple):
        assert type(a) is type(b) and len(a) == len(b)
        for one, other in zip(a, b):
            assert_same_fields(one, other)
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
        sig_res, errs = simharness._run_trials(bench, keys(5))
        singles = [simharness._run_trials(bench, [key]) for key in keys(5)]
    assert sig_res.shape == (5, 3, 2, 1, bench.config.K)
    assert np.array_equal(sig_res, np.concatenate([one for one, _ in singles]))
    assert np.array_equal(errs, sum(e for _, e in singles))
    cfg = bench.config
    bits = 5 * cfg.K * 2  # trials x users x bits per QPSK symbol
    assert np.all(sig_res > 0)
    assert errs[:, 1].tolist() == [bits * (cfg.C_u - cfg.tau), bits * cfg.C_u, bits * cfg.C_u]


def synthesis_calls(monkeypatch):
    """Spy on the synthesis every projection makes; returns the list its calls go to."""
    calls = []
    synthesize = waveform.synthesize_received

    def spy(H, S, noise):
        result = synthesize(H, S, noise)
        calls.append((H, S, noise, result))
        return result

    monkeypatch.setattr(simharness.waveform, "synthesize_received", spy)
    return calls


def scored_users(bench, j):
    """The flat users each scheme's projection at metric BS j covers: its
    cell's, or for the all-SP scheme of a profile, the users the estimator
    keeps."""
    K = bench.config.K
    users = [j * K + np.arange(K)] * len(bench.schemes)
    if bench.profile is not None:
        sp = next(i for i, s in enumerate(bench.schemes) if s.partition.sp.all())
        users[sp] = iterative.reduced_users(bench.profile, np.arange(K))
    return users


def test_tp_and_sp_share_each_trials_noise(bench, monkeypatch):
    calls = synthesis_calls(monkeypatch)
    with simharness._one_blas_thread():
        simharness._run_trials(bench, keys(2))
    assert len(calls) == 2  # one projection of TP and SP together per trial
    cfg = bench.config
    N = cfg.L * cfg.K
    columns = np.concatenate([estimator_columns(s.book, s.partition, bench.powers, users, cfg.C_u)
                              for s, users in zip(bench.schemes, scored_users(bench, 0))], axis=1)
    factors = []
    for key, (H, S, noise, _estimates) in zip(keys(2), calls):
        # one draw of fading and noise, and TP and SP estimates read the same
        # noise columns of it, through sigma times their estimator columns
        assert np.array_equal(H, draw_channels(cfg, substream(*key, "channels")))
        assert H.shape == (cfg.M, N + cfg.C_u)  # M = 40 rows, fewer than d = 135
        assert np.array_equal(S[N:], math.sqrt(cfg.sigma2) * columns) and noise == 0.0
        factors.append(H)
    # the trials' draws differ
    assert not np.allclose(*factors)


@pytest.mark.parametrize("radii", [1, 2, 4, "reference"])
def test_one_projection_per_trial_and_bs(bench, monkeypatch, radii):
    if radii == "reference":
        b = bench
        assert b.profile is not None
    else:
        b = sum_rate_bench(5, RunOptions().radii_m[:radii])
    calls = synthesis_calls(monkeypatch)
    with simharness._one_blas_thread():
        simharness._run_trials(b, keys(3))
    assert len(calls) == 3 * len(b.streams)
    C_u = b.config.C_u
    # the factor's rows: min(M, d) for d = L K + C_u columns
    rows = min(b.config.M, b.config.L * b.config.K + C_u)
    for t in range(3):
        for j in range(len(b.streams)):
            _H, _S, _noise, estimates = calls[t * len(b.streams) + j]
            n = sum(users.size for users in scored_users(b, j))
            # every scheme's scored users, and no received block
            assert estimates.shape == (rows, n) and n != C_u


@pytest.mark.parametrize("selection", ["fixed", "per_iteration"])
def test_one_shot_sp_from_the_reduction_equals_receive_cell(selection):
    # power control ties cell 0's users at BS 0, so the harness's profile
    # sweeps them first and in flat order; a profile of the raw gains
    # takes them out of it, and the two rules keep different users around
    # them
    cfg = SystemConfig(M=40, scenario=Scenario1(), seed=7)
    layout = place_users(cfg, substream(7, "layout"))
    (bench,) = simharness._make_benches(cfg, RunOptions(selection=selection), [layout])
    K = cfg.K
    raw = iterative.predict_profile(
        path_loss(layout, cfg.path_loss_exponent).beta[0].reshape(1, -1),
        bench.powers.rho_d.reshape(-1), bench.powers.rho_p.reshape(-1), cfg.sigma2, cfg.M,
        cfg.C_u, cfg.P, cfg.iterations, selection)
    bench = dataclasses.replace(bench, profile=raw.layout(0))
    assert iterative.reduced_users(bench.profile, np.arange(K))[:K].tolist() != list(range(K))
    with simharness._one_blas_thread():
        sig_res, errs = simharness._run_trials(bench, keys(3))
        # receive_cell on cell 0's columns of the same projection, bit for bit
        for t, key in enumerate(keys(3)):
            assert np.array_equal(sig_res[t, :2], per_trial_energies(bench, key))
        # without a profile the SP scheme projects onto cell 0's users alone,
        # a product of other shape, which rounds otherwise
        plain = dataclasses.replace(bench, profile=None)
        expected, expected_errs = simharness._run_trials(plain, keys(3))
    assert expected.shape == (3, 2, 2, 1, K)
    np.testing.assert_allclose(sig_res[:, :2], expected, rtol=1e-12)
    assert np.array_equal(errs[:2], expected_errs)


def test_bs_0s_tied_users_are_swept_in_their_given_order():
    # power control sets every home gain to exactly omega, so cell 0's
    # users tie at BS 0, above every cross gain, and the tie rule sweeps
    # them first, in flat order, under either rule
    cfg = SystemConfig(M=40, scenario=Scenario1(), seed=7)
    layout = place_users(cfg, substream(7, "layout"))
    for selection in ("fixed", "per_iteration"):
        (bench,) = simharness._make_benches(cfg, RunOptions(selection=selection), [layout])
        assert np.all(bench.schemes[1].gains.beta[0, 0] == cfg.omega)
        assert bench.profile.order[: cfg.K].tolist() == [0, 1, 2, 3, 4]


def per_trial_energies(bench, key):
    """One trial as a loop over metric BSs: one projection, receive_cell, then the energies.

    Each scheme draws its own frames; at each BS the factor R of one
    unit-variance fading matrix Z and one noise block W serves all schemes,
    and scheme s would receive Z @ (sqrt(beta_s) * S_s) + W.  Every scheme's
    scored users are projected together; each scheme's cell is received
    from its own users' columns.  A user's desired-signal gain is
    ||z||^2 / M of its column of R, read from a contiguous copy of its
    cell's columns.
    """
    cfg, powers = bench.config, bench.powers
    K, M, sigma = cfg.K, cfg.M, math.sqrt(cfg.sigma2)
    frames = [waveform.assemble_frames(cfg, s.book, powers, substream(*key, f"{s.tag}-frames"),
                                       s.partition, bench.data_dist)
              for s in bench.schemes]
    energies = np.empty((len(bench.schemes), 2, len(bench.streams), K))
    for j, tag in enumerate(bench.streams):
        factor = draw_channels(cfg, substream(*key, *tag))
        cell = np.arange(j * K, (j + 1) * K)
        z = np.ascontiguousarray(factor[:, cell]).T
        gain = np.vecdot(z, z).real / M
        users = scored_users(bench, j)
        columns = [estimator_columns(s.book, s.partition, powers, u, cfg.C_u)
                   for s, u in zip(bench.schemes, users)]
        roots = [np.sqrt(s.gains.beta[j].reshape(-1)) for s in bench.schemes]
        projections = project(factor, sigma, [f.S for f in frames], roots, columns)
        for i, (s, (estimates, matched)) in enumerate(zip(bench.schemes, projections)):
            at = np.searchsorted(users[i], cell, sorter=np.argsort(users[i]))
            at = np.argsort(users[i])[at]  # the cell's users among the projected, in order
            x_tilde = receive_cell(Projection(estimates[:, at], matched[at]), s.book,
                                   s.partition, powers, j, s.gains.beta[j, j], M)
            signal = gain[:, np.newaxis] * frames[i].data[cell]
            residual = x_tilde - signal
            energies[i, :, j] = np.vecdot(signal, signal).real, np.vecdot(residual, residual).real
    return energies


@pytest.mark.parametrize("K", [5, 1])
def test_sum_rate_energies_equal_the_per_trial_loop(K):
    # at K = 1 the rows are contiguous, and the norms round unlike strided rows
    bench = sum_rate_bench(K)
    assert [s.method for s in bench.schemes] == ["all-tp", "all-sp", "hybrid"] * 2
    assert [s.tag for s in bench.schemes] == ["0-tp", "0-sp", "0-hy", "1-tp", "1-sp", "1-hy"]
    assert len(bench.streams) == 7 and bench.schemes[5].partition.sp.any()
    with simharness._one_blas_thread():
        sig_res, errs = simharness._run_trials(bench, keys(3))
        for t, key in enumerate(keys(3)):
            assert np.array_equal(sig_res[t], per_trial_energies(bench, key))
    assert not errs.any()  # Gaussian payloads carry no bits


def test_hybrid_gains_control_the_sp_users_only():
    # reference: q = omega / beta_llk on the SP users, 1 elsewhere, at the
    # four default radii
    cfg = SystemConfig(L=19, K=5, M=200, C_u=40, omega=10.0, seed=0)
    layouts = sum_rate_layouts(cfg, RunOptions().radii_m)
    bench = simharness._sum_rate_bench(cfg, layouts)
    moved = 0
    for i, layout in enumerate(layouts):
        all_tp, all_sp, hybrid = bench.schemes[3 * i : 3 * i + 3]
        beta_raw = all_tp.gains
        q_hyb = np.ones((cfg.L, cfg.K))
        home = beta_raw.home()
        for l, k in np.argwhere(hybrid.partition.sp):
            q_hyb[l, k] = cfg.omega / home[l, k]
        expected = PathLossMap(beta_raw.beta * q_hyb[np.newaxis, :, :])
        assert np.array_equal(hybrid.gains.beta, expected.beta)
        moved += np.count_nonzero(hybrid.partition.sp)
    assert moved > 0  # the outer radii move users to SP


def test_sum_rate_draws_one_factor_per_trial_and_bs(monkeypatch):
    draws = []

    def spy(config, rng):
        draws.append(config.M)
        return draw_channels(config, rng)

    monkeypatch.setattr(simharness, "draw_channels", spy)
    cfg = SystemConfig(L=7, K=2, M=20, C_u=20, omega=10.0, seed=4)
    for radii in [(500.0,), (300.0, 850.0), (300.0, 500.0, 700.0, 850.0)]:
        draws.clear()
        records = run_experiment(cfg, "sum_rate_vs_sir", RunOptions(trials=3, radii_m=radii))
        assert len(records) == 3 * len(radii)
        # one factor of the fading and the noise per trial and metric BS, for every radius
        assert draws == [20] * (3 * 7)


def batch_sizes(monkeypatch):
    """Spy on the trial kernel; returns the list its batch sizes go to."""
    sizes = []
    kernel = simharness._run_trials

    def spy(bench, keys):
        sizes.append(len(keys))
        return kernel(bench, keys)

    monkeypatch.setattr(simharness, "_run_trials", spy)
    return sizes


@pytest.mark.parametrize("per_chunk", [2, 3])
def test_totals_do_not_depend_on_the_chunk_size(any_bench, monkeypatch, per_chunk):
    # 5 trials: chunks of 2, 2, 1 and of 3, 2 against chunks of 1 and of 5
    sizes = batch_sizes(monkeypatch)
    totals = {}
    with simharness._one_blas_thread():
        for trials_per_chunk in (1, per_chunk, 5):
            budget = trials_per_chunk * simharness._trial_bytes(any_bench)
            monkeypatch.setattr(simharness, "_CHUNK_BYTES", budget)
            totals[trials_per_chunk] = simharness._sum_trials(any_bench, keys(5))
    assert sizes == [1] * 5 + {2: [2, 2, 1], 3: [3, 2]}[per_chunk] + [5]
    for sig, errs in totals.values():
        assert np.array_equal(sig, totals[1][0])
        assert np.array_equal(errs, totals[1][1])


def test_a_chunk_holds_at_least_one_trial(any_bench, monkeypatch):
    sizes = batch_sizes(monkeypatch)
    monkeypatch.setattr(simharness, "_CHUNK_BYTES", simharness._trial_bytes(any_bench) - 1)
    sig, errs = simharness._sum_trials(any_bench, keys(2))
    assert sizes == [1, 1]
    assert np.all(sig > 0)
    assert (errs[0, 1] > 0) == (any_bench.data_dist == "qam")


# Traced peak of _sum_trials over the 4 trials below under the rule that
# stacked whole SP blocks (512 KiB of them, so one trial per batch at M=200):
# 1,774,632 bytes, numpy 2.4.  The trial kernel, which keeps the channel
# powers instead of the channels, runs all 4 trials in one batch and peaked at
# 1,249,712 bytes; the separate reference trial it replaced peaked at
# 1,283,622.  On one unit fading draw and one reused block buffer it peaked at
# 1,209,576; scoring each one-shot method as it is received, so that only the
# iterative pass's inputs outlive a trial, at 1,140,678.  Receiving each
# trial from one projection of its draws, it peaked at 843,814 (835,030 with
# numpy 2.4.6).  Drawing the 135 x 135 triangular factor of the fading and
# noise instead of their 200 x 135 entries, it peaks at 731,979.
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


# Traced peak of _sum_trials over sum_rate_vs_sir's 8 bench trials at the CLI
# defaults (L=19, M=200, C_u=40, seed 5), numpy 2.4: a bench of one radius's
# three schemes, which drew one channel per gain map and held the batch's
# outputs and payloads, peaked at 2,722,324 bytes.  The one bench of all four
# radii (12 schemes), on one unit draw per BS, peaked at 1,816,664, and at
# 1,817,072 with its scoring shared with the QAM benches.  Received from one
# projection per trial and BS, onto the 60 scored users of all 12 schemes,
# it peaked at 2,182,232.  Drawing the 135 x 135 triangular factor of each
# BS's fading and noise instead of their 200 x 135 entries, it peaks at
# 1,899,328.
SUM_RATE_PEAK_BOUND_BYTES = 2_722_000


def test_four_radii_fit_within_the_earlier_peak_of_one(monkeypatch):
    cfg = SystemConfig(L=19, K=5, M=200, C_u=40, omega=10.0, seed=5)
    bench = simharness._sum_rate_bench(cfg, sum_rate_layouts(cfg, RunOptions().radii_m))
    assert len(bench.schemes) == 12
    sizes = batch_sizes(monkeypatch)
    trials = [(5, "sum_rate", t) for t in range(8)]
    with simharness._one_blas_thread():
        simharness._sum_trials(bench, trials)  # warm-up: first-call caches
        sizes.clear()
        tracemalloc.start()
        try:
            simharness._sum_trials(bench, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sizes == [8]
    assert peak < SUM_RATE_PEAK_BOUND_BYTES


# a value other than the default for each option an experiment may not read
OTHER_VALUES = {"selection": "none", "m_values": (30,), "k_values": (2,), "m_per_k": 7,
                "radii_m": (400.0,), "placements": 2, "rate_cap": False}


@pytest.mark.parametrize("experiment", simharness.EXPERIMENTS)
def test_an_option_the_experiment_does_not_read_leaves_its_output(experiment):
    fields = {f.name for f in dataclasses.fields(RunOptions)}
    assert set().union(*simharness.OPTIONS_READ.values()) == fields
    read = simharness.OPTIONS_READ[experiment]
    assert "trials" in read and set(OTHER_VALUES) == fields - {"trials"}
    cfg = SystemConfig(L=7, K=1, M=20, C_u=20, seed=3)
    base = RunOptions(trials=1, m_values=(20,), k_values=(1,), m_per_k=20, radii_m=(500.0,),
                      placements=1)
    expected = run_experiment(cfg, experiment, base)
    for name in sorted(fields - read):
        other = dataclasses.replace(base, **{name: OTHER_VALUES[name]})
        assert run_experiment(cfg, experiment, other) == expected, name


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
