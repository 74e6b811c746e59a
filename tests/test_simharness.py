"""The measurement primitives, the batched set-up, the trial kernel and the BLAS thread pin."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from supmimo import cli, iterative, simharness, waveform
from supmimo.estimators import Projection, estimator_columns, project, receive, receiver
from supmimo.rng import substream
from supmimo.simharness import RunOptions, SystemConfig, run_experiment
from supmimo.sysmodel import (
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


@pytest.mark.parametrize("options, match", [
    (dict(trials=2.0), "trials must be an integer"),
    (dict(trials=True), "trials must be an integer"),
    (dict(placements=1.5), "placements must be an integer"),
    (dict(placements=True), "placements must be an integer"),
    (dict(m_values=(50, True)), "m_values"),
    (dict(k_values=(True,)), "k_values"),
    (dict(m_per_k=True), "m_per_k"),
    (dict(m_per_k=50.0), "m_per_k"),
])
def test_a_count_that_is_no_integer_is_refused(options, match):
    # each would otherwise construct, then run one trial or fail in the harness
    with pytest.raises(ValueError, match=match):
        RunOptions(**options)
    assert RunOptions(trials=np.int64(3), m_values=(np.int64(50),)).trials == 3


@pytest.fixture(scope="module")
def bench():
    cfg = SystemConfig(M=40, seed=4)
    layout = place_users(cfg, substream(4, "layout"))
    return simharness._make_bench(cfg, RunOptions(), [layout])


def sum_rate_layouts(cfg, radii):
    return [place_users(dataclasses.replace(cfg, scenario=Scenario2(user_circle_radius_m=radius)),
                        substream(cfg.seed, "sum_rate", ri, "layout"))
            for ri, radius in enumerate(radii)]


def sum_rate_bench(K, radii=(300.0, 850.0)):
    cfg = SystemConfig(L=7, K=K, M=40, C_u=40, omega=10.0, seed=4)
    return simharness._sum_rate_bench(cfg, sum_rate_layouts(cfg, radii))


def placements_bench(n):
    """A reference bench over n placements whose estimator keeps sets of several sizes."""
    cfg = SystemConfig(K=5, M=250, C_u=70, scenario=Scenario1(), seed=4)
    layouts = [place_users(cfg, substream(4, "layout", b)) for b in range(n)]
    return simharness._make_bench(cfg, RunOptions(), layouts)


@pytest.fixture(scope="module", params=["reference", "sum_rate", "placements"])
def any_bench(request, bench):
    return {"reference": bench, "sum_rate": sum_rate_bench(5),
            "placements": placements_bench(3)}[request.param]


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


# what a bench is built from
BENCH_INPUTS = ("config", "powers", "schemes", "streams", "payload_stream", "data_dist")


def derived(bench, **inputs):
    """A bench built from another's inputs, with those given replaced."""
    return simharness._Bench(**{name: inputs.get(name, getattr(bench, name))
                                for name in BENCH_INPUTS})


def one_placement(bench, p, selection):
    """The bench of placement p alone: its gains, and their profile at each metric BS
    under the selection rule, as a one-placement bench."""
    def profiles(s):
        return tuple(iterative.predict_profile(s.gains[p : p + 1, j].reshape(1, -1), bench.powers,
                                               bench.config, selection)
                     for j in range(len(s.iterated[1])))

    return derived(bench, schemes=tuple(s._replace(
        gains=s.gains[p : p + 1], iterated=s.iterated and (s.iterated[0], profiles(s)))
        for s in bench.schemes))


@pytest.mark.parametrize("selection", iterative.SELECTION_RULES)
def test_each_placement_of_a_bench_runs_as_its_one_placement_bench(selection):
    cfg = SystemConfig(K=5, M=250, C_u=70, scenario=Scenario1(), seed=4)
    options = RunOptions(selection=selection)
    layouts = [place_users(cfg, substream(4, "layout", b)) for b in range(5)]
    bench = simharness._make_bench(cfg, options, layouts)
    # the set-up of a placement is that of its layout alone
    for p, layout in enumerate(layouts):
        one, alone = one_placement(bench, p, selection), simharness._make_bench(cfg, options,
                                                                               [layout])
        for name in BENCH_INPUTS:
            assert_same_fields(getattr(one, name), getattr(alone, name))
    # the pass runs blocks of several schedules, but for "all", where every
    # layout feeds everyone back
    (profile,) = bench.schemes[1].iterated[1]
    schedules = {iterative.plan_pass(profile.layout(p), np.arange(cfg.K))[4] for p in range(5)}
    assert len(schedules) == 1 if selection == "all" else len(schedules) > 1
    # placements out of order and repeated, each with its own trial keys
    batch = [(p, (4, "test", p, t)) for t, p in enumerate([3, 0, 4, 0, 1, 2, 3])]
    with simharness._one_blas_thread():
        sig_res, errs = simharness._run_trials(bench, batch)
        singles = [simharness._run_trials(one_placement(bench, p, selection), [(0, key)])
                   for p, key in batch]
        alone = [simharness._run_trials(bench, [trial])[1] for trial in batch]
    for t, (one, one_errs) in enumerate(singles):
        assert np.array_equal(sig_res[t], one[0])
        assert np.array_equal(alone[t], one_errs)
    assert np.array_equal(errs, sum(e for _, e in singles))


def test_each_pass_is_planned_once_per_entry_bs_and_placement(monkeypatch):
    # ber_vs_k's bench at K = 10: one iterated entry, one metric BS and ten
    # placements, so ten plans, made by the set-up and read by the pass
    cfg = SystemConfig(K=10, M=500, C_u=70, scenario=Scenario1(), seed=5)
    layouts = [place_users(cfg, substream(5, "ber_vs_k", 2, t, "layout")) for t in range(10)]
    planned, plan_pass = [], iterative.plan_pass

    def spy(profile, report):
        planned.append(report.tolist())
        return plan_pass(profile, report)

    monkeypatch.setattr(iterative, "plan_pass", spy)
    bench = simharness._make_bench(cfg, RunOptions(trials=10), layouts)
    with simharness._one_blas_thread():
        simharness._sum_trials(bench, [(t, (5, "ber_vs_k", 2, t)) for t in range(10)])
    assert planned == [list(range(cfg.K))] * 10


def trials(n, placements=1):
    """n trials with their keys, cycling through the bench's first `placements` placements."""
    return [(t % placements, (4, "test", 0, t)) for t in range(n)]


def placements(bench):
    return bench.schemes[0].gains.shape[0]


def sub_batch_sizes(monkeypatch, bench, T, most):
    """Set the budget so that a chunk of T trials stacks at most `most` of
    them at a time; returns the list each payload draw's trial count goes to."""
    monkeypatch.setattr(simharness, "_CHUNK_BYTES",
                        T * bench.held_bytes + bench.draw_bytes + most * bench.staged_bytes)
    sizes, draw = [], waveform._draw_payloads

    def spy(n_users, n, P, data_dist, rngs):
        sizes.append(len(rngs))
        return draw(n_users, n, P, data_dist, rngs)

    monkeypatch.setattr(simharness.waveform, "_draw_payloads", spy)
    return sizes


def test_a_batch_of_trials_equals_one_trial_batches(any_bench, monkeypatch):
    # 7 trials in sub-batches of 3, 2 and 2: every stacked stage gives each
    # trial the bits it has alone, on several placements too
    b, T = any_bench, 7
    with simharness._one_blas_thread():
        singles = [simharness._run_trials(b, [trial]) for trial in trials(T, placements(b))]
        sizes = sub_batch_sizes(monkeypatch, b, T, 3)
        sig_res, errs = simharness._run_trials(b, trials(T, placements(b)))
    # one payload draw per sub-batch
    assert sizes == [3, 2, 2]
    cfg, J = b.config, len(b.streams)
    assert sig_res.shape == (T, len(b.methods), 2, J, cfg.K)
    assert np.array_equal(sig_res, np.concatenate([one for one, _ in singles]))
    assert np.array_equal(errs, sum(e for _, e in singles))
    assert np.all(sig_res > 0)
    bits = T * J * cfg.K * waveform.bits_per_symbol(cfg.P)  # trials x users x bits per symbol
    if b.data_dist == "qam":
        assert errs[:, 1].tolist() == [bits * n for _, _, n in b.methods]
    else:
        assert not errs.any()


def synthesis_calls(monkeypatch):
    """Spy on the synthesis every projection makes; returns the list its calls go to."""
    calls = []
    synthesize = waveform.synthesize_received

    def spy(H, S):
        result = synthesize(H, S)
        calls.append((H, S, result))
        return result

    monkeypatch.setattr(simharness.waveform, "synthesize_received", spy)
    return calls


def scored_users(bench, j):
    """The flat users each scheme's projection at metric BS j covers: its
    cell's, or for an entry that iterates, the users its estimator keeps
    there."""
    cell = j * bench.config.K + np.arange(bench.config.K)
    return [cell if s.iterated is None
            else iterative.plan_pass(s.iterated[1][j].layout(0), cell)[0]
            for s in bench.schemes]


def test_tp_and_sp_share_each_trials_noise(bench, monkeypatch):
    calls = synthesis_calls(monkeypatch)
    with simharness._one_blas_thread():
        simharness._run_trials(bench, trials(2))
    assert len(calls) == 2  # one projection of TP and SP together per trial
    cfg = bench.config
    N = cfg.L * cfg.K
    columns = np.concatenate([estimator_columns(s.book, s.partition, bench.powers, users, cfg.C_u)
                              for s, users in zip(bench.schemes, scored_users(bench, 0))], axis=1)
    factors = []
    for (_p, key), (H, S, _estimates) in zip(trials(2), calls):
        # one draw of fading and noise, and TP and SP estimates read the same
        # noise columns of it, through sigma times their estimator columns
        assert np.array_equal(H, draw_channels(cfg, substream(*key, "channels")))
        assert H.shape == (cfg.M, N + cfg.C_u)  # M = 40 rows, fewer than d = 135
        assert np.array_equal(S[N:], math.sqrt(cfg.sigma2) * columns)
        factors.append(H)
    # the trials' draws differ
    assert not np.allclose(*factors)


@pytest.mark.parametrize("radii", [1, 2, 4, "reference"])
def test_one_projection_per_trial_and_bs(bench, monkeypatch, radii):
    if radii == "reference":
        b = bench
        assert any(s.iterated for s in b.schemes)
    else:
        b = sum_rate_bench(5, RunOptions().radii_m[:radii])
    calls = synthesis_calls(monkeypatch)
    with simharness._one_blas_thread():
        simharness._run_trials(b, trials(3))
    assert len(calls) == 3 * len(b.streams)
    C_u = b.config.C_u
    # the factor's rows: min(M, d) for d = L K + C_u columns
    rows = min(b.config.M, b.config.L * b.config.K + C_u)
    for t in range(3):
        for j in range(len(b.streams)):
            _H, _S, estimates = calls[t * len(b.streams) + j]
            n = sum(users.size for users in scored_users(b, j))
            # every scheme's scored users, and no received block
            assert estimates.shape == (rows, n) and n != C_u


def test_the_entries_of_one_pair_share_one_s_e_product(monkeypatch):
    # at sum_rate_vs_sir's four radii the 12 entries project through 6
    # (frame set, column set) pairs: one for the four all-TP entries, one
    # for the four all-SP entries and one for each radius's hybrid, whose
    # book is its own.  project makes one S E product per pair and metric BS.
    b = sum_rate_bench(5, RunOptions().radii_m)
    tp, sp, hybrid = b.pairs[0::3], b.pairs[1::3], b.pairs[2::3]
    assert tp == [tp[0]] * 4 and sp == [sp[0]] * 4
    assert len(set(b.pairs)) == 6 and len(set(hybrid)) == 4
    products, per_call = [], []

    class Frames(np.ndarray):
        # counts the products that take the frames on the left: S E
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and isinstance(inputs[0], Frames):
                products.append(inputs[1].shape)
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    real_project = simharness.project

    def spy(factors, sigma, frames, pairs, roots, columns):
        before = len(products)
        projection = real_project(factors, sigma, frames.view(Frames), pairs, roots, columns)
        per_call.append(len(products) - before)
        return projection

    monkeypatch.setattr(simharness, "project", spy)
    with simharness._one_blas_thread():
        simharness._run_trials(b, trials(1))
    assert per_call == [6] * len(b.streams)


@pytest.mark.parametrize("selection", ["fixed", "per_iteration"])
def test_one_shot_sp_from_the_reduction_equals_the_one_shot_receiver(selection):
    # power control ties cell 0's users at BS 0, so the harness's profile
    # sweeps them first and in flat order; a profile of the raw gains
    # takes them out of it, and the two rules keep different users around
    # them
    cfg = SystemConfig(M=40, scenario=Scenario1(), seed=7)
    layout = place_users(cfg, substream(7, "layout"))
    bench = simharness._make_bench(cfg, RunOptions(selection=selection), [layout])
    K = cfg.K
    raw = iterative.predict_profile(
        path_loss(layout, cfg.path_loss_exponent)[0].reshape(1, -1), bench.powers, cfg,
        selection)
    tp, sp = bench.schemes
    bench = derived(bench, schemes=(tp, sp._replace(iterated=(sp.iterated[0], (raw,)))))
    assert iterative.plan_pass(raw.layout(0), np.arange(K))[0][:K].tolist() != list(range(K))
    with simharness._one_blas_thread():
        sig_res, errs = simharness._run_trials(bench, trials(3))
        # the textbook receiver on cell 0's columns of the same projection,
        # bit for bit
        for t, trial in enumerate(trials(3)):
            assert np.array_equal(sig_res[t, :2], per_trial_energies(bench, trial))
        # without a profile the SP scheme projects onto cell 0's users alone,
        # a product of other shape, which rounds otherwise
        plain = derived(bench, schemes=(tp, sp._replace(iterated=None)))
        expected, expected_errs = simharness._run_trials(plain, trials(3))
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
        bench = simharness._make_bench(cfg, RunOptions(selection=selection), [layout])
        assert np.all(bench.schemes[1].gains[0, 0, 0] == cfg.omega)
        (profile,) = bench.schemes[1].iterated[1]
        assert profile.order[0, : cfg.K].tolist() == [0, 1, 2, 3, 4]


def trial_frames(bench, key):
    """A trial's frames by the common-frame rule, and its payload draw.

    The trial draws one payload row per user from the bench's payload
    stream, as long as the longest payload of its entries; an entry sends
    the trailing symbols of each row that its payload length asks for.
    Entries on one (book, Partition object) send one frame matrix.  Returns
    the frame matrices, each entry's index into them, and the payloads.
    """
    cfg = bench.config
    longest = max(s.book.payload_length(s.partition, cfg.C_u) for s in bench.schemes)
    (payloads,), _bits = waveform._draw_payloads(cfg.L * cfg.K, longest, cfg.P, bench.data_dist,
                                                 [substream(*key, bench.payload_stream)])
    index, frames = {}, []
    for s in bench.schemes:
        if (id(s.book), s.partition) not in index:
            index[id(s.book), s.partition] = len(frames)
            frames.append(waveform.assemble_frames(cfg, s.book, bench.powers, payloads,
                                                   s.partition))
    return frames, [index[id(s.book), s.partition] for s in bench.schemes], payloads


def textbook_outputs(projection, at, s, j, p, config, powers):
    """Matched-filter outputs of cell j's users of entry s, at projected users `at`.

    One user at a time: a TP user's payload conj(h) Y_d / (M beta_home); an
    SP user's (conj(h) Y_d - rho_p ||h||^2 p^T) / (M rho_d beta_home).
    """
    estimates, matched = projection
    K, M, C_u = config.K, config.M, config.C_u
    n = s.book.payload_length(s.partition, C_u)
    x_tilde = np.empty((K, n), dtype=complex)
    for k, user in enumerate(at):
        beta = s.gains[p, j, j, k]
        y = matched[user, C_u - n :]
        if s.partition.sp[j, k]:
            h = np.ascontiguousarray(estimates[:, user])
            pilot = s.book.sp_columns([j * K + k])[:, 0]
            x_tilde[k] = (y - (powers.rho_p * np.vecdot(h, h).real) * pilot) / (
                (M * powers.rho_d) * beta)
        else:
            x_tilde[k] = y / (M * beta)
    return x_tilde


def per_trial_energies(bench, trial):
    """One (placement, key) trial as a loop over metric BSs and entries: one
    projection, each entry's cell received user by user, then the energies.

    The frames follow the common-frame rule (trial_frames); at each BS the
    factor R of one unit-variance fading matrix Z and one noise block W
    serves all entries, and entry s would receive Z @ (sqrt(beta_s) * S_s) +
    W.  Every entry's scored users are projected together; each entry's
    cell is received from its own users' columns and scored against the
    trailing symbols of the trial's one draw.  A user's desired-signal gain
    is ||z||^2 / M of its column of R, read from a contiguous copy of its
    cell's columns.
    """
    cfg, powers = bench.config, bench.powers
    K, M, sigma = cfg.K, cfg.M, math.sqrt(cfg.sigma2)
    p, key = trial
    frames, sends, payloads = trial_frames(bench, key)
    energies = np.empty((len(bench.schemes), 2, len(bench.streams), K))
    for j, tag in enumerate(bench.streams):
        factor = draw_channels(cfg, substream(*key, *tag))
        cell = np.arange(j * K, (j + 1) * K)
        z = np.ascontiguousarray(factor[:, cell]).T
        gain = np.vecdot(z, z).real / M
        users = scored_users(bench, j)
        columns = [estimator_columns(s.book, s.partition, powers, u, cfg.C_u)
                   for s, u in zip(bench.schemes, users)]
        roots = [np.sqrt(s.gains[p, j].reshape(-1)) for s in bench.schemes]
        # a column set of each entry's own
        estimates, matched = project([factor], sigma, np.stack(frames)[:, np.newaxis],
                                     [(f, i) for i, f in enumerate(sends)], roots, columns)
        projection = Projection(estimates[0], matched[0])
        lo = 0
        for i, s in enumerate(bench.schemes):
            at = np.searchsorted(users[i], cell, sorter=np.argsort(users[i]))
            at = lo + np.argsort(users[i])[at]  # the cell's users among the projected, in order
            lo += users[i].size
            x_tilde = textbook_outputs(projection, at, s, j, p, cfg, powers)
            sent = payloads[cell]
            signal = gain[:, np.newaxis] * sent[:, sent.shape[1] - x_tilde.shape[1] :]
            residual = x_tilde - signal
            energies[i, :, j] = np.vecdot(signal, signal).real, np.vecdot(residual, residual).real
    return energies


@pytest.mark.parametrize("K", [5, 1])
def test_sum_rate_energies_equal_the_per_trial_loop(K):
    # at K = 1 the rows are contiguous, and the norms round unlike strided rows
    bench = sum_rate_bench(K)
    assert [s.method for s in bench.schemes] == ["all-tp", "all-sp", "hybrid"] * 2
    assert bench.payload_stream == "common-frames"
    assert len(bench.streams) == 7 and bench.schemes[5].partition.sp.any()
    with simharness._one_blas_thread():
        sig_res, errs = simharness._run_trials(bench, trials(3))
        for t, trial in enumerate(trials(3)):
            assert np.array_equal(sig_res[t], per_trial_energies(bench, trial))
    assert not errs.any()  # Gaussian payloads carry no bits


def test_an_entry_iterates_at_every_metric_bs():
    # one all-SP entry that iterates, at two metric BSs: its pass at BS 1,
    # written out as a loop, gives the kernel's energies and bit errors
    cfg = SystemConfig(M=40, seed=4)
    K, N = cfg.K, cfg.L * cfg.K
    layout = place_users(cfg, substream(4, "layout"))
    reference = simharness._make_bench(cfg, RunOptions(), [layout])
    sp, powers = reference.schemes[1], reference.powers
    # each BS's profile, a batch of the bench's one placement
    profiles = tuple(iterative.predict_profile(sp.gains[0, j].reshape(1, N), powers, cfg)
                     for j in (0, 1))
    entry = sp._replace(iterated=(simharness.ITER_METHOD, profiles))
    bench = derived(reference, schemes=(entry,), streams=(("ch", 0), ("ch", 1)))
    report = K + np.arange(K)
    plan = iterative.plan_pass(profiles[1].layout(0), report)
    users = plan[0]
    assert users.size > K  # the pass keeps users outside cell 1
    columns = estimator_columns(sp.book, sp.partition, powers, users, cfg.C_u)
    roots = np.sqrt(sp.gains[0, 1].reshape(-1))
    G, R, data, bits, gain = [], [], [], [], []
    with simharness._one_blas_thread():
        sig_res, errs = simharness._run_trials(bench, trials(3))
        for t, (_p, key) in enumerate(trials(3)):
            # the entry's one-shot row, from cell j's rows of the same projection
            assert np.array_equal(sig_res[t, :1], per_trial_energies(bench, (0, key)))
            (sent,), (drawn_bits,) = waveform._draw_payloads(N, cfg.C_u, cfg.P, "qam",
                                                             [substream(*key, "sp-frames")])
            S = waveform.assemble_frames(cfg, sp.book, powers, sent, sp.partition)
            factor = draw_channels(cfg, substream(*key, "ch", 1))
            projection = project([factor], math.sqrt(cfg.sigma2), S[np.newaxis, np.newaxis],
                                 [(0, 0)], [roots], [columns])
            (G_t,), (R_t,) = iterative.reduce_block(projection)
            G.append(G_t)
            R.append(R_t)
            data.append(sent[report])
            bits.append(drawn_bits[report])
            z = np.ascontiguousarray(factor[:, report]).T
            gain.append(np.vecdot(z, z).real / cfg.M)
        x_tilde = iterative.iterative_estimate(np.stack(G), np.stack(R),
                                               sp.book.sp_columns(slice(None)), [plan] * 3)
    signal, residual = simharness.signal_residual_power(x_tilde, np.stack(data), np.stack(gain))
    assert sig_res.shape == (3, 2, 2, 2, K)
    assert np.array_equal(sig_res[:, 1, 0, 1], signal)
    assert np.array_equal(sig_res[:, 1, 1, 1], residual)
    # the pass's bit errors are its two BSs' together
    bs_1 = simharness.count_ber(x_tilde, np.stack(bits), cfg.P)
    assert errs[1, 1] == 2 * bs_1[1] and errs[1, 0] >= bs_1[0]


def test_one_more_entry_is_one_more_row(monkeypatch):
    # all-SP on the raw gains of the first radius: one entry more in the
    # table, and the kernel and the records code as they are.  It sends the
    # all-SP frame matrix (same book and Partition) and the trial's one
    # payload draw.  The entries' columns share one projection, and the
    # all-SP entries one matched-filter product, so an entry's last bits can
    # depend on the others (estimators.project): at the experiment's four
    # radii an appended entry leaves them be.
    cfg = SystemConfig(L=7, K=5, M=40, C_u=40, omega=10.0, seed=4)
    options = RunOptions(trials=3)
    build = simharness._sum_rate_bench

    def grown(config, layouts):
        bench = build(config, layouts)
        all_tp, all_sp = bench.schemes[:2]
        raw_sp = all_sp._replace(method="all-sp-raw", gains=all_tp.gains)
        return derived(bench, schemes=bench.schemes + (raw_sp,))

    bench = build(cfg, sum_rate_layouts(cfg, options.radii_m))
    more = grown(cfg, sum_rate_layouts(cfg, options.radii_m))
    with simharness._one_blas_thread():
        sig_res, _errs = simharness._run_trials(bench, trials(3))
        more_sig_res, _errs = simharness._run_trials(more, trials(3))
        for t, trial in enumerate(trials(3)):
            assert np.array_equal(more_sig_res[t], per_trial_energies(more, trial))
    # the existing entries' energies keep their bits
    assert more_sig_res.shape == (3, 13, 2, 7, 5)
    assert np.array_equal(more_sig_res[:, :-1], sig_res)
    expected = run_experiment(cfg, "sum_rate_vs_sir", options)
    monkeypatch.setattr(simharness, "_sum_rate_bench", grown)
    records = run_experiment(cfg, "sum_rate_vs_sir", options)
    assert records[:-1] == expected
    row = records[-1]
    assert (row.method, row.sweep_value) == ("all-sp-raw", expected[0].sweep_value)
    assert 0 < row.value != expected[1].value


def test_an_entry_that_iterates_over_tp_users_is_refused_before_any_draw(monkeypatch):
    # the 850 m hybrid entry, given per-BS profiles: the estimator reads every
    # user's superimposed pilot, which its TP users lack
    bench = sum_rate_bench(5, radii=(850.0,))
    cfg, hybrid = bench.config, bench.schemes[2]
    assert not hybrid.partition.sp.all()
    first = tuple(np.argwhere(~hybrid.partition.sp)[0].tolist())
    profile = iterative.predict_profile(hybrid.gains[0, 0].reshape(1, -1), bench.powers, cfg)
    entry = hybrid._replace(iterated=("hybrid-iter", (profile,) * len(bench.streams)))
    draws = []
    monkeypatch.setattr(simharness, "draw_channels", lambda *args: draws.append(args))
    monkeypatch.setattr(simharness.waveform, "_draw_payloads", lambda *args: draws.append(args))
    monkeypatch.setattr(simharness.waveform, "assemble_frames", lambda *args: draws.append(args))
    # the refusal names the entry by its table index and method
    message = rf"entry 2 \('hybrid'\).*user {re.escape(str(first))}"
    with pytest.raises(ValueError, match=message):
        derived(bench, schemes=bench.schemes[:2] + (entry,))
    assert draws == []


def grouped_receives(monkeypatch, J):
    """Spy on the kernel's projections and grouped receives.

    Returns the list each receive goes to, as (projection, the entries'
    estimator columns, BS, users, placement, outputs).
    """
    calls, state = [], {"bs": -1}
    real_project, real_receive = simharness.project, simharness.receive

    def project_spy(factors, sigma, frames, pairs, roots, columns):
        state["bs"] = (state["bs"] + 1) % J
        state["projection"] = real_project(factors, sigma, frames, pairs, roots, columns)
        state["columns"] = [columns[c] for _, c in pairs]
        return state["projection"]

    def receive_spy(projection, users, rx, placement):
        x_tilde = real_receive(projection, users, rx, placement)
        assert projection is state["projection"]
        calls.append((projection, state["columns"], state["bs"], users, placement,
                      x_tilde.copy()))
        return x_tilde

    monkeypatch.setattr(simharness, "project", project_spy)
    monkeypatch.setattr(simharness, "receive", receive_spy)
    return calls


@pytest.mark.parametrize("which", ["sum_rate_k5", "sum_rate_k1", "reference"])
def test_the_grouped_pass_receives_each_entry_as_its_projection_alone(bench, monkeypatch,
                                                                       which):
    # the sum-rate entries of one payload length are received in one pass
    # per sub-batch and BS, the 850 m hybrid with both kinds of user among
    # them; the reference bench's iterated entry is received from cell j's
    # users among those its estimator keeps.  Each trial of the stack is
    # received as its own projection alone.
    b = bench if which == "reference" else sum_rate_bench(int(which[-1]))
    cfg, K, J = b.config, b.config.K, len(b.streams)
    if which != "reference":
        hybrid = b.schemes[5].partition.sp
        assert hybrid.any() and not hybrid.all()
    calls = grouped_receives(monkeypatch, J)
    with simharness._one_blas_thread():
        sizes = sub_batch_sizes(monkeypatch, b, 3, 2)
        simharness._run_trials(b, trials(3))
    # the entries of one payload length share a pass, per sub-batch of 2
    # and 1 trials
    groups = {}
    for i, s in enumerate(b.schemes):
        groups.setdefault(s.book.payload_length(s.partition, cfg.C_u), []).append(i)
    assert sorted(set(sizes)) == [1, 2]
    assert len(groups) == 2 and len(calls) == 2 * J * len(groups)
    assert [len(x_tilde) for *_, x_tilde in calls] == [2] * (J * len(groups)) + [1] * (
        J * len(groups))
    for c, (projection, columns, j, users, p, x_tilde) in enumerate(calls):
        n, entries = list(groups.items())[c % len(groups)]
        assert x_tilde.shape == (len(x_tilde), len(entries) * K, n)
        bounds = np.cumsum([0] + [E.shape[1] for E in columns])
        for e, i in enumerate(entries):
            s, lo, hi = b.schemes[i], bounds[i], bounds[i + 1]
            rows = users[e * K : (e + 1) * K] - lo
            assert np.all((rows >= 0) & (rows < hi - lo))
            rx = receiver([(s.book, s.partition, j, s.gains[:, j, j])], b.powers, cfg)
            for t in range(len(x_tilde)):
                alone = Projection(projection.estimates[t, :, lo:hi],
                                   projection.matched[t, lo:hi])
                assert np.array_equal(x_tilde[t, e * K : (e + 1) * K],
                                      receive(alone, rows, rx, p))


@pytest.mark.parametrize("radii", [1, 2, 4])
def test_a_sum_rate_trial_makes_one_payload_draw(monkeypatch, radii):
    # however many entries: one draw per trial, as long as the longest
    # payload (all-SP's C_u on the full-length book), drawn from the trial's
    # own stream as part of its sub-batch's stack, and one frame matrix per
    # (book, Partition) and trial: all-TP, all-SP and each radius's hybrid,
    # assembled from that stack
    b = sum_rate_bench(5, RunOptions().radii_m[:radii])
    cfg, K, N = b.config, b.config.K, b.config.L * b.config.K
    assert len(b.schemes) == 3 * radii and b.payload_stream == "common-frames"
    draws, made = [], []
    draw, assemble = waveform._draw_payloads, waveform.assemble_frames

    def draw_spy(*args):
        draws.append((args, draw(*args)))
        return draws[-1][1]

    def assemble_spy(config, book, powers, data, partition):
        made.append(data)
        return assemble(config, book, powers, data, partition)

    monkeypatch.setattr(simharness.waveform, "_draw_payloads", draw_spy)
    monkeypatch.setattr(simharness.waveform, "assemble_frames", assemble_spy)
    with simharness._one_blas_thread():
        sub_sizes = sub_batch_sizes(monkeypatch, b, 3, 2)
        sig_res, _errs = simharness._run_trials(b, trials(3))
    assert sub_sizes == [2, 1]
    assert [args[:2] for args, _ in draws] == [(N, cfg.C_u)] * 2
    assert len(made) == 2 * (2 + radii)
    data = np.concatenate([one for _, (one, _) in draws])
    assert data.shape == (3, N, cfg.C_u) and all(bits is None for _, (_, bits) in draws)
    for k, (_, (stack, _)) in enumerate(draws):
        assert all(one is stack for one in made[k * (2 + radii) : (k + 1) * (2 + radii)])
    for t, (_p, key) in enumerate(trials(3)):
        # the trial's rows of the stack are its own stream's draw
        (alone,), _ = draw(N, cfg.C_u, cfg.P, "gaussian", [substream(*key, "common-frames")])
        assert np.array_equal(data[t], alone)
        # each entry is scored on the trailing symbols of that draw that its
        # payload length asks for: 35 for all-TP and hybrid, 40 for all-SP
        for j in range(len(b.streams)):
            factor = draw_channels(cfg, substream(*key, "ch", j))
            z = np.ascontiguousarray(factor[:, j * K : (j + 1) * K]).T
            gain = np.vecdot(z, z).real / cfg.M
            for i, s in enumerate(b.schemes):
                n = s.book.payload_length(s.partition, cfg.C_u)
                assert n == (cfg.C_u if s.method == simharness.ALL_SP_METHOD
                             else cfg.C_u - cfg.tau)
                signal = gain[:, np.newaxis] * data[t, j * K : (j + 1) * K, cfg.C_u - n :]
                assert np.array_equal(sig_res[t, i, 0, j], np.vecdot(signal, signal).real)


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_where_nobody_moves_to_sp_the_hybrid_row_is_the_all_tp_row(seed):
    # the bench's system at 300 m and 500 m, where the greedy partitioner
    # keeps every user on TP: the hybrid then sends the all-TP frames on
    # the same draws, and only its place in the shared products, and its
    # own matched-filter product, can round otherwise
    cfg = SystemConfig(L=19, K=5, M=200, C_u=40, omega=10.0, seed=seed)
    options = RunOptions(trials=8, radii_m=(300.0, 500.0))
    bench = simharness._sum_rate_bench(cfg, sum_rate_layouts(cfg, options.radii_m))
    assert not any(s.partition.sp.any() for s in bench.schemes[2::3])
    records = run_experiment(cfg, "sum_rate_vs_sir", options)
    for all_tp, _all_sp, hybrid in zip(records[0::3], records[1::3], records[2::3]):
        assert (all_tp.method, hybrid.method) == ("all-tp", "hybrid")
        assert hybrid.sweep_value == all_tp.sweep_value
        assert hybrid.value == pytest.approx(all_tp.value, rel=1e-12, abs=0)


def test_hybrid_gains_control_the_sp_users_only():
    # reference: q = omega / beta_llk on the SP users, 1 elsewhere, at the
    # four default radii
    cfg = SystemConfig(L=19, K=5, M=200, C_u=40, omega=10.0, seed=0)
    layouts = sum_rate_layouts(cfg, RunOptions().radii_m)
    bench = simharness._sum_rate_bench(cfg, layouts)
    moved = 0
    for i, layout in enumerate(layouts):
        all_tp, all_sp, hybrid = bench.schemes[3 * i : 3 * i + 3]
        beta_raw = all_tp.gains[0]
        q_hyb = np.ones((cfg.L, cfg.K))
        for l, k in np.argwhere(hybrid.partition.sp):
            q_hyb[l, k] = cfg.omega / beta_raw[l, l, k]
        expected = beta_raw * q_hyb[np.newaxis, :, :]
        assert np.array_equal(hybrid.gains, expected[np.newaxis])
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
    # 5 trials: chunks of 2, 2, 1 and of 3, 2 against chunks of 1 and of 5;
    # on several placements, each chunk mixes them
    sizes = batch_sizes(monkeypatch)
    totals = {}
    with simharness._one_blas_thread():
        for trials_per_chunk in (1, per_chunk, 5):
            budget = trials_per_chunk * any_bench.trial_bytes
            monkeypatch.setattr(simharness, "_CHUNK_BYTES", budget)
            totals[trials_per_chunk] = simharness._sum_trials(
                any_bench, trials(5, placements(any_bench)))
    assert sizes == [1] * 5 + {2: [2, 2, 1], 3: [3, 2]}[per_chunk] + [5]
    for sig, errs in totals.values():
        assert np.array_equal(sig, totals[1][0])
        assert np.array_equal(errs, totals[1][1])


def test_a_chunk_holds_at_least_one_trial(any_bench, monkeypatch):
    sizes = batch_sizes(monkeypatch)
    monkeypatch.setattr(simharness, "_CHUNK_BYTES", any_bench.trial_bytes - 1)
    sig, errs = simharness._sum_trials(any_bench, trials(2, placements(any_bench)))
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
# noise instead of their 200 x 135 entries, it peaked at 731,979 (706,599
# with numpy 2.4.6).  Drawing one payload per tag and trial, receiving each
# trial's cells in one grouped pass, and freeing each projection only as the
# next replaces it, it peaks at 774,192.  Stacking its 4 trials in two
# sub-batches of 2, beside what they keep for the pass and one draw, it
# peaks at 1,183,802.
PEAK_BOUND_BYTES = 1_775_000


def test_two_trials_fit_a_batch_at_m_200_within_the_earlier_peak(monkeypatch):
    cfg = SystemConfig(M=200, seed=5)
    layout = place_users(cfg, substream(5, "sinr_vs_m", "layout", 2))
    bench_200 = simharness._make_bench(cfg, RunOptions(), [layout])
    sizes = batch_sizes(monkeypatch)
    batch = [(0, (5, "sinr_vs_m", 2, t)) for t in range(4)]
    with simharness._one_blas_thread():
        simharness._sum_trials(bench_200, batch)  # warm-up: first-call caches
        sizes.clear()
        tracemalloc.start()
        try:
            simharness._sum_trials(bench_200, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert min(sizes) >= 2
    assert peak < PEAK_BOUND_BYTES


# Traced peak of _sum_trials over ber_vs_k's 10 bench trials at K = 10 (CLI
# defaults: L = 7, M = 500, C_u = 70, scenario 1; seed 5), each on its own
# placement, numpy 2.4.  As ten one-trial chunks, one bench per placement,
# they peaked at 744,144 bytes.  In one chunk, which keeps every trial's G
# and R over the 11-14 users the estimator keeps for it until the pass, and
# whose pass stacks the blocks of one schedule at a time, they peaked at
# 1,119,068 bytes.  Projected into one array of both entries' matched rows,
# whose iterated rows the trial copies out as G, received in one grouped
# pass per payload length, and each projection freed only as the next
# replaces it, they peaked at 1,226,781: within the 1,310,720-byte chunk
# budget they were sized for.  The bound stays that figure whatever the
# budget.  Stacked in five sub-batches of 2 under a budget of 1,572,864
# bytes, which counts one draw and the sub-batch's stacked stages beside
# the trials' pass inputs, they peak at 1,305,404.
BER_PEAK_BOUND_BYTES = 1_310_720


def test_ber_vs_k_runs_its_ten_placements_in_one_chunk(monkeypatch):
    cfg = SystemConfig(K=10, M=500, C_u=70, scenario=Scenario1(), seed=5)
    options = RunOptions(trials=10)
    layouts = [place_users(cfg, substream(5, "ber_vs_k", 2, t, "layout")) for t in range(10)]
    bench = simharness._make_bench(cfg, options, layouts)
    sizes = batch_sizes(monkeypatch)
    batch = [(t, (5, "ber_vs_k", 2, t)) for t in range(10)]
    with simharness._one_blas_thread():
        simharness._sum_trials(bench, batch)  # warm-up: first-call caches
        sizes.clear()
        tracemalloc.start()
        try:
            simharness._sum_trials(bench, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sizes == [10]
    assert peak < BER_PEAK_BOUND_BYTES


# Traced peak of _sum_trials over sum_rate_vs_sir's 8 bench trials at the CLI
# defaults (L=19, M=200, C_u=40, seed 5), numpy 2.4: a bench of one radius's
# three schemes, which drew one channel per gain map and held the batch's
# outputs and payloads, peaked at 2,722,324 bytes.  The one bench of all four
# radii (12 schemes), on one unit draw per BS, peaked at 1,816,664, and at
# 1,817,072 with its scoring shared with the QAM benches.  Received from one
# projection per trial and BS, onto the 60 scored users of all 12 schemes,
# it peaked at 2,182,232.  Drawing the 135 x 135 triangular factor of each
# BS's fading and noise instead of their 200 x 135 entries, it peaked at
# 1,899,328.  On one payload draw per trial for all 12 schemes, six frame
# matrices (one per book and Partition) in one buffer, and one grouped
# receive per payload length, it peaked at 1,647,607.  Through the stacked
# kernel, one trial per sub-batch, with no estimate copied and the
# projection's scalings on contiguous complex arrays, it peaks at 1,415,744.
SUM_RATE_PEAK_BOUND_BYTES = 2_722_000


def test_four_radii_fit_within_the_earlier_peak_of_one(monkeypatch):
    cfg = SystemConfig(L=19, K=5, M=200, C_u=40, omega=10.0, seed=5)
    bench = simharness._sum_rate_bench(cfg, sum_rate_layouts(cfg, RunOptions().radii_m))
    assert len(bench.schemes) == 12
    sizes = batch_sizes(monkeypatch)
    batch = [(0, (5, "sum_rate", t)) for t in range(8)]
    with simharness._one_blas_thread():
        simharness._sum_trials(bench, batch)  # warm-up: first-call caches
        sizes.clear()
        tracemalloc.start()
        try:
            simharness._sum_trials(bench, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sizes == [8]
    assert peak < SUM_RATE_PEAK_BOUND_BYTES


# The runs the byte model splits the bench's workloads into at seed 5, as
# the trial counts of each simharness._runs call in call order: a
# _sum_trials call's chunks, then each chunk's sub-batches.  sinr_vs_m runs
# one chunk of 20 at M = 50 and two of 10 at M = 100 and 200, ber_vs_k one
# chunk of 10 per K, stacked 10, 5 and 2 at a time, and sum_rate_vs_sir one
# chunk of 8 one-trial sub-batches.
SINR_VS_M_AT_100 = [[10, 10], [3, 3, 2, 2], [3, 3, 2, 2]]
BENCH_BATCHES = {
    "sinr_vs_m": (20, [[20], [3] * 6 + [2], *SINR_VS_M_AT_100, *SINR_VS_M_AT_100]),
    "ber_vs_k": (10, [[10], [10], [10], [5, 5], [10], [2] * 5]),
    "sum_rate_vs_sir": (8, [[8], [1] * 8]),
}


def bench_spec(tmp_path, experiment):
    """The spec of a bench workload: its trial count in BENCH_BATCHES, seed 5."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(f"experiment: {experiment}\noverrides:\n"
                    f"  trials: {BENCH_BATCHES[experiment][0]}\n  seed: 5\n", encoding="utf-8")
    return cli.parse_config(str(spec))


def split_runs(monkeypatch, events):
    """Spy on simharness._runs; each call's run lengths go to events as ("runs", lengths)."""
    split = simharness._runs

    def spy(n, most):
        runs = split(n, most)
        events.append(("runs", [hi - lo for lo, hi in runs]))
        return runs

    monkeypatch.setattr(simharness, "_runs", spy)


@pytest.mark.parametrize("experiment", sorted(BENCH_BATCHES))
def test_the_bench_workloads_keep_their_chunks_and_sub_batches(experiment, tmp_path,
                                                              monkeypatch):
    spec, events = bench_spec(tmp_path, experiment), []
    split_runs(monkeypatch, events)
    run_experiment(spec.config, spec.experiment, spec.options)
    assert [sizes for _, sizes in events] == BENCH_BATCHES[experiment][1]


# Payload draws per repetition of each bench workload: one per sub-batch of
# BENCH_BATCHES.  When TP and SP drew from streams of their own, the
# reference benches made two per sub-batch, 46 and 16.
PAYLOAD_DRAWS = {"sinr_vs_m": 23, "ber_vs_k": 8, "sum_rate_vs_sir": 8}


@pytest.mark.parametrize("experiment", sorted(PAYLOAD_DRAWS))
def test_every_bench_makes_one_payload_draw_per_sub_batch(experiment, tmp_path, monkeypatch):
    spec, events = bench_spec(tmp_path, experiment), []
    split_runs(monkeypatch, events)
    draw = waveform._draw_payloads

    def spy(n_users, n, P, data_dist, rngs):
        events.append(("draw", n, len(rngs)))
        return draw(n_users, n, P, data_dist, rngs)

    monkeypatch.setattr(simharness.waveform, "_draw_payloads", spy)
    run_experiment(spec.config, spec.experiment, spec.options)
    draws = [event for event in events if event[0] == "draw"]
    assert len(draws) == PAYLOAD_DRAWS[experiment]
    # every draw is C_u symbols long, the longest payload
    assert {n for _, n, _ in draws} == {spec.config.C_u}
    # the draws that follow a split are one per run of it (a chunk's
    # sub-batches), or none (a split into chunks, whose first chunk's split
    # comes next)
    splits = [i for i, event in enumerate(events) if event[0] == "runs"] + [len(events)]
    for lo, hi in zip(splits, splits[1:]):
        after = [size for _, _, size in events[lo + 1 : hi]]
        assert after in ([], events[lo][1])


def test_a_reference_trial_scores_tp_on_the_tail_of_the_draw_sp_sends(bench, monkeypatch):
    # one draw of C_u symbols per trial from "sp-frames": SP's frames carry
    # all of it, TP's frames its trailing C_u - tau symbols after the pilots,
    # and TP is scored on that tail, its energies and its bit errors
    cfg, K, N = bench.config, bench.config.K, bench.config.L * bench.config.K
    tp, sp = bench.schemes
    n = tp.book.payload_length(tp.partition, cfg.C_u)
    assert bench.payload_stream == "sp-frames" and n == cfg.C_u - cfg.tau
    assert [length for *_, length in bench.methods] == [n, cfg.C_u, cfg.C_u]
    sent, calls = [], grouped_receives(monkeypatch, 1)
    assemble = waveform.assemble_frames

    def spy(config, book, powers, data, partition):
        frames = assemble(config, book, powers, data, partition)
        sent.append((data, frames))
        return frames

    monkeypatch.setattr(simharness.waveform, "assemble_frames", spy)
    with simharness._one_blas_thread():
        sizes = sub_batch_sizes(monkeypatch, bench, 2, 2)
        sig_res, errs = simharness._run_trials(bench, trials(2))
    assert sizes == [2] and len(sent) == 2 and sent[0][0] is sent[1][0]
    data, tp_frames = sent[0]  # the frame sets in table order: TP's first
    # TP's receive at BS 0 is the first group's
    x_tilde = calls[0][-1]
    assert x_tilde.shape == (2, K, n)
    errors = 0
    for t, (_p, key) in enumerate(trials(2)):
        (alone,), (bits,) = waveform._draw_payloads(N, cfg.C_u, cfg.P, "qam",
                                                    [substream(*key, "sp-frames")])
        assert np.array_equal(data[t], alone)
        assert np.array_equal(tp_frames[t, :, cfg.tau :], alone[:, cfg.C_u - n :])
        factor = draw_channels(cfg, substream(*key, "channels"))
        z = np.ascontiguousarray(factor[:, :K]).T
        gain = np.vecdot(z, z).real / cfg.M
        signal = gain[:, np.newaxis] * alone[:K, cfg.C_u - n :]
        residual = x_tilde[t] - signal
        assert np.array_equal(sig_res[t, 0, 0, 0], np.vecdot(signal, signal).real)
        assert np.array_equal(sig_res[t, 0, 1, 0], np.vecdot(residual, residual).real)
        tail = bits[:K, waveform.bits_per_symbol(cfg.P) * (cfg.C_u - n) :]
        errors += np.count_nonzero(waveform.demap(x_tilde[t], cfg.P).reshape(K, -1) != tail)
    assert errs[0, 0] == errors


# Minor page faults per repetition of sinr_vs_m and sum_rate_vs_sir at the
# bench's settings (20 and 8 trials, seed 5), in a fresh process after two
# warm-up repetitions (numpy 2.4.6, glibc malloc, one BLAS thread).  When a
# change of per-BS array sizes let the allocator trim the heap after every
# BS, a sum_rate_vs_sir repetition faulted 10,309 times.  Before the kernel
# stacked its trials, the two faulted 339 to 637 and 203 to 350 times, over
# several processes; stacked, 4 to 5 and 146 to 235.
MINOR_FAULT_BOUND = 3_000

FAULT_COUNT = """
import resource, sys
from supmimo import cli
from supmimo.simharness import run_experiment
for path in sys.argv[1:]:
    spec = cli.parse_config(path)
    faults = []
    for rep in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(spec.config, spec.experiment, spec.options)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(spec.experiment, max(faults[2:]))
"""


def test_a_repetition_does_not_regrow_the_heap(tmp_path):
    pytest.importorskip("resource")
    specs = []
    for experiment, trials in (("sinr_vs_m", 20), ("sum_rate_vs_sir", 8)):
        specs.append(tmp_path / f"{experiment}.yaml")
        specs[-1].write_text(f"experiment: {experiment}\noverrides:\n  trials: {trials}\n"
                             "  seed: 5\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(simharness.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", FAULT_COUNT, *map(str, specs)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    faults = dict(line.split() for line in done.stdout.splitlines())
    assert set(faults) == {"sinr_vs_m", "sum_rate_vs_sir"}
    assert all(int(count) < MINOR_FAULT_BOUND for count in faults.values()), faults


@pytest.mark.parametrize("n, most", [(5, 2), (5, 3), (20, 17), (10, 3), (1, 4), (7, 7)])
def test_runs_are_the_fewest_of_near_equal_length_longest_first(n, most):
    runs = simharness._runs(n, most)
    lengths = [hi - lo for lo, hi in runs]
    assert runs[0][0] == 0 and runs[-1][1] == n
    assert all(one[1] == other[0] for one, other in zip(runs, runs[1:]))
    assert len(runs) == -(-n // most) and max(lengths) <= most
    assert lengths == sorted(lengths, reverse=True) and lengths[0] - lengths[-1] <= 1


# a value other than the default for each option an experiment may not read
OTHER_VALUES = {"selection": "all", "m_values": (30,), "k_values": (2,), "m_per_k": 7,
                "radii_m": (400.0,), "placements": 2, "rate_cap": False}


@pytest.mark.parametrize("experiment", simharness.EXPERIMENTS)
def test_an_option_the_experiment_does_not_read_leaves_its_output(experiment):
    fields = {f.name for f in dataclasses.fields(RunOptions)}
    assert set().union(*(read for _, read, *_ in simharness.EXPERIMENTS.values())) == fields
    read = simharness.EXPERIMENTS[experiment][1]
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

    monkeypatch.setitem(simharness.EXPERIMENTS, "sinr_vs_m",
                        (record, *simharness.EXPERIMENTS["sinr_vs_m"][1:]))
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


# the corners of the scales SystemConfig accepts, as (omega, snr_db):
# omega at both ends at the default SNR, snr_db at both ends at omega = 1,
# and sigma2 = omega / 10^(snr_db/10) at its largest, 1e100, and smallest,
# 1e-200
SCALE_ENDS = [(1e-100, 10.0), (1e100, 10.0), (1.0, -1000.0), (1.0, 1000.0),
              (1e100, 0.0), (1e-100, 1000.0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega, snr_db", SCALE_ENDS)
@pytest.mark.parametrize("experiment", simharness.EXPERIMENTS)
def test_every_experiment_runs_at_the_ends_of_the_scale_range(experiment, omega, snr_db):
    # beyond them a run overflowed, or wrote NaN records with exit 0
    _, _, config_settings, option_settings = simharness.EXPERIMENTS[experiment]
    cfg = SystemConfig(**{**config_settings, "omega": omega, "snr_db": snr_db})
    options = RunOptions(**{**option_settings, "trials": 1, "placements": 1, "m_values": (50,),
                            "k_values": (1,), "radii_m": (500.0,)})
    records = run_experiment(cfg, experiment, options)
    values = [v for rec in records for v in (rec.sweep_value, rec.value, rec.analytic_value)
              if v is not None]
    assert records and not any(math.isnan(v) for v in values)
