import math
import tracemalloc

import numpy as np
import pytest

import afdof.simulate
from afdof import (
    InsufficientGrid,
    InvalidPower,
    analytic_noise_variances,
    baseline_tdma_rate,
    end_to_end,
    estimate_dof_slope,
    fit_rate_report,
    plan_achievability,
    reconstruct_d1,
    reconstruct_d2,
    run_scheme_trials,
    sample_channel,
    scheme_schedule,
    simulate_block,
    simulate_block_matrix,
    sweep_power_grid,
)
from afdof.bounds import random_schedule
from afdof.simulate import (
    FUZZ,
    LEMMA,
    SAMPLE_CONDITIONS,
    SWEEP,
    _TAG_DEST1,
    _TAG_DEST2,
    _TAG_RELAY_U,
    _TAG_SYMBOLS,
    keyed_rng,
)
from afdof.cli import (
    SCHEME_SLOPE_WINDOW,
    TDMA_SLOPE_WINDOW,
    USER_SLOPE_WINDOW,
)
from conftest import schedule_from_pairs

GRID = (1e3, 10 ** 4.5, 1e6, 10 ** 7.5, 1e9)


def test_zero_noise_zero_symbols(ref_channel, ref_plan):
    sched = schedule_from_pairs(ref_plan.phase_pairs() * 2)
    symbols = np.zeros((len(sched), 2))
    y1, y2 = simulate_block(ref_channel, sched, symbols, noise_seed=0,
                            noise_scale=0.0)
    assert not y1.any() and not y2.any()


def test_noiseless_phase1_slot(ref_channel, ref_plan):
    # One forwarded slot with phase-1 coefficients and unit symbols: d1 sees
    # only the (1,1) entry -5c, d2 sees -4c + 2c.
    pair = ref_plan.phase_pairs()[0]
    sched = schedule_from_pairs((pair,))
    y1, y2 = simulate_block(ref_channel, sched, [[1.0, 1.0]], noise_seed=0,
                            noise_scale=0.0)
    c = ref_plan.c
    assert y1[0] == pytest.approx(-5 * c, rel=1e-12)
    assert y2[0] == pytest.approx(-2 * c, rel=1e-12)


def test_schedule_symbol_length_mismatch(ref_channel, ref_plan):
    # A schedule of L slots takes exactly L symbol rows: L - 1 fails too.
    sched = schedule_from_pairs(ref_plan.phase_pairs())
    for rows in (5, len(sched) - 1):
        with pytest.raises(ValueError, match="must equal the symbol slots"):
            simulate_block(ref_channel, sched, np.zeros((rows, 2)), noise_seed=0)


@pytest.mark.parametrize("make_schedule", [
    lambda ch, plan, rng: random_schedule(ch, plan, 400, rng),
    lambda ch, plan, rng: scheme_schedule(plan, 133),
], ids=["random_schedule", "scheme_schedule"])
def test_chain_matches_matrix_shortcut(ref_channel, ref_plan, make_schedule):
    # Identical noise substreams: the two evaluation paths are mutual
    # oracles, sample for sample.
    rng = np.random.default_rng(5)
    sched = make_schedule(ref_channel, ref_plan, rng)
    symbols = rng.normal(0.0, 10.0, size=(len(sched), 2))
    y1a, y2a = simulate_block(ref_channel, sched, symbols, noise_seed=11)
    y1b, y2b = simulate_block_matrix(ref_channel, sched, symbols, noise_seed=11)
    scale = max(np.max(np.abs(y1a)), np.max(np.abs(y2a)), 1.0)
    assert np.max(np.abs(y1a - y1b)) <= 1e-12 * scale
    assert np.max(np.abs(y2a - y2b)) <= 1e-12 * scale


def test_block_simulation_matches_end_to_end_entries(ref_channel, ref_plan):
    # Received sample k must equal slot k's G applied to the slot-k symbols
    # plus effective noise; with zero noise it is the pure matrix action.
    rng = np.random.default_rng(0)
    sched = random_schedule(ref_channel, ref_plan, 50, rng)
    symbols = rng.normal(size=(50, 2))
    y1, y2 = simulate_block(ref_channel, sched, symbols, noise_seed=0,
                            noise_scale=0.0)
    for k in (0, 7, 23, 49):
        G = end_to_end(ref_channel, sched.mu[k], sched.lam[k])
        want1 = G.alpha1 * symbols[k, 0] + G.beta1 * symbols[k, 1]
        assert y1[k] == pytest.approx(want1, rel=1e-12, abs=1e-15)
        want2 = G.alpha2 * symbols[k, 0] + G.beta2 * symbols[k, 1]
        assert y2[k] == pytest.approx(want2, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 7])
def test_trial_matches_matrix_decode(ref_channel, ref_plan, seed):
    # A trial runs scheme_schedule through the chain; the matrix oracle on
    # that schedule, with the trial's symbols and noise streams, must decode
    # to the same stream errors.  One trial's error sum is n * mse.
    P, n = 100.0, 200
    s = run_scheme_trials(ref_channel, ref_plan, P, n, trials=1, seed=seed)
    sym = keyed_rng(SWEEP, seed, 0, _TAG_SYMBOLS).standard_normal((n, 4))
    sym *= math.sqrt(P)
    a1, a2, b1, b2 = sym.T
    symbols = np.stack([a1, b1, a2, b2, a1, b2], axis=1).reshape(3 * n, 2)
    y1, y2 = simulate_block_matrix(ref_channel, scheme_schedule(ref_plan, n),
                                   symbols, noise_seed=seed)
    G = [end_to_end(ref_channel, mu, lam) for mu, lam in ref_plan.phase_pairs()]
    a1_hat, a2_hat = reconstruct_d1(y1[0::3], y1[1::3], y1[2::3], *G)
    b1_hat, b2_hat = reconstruct_d2(y2[0::3], y2[1::3], y2[2::3], *G)
    want = [float(np.sum((hat - x) ** 2)) for hat, x in
            ((a1_hat, a1), (a2_hat, a2), (b1_hat, b1), (b2_hat, b2))]
    got = [n * s.mse_a1, n * s.mse_a2, n * s.mse_b1, n * s.mse_b2]
    assert got == pytest.approx(want, rel=1e-12)


def test_trial_t_reads_row_t_of_its_point(ref_channel, ref_plan):
    # Relay u scales by mu_all in every slot, so its second moment follows
    # from the symbol and relay-u noise rows alone: trial t must read row t
    # of the (seed, point) key's generators.
    P, n, trials, seed, point = 100.0, 30, 3, 4, 2
    s = run_scheme_trials(ref_channel, ref_plan, P, n, trials, (seed, point))
    sym = keyed_rng(SWEEP, seed, point, _TAG_SYMBOLS).standard_normal(
        (trials, n, 4)) * math.sqrt(P)
    zu = keyed_rng(SWEEP, seed, point, _TAG_RELAY_U).standard_normal(
        (trials, 3 * n))
    a1, a2, b1, b2 = sym.transpose(2, 0, 1)
    x1 = np.stack([a1, a2, a1], axis=2).reshape(trials, 3 * n)
    x2 = np.stack([b1, b2, b2], axis=2).reshape(trials, 3 * n)
    ch = ref_channel
    xu = ref_plan.mu_all * (ch.h_s1u * x1 + ch.h_s2u * x2 + zu)
    assert s.relay_pu == pytest.approx(np.mean(np.mean(xu ** 2, axis=1)),
                                       rel=1e-12)


def test_trial_determinism(ref_channel, ref_plan):
    kw = dict(P=100.0, n_triples=50, seed=9)
    first = run_scheme_trials(ref_channel, ref_plan, trials=3, **kw)
    second = run_scheme_trials(ref_channel, ref_plan, trials=3, **kw)
    assert first == second
    # Trial 1 draws its own streams: had it replayed trial 0, two trials
    # would average to exactly the one-trial MSEs.
    one = run_scheme_trials(ref_channel, ref_plan, trials=1, **kw)
    two = run_scheme_trials(ref_channel, ref_plan, trials=2, **kw)
    names = ("mse_a1", "mse_a2", "mse_b1", "mse_b2")
    assert [getattr(one, n) for n in names] != [getattr(two, n) for n in names]


@pytest.mark.parametrize("trials,n", [(40, 50), (7, 3), (5, 1000)])
def test_results_do_not_depend_on_grouping(ref_channel, ref_plan, monkeypatch,
                                           trials, n):
    # Each shape fits one tile by default.  A cap below 3 runs one-triple
    # tiles; a cap of 3 * 7 splits a trial of 50 or 1000 triples into spans
    # of 7 with a shorter last span (and puts two trials of 3 in a tile); a
    # cap of three trials' slots leaves a remainder group, since no trial
    # count here is a multiple of 3.
    assert afdof.simulate.GROUP_CAP >= trials * 3 * n
    for ch, plan in ((ref_channel, ref_plan),
                     (sample_channel(5), plan_achievability(sample_channel(5)))):
        for P in (1e3, 1e9):
            kw = dict(P=P, n_triples=n, trials=trials, seed=3)
            with monkeypatch.context() as m:
                grouped = run_scheme_trials(ch, plan, **kw)
                for cap in (1, 3 * 7, 3 * 3 * n):
                    m.setattr(afdof.simulate, "GROUP_CAP", cap)
                    assert run_scheme_trials(ch, plan, **kw) == grouped


def test_long_trial_memory_is_tile_bounded(ref_channel, ref_plan):
    # A 1e5-triple trial runs in spans: the traced peak is one tile plus the
    # group's reduction rows (80 B per triple), and neither grows with the
    # number of trials.  Whole-trial (1, 3n) chain arrays would need 32 MB.
    peaks = []
    for trials in (1, 4):
        tracemalloc.start()
        try:
            run_scheme_trials(ref_channel, ref_plan, P=1e6, n_triples=100_000,
                              trials=trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 18.0, peaks
    assert peaks[1] == pytest.approx(peaks[0], abs=0.1), peaks


def test_mse_zero_noise(ref_channel, ref_plan):
    s = run_scheme_trials(ref_channel, ref_plan, P=100.0, n_triples=200,
                          trials=2, seed=1, noise_scale=0.0)
    assert max(s.mse_a1, s.mse_a2, s.mse_b1, s.mse_b2) <= 1e-18 * 100.0


def test_mse_matches_analytic(ref_channel, ref_plan):
    s = run_scheme_trials(ref_channel, ref_plan, P=100.0, n_triples=5000,
                          trials=20, seed=3)
    (s1, s2), (t1, t2) = analytic_noise_variances(ref_channel, ref_plan)
    assert s.mse_a1 == pytest.approx(s1, rel=0.02)
    assert s.mse_a2 == pytest.approx(s2, rel=0.02)
    assert s.mse_b1 == pytest.approx(t2, rel=0.02)  # combined stream decodes b1
    assert s.mse_b2 == pytest.approx(t1, rel=0.02)  # direct stream decodes b2


def test_mse_power_independent(ref_channel, ref_plan):
    lo = run_scheme_trials(ref_channel, ref_plan, P=1e2, n_triples=5000,
                           trials=10, seed=4)
    hi = run_scheme_trials(ref_channel, ref_plan, P=1e6, n_triples=5000,
                           trials=10, seed=5)
    for name in ("mse_a1", "mse_a2", "mse_b1", "mse_b2"):
        assert getattr(lo, name) == pytest.approx(getattr(hi, name), rel=0.05)


def test_noiseless_reconstruction_at_extreme_power(ref_channel, ref_plan):
    # Round trip stays exact (1e-9 relative) for symbols up to sqrt(P),
    # P = 1e12.
    P = 1e12
    s = run_scheme_trials(ref_channel, ref_plan, P, 500, trials=1, seed=8,
                          noise_scale=0.0)
    worst = 500 * max(s.mse_a1, s.mse_a2, s.mse_b1, s.mse_b2)
    assert math.sqrt(worst / 500) <= 1e-9 * math.sqrt(P)


def test_relay_power_zero_schedule(ref_channel):
    # All-zero coefficients silence both relays, relay noise included.  The
    # second hop of the reference channel is invertible, so each destination
    # hears exactly its own noise only if both relays send zero.
    sched = schedule_from_pairs(((0.0, 0.0),) * 10)
    y1, y2 = simulate_block(ref_channel, sched, np.ones((10, 2)), noise_seed=0)
    assert np.array_equal(y1, keyed_rng(SWEEP, 0, 0, _TAG_DEST1).standard_normal(10))
    assert np.array_equal(y2, keyed_rng(SWEEP, 0, 0, _TAG_DEST2).standard_normal(10))


def test_relay_power_reference_ratio(ref_channel, ref_plan):
    # u-relay second moment: c^2 ((h_s1u^2 + h_s2u^2) P + 1), so the ratio
    # to P converges to 5 c^2 on the reference gains.
    P = 1e6
    stats = run_scheme_trials(ref_channel, ref_plan, P=P, n_triples=4000,
                              trials=10, seed=2)
    pu, pv = stats.relay_pu, stats.relay_pv
    c = ref_plan.c
    assert pu / P == pytest.approx(5 * c * c, rel=0.01)
    lam_sq_mean = (ref_plan.lambda_phase1 ** 2 + ref_plan.lambda_phase2 ** 2) / 3.0
    assert pv / P == pytest.approx(10 * lam_sq_mean, rel=0.02)


def test_relay_power_within_constraint(ref_channel, ref_plan):
    for P in (1.0, 1e3):
        stats = run_scheme_trials(ref_channel, ref_plan, P=P, n_triples=500,
                                  trials=10, seed=6)
        assert stats.relay_pu <= P + 3 * stats.relay_pu_se
        assert stats.relay_pv <= P + 3 * stats.relay_pv_se


@pytest.mark.parametrize("bad,exc", [
    ({"P": 0.5}, InvalidPower),
    ({"P": math.nan}, InvalidPower),
    ({"P": math.inf}, InvalidPower),
    ({"n_triples": 0}, ValueError),
    ({"trials": 0}, ValueError),
    ({"seed": -1}, ValueError),
], ids=["P", "P-nan", "P-inf", "n_triples", "trials", "seed"])
def test_run_scheme_trials_validation(ref_channel, ref_plan, bad, exc):
    args = {"P": 1.0, "n_triples": 1, "trials": 1, "seed": 0, **bad}
    with pytest.raises(exc):
        run_scheme_trials(ref_channel, ref_plan, **args)


@pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
def test_noise_scale_must_be_finite_and_nonnegative(ref_channel, ref_plan, scale):
    # A NaN or infinite scale used to give NaN MSEs and rates, and a negative
    # one ran silently; all three fail on every path that draws chain noise.
    sched = scheme_schedule(ref_plan, 2)
    symbols = np.ones((len(sched), 2))
    calls = (
        lambda s: run_scheme_trials(ref_channel, ref_plan, 1e3, 2, 3, 0,
                                    noise_scale=s),
        lambda s: simulate_block(ref_channel, sched, symbols, 0, noise_scale=s),
        lambda s: simulate_block_matrix(ref_channel, sched, symbols, 0,
                                        noise_scale=s),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"noise_scale .* got {scale}"):
            call(scale)
        call(0.0)  # no noise stays valid


def test_simulate_block_leaves_symbols_unchanged(ref_channel, ref_plan):
    # The chain works in place over its noise arrays; a caller's float64
    # symbols reach it as views and must come back untouched.
    sched = random_schedule(ref_channel, ref_plan, 60, np.random.default_rng(2))
    symbols = np.random.default_rng(3).normal(size=(len(sched), 2))
    before = symbols.copy()
    first = simulate_block(ref_channel, sched, symbols, noise_seed=4)
    assert np.array_equal(symbols, before)
    second = simulate_block(ref_channel, sched, symbols, noise_seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_slope_fit_exact_line():
    rates = [(P, (4.0 / 3.0) * 0.5 * math.log2(P) + 7.0)
             for P in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)]
    fit = estimate_dof_slope(rates)
    assert fit.slope == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(7.0, abs=1e-9)
    assert fit.residual <= 1e-9


def test_slope_fit_grid_validation():
    line = lambda P: 0.5 * math.log2(P)
    with pytest.raises(InsufficientGrid):
        estimate_dof_slope([(P, line(P)) for P in (1e3, 1e5, 1e9)])
    with pytest.raises(InsufficientGrid):
        estimate_dof_slope([(P, line(P)) for P in (1e3, 1e4, 1e5, 1e6)])
    with pytest.raises(InsufficientGrid):
        estimate_dof_slope([(P, line(P)) for P in (1e9, 1e6, 1e4, 1e3, 1e2)])
    with pytest.raises(InsufficientGrid):
        estimate_dof_slope([(P, line(P)) for P in (0.5, 1e3, 1e6, 1e9)])
    for bad in (math.nan, math.inf):
        with pytest.raises(InsufficientGrid):
            estimate_dof_slope([(1e3, 1.0), (1e6, 2.0), (1e9, 3.0), (bad, 4.0)])


def test_scheme_slope_windows(ref_channel, ref_plan):
    points = sweep_power_grid(ref_channel, ref_plan, GRID,
                              n_triples=400, trials=5, seed=0)
    report = fit_rate_report(points)
    assert SCHEME_SLOPE_WINDOW[0] <= report.slope_sum <= SCHEME_SLOPE_WINDOW[1]
    assert USER_SLOPE_WINDOW[0] <= report.slope_user1 <= USER_SLOPE_WINDOW[1]
    assert USER_SLOPE_WINDOW[0] <= report.slope_user2 <= USER_SLOPE_WINDOW[1]
    sums = [p.R1 + p.R2 for p in points]
    assert report.slope_sum == report.sum_fit.slope
    assert report.sum_fit == estimate_dof_slope([(p.P, s) for p, s in zip(points, sums)])
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_baseline_slope_window(ref_channel, ref_plan):
    fit = estimate_dof_slope(
        [(P, sum(baseline_tdma_rate(ref_channel, P, ref_plan))) for P in GRID])
    assert TDMA_SLOPE_WINDOW[0] <= fit.slope <= TDMA_SLOPE_WINDOW[1]


def test_sweep_deterministic(ref_channel, ref_plan):
    a = sweep_power_grid(ref_channel, ref_plan, GRID[:4], 100, 2, seed=1)
    b = sweep_power_grid(ref_channel, ref_plan, GRID[:4], 100, 2, seed=1)
    assert a == b


def test_stream_keys_never_share_first_draws():
    # Every purpose over 100 adjacent seeds, and the first sweep points and
    # tags, against sample_channel's default_rng(s) for the same seeds: no two
    # generators start with the same draws.  The wide seeds s + p * 2**128
    # spell seed s's words followed by purpose p's.
    purposes = (FUZZ, LEMMA, SAMPLE_CONDITIONS)
    firsts = []
    for seed in range(100):
        firsts += [np.random.default_rng(seed + p * 2 ** 128).standard_normal(4)
                   for p in (0, *purposes)]
        firsts += [keyed_rng(p, seed).standard_normal(4) for p in purposes]
        firsts += [keyed_rng(SWEEP, seed, point, tag).standard_normal(4)
                   for point in range(6) for tag in range(5)]
    assert len({f.tobytes() for f in firsts}) == len(firsts) == 100 * 37


def test_adjacent_seeds_do_not_share_sweep_points(ref_channel, ref_plan):
    # Seeding point i with seed + i would make it replay point i - 1 of seed
    # s + 1, which at one repeated power shows as equal stats.
    one = sweep_power_grid(ref_channel, ref_plan, (1e3, 1e3), 50, 2, seed=1)
    two = sweep_power_grid(ref_channel, ref_plan, (1e3, 1e3), 50, 2, seed=2)
    assert one[1] != two[0] and one[0] != one[1]
    # A bare seed is point 0 of its sweep.
    assert run_scheme_trials(ref_channel, ref_plan, 1e3, 50, 2, seed=1) == one[0]


@pytest.mark.parametrize("seed,key", [(-1, ()), (0, (-1,)), (0, (2 ** 32,))],
                         ids=["negative-seed", "negative-entry", "wide-entry"])
def test_keyed_rng_rejects_keys_outside_its_words(seed, key):
    with pytest.raises(ValueError):
        keyed_rng(SWEEP, seed, *key)
