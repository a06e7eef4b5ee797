import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afdof.simulate
from afdof import (
    ChannelRealization,
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
    relay_powers,
    run_scheme_trials,
    sample_channel,
    scheme_schedule,
    sweep_power_grid,
)
from afdof.scheme import phase_matrices
from afdof.simulate import (
    FUZZ,
    LEAF,
    LEMMA,
    SAMPLE_CONDITIONS,
    SWEEP,
    _chain,
    keyed_rng,
)
from afdof.cli import (
    SCHEME_SLOPE_WINDOW,
    TDMA_SLOPE_WINDOW,
    USER_SLOPE_WINDOW,
)
from conftest import (
    alphabet_schedule,
    chain_block,
    laurent_massart_deviations,
    matrix_chain,
    reference_channel,
    schedule_from_pairs,
    sweep_noise,
)

GRID = (1e3, 10 ** 4.5, 1e6, 10 ** 7.5, 1e9)


def test_zero_noise_zero_symbols(ref_channel, ref_plan):
    mu, lam = schedule_from_pairs(ref_plan.phase_pairs() * 2)
    y1, y2 = chain_block(ref_channel, mu, lam, np.zeros((len(mu), 2)))
    assert not y1.any() and not y2.any()


def test_noiseless_phase1_slot(ref_channel, ref_plan):
    # One forwarded slot with phase-1 coefficients and unit symbols: d1 sees
    # only the (1,1) entry -5c, d2 sees -4c + 2c.
    pair = ref_plan.phase_pairs()[0]
    y1, y2 = chain_block(ref_channel, *schedule_from_pairs((pair,)),
                         [[1.0, 1.0]])
    c = ref_plan.c
    assert y1[0] == pytest.approx(-5 * c, rel=1e-12)
    assert y2[0] == pytest.approx(-2 * c, rel=1e-12)


@pytest.mark.parametrize("make_schedule", [
    lambda ch, plan, rng: alphabet_schedule(ch, plan, 400, rng),
    lambda ch, plan, rng: scheme_schedule(plan, 133),
], ids=["random_schedule", "scheme_schedule"])
def test_chain_matches_matrix_shortcut(ref_channel, ref_plan, make_schedule):
    # Identical noise substreams: the two evaluation paths are mutual
    # oracles, sample for sample.
    rng = np.random.default_rng(5)
    mu, lam = make_schedule(ref_channel, ref_plan, rng)
    symbols = rng.normal(0.0, 10.0, size=(len(mu), 2))
    y1a, y2a = chain_block(ref_channel, mu, lam, symbols, noise_seed=11)
    y1b, y2b = matrix_chain(ref_channel, mu, lam, *symbols.T,
                            *sweep_noise(11, len(mu)))
    scale = max(np.max(np.abs(y1a)), np.max(np.abs(y2a)), 1.0)
    assert np.max(np.abs(y1a - y1b)) <= 1e-12 * scale
    assert np.max(np.abs(y2a - y2b)) <= 1e-12 * scale


def test_block_simulation_matches_end_to_end_entries(ref_channel, ref_plan):
    # Received sample k must equal slot k's G applied to the slot-k symbols
    # plus effective noise; with zero noise it is the pure matrix action.
    rng = np.random.default_rng(0)
    mu, lam = alphabet_schedule(ref_channel, ref_plan, 50, rng)
    symbols = rng.normal(size=(50, 2))
    y1, y2 = chain_block(ref_channel, mu, lam, symbols)
    for k in (0, 7, 23, 49):
        G = end_to_end(ref_channel, mu[k], lam[k])
        want1 = G.alpha1 * symbols[k, 0] + G.beta1 * symbols[k, 1]
        assert y1[k] == pytest.approx(want1, rel=1e-12, abs=1e-15)
        want2 = G.alpha2 * symbols[k, 0] + G.beta2 * symbols[k, 1]
        assert y2[k] == pytest.approx(want2, rel=1e-12, abs=1e-15)


def oracle_sq_errors(ch, plan, P, n, trials, seed):
    """The (trials, n) squared stream errors (a1, a2, b1, b2) of the matrix
    oracle on scheme_schedule's slots, fed what a sweep at seed ``seed``
    reads at power P with one leaf per trial: trial t's n blocks are row t
    of a (trials, 15, n) draw of the sweep's one generator, the same at
    every power.  Its rows are the symbols a1, a2, b1, b2, scaled by
    sqrt(P), then zu for phases 1-3, zv for phases 1-2, zd1 and zd2 for
    phases 1-3.  Relay v's phase-3 noise is zero: its output is scaled by 0."""
    block = keyed_rng(SWEEP, seed).standard_normal((trials, 15, n))
    block[:, :4] *= math.sqrt(P)
    a1, a2, b1, b2, zu1, zu2, zu3, zv1, zv2, *zd = block.transpose(1, 0, 2)
    phases = [(a1, a2, a1), (b1, b2, b2), (zu1, zu2, zu3),
              (zv1, zv2, np.zeros((trials, n))), zd[:3], zd[3:]]
    # Slot 3 k + p of a trial is phase p + 1 of its block k.
    slots = [np.stack(p, axis=2).reshape(trials, 3 * n) for p in phases]
    y1, y2 = matrix_chain(ch, *scheme_schedule(plan, n), *slots)
    G = [end_to_end(ch, mu, lam) for mu, lam in plan.phase_pairs()]
    hats = (*reconstruct_d1(y1[:, 0::3], y1[:, 1::3], y1[:, 2::3], *G),
            *reconstruct_d2(y2[:, 0::3], y2[:, 1::3], y2[:, 2::3], *G))
    return [(hat - x) ** 2 for hat, x in zip(hats, (a1, a2, b1, b2))]


@pytest.mark.parametrize("seed", [0, 7])
def test_trial_matches_matrix_decode(ref_channel, ref_plan, seed):
    # A trial runs scheme_schedule's phases through the chain; the matrix
    # oracle on that schedule's slots, with the trial's symbols and noise,
    # must decode to the same stream errors.  One trial's error sum is
    # n * mse.
    P, n = 100.0, 200
    s = run_scheme_trials(ref_channel, ref_plan, P, n, trials=1, seed=seed)
    want = [float(np.sum(e)) for e in
            oracle_sq_errors(ref_channel, ref_plan, P, n, 1, seed)]
    got = [n * s.mse_a1, n * s.mse_a2, n * s.mse_b1, n * s.mse_b2]
    assert got == pytest.approx(want, rel=1e-12)


def test_trial_t_reads_row_t_of_its_point(ref_channel, ref_plan):
    # At every power of a sweep, trial t must read row t of the sweep's one
    # (trials, 15, n) draw: every trial's stream errors, rebuilt in matrix
    # form from those rows of the symbols and of all the noises, give each
    # point's MSEs.
    n, trials, seed = 30, 3, 4
    points = sweep_power_grid(ref_channel, ref_plan, (1e2, 1e5), n, trials, seed)
    for s in points:
        want = [float(np.mean(e)) for e in
                oracle_sq_errors(ref_channel, ref_plan, s.P, n, trials, seed)]
        assert [s.mse_a1, s.mse_a2, s.mse_b1, s.mse_b2] == pytest.approx(
            want, rel=1e-12)


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


@pytest.mark.parametrize("trials,n", [(40, 50), (7, 3), (5, 1000),
                                     (3, 2 * LEAF + 5)])
def test_results_do_not_depend_on_grouping(ref_channel, ref_plan, monkeypatch,
                                           trials, n):
    # The first three shapes fit one tile by default.  A cap below 3 runs one
    # trial per tile; a cap of 3 * 7 also puts two trials of 3 in a tile; a
    # cap of three trials' slots leaves a remainder group, since no trial
    # count here is a multiple of 3.  A trial of 2 * LEAF + 5 runs in three
    # leaves, one per tile, under every cap: the caps of 3 * LEAF * 3 and
    # 2**20 would group such trials if long trials were not kept one per
    # tile, and then a trial's leaves would not follow one another in the
    # sweep's stream.  Every power of the grid combines the same tile sums,
    # so no power may see another's tiling either.
    assert afdof.simulate.GROUP_CAP >= 3 * min(trials * n, LEAF)
    for ch, plan in ((ref_channel, ref_plan),
                     (sample_channel(5), plan_achievability(sample_channel(5)))):
        kw = dict(grid=(1e3, 1e6, 1e9), n_triples=n, trials=trials, seed=3)
        with monkeypatch.context() as m:
            grouped = sweep_power_grid(ch, plan, **kw)
            for cap in (1, 3 * 7, 3 * 300, 3 * 3 * n, 3 * LEAF * 3, 2 ** 20):
                m.setattr(afdof.simulate, "GROUP_CAP", cap)
                assert sweep_power_grid(ch, plan, **kw) == grouped


def test_long_trial_memory_is_tile_bounded(ref_channel, ref_plan):
    # A long trial runs one leaf of LEAF triples per tile and each tile sums
    # its own stream errors, so the traced peak is one tile's draws, the
    # signal path's zero noise and the decoded streams (about 1.6 MB)
    # whatever the trial length or number of trials.
    # Per-triple error rows would add 32 B per triple and trial: 12.8 MB at
    # 4e5 triples.  A first short call loads numpy.random, which numpy
    # imports lazily, so the test measures the same whether it runs alone
    # or after others.
    run_scheme_trials(ref_channel, ref_plan, P=1e6, n_triples=1, trials=1, seed=0)
    peaks = []
    for trials, n in ((1, 100_000), (4, 100_000), (1, 400_000)):
        tracemalloc.start()
        try:
            run_scheme_trials(ref_channel, ref_plan, P=1e6, n_triples=n,
                              trials=trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3.0, peaks
    assert peaks[1:] == pytest.approx([peaks[0]] * 2, abs=0.1), peaks


def test_trial_loop_frees_its_buffers(ref_channel, ref_plan):
    # With the cyclic collector off, reference counting alone must free a
    # call's buffers when it returns.  A reference cycle through them (say,
    # a nested function that calls itself) would keep each call's tile
    # alive until a collection ran.
    run_scheme_trials(ref_channel, ref_plan, P=1e6, n_triples=1, trials=1, seed=0)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_scheme_trials(ref_channel, ref_plan, P=1e6, n_triples=100_000,
                          trials=1, seed=0)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert abs(after - before) <= 0.1e6, (before, after)


def noiseless_decode_mse(ch, plan, P, n_triples, seed):
    """Per-stream MSEs (a1, a2, b1, b2) of decoding the noiseless matrix
    action of n_triples scheme blocks of variance-P symbols."""
    sym = np.random.default_rng(seed).standard_normal((n_triples, 4))
    a1, a2, b1, b2 = sym.T * math.sqrt(P)
    G = [end_to_end(ch, mu, lam) for mu, lam in plan.phase_pairs()]
    sent = ((a1, b1), (a2, b2), (a1, b2))
    y1 = [g.alpha1 * x1 + g.beta1 * x2 for g, (x1, x2) in zip(G, sent)]
    y2 = [g.alpha2 * x1 + g.beta2 * x2 for g, (x1, x2) in zip(G, sent)]
    hats = (*reconstruct_d1(*y1, *G), *reconstruct_d2(*y2, *G))
    return [float(np.mean((hat - x) ** 2))
            for hat, x in zip(hats, (a1, a2, b1, b2))]


def test_mse_zero_noise(ref_channel, ref_plan):
    assert max(noiseless_decode_mse(ref_channel, ref_plan, 100.0, 400,
                                    seed=1)) <= 1e-18 * 100.0


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


def test_sweep_mse_is_power_independent(ref_channel, ref_plan):
    # Every power of a sweep combines the same decoded noise, so each
    # stream's MSE agrees across the grid up to rounding (2.2e-13 relative
    # at most here); any symbol leaking into a decoded stream shows as a
    # spread growing with P.
    points = sweep_power_grid(ref_channel, ref_plan, GRID, n_triples=2000,
                              trials=3, seed=6)
    for name in ("mse_a1", "mse_a2", "mse_b1", "mse_b2"):
        mses = [getattr(p, name) for p in points]
        assert max(mses) - min(mses) <= 1e-12 * min(mses), (name, mses)


def test_sweep_carries_symbol_leak(ref_channel, ref_plan):
    # The phases' zero entries are zero only to COEF_TOL, so a plan whose
    # phase-1 lambda is off by 5e-10 still labels B, A, C1, and its a1
    # stream carries P * (beta1 / alpha1)**2 of b1 on top of the noise.
    # Each point's N * mse_a1 is then (sigma^2 + leak) * chi2_N.  The
    # sweep's signal path must keep that leak: a sweep that summed the
    # noise path alone would read about sigma^2 = 2 at 1e22, not about
    # 402.  2 points x 2 tails share a 1e-9 total false-alarm rate.
    plan = dataclasses.replace(
        ref_plan, lambda_phase1=ref_plan.lambda_phase1 * (1 + 5e-10))
    G1 = phase_matrices(ref_channel, plan)[0]
    (sigma_sq, _), _ = analytic_noise_variances(ref_channel, plan)
    trials, n = 3, 2000
    x = math.log(4 / 1e-9)
    for s in sweep_power_grid(ref_channel, plan, (1e3, 1e22), n, trials, seed=0):
        want = sigma_sq + s.P * (G1.beta1 / G1.alpha1) ** 2
        below, above = laurent_massart_deviations(np.array([want]), trials * n, x)
        deviation = trials * n * (s.mse_a1 - want)
        assert -below <= deviation <= above, (s.P, s.mse_a1, want)
    assert 300 <= want <= 500  # the leak dominates at 1e22


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), slots=st.integers(1, 60),
       scale=st.sampled_from((1.0, 1e6, 1e11)))
def test_chain_splits_into_signal_and_noise(seed, slots, scale):
    # sweep_power_grid runs a tile's symbols and its noise through the
    # chain separately and adds their decoded errors at each power, which
    # holds only while the chain is linear in (symbols, noise).  Sample k
    # of (x, z) must equal (x, 0) plus (0, z) to within a few ulps of M_k,
    # the chain run on absolute gains, coefficients and inputs, which
    # bounds every intermediate of sample k.  A relay that is not linear,
    # say one normalised by its received power, fails here.
    ch = sample_channel(seed)
    plan = plan_achievability(ch)
    rng = np.random.default_rng(seed)
    mu, lam = alphabet_schedule(ch, plan, slots, rng)
    symbols = rng.standard_normal((2, slots)) * scale
    noise = rng.standard_normal((4, slots))

    def chain(ch, mu, lam, x, z):
        return _chain(ch, mu, lam, *x, *z.copy(), *np.empty((2, slots)))[:2]

    whole = chain(ch, mu, lam, symbols, noise)
    signal = chain(ch, mu, lam, symbols, np.zeros_like(noise))
    split = chain(ch, mu, lam, np.zeros_like(symbols), noise)
    bound = chain(ChannelRealization(*np.abs(ch.gains())), np.abs(mu),
                  np.abs(lam), np.abs(symbols), np.abs(noise))
    for y, s, z, m in zip(whole, signal, split, bound):
        assert np.all(np.abs(y - (s + z)) <= 16 * np.finfo(float).eps * m)


@settings(max_examples=25, deadline=None)
@given(grid=st.lists(st.floats(1.0, 1e12), min_size=1, max_size=4),
       n=st.integers(1, 40), trials=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_point_is_its_grid_of_one(grid, n, trials, seed):
    # Point i of a sweep equals run_scheme_trials at grid[i] and the same
    # seed, bit for bit, whatever the other powers.
    ch = reference_channel()
    plan = plan_achievability(ch)
    points = sweep_power_grid(ch, plan, grid, n, trials, seed)
    assert points == [run_scheme_trials(ch, plan, P, n, trials, seed)
                      for P in grid]


def test_noiseless_reconstruction_at_extreme_power(ref_channel, ref_plan):
    # Round trip stays exact (1e-9 relative) for symbols up to sqrt(P),
    # P = 1e12.
    P = 1e12
    worst = max(noiseless_decode_mse(ref_channel, ref_plan, P, 500, seed=8))
    assert math.sqrt(worst) <= 1e-9 * math.sqrt(P)


def test_relay_power_zero_schedule(ref_channel):
    # All-zero coefficients silence both relays, relay noise included.  The
    # second hop of the reference channel is invertible, so each destination
    # hears exactly its own noise only if both relays send zero.
    mu, lam = schedule_from_pairs(((0.0, 0.0),) * 10)
    y1, y2 = chain_block(ref_channel, mu, lam, np.ones((10, 2)), noise_seed=0)
    _, _, zd1, zd2 = sweep_noise(0, 10)
    assert np.array_equal(y1, zd1) and np.array_equal(y2, zd2)


def test_relay_power_reference_ratio(ref_channel, ref_plan):
    # On the reference gains h_s1u^2 + h_s2u^2 = 5 and h_s1v^2 + h_s2v^2 = 10:
    # relay u sends c^2 (5 P + 1) in every phase, and relay v, silent in
    # phase 3, averages (lambda_1^2 + lambda_2^2) / 3 * (10 P + 1).
    c = ref_plan.c
    lam_sq_mean = (ref_plan.lambda_phase1 ** 2 + ref_plan.lambda_phase2 ** 2) / 3.0
    for P in (1.0, 1e3, 1e6):
        (u1, v1), (u2, v2), (u3, v3) = relay_powers(ref_channel, ref_plan, P)
        assert u1 == u2 == u3 == pytest.approx(5 * c * c * P + c * c, rel=1e-12)
        assert v3 == 0.0
        assert (v1 + v2 + v3) / 3 == pytest.approx(lam_sq_mean * (10 * P + 1),
                                                   rel=1e-12)


def test_relay_power_within_constraint(ref_channel, ref_plan):
    for P in (1.0, 1e3, 1e6):
        phases = relay_powers(ref_channel, ref_plan, P)
        assert max(map(max, phases)) <= P * (1 + 1e-12)


@pytest.mark.parametrize("P", [1.0, 1e3])
def test_relay_powers_match_monte_carlo(ref_channel, ref_plan, P):
    # Each relay's sum of squares over N blocks is a Gaussian quadratic form:
    # N copies of one block's three samples, whose covariance is
    # g_i g_j (P h_s1^2 [x1 shared] + P h_s2^2 [x2 shared] + delta_ij), since
    # slots 1 and 3 share x1 = a1 and slots 2 and 3 share x2 = b2.  It is
    # therefore a chi-square sum weighted by that covariance's eigenvalues,
    # and its mean must be N times the sum of relay_powers' phase moments.
    # 2 powers x 2 relays x 2 tails share a 1e-9 total false-alarm rate.
    ch, n = ref_channel, 100_000
    x = math.log(8 / 1e-9)
    shared1 = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    shared2 = np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1]])
    mu, lam = scheme_schedule(ref_plan, n)
    rng = np.random.default_rng(12)
    a1, a2, b1, b2 = rng.standard_normal((4, n)) * math.sqrt(P)
    x1 = np.stack([a1, a2, a1], axis=1).ravel()
    x2 = np.stack([b1, b2, b2], axis=1).ravel()
    noise = rng.standard_normal((4, 3 * n))
    _, _, xu, xv = _chain(ch, mu, lam, x1, x2, *noise,
                          *np.empty((2, 3 * n)))
    moments = np.array(relay_powers(ch, ref_plan, P))
    gains = np.array(ref_plan.phase_pairs())
    for k, (xr, h1, h2) in enumerate(((xu, ch.h_s1u, ch.h_s2u),
                                      (xv, ch.h_s1v, ch.h_s2v))):
        g = gains[:, k]
        cov = np.outer(g, g) * (P * h1 ** 2 * shared1 + P * h2 ** 2 * shared2
                                + np.eye(3))
        below, above = laurent_massart_deviations(np.linalg.eigvalsh(cov), n, x)
        deviation = float(xr @ xr) - n * moments[:, k].sum()
        assert -below <= deviation <= above, (k, deviation, below, above)


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


def test_chain_leaves_symbols_unchanged(ref_channel, ref_plan):
    # The chain works in place over its noise and scratch arrays; x1 and x2
    # are only read, which sweep_power_grid relies on when its signal path
    # reads a tile's symbols and then subtracts them from their decoding.
    mu, lam = alphabet_schedule(ref_channel, ref_plan, 60,
                                np.random.default_rng(2))
    symbols = np.random.default_rng(3).normal(size=(2, 60))
    before = symbols.copy()

    def run():
        return _chain(ref_channel, mu, lam, *symbols, *sweep_noise(4, 60),
                      *np.empty((2, 60)))

    first = run()
    assert np.array_equal(symbols, before)
    assert all(np.array_equal(a, b) for a, b in zip(first, run()))


def test_slope_fit_exact_line():
    rates = [(P, (4.0 / 3.0) * 0.5 * math.log2(P) + 7.0)
             for P in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)]
    fit = estimate_dof_slope(rates)
    assert fit.slope == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(7.0, abs=1e-9)
    assert fit.residual <= 1e-9


def test_slope_fit_is_closed_form_ols(monkeypatch):
    # The fit is the closed form of its docstring, summed by math.fsum: it
    # runs with numpy's least-squares drivers gone, agrees with np.polyfit,
    # and is exact on a line where every step is exact.
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(200):
        m = int(rng.integers(4, 10))
        lo = rng.uniform(0, 3)
        hi = lo + rng.uniform(4, 6)
        powers = 10 ** np.sort(np.r_[lo, hi, rng.uniform(lo, hi, m - 2)])
        x = 0.5 * np.log2(powers)
        rates = rng.uniform(0.5, 2) * x + rng.uniform(1, 5) + rng.normal(0, 0.1, m)
        cases.append((list(zip(powers, rates)), np.polyfit(x, rates, 1)))

    def unavailable(*args, **kwargs):
        raise AssertionError("the slope fit must not call numpy's least squares")

    monkeypatch.setattr(np, "polyfit", unavailable)
    monkeypatch.setattr(np.linalg, "lstsq", unavailable)
    for rates, (slope, intercept) in cases:
        fit = estimate_dof_slope(rates)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)
    # P = 4**x gives x = 0, ..., 7 exactly: 4.2 decades.
    fit = estimate_dof_slope([(4.0 ** x, 3.0 * x - 7.0) for x in range(8)])
    assert (fit.slope, fit.intercept, fit.residual) == (3.0, -7.0, 0.0)


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
    # Every purpose, the sweep's one key per seed included, over 100
    # adjacent seeds, against sample_channel's default_rng(s) for the same
    # seeds: no two generators start with the same draws.  The wide seeds
    # s + p * 2**128 spell seed s's words followed by purpose p's.  Keyed
    # streams are SFC64 and default_rng's are PCG64, so none can replay
    # sample_channel's.
    purposes = (SWEEP, FUZZ, LEMMA, SAMPLE_CONDITIONS)
    firsts = []
    for seed in range(100):
        firsts += [np.random.default_rng(seed + p * 2 ** 128).standard_normal(4)
                   for p in purposes]
        keyed = [keyed_rng(p, seed) for p in purposes]
        assert all(type(g.bit_generator) is np.random.SFC64 for g in keyed)
        firsts += [g.standard_normal(4) for g in keyed]
    assert len({f.tobytes() for f in firsts}) == len(firsts) == 100 * 8


def test_adjacent_seeds_do_not_share_sweep_points(ref_channel, ref_plan):
    # Every power of a sweep reads the sweep's one stream, so at a repeated
    # power its two points are equal; adjacent seeds read distinct streams.
    one = sweep_power_grid(ref_channel, ref_plan, (1e3, 1e3), 50, 2, seed=1)
    two = sweep_power_grid(ref_channel, ref_plan, (1e3, 1e3), 50, 2, seed=2)
    assert one[0] == one[1]
    assert one[0] != two[0]
    # A bare power is the grid of one.
    assert run_scheme_trials(ref_channel, ref_plan, 1e3, 50, 2, seed=1) == one[0]


@pytest.mark.parametrize("seed", [-1], ids=["negative-seed"])
def test_keyed_rng_rejects_keys_outside_its_words(seed):
    with pytest.raises(ValueError):
        keyed_rng(SWEEP, seed)
