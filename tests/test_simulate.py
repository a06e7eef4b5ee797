import math

import numpy as np
import pytest

from afdof import (
    AfSchedule,
    InsufficientGrid,
    InvalidPower,
    SimConfig,
    analytic_noise_variances,
    baseline_tdma_rate,
    end_to_end,
    estimate_dof_slope,
    fit_rate_report,
    plan_achievability,
    reconstruct_d1,
    reconstruct_d2,
    run_scheme_trial,
    run_scheme_trials,
    sample_channel,
    scheme_schedule,
    simulate_block,
    simulate_block_matrix,
    sweep_power_grid,
)
from afdof.bounds import random_schedule
from afdof.simulate import _TAG_DEST1, _TAG_DEST2, _TAG_SYMBOLS, _stream
from afdof.cli import (
    SCHEME_SLOPE_WINDOW,
    TDMA_SLOPE_WINDOW,
    USER_SLOPE_WINDOW,
)

GRID = (1e3, 10 ** 4.5, 1e6, 10 ** 7.5, 1e9)


def test_zero_noise_zero_symbols(ref_channel, ref_plan):
    sched = AfSchedule.from_pairs(ref_plan.phase_pairs() * 2)
    symbols = np.zeros((len(sched) - 1, 2))
    y1, y2 = simulate_block(ref_channel, sched, symbols, noise_seed=0,
                            noise_scale=0.0)
    assert not y1.any() and not y2.any()


def test_noiseless_phase1_slot(ref_channel, ref_plan):
    # One forwarded slot with phase-1 coefficients and unit symbols: d1 sees
    # only the (1,1) entry -5c, d2 sees -4c + 2c.
    pair = ref_plan.phase_pairs()[0]
    sched = AfSchedule.from_pairs((pair, pair))
    y1, y2 = simulate_block(ref_channel, sched, [[1.0, 1.0]], noise_seed=0,
                            noise_scale=0.0)
    c = ref_plan.c
    assert y1[1] == pytest.approx(-5 * c, rel=1e-12)
    assert y2[1] == pytest.approx(-2 * c, rel=1e-12)


def test_schedule_symbol_length_mismatch(ref_channel, ref_plan):
    sched = AfSchedule.from_pairs(ref_plan.phase_pairs())
    with pytest.raises(ValueError):
        simulate_block(ref_channel, sched, np.zeros((5, 2)), noise_seed=0)


@pytest.mark.parametrize("make_schedule", [
    lambda ch, plan, rng: random_schedule(ch, plan, 400, rng),
    lambda ch, plan, rng: scheme_schedule(plan, 133),
], ids=["random_schedule", "scheme_schedule"])
def test_chain_matches_matrix_shortcut(ref_channel, ref_plan, make_schedule):
    # Identical noise substreams: the two evaluation paths are mutual
    # oracles, sample for sample.
    rng = np.random.default_rng(5)
    sched = make_schedule(ref_channel, ref_plan, rng)
    symbols = rng.normal(0.0, 10.0, size=(len(sched) - 1, 2))
    y1a, y2a = simulate_block(ref_channel, sched, symbols, noise_seed=11)
    y1b, y2b = simulate_block_matrix(ref_channel, sched, symbols, noise_seed=11)
    scale = max(np.max(np.abs(y1a)), np.max(np.abs(y2a)), 1.0)
    assert np.max(np.abs(y1a - y1b)) <= 1e-12 * scale
    assert np.max(np.abs(y2a - y2b)) <= 1e-12 * scale


def test_block_simulation_matches_end_to_end_entries(ref_channel, ref_plan):
    # Received sample t must equal G(sched[t]) applied to symbols of t - 1
    # plus effective noise; with zero noise it is the pure matrix action.
    rng = np.random.default_rng(0)
    sched = random_schedule(ref_channel, ref_plan, 50, rng)
    symbols = rng.normal(size=(49, 2))
    y1, y2 = simulate_block(ref_channel, sched, symbols, noise_seed=0,
                            noise_scale=0.0)
    for t in (1, 7, 23, 49):
        G = end_to_end(ref_channel, sched.mu[t], sched.lam[t])
        want1 = G.alpha1 * symbols[t - 1, 0] + G.beta1 * symbols[t - 1, 1]
        assert y1[t] == pytest.approx(want1, rel=1e-12, abs=1e-15)
        want2 = G.alpha2 * symbols[t - 1, 0] + G.beta2 * symbols[t - 1, 1]
        assert y2[t] == pytest.approx(want2, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 7])
def test_trial_matches_matrix_decode(ref_channel, ref_plan, seed):
    # run_scheme_trial runs scheme_schedule through the chain; the matrix
    # oracle on that schedule, with the trial's symbols and noise streams,
    # must decode to the same stream errors.
    P, n = 100.0, 200
    rec = run_scheme_trial(ref_channel, ref_plan, P, n, seed=seed, trial=0)
    sym = _stream(seed, 0, _TAG_SYMBOLS).standard_normal((n, 4)) * math.sqrt(P)
    a1, a2, b1, b2 = sym.T
    symbols = np.stack([a1, b1, a2, b2, a1, b2], axis=1).reshape(3 * n, 2)
    y1, y2 = simulate_block_matrix(ref_channel, scheme_schedule(ref_plan, n),
                                   symbols, noise_seed=seed)
    G = [end_to_end(ref_channel, mu, lam) for mu, lam in ref_plan.phase_pairs()]
    a1_hat, a2_hat = reconstruct_d1(y1[1::3], y1[2::3], y1[3::3], *G)
    b1_hat, b2_hat = reconstruct_d2(y2[1::3], y2[2::3], y2[3::3], *G)
    want = [float(np.sum((hat - x) ** 2)) for hat, x in
            ((a1_hat, a1), (a2_hat, a2), (b1_hat, b1), (b2_hat, b2))]
    got = [rec.sq_err_a1, rec.sq_err_a2, rec.sq_err_b1, rec.sq_err_b2]
    assert got == pytest.approx(want, rel=1e-12)
    assert rec.n_triples == n


def test_trial_determinism(ref_channel, ref_plan):
    cfg = SimConfig(P=100.0, n_triples=50, trials=3, seed=9)
    first = run_scheme_trials(ref_channel, ref_plan, cfg)
    second = run_scheme_trials(ref_channel, ref_plan, cfg)
    assert first == second
    records = [run_scheme_trial(ref_channel, ref_plan, 100.0, 50, 9, t)
               for t in range(3)]
    assert records[0] != records[1]
    # The trials of run_scheme_trials share one schedule; each must equal
    # its standalone run_scheme_trial.
    assert first.mse_a1 == sum(r.sq_err_a1 for r in records) / 150
    assert first.mse_b2 == sum(r.sq_err_b2 for r in records) / 150


def test_mse_zero_noise(ref_channel, ref_plan):
    cfg = SimConfig(P=100.0, n_triples=200, trials=2, seed=1)
    s = run_scheme_trials(ref_channel, ref_plan, cfg, noise_scale=0.0)
    assert max(s.mse_a1, s.mse_a2, s.mse_b1, s.mse_b2) <= 1e-18 * 100.0


def test_mse_matches_analytic(ref_channel, ref_plan):
    cfg = SimConfig(P=100.0, n_triples=5000, trials=20, seed=3)
    s = run_scheme_trials(ref_channel, ref_plan, cfg)
    (s1, s2), (t1, t2) = analytic_noise_variances(ref_channel, ref_plan)
    assert s.mse_a1 == pytest.approx(s1, rel=0.02)
    assert s.mse_a2 == pytest.approx(s2, rel=0.02)
    assert s.mse_b1 == pytest.approx(t2, rel=0.02)  # combined stream decodes b1
    assert s.mse_b2 == pytest.approx(t1, rel=0.02)  # direct stream decodes b2


def test_mse_power_independent(ref_channel, ref_plan):
    lo = run_scheme_trials(ref_channel, ref_plan,
                           SimConfig(P=1e2, n_triples=5000, trials=10, seed=4))
    hi = run_scheme_trials(ref_channel, ref_plan,
                           SimConfig(P=1e6, n_triples=5000, trials=10, seed=5))
    for name in ("mse_a1", "mse_a2", "mse_b1", "mse_b2"):
        assert getattr(lo, name) == pytest.approx(getattr(hi, name), rel=0.05)


def test_noiseless_reconstruction_at_extreme_power(ref_channel, ref_plan):
    # Round trip stays exact (1e-9 relative) for symbols up to sqrt(P),
    # P = 1e12.
    P = 1e12
    rec = run_scheme_trial(ref_channel, ref_plan, P, 500, seed=8, trial=0,
                           noise_scale=0.0)
    worst = max(rec.sq_err_a1, rec.sq_err_a2, rec.sq_err_b1, rec.sq_err_b2)
    assert math.sqrt(worst / 500) <= 1e-9 * math.sqrt(P)


def test_relay_power_zero_schedule(ref_channel):
    # All-zero coefficients silence both relays, relay noise included.  The
    # second hop of the reference channel is invertible, so each destination
    # hears exactly its own noise only if both relays send zero.
    sched = AfSchedule.from_pairs(((0.0, 0.0),) * 10)
    y1, y2 = simulate_block(ref_channel, sched, np.ones((9, 2)), noise_seed=0)
    assert np.array_equal(y1, _stream(0, 0, _TAG_DEST1).standard_normal(10))
    assert np.array_equal(y2, _stream(0, 0, _TAG_DEST2).standard_normal(10))


def test_relay_power_reference_ratio(ref_channel, ref_plan):
    # u-relay second moment: c^2 ((h_s1u^2 + h_s2u^2) P + 1), so the ratio
    # to P converges to 5 c^2 on the reference gains.
    P = 1e6
    stats = run_scheme_trials(ref_channel, ref_plan,
                              SimConfig(P=P, n_triples=4000, trials=10, seed=2))
    pu, pv = stats.relay_pu, stats.relay_pv
    c = ref_plan.c
    assert pu / P == pytest.approx(5 * c * c, rel=0.01)
    lam_sq_mean = (ref_plan.lambda_phase1 ** 2 + ref_plan.lambda_phase2 ** 2) / 3.0
    assert pv / P == pytest.approx(10 * lam_sq_mean, rel=0.02)


def test_relay_power_within_constraint(ref_channel, ref_plan):
    for P in (1.0, 1e3):
        stats = run_scheme_trials(ref_channel, ref_plan,
                                  SimConfig(P=P, n_triples=500, trials=10, seed=6))
        assert stats.relay_pu <= P + 3 * stats.relay_pu_se
        assert stats.relay_pv <= P + 3 * stats.relay_pv_se


def test_simconfig_validation():
    with pytest.raises(InvalidPower):
        SimConfig(P=0.5, n_triples=1, trials=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(P=1.0, n_triples=0, trials=1, seed=0)


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
