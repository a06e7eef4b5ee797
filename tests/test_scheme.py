import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afdof import (
    AfAlphabet,
    AfSchedule,
    ChannelRealization,
    DegenerateCoefficients,
    InvalidPower,
    NonGenericChannel,
    achievable_rate,
    analytic_noise_variances,
    baseline_tdma_rate,
    effective_noise_variance,
    end_to_end,
    plan_achievability,
    reconstruct_d1,
    reconstruct_d2,
    sample_channel,
    scheme_schedule,
)
from afdof.bounds import StateLabel, slot_states
from conftest import REFERENCE_GAINS, reference_channel, schedule_from_pairs

# Closed-form plan constants for the reference channel.
REF_C = 1.0 / (2.0 * math.sqrt(11.0))


def ref_phase_entries(c: float) -> dict:
    """Hand-substituted end-to-end entries of the three phases."""
    return {
        1: (-5 * c, 0.0, -4 * c, 2 * c),
        2: (-c, 4 * c / 3, 0.0, 10 * c / 3),
        3: (c, 2 * c, 2 * c, 4 * c),
    }


def test_plan_reference_values(ref_channel, ref_plan):
    assert ref_plan.l == pytest.approx(0.5)
    assert ref_plan.c == pytest.approx(REF_C, rel=1e-15)
    assert ref_plan.mu_all == ref_plan.c
    assert ref_plan.lambda_phase1 == pytest.approx(-2 * ref_plan.c, rel=1e-15)
    assert ref_plan.lambda_phase2 == pytest.approx(-2 * ref_plan.c / 3, rel=1e-15)
    assert ref_plan.lambda_phase3 == 0.0
    alphabet = ref_plan.alphabet()
    assert alphabet.U == (ref_plan.c,)
    assert set(alphabet.V) == {0.0, ref_plan.lambda_phase1, ref_plan.lambda_phase2}


def test_plan_rejects_nongeneric():
    gains = list(REFERENCE_GAINS)
    gains[1] = 0.0  # silences the s2 -> u path
    with pytest.raises(NonGenericChannel):
        plan_achievability(ChannelRealization(*gains))


def test_plan_nulls_the_targeted_entries(ref_channel, ref_plan):
    G1 = end_to_end(ref_channel, ref_plan.mu_all, ref_plan.lambda_phase1)
    G2 = end_to_end(ref_channel, ref_plan.mu_all, ref_plan.lambda_phase2)
    assert abs(G1.beta1) <= 1e-12 * G1.max_abs()
    assert abs(G2.alpha2) <= 1e-12 * G2.max_abs()


def test_plan_nulling_fuzz():
    # Smoke-sized slice of the 1e4-channel acceptance fuzz.
    for seed in range(300):
        ch = sample_channel(seed)
        plan = plan_achievability(ch)
        G1 = end_to_end(ch, plan.mu_all, plan.lambda_phase1)
        G2 = end_to_end(ch, plan.mu_all, plan.lambda_phase2)
        assert abs(G1.beta1) <= 1e-12 * G1.max_abs()
        assert abs(G2.alpha2) <= 1e-12 * G2.max_abs()
        # remaining coefficients of all three phases stay nonzero
        G3 = end_to_end(ch, plan.mu_all, plan.lambda_phase3)
        for value in (G1.alpha1, G1.alpha2, G1.beta2,
                      G2.alpha1, G2.beta1, G2.beta2) + G3.entries():
            assert abs(value) > 1e-9 * max(G1.max_abs(), G2.max_abs(), G3.max_abs())


def _pairs(sched):
    return list(zip(sched.mu.tolist(), sched.lam.tolist()))


def test_schedule_one_period(ref_plan):
    # One block is phases 1, 2, 3.
    phases = list(ref_plan.phase_pairs())
    assert _pairs(scheme_schedule(ref_plan, 1)) == phases


def test_scheme_schedule_periodic(ref_plan):
    # Slot k carries phase pair k mod 3, stored as narrow indices into the
    # plan's alphabet.
    sched = scheme_schedule(ref_plan, 5)
    phases = ref_plan.phase_pairs()
    assert len(sched) == 15 and sched.index.dtype == np.uint8
    assert sched.alphabet == ref_plan.alphabet()
    assert _pairs(sched) == [phases[k % 3] for k in range(15)]


def test_schedule_too_short(ref_plan):
    with pytest.raises(ValueError):
        scheme_schedule(ref_plan, 0)


def test_schedule_state_sequence(ref_channel, ref_plan):
    # Phase 1 nulls (1,2), phase 2 nulls (2,1), phase 3 has no zeros.
    labels = slot_states(ref_channel, scheme_schedule(ref_plan, 2))
    assert labels == [StateLabel.B, StateLabel.A, StateLabel.C1] * 2


def test_schedule_enforces_alphabet(ref_plan):
    # The plan's alphabet has one u value and three v values.
    alphabet = ref_plan.alphabet()
    for index in ([[0, 3]], [[1, 0]], [[-1, 0]], [[0, -1]], [0, 0],
                  [[0, 0, 0]], [[0.0, 1.0]], [[True, False]]):
        with pytest.raises(ValueError):
            AfSchedule(alphabet, np.array(index))
    assert len(AfSchedule(alphabet, np.array([[0, 2]] * 4))) == 4


def test_schedule_from_pairs():
    sched = schedule_from_pairs([(1.0, 0.5), (2.0, 0.5), (1.0, -1.0)])
    assert sched.alphabet == AfAlphabet(U=(1.0, 2.0), V=(0.5, -1.0))
    assert sched.index.tolist() == [[0, 0], [1, 0], [0, 1]]
    assert _pairs(sched) == [(1.0, 0.5), (2.0, 0.5), (1.0, -1.0)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1], ids=["mu", "lam"])
def test_schedule_rejects_nonfinite(column, value):
    # Every schedule is built over an AfAlphabet, whose finite check rejects
    # the pair before any census or simulation can see it.
    pair = [0.5, -0.25]
    pair[column] = value
    with pytest.raises(ValueError, match="finite"):
        schedule_from_pairs([tuple(pair)] * 3)
    with pytest.raises(ValueError, match="finite"):
        AfSchedule(AfAlphabet(U=(pair[0],), V=(pair[1],)),
                   np.zeros((3, 2), dtype=int))


def test_alphabet_must_be_nonempty():
    with pytest.raises(ValueError):
        AfAlphabet(U=(), V=(0.0,))


def _ref_G(ref_channel, ref_plan):
    return tuple(end_to_end(ref_channel, mu, lam)
                 for mu, lam in ref_plan.phase_pairs())


def test_reconstruct_noiseless_exact(ref_channel, ref_plan):
    G1, G2, G3 = _ref_G(ref_channel, ref_plan)
    a1, a2, b1, b2 = 1.0, -2.0, 5.0, 3.0
    y11 = G1.alpha1 * a1 + G1.beta1 * b1
    y12 = G2.alpha1 * a2 + G2.beta1 * b2
    y13 = G3.alpha1 * a1 + G3.beta1 * b2
    a1_hat, a2_hat = reconstruct_d1(y11, y12, y13, G1, G2, G3)
    assert a1_hat == pytest.approx(a1, rel=1e-12)
    assert a2_hat == pytest.approx(a2, rel=1e-12)

    y21 = G1.alpha2 * a1 + G1.beta2 * b1
    y22 = G2.alpha2 * a2 + G2.beta2 * b2
    y23 = G3.alpha2 * a1 + G3.beta2 * b2
    b1_hat, b2_hat = reconstruct_d2(y21, y22, y23, G1, G2, G3)
    assert b1_hat == pytest.approx(b1, rel=1e-12)
    assert b2_hat == pytest.approx(b2, rel=1e-12)


def test_reconstruct_zero_inputs(ref_channel, ref_plan):
    G1, G2, G3 = _ref_G(ref_channel, ref_plan)
    assert reconstruct_d1(0.0, 0.0, 0.0, G1, G2, G3) == (0.0, 0.0)
    assert reconstruct_d2(0.0, 0.0, 0.0, G1, G2, G3) == (0.0, 0.0)


def test_reconstruct_unit_noise_matches_hand_formula(ref_channel, ref_plan):
    # Unit noise on every slot, zero symbols: the decoded values must equal
    # the noise-combination coefficients, evaluated from the hand-derived
    # phase entries (-5c, 0, -4c, 2c), (-c, 4c/3, 0, 10c/3), (c, 2c, 2c, 4c).
    c = ref_plan.c
    p1, p2, p3 = (ref_phase_entries(c)[k] for k in (1, 2, 3))
    a11, b11, a21, b21 = p1
    a12, b12, a22, b22 = p2
    a13, b13, a23, b23 = p3

    G1, G2, G3 = _ref_G(ref_channel, ref_plan)
    a1_hat, a2_hat = reconstruct_d1(1.0, 1.0, 1.0, G1, G2, G3)
    assert a1_hat == pytest.approx(1.0 / a11, rel=1e-12)
    expected_a2 = (1.0 / a12
                   - b12 / (a12 * b13)
                   + (a13 * b12) / (a11 * a12 * b13))
    assert a2_hat == pytest.approx(expected_a2, rel=1e-12)

    b1_hat, b2_hat = reconstruct_d2(1.0, 1.0, 1.0, G1, G2, G3)
    assert b2_hat == pytest.approx(1.0 / b22, rel=1e-12)
    expected_b1 = (1.0 / b21
                   - a21 / (b21 * a23)
                   + (a21 * b23) / (b21 * a23 * b22))
    assert b1_hat == pytest.approx(expected_b1, rel=1e-12)


def test_reconstruct_rejects_degenerate_coefficients(ref_channel, ref_plan):
    G1, G2, G3 = _ref_G(ref_channel, ref_plan)
    bad_G3 = end_to_end(ref_channel, ref_plan.mu_all, ref_plan.lambda_phase1)
    with pytest.raises(DegenerateCoefficients):
        reconstruct_d1(1.0, 1.0, 1.0, G1, G2, bad_G3)  # beta1 of phase 1 is 0
    with pytest.raises(DegenerateCoefficients):
        reconstruct_d2(1.0, 1.0, 1.0, G1, G1, G3)  # alpha2 of phase 1 is nonzero


def test_analytic_variances_reference(ref_channel, ref_plan):
    c = ref_plan.c
    (s1, s2), (t1, t2) = analytic_noise_variances(ref_channel, ref_plan)
    assert s1 == pytest.approx((5 * c * c + 1) / (25 * c * c), rel=1e-12)

    # Independent evaluation from the hand-derived entries and per-phase
    # effective noise variances.
    v1 = [effective_noise_variance(ref_channel, mu, lam, 1)
          for mu, lam in ref_plan.phase_pairs()]
    v2 = [effective_noise_variance(ref_channel, mu, lam, 2)
          for mu, lam in ref_plan.phase_pairs()]
    p1, p2, p3 = (ref_phase_entries(c)[k] for k in (1, 2, 3))
    a11, _, a21, b21 = p1
    a12, b12, _, b22 = p2
    a13, b13, a23, b23 = p3
    want_s2 = (v1[1] / a12 ** 2
               + (b12 / (a12 * b13)) ** 2 * v1[2]
               + (a13 * b12 / (a11 * a12 * b13)) ** 2 * v1[0])
    assert s2 == pytest.approx(want_s2, rel=1e-12)
    want_t1 = v2[1] / b22 ** 2
    want_t2 = (v2[0] / b21 ** 2
               + (a21 / (b21 * a23)) ** 2 * v2[2]
               + (a21 * b23 / (b21 * a23 * b22)) ** 2 * v2[1])
    assert t1 == pytest.approx(want_t1, rel=1e-12)
    assert t2 == pytest.approx(want_t2, rel=1e-12)


def test_analytic_variances_reject_non_nulling_plan(ref_channel, ref_plan):
    # Phase 1 no longer cancels source 2 at destination 1, so the decoder
    # behind the variances has no clean first stream.
    plan = dataclasses.replace(ref_plan, lambda_phase1=1.01 * ref_plan.lambda_phase1)
    with pytest.raises(DegenerateCoefficients):
        analytic_noise_variances(ref_channel, plan)


def test_variances_exceed_destination_noise_floor():
    for seed in range(50):
        ch = sample_channel(seed)
        plan = plan_achievability(ch)
        (s1, s2), (t1, t2) = analytic_noise_variances(ch, plan)
        g1 = end_to_end(ch, plan.mu_all, plan.lambda_phase1).alpha1
        assert s1 >= 1.0 / g1 ** 2
        assert min(s1, s2, t1, t2) > 0


def test_achievable_rate_values():
    assert achievable_rate(1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
    want = (math.log2(26) + math.log2(5)) / 6.0
    assert achievable_rate(100.0, 4.0, 25.0) == pytest.approx(want)


def test_achievable_rate_asymptote():
    # rate minus (1/3) log2 P settles to a constant at large P
    gaps = [achievable_rate(P, 4.0, 25.0) - math.log2(P) / 3.0
            for P in (1e10, 1e12)]
    assert gaps[0] == pytest.approx(gaps[1], abs=1e-3)


def test_achievable_rate_validates_inputs():
    for P in (0.5, math.nan, math.inf):
        with pytest.raises(InvalidPower):
            achievable_rate(P, 1.0, 1.0)
    with pytest.raises(ValueError):
        achievable_rate(2.0, 0.0, 1.0)


def test_baseline_rates(ref_channel, ref_plan):
    r1, r2 = baseline_tdma_rate(ref_channel, 1.0, ref_plan)
    assert r1 > 0 and r2 > 0
    for P in (0.5, math.nan, math.inf):
        with pytest.raises(InvalidPower):
            baseline_tdma_rate(ref_channel, P, ref_plan)
    # direct coefficient reading: user 1 sees the phase-1 (1,1) entry
    c = ref_plan.c
    v1 = effective_noise_variance(ref_channel, c, ref_plan.lambda_phase1, 1)
    want = 0.25 * math.log2(1.0 + 1e4 * (5 * c) ** 2 / v1)
    assert baseline_tdma_rate(ref_channel, 1e4, ref_plan)[0] == pytest.approx(want, rel=1e-12)
    # user 2 sees the phase-2 (2,2) entry 10c/3
    v2 = effective_noise_variance(ref_channel, c, ref_plan.lambda_phase2, 2)
    want = 0.25 * math.log2(1.0 + 1e4 * (10 * c / 3) ** 2 / v2)
    assert baseline_tdma_rate(ref_channel, 1e4, ref_plan)[1] == pytest.approx(want, rel=1e-12)


def test_baseline_crossover(ref_channel, ref_plan):
    (s1, s2), (t1, t2) = analytic_noise_variances(ref_channel, ref_plan)
    for P in (1e6, 1e7, 1e9):
        scheme = achievable_rate(P, s1, s2) + achievable_rate(P, t1, t2)
        tdma = sum(baseline_tdma_rate(ref_channel, P, ref_plan))
        assert tdma < scheme


@settings(max_examples=60)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_relay_power_budget_analytic(seed):
    # Second moment bound: mu^2 (h_s1u^2 + h_s2u^2 + 1) <= 1 for relay u,
    # lam^2 (h_s1v^2 + h_s2v^2 + 1) <= 1 for relay v, every alphabet value.
    ch = sample_channel(seed)
    plan = plan_achievability(ch)
    su = ch.h_s1u ** 2 + ch.h_s2u ** 2 + 1.0
    sv = ch.h_s1v ** 2 + ch.h_s2v ** 2 + 1.0
    assert plan.mu_all ** 2 * su <= 1.0 + 1e-12
    for lam in plan.alphabet().V:
        assert lam ** 2 * sv <= 1.0 + 1e-12
