import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afdof import (
    AfAlphabet,
    AfSchedule,
    DegenerateCoefficients,
    EndToEndMatrix,
    ImpossiblePattern,
    InvalidPower,
    SingularCovariance,
    StateCensus,
    StateLabel,
    achievable_rate,
    analytic_noise_variances,
    bound_constants,
    census,
    check_lemma2,
    classify_state,
    evaluate_bounds,
    gaussian_entropy,
    min_census_fraction,
    plan_achievability,
    random_lemma2_instance,
    random_schedule,
    reconstruct_d1,
    sample_channel,
    scheme_schedule,
    slot_states,
    end_to_end,
)
from afdof.scheme import COEF_TOL


def G(entries) -> EndToEndMatrix:
    a1, b1, a2, b2 = entries
    return EndToEndMatrix(alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)


@pytest.mark.parametrize("entries,label", [
    ((1, 1, 0, 1), StateLabel.A),
    ((1, 0, 1, 1), StateLabel.B),
    ((1, 1, 1, 1), StateLabel.C1),
    ((0, 1, 1, 1), StateLabel.C2),
    ((1, 1, 1, 0), StateLabel.C3),
    ((0, 0, 0, 0), StateLabel.ZERO),
])
def test_classify_patterns(entries, label):
    assert classify_state(G(entries)) is label


def test_classify_reference_phase1(ref_channel, ref_plan):
    c = ref_plan.c
    matrix = end_to_end(ref_channel, c, ref_plan.lambda_phase1)
    assert matrix.entries() == pytest.approx((-5 * c, 0.0, -4 * c, 2 * c))
    assert classify_state(matrix) is StateLabel.B


def test_classify_impossible_patterns():
    with pytest.raises(ImpossiblePattern):
        classify_state(G((0, 1, 1, 0)))
    with pytest.raises(ImpossiblePattern):
        classify_state(G((1, 0, 0, 0)))


@pytest.mark.parametrize("factor,label", [(0.9, StateLabel.B),
                                          (1.1, StateLabel.C1)])
def test_state_labels_and_decoder_share_zero_rule(factor, label):
    # beta1 of the phase-1 matrix just inside or just outside the zero
    # tolerance: the label and the decoder must agree on which side it is.
    scale = 4.0
    G1 = G((scale, factor * COEF_TOL * scale, -scale, 2.0))
    G2, G3 = G((1.0, 2.0, 0.0, 1.0)), G((1.0, 1.0, 2.0, 1.0))
    assert classify_state(G1) is label
    if label is StateLabel.B:
        reconstruct_d1(1.0, 1.0, 1.0, G1, G2, G3)
    else:
        with pytest.raises(DegenerateCoefficients):
            reconstruct_d1(1.0, 1.0, 1.0, G1, G2, G3)


def test_census_achievability_schedule(ref_channel, ref_plan):
    for m in (1, 4, 33):
        sched = scheme_schedule(ref_plan, m)[1:]
        cens = census(ref_channel, sched)
        assert (cens.nB, cens.nA, cens.nC1) == (m, m, m)
        assert cens.nC2 == cens.nC3 == cens.nZero == 0
        assert cens.nC == m and cens.nS == 3 * m


def test_census_all_zero_schedule(ref_channel):
    sched = AfSchedule.from_pairs(((0.0, 0.0),) * 12)
    cens = census(ref_channel, sched)
    assert cens.nZero == 12 and cens.nS == 0


def test_census_single_phase_schedule(ref_channel, ref_plan):
    pair = ref_plan.phase_pairs()[0]
    cens = census(ref_channel, AfSchedule.from_pairs((pair,) * 9))
    assert cens.nB == 9


def test_census_counts_must_sum():
    with pytest.raises(ValueError):
        StateCensus(nA=1, nB=1, nC1=0, nC2=0, nC3=0, nZero=0, n=3)


def test_census_random_schedules_consistent(ref_channel, ref_plan):
    # Classifying each distinct pair once must give the per-slot
    # classification.
    rng = np.random.default_rng(123)
    for _ in range(25):
        sched = random_schedule(ref_channel, ref_plan, 60, rng)
        assert slot_states(ref_channel, sched) == [
            StateLabel.ZERO if pair == (0.0, 0.0)
            else classify_state(end_to_end(ref_channel, *pair))
            for pair in zip(sched.mu.tolist(), sched.lam.tolist())]
        cens = census(ref_channel, sched)
        assert cens.n == 60


@settings(max_examples=200)
@given(seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=-20, max_value=20))
def test_slot_states_scale_invariant(seed, k):
    # Scaling every (mu, lam) by a power of two scales each end-to-end entry
    # exactly, so no label may change.
    ch = sample_channel(seed)
    sched = random_schedule(ch, plan_achievability(ch), 60,
                            np.random.default_rng(seed))
    s = 2.0 ** k
    scaled = AfSchedule.from_pairs(np.column_stack([s * sched.mu,
                                                    s * sched.lam]))
    assert slot_states(ch, scaled) == slot_states(ch, sched)


def test_random_schedule_draw_order(ref_channel, ref_plan):
    # One (n, 2) index draw must replay the interleaved scalar draws (u index,
    # then v index, slot by slot) so seeded fuzz schedules stay the same.
    for seed in (0, 1, 7):
        sched = random_schedule(ref_channel, ref_plan, 300,
                                np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        u_vals, v_vals = sched.alphabet.U, sched.alphabet.V
        assert v_vals[-1] == float(rng.uniform(0.2, 2.0))
        pairs = tuple((u_vals[i], v_vals[j]) for i, j in sched.index.tolist())
        assert pairs == tuple(
            (u_vals[int(rng.integers(2))], v_vals[int(rng.integers(6))])
            for _ in range(300))


def test_bound_constants_reference(ref_channel):
    constants = bound_constants(ref_channel, AfAlphabet(U=(1.0,), V=(0.0,)))
    assert constants.M_ij == ((1.0, 4.0), (4.0, 16.0))
    assert constants.M == 16.0
    assert constants.N == 5.0


def test_bound_constants_zero_alphabet(ref_channel):
    constants = bound_constants(ref_channel, AfAlphabet(U=(0.0,), V=(0.0,)))
    assert constants.M == 0.0
    assert constants.N == 1.0


@settings(max_examples=40)
@given(t=st.floats(min_value=0.01, max_value=100, allow_nan=False))
def test_bound_constants_scaling(t):
    ch = sample_channel(11)
    base = bound_constants(ch, AfAlphabet(U=(0.5, 1.0), V=(0.25, -1.0)))
    scaled = bound_constants(ch, AfAlphabet(U=(0.5 * t, 1.0 * t),
                                            V=(0.25 * t, -1.0 * t)))
    assert scaled.M == pytest.approx(t * t * base.M, rel=1e-9)
    assert scaled.N - 1.0 == pytest.approx(t * t * (base.N - 1.0), rel=1e-9)


def test_evaluate_bounds_balanced_census(ref_channel, ref_plan):
    cens = StateCensus(nA=10, nB=10, nC1=10, nC2=0, nC3=0, nZero=0, n=30)
    constants = bound_constants(ref_channel, ref_plan.alphabet())
    ev = evaluate_bounds(cens, 1e6, constants)
    assert ev.slope_dof == pytest.approx((4 / 3, 4 / 3, 4 / 3))
    # P-dependent part: evaluating at two powers isolates the slope term
    ev2 = evaluate_bounds(cens, 1e8, constants)
    dx = 0.5 * (math.log2(1e8) - math.log2(1e6))
    assert ev2.bound1 - ev.bound1 == pytest.approx((4 / 3) * dx)
    assert ev2.bound2 - ev.bound2 == pytest.approx((4 / 3) * dx)
    assert ev2.bound3 - ev.bound3 == pytest.approx((4 / 3) * dx)


def test_evaluate_bounds_empty_c_set(ref_channel, ref_plan):
    cens = StateCensus(nA=15, nB=15, nC1=0, nC2=0, nC3=0, nZero=0, n=30)
    constants = bound_constants(ref_channel, ref_plan.alphabet())
    ev_lo = evaluate_bounds(cens, 1e6, constants)
    ev_hi = evaluate_bounds(cens, 1e8, constants)
    assert ev_lo.slope_dof[0] == pytest.approx(1.0)
    dx = 0.5 * (math.log2(1e8) - math.log2(1e6))
    assert ev_hi.bound1 - ev_lo.bound1 == pytest.approx(dx)


def test_evaluate_bounds_validates_power(ref_channel, ref_plan):
    cens = StateCensus(nA=1, nB=1, nC1=1, nC2=0, nC3=0, nZero=0, n=3)
    constants = bound_constants(ref_channel, ref_plan.alphabet())
    for P in (0.5, math.nan, math.inf):
        with pytest.raises(InvalidPower):
            evaluate_bounds(cens, P, constants)


def test_achieved_rate_below_all_bounds(ref_channel, ref_plan):
    sched = scheme_schedule(ref_plan, 100)[1:]
    cens = census(ref_channel, sched)
    constants = bound_constants(ref_channel, ref_plan.alphabet())
    ev = evaluate_bounds(cens, 1e9, constants)
    v1, v2 = analytic_noise_variances(ref_channel, ref_plan)
    achieved = achievable_rate(1e9, *v1) + achievable_rate(1e9, *v2)
    assert achieved <= ev.bound1
    assert achieved <= ev.bound2
    assert achieved <= ev.bound3


def test_min_census_fraction_examples():
    even = StateCensus(nA=10, nB=10, nC1=10, nC2=0, nC3=0, nZero=0, n=30)
    assert min_census_fraction(even) == ("A", pytest.approx(1 / 3))
    lopsided = StateCensus(nA=30, nB=0, nC1=0, nC2=0, nC3=0, nZero=0, n=30)
    assert min_census_fraction(lopsided) == ("B", 0.0)


@given(counts=st.lists(st.integers(min_value=0, max_value=40),
                       min_size=6, max_size=6).filter(lambda c: sum(c) > 0))
def test_min_census_fraction_pigeonhole(counts):
    a, b, c1, c2, c3, z = counts
    cens = StateCensus(nA=a, nB=b, nC1=c1, nC2=c2, nC3=c3, nZero=z,
                       n=sum(counts))
    _, fraction = min_census_fraction(cens)
    assert fraction <= 1 / 3 + 1e-12


def test_gaussian_entropy_closed_forms():
    one_d = gaussian_entropy([[1.0]])
    assert one_d == pytest.approx(0.5 * math.log2(2 * math.pi * math.e))
    assert one_d == pytest.approx(2.0471, abs=1e-4)
    two_d = gaussian_entropy(2.0 * np.eye(2))
    assert two_d == pytest.approx(math.log2(2 * math.pi * math.e) + 1.0)


@given(t=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_gaussian_entropy_scaling(t):
    base = gaussian_entropy([[1.0]])
    assert gaussian_entropy([[t * t]]) == pytest.approx(base + math.log2(t),
                                                        rel=1e-9, abs=1e-9)


def test_gaussian_entropy_rejects_bad_input():
    with pytest.raises(SingularCovariance):
        gaussian_entropy(np.zeros((2, 2)))
    with pytest.raises(SingularCovariance):
        gaussian_entropy([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        gaussian_entropy([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(ValueError):
        gaussian_entropy(np.ones((2, 3)))


def test_lemma2_identity_case():
    # M = M' = I, X, Y, Z independent standard normals: the left side is 0
    # and the right side is h(Y - Z) - h(Z) = 1/2 bit.
    lhs, rhs, holds = check_lemma2([[1.0]], [[1.0]], [[1.0]], np.eye(2))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.5, abs=1e-12)
    assert holds


def test_lemma2_degenerate_difference():
    # Y = Z almost surely: the difference covariance collapses.
    cov_yz = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularCovariance):
        check_lemma2([[1.0]], [[1.0]], [[1.0]], cov_yz)


def test_lemma2_random_instances_hold():
    rng = np.random.default_rng(77)
    for _ in range(150):
        M, Mp, cov_x, cov_yz = random_lemma2_instance(rng, max_dim=4)
        lhs, rhs, holds = check_lemma2(M, Mp, cov_x, cov_yz)
        assert holds, (lhs, rhs)


def test_lemma2_shape_validation():
    with pytest.raises(ValueError):
        check_lemma2(np.eye(2), np.eye(2), np.eye(2), np.eye(3))
    with pytest.raises(SingularCovariance):
        check_lemma2([[0.0]], [[1.0]], [[1.0]], np.eye(2))


def test_random_schedule_reaches_every_state(ref_channel, ref_plan):
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(20):
        sched = random_schedule(ref_channel, ref_plan, 120, rng)
        seen.update(slot_states(ref_channel, sched))
    assert seen == set(StateLabel)
