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
    EndToEndMatrix,
    ImpossiblePattern,
    SingularCovariance,
    StateCensus,
    StateLabel,
    bound_slopes,
    census,
    check_lemma2,
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
from afdof.bounds import _LABELS, _label_ids, random_spd
from afdof.scheme import COEF_TOL
from conftest import schedule_from_pairs


def G(entries) -> EndToEndMatrix:
    a1, b1, a2, b2 = entries
    return EndToEndMatrix(alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)


def label_id(matrix: EndToEndMatrix) -> int:
    """The zero rule's label position for one matrix; -1 is impossible."""
    ids, _ = _label_ids(matrix)
    return int(ids)


@pytest.mark.parametrize("entries,label", [
    ((1, 1, 0, 1), StateLabel.A),
    ((1, 0, 1, 1), StateLabel.B),
    ((1, 1, 1, 1), StateLabel.C1),
    ((0, 1, 1, 1), StateLabel.C2),
    ((1, 1, 1, 0), StateLabel.C3),
    ((0, 0, 0, 0), StateLabel.ZERO),
])
def test_classify_patterns(entries, label):
    assert label_id(G(entries)) == _LABELS.index(label)


def test_classify_reference_phase1(ref_channel, ref_plan):
    c = ref_plan.c
    matrix = end_to_end(ref_channel, c, ref_plan.lambda_phase1)
    assert matrix.entries() == pytest.approx((-5 * c, 0.0, -4 * c, 2 * c))
    assert slot_states(ref_channel, schedule_from_pairs(
        [(c, ref_plan.lambda_phase1)])) == [StateLabel.B]


def test_classify_impossible_patterns():
    # Two or three zeros with a nonzero entry: no label, and census raises
    # for a scheduled pair (test_impossible_pattern_only_for_scheduled_pairs).
    assert label_id(G((0, 1, 1, 0))) == -1
    assert label_id(G((1, 0, 0, 0))) == -1


@pytest.mark.parametrize("factor,label", [(0.9, StateLabel.B),
                                          (1.1, StateLabel.C1)])
def test_state_labels_and_decoder_share_zero_rule(factor, label):
    # beta1 of the phase-1 matrix just inside or just outside the zero
    # tolerance: the label and the decoder must agree on which side it is.
    scale = 4.0
    G1 = G((scale, factor * COEF_TOL * scale, -scale, 2.0))
    G2, G3 = G((1.0, 2.0, 0.0, 1.0)), G((1.0, 1.0, 2.0, 1.0))
    assert label_id(G1) == _LABELS.index(label)
    if label is StateLabel.B:
        reconstruct_d1(1.0, 1.0, 1.0, G1, G2, G3)
    else:
        with pytest.raises(DegenerateCoefficients):
            reconstruct_d1(1.0, 1.0, 1.0, G1, G2, G3)


def test_census_achievability_schedule(ref_channel, ref_plan):
    for m in (1, 4, 33):
        sched = scheme_schedule(ref_plan, m)
        cens = census(ref_channel, sched)
        assert (cens.nB, cens.nA, cens.nC1) == (m, m, m)
        assert cens.nC2 == cens.nC3 == cens.nZero == 0
        assert cens.nC == m and cens.nS == 3 * m


def test_census_all_zero_schedule(ref_channel):
    sched = schedule_from_pairs(((0.0, 0.0),) * 12)
    cens = census(ref_channel, sched)
    assert cens.nZero == 12 and cens.nS == 0


def test_census_single_phase_schedule(ref_channel, ref_plan):
    pair = ref_plan.phase_pairs()[0]
    cens = census(ref_channel, schedule_from_pairs((pair,) * 9))
    assert cens.nB == 9


def test_census_counts_must_sum():
    with pytest.raises(ValueError):
        StateCensus(nA=1, nB=1, nC1=0, nC2=0, nC3=0, nZero=0, n=3)


def test_census_random_schedules_consistent(ref_channel, ref_plan):
    # Classifying each distinct pair once must give the per-slot labels of
    # the ratio-map oracle, which never forms the matrix.
    rng = np.random.default_rng(123)
    for _ in range(25):
        sched = random_schedule(ref_channel, ref_plan, 60, rng)
        assert slot_states(ref_channel, sched) == [
            ratio_map_label(ref_channel, mu, lam)
            for mu, lam in zip(sched.mu.tolist(), sched.lam.tolist())]
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
    scaled = schedule_from_pairs(np.column_stack([s * sched.mu,
                                                    s * sched.lam]))
    assert slot_states(ch, scaled) == slot_states(ch, sched)


def ratio_map_label(ch, mu, lam) -> StateLabel:
    # Entry e of end_to_end is mu * a_e + lam * b_e, so with both
    # coefficients nonzero it vanishes exactly when lam / mu = -a_e / b_e.
    if mu == 0.0 and lam == 0.0:
        return StateLabel.ZERO
    if mu == 0.0 or lam == 0.0:
        return StateLabel.C1
    a = (ch.h_ud1 * ch.h_s1u, ch.h_ud1 * ch.h_s2u,
         ch.h_ud2 * ch.h_s1u, ch.h_ud2 * ch.h_s2u)
    b = (ch.h_vd1 * ch.h_s1v, ch.h_vd1 * ch.h_s2v,
         ch.h_vd2 * ch.h_s1v, ch.h_vd2 * ch.h_s2v)
    hits = [e for e in range(4)
            if math.isclose(lam / mu, -a[e] / b[e], rel_tol=1e-9)]
    assert len(hits) <= 1, (mu, lam, hits)
    if not hits:
        return StateLabel.C1
    return (StateLabel.C2, StateLabel.B, StateLabel.A, StateLabel.C3)[hits[0]]


def test_slot_states_match_critical_ratio_map():
    # The grid-table labels against an oracle that never forms the matrix.
    for seed in range(100):
        ch = sample_channel(seed)
        plan = plan_achievability(ch)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            sched = random_schedule(ch, plan, 100, rng)
            assert slot_states(ch, sched) == [
                ratio_map_label(ch, mu, lam)
                for mu, lam in zip(sched.mu.tolist(), sched.lam.tolist())]


def test_impossible_pattern_only_for_scheduled_pairs():
    # Every gain 1 except h_vd2 = 2: alpha1 = beta1 = mu + lam and
    # alpha2 = beta2 = mu + 2 lam, so (1, -1) zeroes two entries and
    # (2, -1) the other two; (1, 1) and (2, 1) are C1.
    ch = ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0)
    alphabet = AfAlphabet(U=(1.0, 2.0), V=(1.0, -1.0))
    fine = AfSchedule(alphabet, np.array([[0, 0], [1, 0], [0, 0]]))
    assert slot_states(ch, fine) == [StateLabel.C1] * 3
    two_zeros = AfSchedule(alphabet, np.array([[0, 0], [0, 1]]))
    with pytest.raises(ImpossiblePattern, match=r"pair \(1.0, -1.0\): 2 zero"):
        census(ch, two_zeros)
    all_zero = ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ImpossiblePattern, match=r"pair \(1.0, -1.0\): 4 zero"):
        census(all_zero, two_zeros)


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


def test_evaluate_bounds_balanced_census():
    cens = StateCensus(nA=10, nB=10, nC1=10, nC2=0, nC3=0, nZero=0, n=30)
    assert bound_slopes(cens) == pytest.approx((4 / 3, 4 / 3, 4 / 3))


def test_evaluate_bounds_unbalanced_census():
    # Distinct |A|, |B| and |C| tell the slopes apart: bound 1 is
    # 1 + |C|/n, bound 2 is 1 + |B|/n and bound 3 is 1 + |A|/n.
    cens = StateCensus(nA=1, nB=2, nC1=3, nC2=0, nC3=0, nZero=0, n=6)
    assert bound_slopes(cens) == pytest.approx((1 + 3 / 6, 1 + 2 / 6, 1 + 1 / 6))


def test_evaluate_bounds_empty_c_set():
    cens = StateCensus(nA=15, nB=15, nC1=0, nC2=0, nC3=0, nZero=0, n=30)
    assert bound_slopes(cens) == pytest.approx((1.0, 1.5, 1.5))


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
    for bad in ([[math.nan]], [[math.inf]], [[1.0, math.nan], [math.nan, 1.0]]):
        with pytest.raises(ValueError, match="finite"):
            gaussian_entropy(bad)
    with pytest.raises(ValueError, match="finite"):
        gaussian_entropy(np.stack([np.eye(2), np.full((2, 2), math.inf)]))


def test_gaussian_entropy_stack_matches_single():
    rng = np.random.default_rng(5)
    stack = np.stack([random_spd(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
    h = gaussian_entropy(stack)
    assert h.shape == (2, 3)
    assert h.tolist() == [[gaussian_entropy(c) for c in row] for row in stack]
    assert isinstance(gaussian_entropy(stack[0, 0]), float)
    with pytest.raises(SingularCovariance):
        gaussian_entropy(np.stack([np.eye(2), np.ones((2, 2))]))


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


def stacks(instances):
    return [np.stack(arrays) for arrays in zip(*instances)]


def test_lemma2_stack_matches_single_calls():
    rng = np.random.default_rng(11)
    instances = [random_lemma2_instance(rng, max_dim=4) for _ in range(120)]
    dims = {inst[0].shape[0] for inst in instances}
    assert dims == {1, 2, 3, 4}
    for d in dims:
        group = [inst for inst in instances if inst[0].shape[0] == d]
        lhs, rhs, holds = check_lemma2(*stacks(group))
        assert lhs.shape == rhs.shape == holds.shape == (len(group),)
        for inst, l, r, h in zip(group, lhs, rhs, holds):
            single = check_lemma2(*inst)
            assert type(single[0]) is float and type(single[2]) is bool
            assert l == pytest.approx(single[0], rel=1e-12, abs=1e-12)
            assert r == pytest.approx(single[1], rel=1e-12, abs=1e-12)
            assert h == single[2]


def test_lemma2_stack_with_degenerate_member():
    # One member with Y = Z almost surely makes the whole stack singular;
    # one at a time, only that member is.
    rng = np.random.default_rng(2)
    group = [random_lemma2_instance(rng, max_dim=1) for _ in range(5)]
    group[2] = (*group[2][:3], np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularCovariance):
        check_lemma2(*stacks(group))
    singular = []
    for k, inst in enumerate(group):
        try:
            check_lemma2(*inst)
        except SingularCovariance:
            singular.append(k)
    assert singular == [2]


def test_lemma2_random_instances_hold():
    rng = np.random.default_rng(77)
    for _ in range(150):
        M, Mp, cov_x, cov_yz = random_lemma2_instance(rng, max_dim=4)
        lhs, rhs, holds = check_lemma2(M, Mp, cov_x, cov_yz)
        assert holds, (lhs, rhs)


def test_lemma2_shape_validation():
    with pytest.raises(ValueError):
        check_lemma2(np.eye(2), np.eye(2), np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        check_lemma2(np.ones((2, 1, 1)), np.ones((3, 1, 1)),
                     np.ones((2, 1, 1)), np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        check_lemma2(np.ones((2, 1, 1)), np.ones((2, 1, 1)),
                     np.ones((2, 1, 1)), np.eye(2))
    args = [[[1.0]], [[1.0]], [[1.0]], np.eye(2)]
    for position, name in enumerate(("M", "Mp", "cov_x", "cov_yz")):
        for value in (math.nan, math.inf):
            bad = list(args)
            bad[position] = np.where(np.eye(len(args[position])) > 0, value, 0.0)
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                check_lemma2(*bad)
    with pytest.raises(SingularCovariance):
        check_lemma2([[0.0]], [[1.0]], [[1.0]], np.eye(2))


def test_random_schedule_reaches_every_state(ref_channel, ref_plan):
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(20):
        sched = random_schedule(ref_channel, ref_plan, 120, rng)
        seen.update(slot_states(ref_channel, sched))
    assert seen == set(StateLabel)
