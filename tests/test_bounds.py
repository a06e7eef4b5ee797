import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afdof import (
    ChannelRealization,
    DegenerateCoefficients,
    EndToEndMatrix,
    ImpossiblePattern,
    NonGenericChannel,
    SingularCovariance,
    StateCensus,
    StateLabel,
    bound_slopes,
    analytic_noise_variances,
    check_lemma2,
    gaussian_entropy,
    min_census_fraction,
    plan_achievability,
    random_lemma2_stacks,
    reconstruct_d1,
    sample_channel,
    scheme_schedule,
    slot_states,
    end_to_end,
)
import afdof.bounds
import afdof.scheme
from afdof.bounds import (PROBE_OFFSETS, W_NORM_MAX, random_spd,
                          ratio_map_probe)
from afdof.channel import COEF_TOL, LABELS, label_ids, nulling_coefficients
from afdof.scheme import PhasePlan, phase_matrices
from conftest import alphabet_schedule, schedule_from_pairs


def G(entries) -> EndToEndMatrix:
    a1, b1, a2, b2 = entries
    return EndToEndMatrix(alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)


def label_id(matrix: EndToEndMatrix, mu=1.0, lam=1.0) -> int:
    """The zero rule's label position for one matrix seen with relay
    coefficients (mu, lam); -1 is impossible."""
    ids, _ = label_ids(matrix, mu, lam)
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
    # Both relays idle for the vanishing matrix, which is Zero only then.
    coef = 0.0 if label is StateLabel.ZERO else 1.0
    assert label_id(G(entries), coef, coef) == LABELS.index(label)


def test_classify_reference_phase1(ref_channel, ref_plan):
    c = ref_plan.c
    matrix = end_to_end(ref_channel, c, ref_plan.lambda_phase1)
    assert matrix.entries() == pytest.approx((-5 * c, 0.0, -4 * c, 2 * c))
    assert slot_states(ref_channel, *schedule_from_pairs(
        [(c, ref_plan.lambda_phase1)])) == [StateLabel.B]


def test_classify_impossible_patterns():
    # Two or three zeros with a nonzero entry: no label, and slot_states
    # raises for a scheduled pair (test_impossible_pattern_only_for_scheduled_pairs).
    assert label_id(G((0, 1, 1, 0))) == -1
    assert label_id(G((1, 0, 0, 0))) == -1
    # A matrix that vanishes is Zero only while both relays idle.
    for mu, lam in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.5)):
        assert label_id(G((0, 0, 0, 0)), mu, lam) == -1


def test_phase_check_and_census_agree_on_a_vanishing_matrix():
    # With the four second-hop gains zero, every pair's matrix vanishes, so
    # (1.0, 0.5), where both relays send, is impossible by the one zero
    # rule: to the scheme's phase check and to the census alike.
    ch = ChannelRealization(1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    plan = PhasePlan(c=1.0, l=1.0, lambda_phase1=0.5, lambda_phase2=-0.5)
    assert end_to_end(ch, 1.0, 0.5).entries() == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateCoefficients,
                       match="phase 1 is impossible, not B"):
        phase_matrices(ch, plan)
    with pytest.raises(ImpossiblePattern, match=r"pair \(1.0, 0.5\): 4 zero"):
        slot_states(ch, *scheme_schedule(plan, 1))


@pytest.mark.parametrize("factor,label,others", [
    pytest.param(0.9, StateLabel.B, 1.0, id="0.9-B"),
    pytest.param(1.1, StateLabel.C1, 1.0, id="1.1-C1"),
    pytest.param(0.9, StateLabel.B, 25.0, id="0.9-B-others-25x"),
    pytest.param(1.1, StateLabel.C1, 25.0, id="1.1-C1-others-25x"),
])
def test_state_labels_and_decoder_share_zero_rule(monkeypatch, ref_channel,
                                                  ref_plan, factor, label,
                                                  others):
    # beta1 of the phase-1 matrix just inside or just outside the zero
    # tolerance of its own matrix, with the other two phases at its scale
    # or about 25x larger: the label and the decoders' phase check must
    # agree on which side it is.
    scale = 4.0
    G1 = G((scale, factor * COEF_TOL * scale, -scale, 2.0))
    G2 = G((others, 2 * others, 0.0, others))
    G3 = G((others, others, 2 * others, others))
    phases = G(np.transpose([G1.entries(), G2.entries(), G3.entries()]))
    monkeypatch.setattr(afdof.scheme, "end_to_end", lambda ch, mu, lam: phases)
    assert label_id(G1) == LABELS.index(label)
    if label is StateLabel.B:
        assert phase_matrices(ref_channel, ref_plan) == (G1, G2, G3)
        reconstruct_d1(1.0, 1.0, 1.0, G1, G2, G3)
    else:
        with pytest.raises(DegenerateCoefficients, match="phase 1 is C1, not B"):
            phase_matrices(ref_channel, ref_plan)


# Each genericity determinant m11 m22 - m12 m21 of check_conditions, by its
# entries as functions of the gains, and the gain its m22 is proportional to.
DETERMINANTS = (
    ("s2v", lambda g: (g["s1u"], g["s2u"], g["s1v"], g["s2v"])),
    ("vd2", lambda g: (g["ud1"], g["vd1"], g["ud2"], g["vd2"])),
    ("vd2", lambda g: (g["ud1"] * g["s1u"], g["vd1"] * g["s1v"],
                       g["ud2"] * g["s2u"], g["vd2"] * g["s2v"])),
    ("vd2", lambda g: (g["ud1"] * g["s2u"], g["vd1"] * g["s2v"],
                       g["ud2"] * g["s1u"], g["vd2"] * g["s1v"])),
)


def near_boundary_channels(bases, ks):
    """Channels from default_rng(b)'s gains with one genericity determinant
    moved to 10^-k times check_conditions' scale for it, by rescaling the
    one gain its m22 entry is proportional to."""
    for b in bases:
        g = ChannelRealization(
            *np.random.default_rng(b).standard_normal(8).tolist()).to_dict()
        for k in ks:
            for key, entries in DETERMINANTS:
                m11, m12, m21, m22 = entries(g)
                scale = max(abs(m11), abs(m12)) * max(abs(m21), abs(m22))
                target = (m12 * m21 + 10.0 ** -k * scale) / m11
                yield ChannelRealization.from_dict({**g, key: g[key] * target / m22})


def test_phase_check_matches_census_near_genericity_boundaries():
    # Channels that pass genericity within COEF_TOL of a determinant
    # boundary may not decode, but the scheme's phase check and the census
    # must give the same verdict: the variances exist exactly when the
    # scheme's one-block schedule is labelled B, A, C1.
    planned, disagree = 0, []
    for ch in near_boundary_channels(range(10), range(6, 15)):
        try:
            plan = plan_achievability(ch)
        except NonGenericChannel:
            continue
        planned += 1
        try:
            labelled = slot_states(ch, *scheme_schedule(plan, 1)) == [
                StateLabel.B, StateLabel.A, StateLabel.C1]
        except ImpossiblePattern:
            labelled = False
        try:
            decodes = bool(analytic_noise_variances(ch, plan))
        except DegenerateCoefficients:
            decodes = False
        if labelled != decodes:
            disagree.append(ch)
    assert planned > 200 and disagree == []


def test_census_achievability_schedule(ref_channel, ref_plan):
    for m in (1, 4, 33):
        sched = scheme_schedule(ref_plan, m)
        cens = StateCensus.of(slot_states(ref_channel, *sched))
        assert (cens.nB, cens.nA, cens.nC1) == (m, m, m)
        assert cens.nC2 == cens.nC3 == cens.nZero == 0
        assert cens.nC == m and cens.n - cens.nZero == 3 * m


def test_census_all_zero_schedule(ref_channel):
    sched = schedule_from_pairs(((0.0, 0.0),) * 12)
    cens = StateCensus.of(slot_states(ref_channel, *sched))
    assert cens.nZero == 12 and cens.n - cens.nZero == 0


def test_census_single_phase_schedule(ref_channel, ref_plan):
    pair = ref_plan.phase_pairs()[0]
    cens = StateCensus.of(slot_states(
        ref_channel, *schedule_from_pairs((pair,) * 9)))
    assert cens.nB == 9


def test_census_counts_must_sum():
    with pytest.raises(ValueError):
        StateCensus(nA=1, nB=1, nC1=0, nC2=0, nC3=0, nZero=0, n=3)


@pytest.mark.parametrize("counts", [
    dict(nA=-1, nB=2, nC1=0, nC2=0, nC3=0, nZero=0, n=1),
    dict(nA=0, nB=0, nC1=0, nC2=0, nC3=0, nZero=0, n=0),
], ids=["negative-count", "empty"])
def test_census_counts_must_be_nonnegative_and_nonempty(counts):
    # Both censuses sum correctly, so only the range rule can refuse them.
    with pytest.raises(ValueError, match="nonnegative"):
        StateCensus(**counts)


@settings(max_examples=200)
@given(seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=-20, max_value=20))
def test_slot_states_scale_invariant(seed, k):
    # Scaling every (mu, lam) by a power of two scales each end-to-end entry
    # exactly, so no label may change.
    ch = sample_channel(seed)
    mu, lam = alphabet_schedule(ch, plan_achievability(ch), 60,
                                np.random.default_rng(seed))
    s = 2.0 ** k
    assert slot_states(ch, s * mu, s * lam) == slot_states(ch, mu, lam)


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


def test_slot_states_match_critical_ratio_map(ref_channel):
    # The zero rule's labels against an oracle that never forms the matrix:
    # 3 schedules of 100 slots on each of 100 sampled channels, and 25 of 60
    # on the reference channel.
    cases = [(sample_channel(seed), np.random.default_rng(seed), 3, 100)
             for seed in range(100)]
    cases.append((ref_channel, np.random.default_rng(123), 25, 60))
    for ch, rng, count, n in cases:
        plan = plan_achievability(ch)
        for _ in range(count):
            mu, lam = alphabet_schedule(ch, plan, n, rng)
            assert slot_states(ch, mu, lam) == [
                ratio_map_label(ch, *pair)
                for pair in zip(mu.tolist(), lam.tolist())]
            assert StateCensus.of(slot_states(ch, mu, lam)).n == n


def test_census_over_more_than_256_grid_pairs(ref_channel):
    # 306 slots, one per pair of a 17 x 18 grid whose last four mu values
    # each meet the four lam values that null their entries.  Slot by slot
    # against the ratio map.
    U = tuple(float(u) for u in range(17))
    V = (0.0, 1.0, *(lam for u in U[-4:]
                     for lam in nulling_coefficients(ref_channel, u)))
    mu, lam = schedule_from_pairs([(u, v) for u in U for v in V])
    want = [ratio_map_label(ref_channel, *pair)
            for pair in zip(mu.tolist(), lam.tolist())]
    states = slot_states(ref_channel, mu, lam)
    assert states == want
    assert astuple(StateCensus.of(states))[:6] == tuple(
        want.count(label) for label in LABELS)
    assert set(want) == set(StateLabel)


def test_impossible_pattern_only_for_scheduled_pairs():
    # Every gain 1 except h_vd2 = 2: alpha1 = beta1 = mu + lam and
    # alpha2 = beta2 = mu + 2 lam, so (1, -1) zeroes two entries and
    # (2, -1) the other two; (1, 1) and (2, 1) are C1.
    ch = ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0)
    fine = schedule_from_pairs([(1.0, 1.0), (2.0, 1.0), (1.0, 1.0)])
    assert slot_states(ch, *fine) == [StateLabel.C1] * 3
    two_zeros = schedule_from_pairs([(1.0, 1.0), (1.0, -1.0)])
    with pytest.raises(ImpossiblePattern, match=r"pair \(1.0, -1.0\): 2 zero"):
        slot_states(ch, *two_zeros)
    all_zero = ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ImpossiblePattern, match=r"pair \(1.0, -1.0\): 4 zero"):
        slot_states(all_zero, *two_zeros)


ONE_ZERO_STATES = (StateLabel.C2, StateLabel.B, StateLabel.A, StateLabel.C3)


def test_probe_walks_switch_once():
    # Along increasing offsets to either side of each critical value c r_e,
    # the zero rule and ratio_map_label each switch once, from entry e's
    # state to C1: the state at 1e-13, C1 at 1e-3.  The probe, whose map is
    # _ratio_map_ids, agrees that no pair breaks its rule.
    k = len(PROBE_OFFSETS)
    for seed in range(200):
        ch = sample_channel(seed)
        plan = plan_achievability(ch)
        pairs = [(plan.c, lam * (1.0 + side * d))
                 for lam in nulling_coefficients(ch, plan.c)
                 for side in (-1.0, 1.0) for d in PROBE_OFFSETS.tolist()]
        rules = (slot_states(ch, *schedule_from_pairs(pairs)),
                 [ratio_map_label(ch, mu, lam) for mu, lam in pairs])
        for walk in range(8):
            state = ONE_ZERO_STATES[walk // 2]
            for labels in rules:
                got = labels[walk * k:(walk + 1) * k]
                switch = got.count(state)
                assert 1 <= switch < k, (seed, walk, got)
                assert got == [state] * switch + [StateLabel.C1] * (k - switch)
        assert ratio_map_probe(ch, plan, ()).violations == 0, seed


def test_filler_inside_a_band_may_take_either_label():
    # Fillers 2e-9 above each critical value on channel 42: past the map's
    # rel_tol of 1e-9, but inside every band, where the zero rule may still
    # call the entry zero.  Each filler the two rules label differently is
    # a disagreement and no violation.
    ch = sample_channel(42)
    plan = plan_achievability(ch)
    fillers = [lam * (1.0 + 2e-9) for lam in nulling_coefficients(ch, plan.c)]
    differ = sum(slot_states(ch, *schedule_from_pairs([(plan.c, f)]))[0]
                 != ratio_map_label(ch, plan.c, f) for f in fillers)
    bare, probe = (ratio_map_probe(ch, plan, f) for f in ((), fillers))
    assert min(probe.band.values()) > 2e-9
    assert differ >= 1
    assert (probe.violations, probe.disagreements) == (
        0, bare.disagreements + differ)
    assert probe.probes == bare.probes + len(fillers)


@pytest.mark.parametrize("rel_tol", [1e-2, 1e-15], ids=["wide", "narrow"])
def test_probe_catches_a_map_off_the_walk(monkeypatch, rel_tol):
    # A map tolerance that reaches past 1e-3 leaves the walks' far ends at
    # entry e's state; one below 1e-13 leaves their near ends at C1.
    monkeypatch.setattr(afdof.bounds, "RATIO_MAP_REL_TOL", rel_tol)
    ch = sample_channel(42)
    assert ratio_map_probe(ch, plan_achievability(ch), ()).violations > 0


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
    stack = random_spd(rng, (2, 3, 3))
    h = gaussian_entropy(stack)
    assert h.shape == (2, 3)
    assert h.tolist() == [[gaussian_entropy(c) for c in row] for row in stack]
    assert isinstance(gaussian_entropy(stack[0, 0]), float)
    with pytest.raises(SingularCovariance):
        gaussian_entropy(np.stack([np.eye(2), np.ones((2, 2))]))


def test_lemma2_identity_case():
    # M = M' = I, X, Y, Z independent standard normals: the left side is 0
    # and the right side is h(Y - Z) - h(Z) = 1/2 bit.
    [lhs], [rhs], [holds] = check_lemma2([[[1.0]]], [[[1.0]]], [[[1.0]]],
                                         np.eye(2)[None])
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.5, abs=1e-12)
    assert holds


def test_lemma2_degenerate_difference():
    # Y = Z almost surely: the difference covariance collapses.
    cov_yz = np.array([[[1.0, 1.0], [1.0, 1.0]]])
    with pytest.raises(SingularCovariance):
        check_lemma2([[[1.0]]], [[[1.0]]], [[[1.0]]], cov_yz)


def test_lemma2_stack_matches_single_calls():
    rng = np.random.default_rng(11)
    stacks = list(random_lemma2_stacks(rng, 120, max_dim=4))
    dims = {stack[0].shape[-1] for stack in stacks}
    assert dims == {1, 2, 3, 4}
    for stack in stacks:
        lhs, rhs, holds = check_lemma2(*stack)
        assert lhs.shape == rhs.shape == holds.shape == (len(stack[0]),)
        for inst, l, r, h in zip(zip(*stack), lhs, rhs, holds):
            one = check_lemma2(*(a[None] for a in inst))
            assert one[0].shape == one[2].shape == (1,)
            assert l == pytest.approx(one[0][0], rel=1e-12, abs=1e-12)
            assert r == pytest.approx(one[1][0], rel=1e-12, abs=1e-12)
            assert h == one[2][0]


def test_lemma2_stack_with_degenerate_member():
    # One member with Y = Z almost surely makes the whole stack singular;
    # in stacks of one, only that member is.
    rng = np.random.default_rng(2)
    [stack] = random_lemma2_stacks(rng, 5, max_dim=1)
    stack[3][2] = np.ones((2, 2))
    with pytest.raises(SingularCovariance):
        check_lemma2(*stack)
    singular = []
    for k, inst in enumerate(zip(*stack)):
        try:
            check_lemma2(*(a[None] for a in inst))
        except SingularCovariance:
            singular.append(k)
    assert singular == [2]


def test_lemma2_random_instances_hold():
    rng = np.random.default_rng(77)
    for stack in random_lemma2_stacks(rng, 150, max_dim=4):
        lhs, rhs, holds = check_lemma2(*stack)
        assert holds.all(), (lhs[~holds], rhs[~holds])


def test_random_lemma2_stacks_shape_and_bound():
    stacks = list(random_lemma2_stacks(np.random.default_rng(31), 2000,
                                       max_dim=8))
    assert sum(len(M) for M, _, _, _ in stacks) == 2000
    dims = [M.shape[-1] for M, _, _, _ in stacks]
    assert dims == sorted(set(dims)) and set(dims) <= set(range(1, 9))
    for M, Mp, cov_x, cov_yz in stacks:
        k, d = M.shape[:2]
        assert Mp.shape == cov_x.shape == (k, d, d)
        assert cov_yz.shape == (k, 2 * d, 2 * d)
        w = Mp @ np.linalg.inv(M)
        assert np.linalg.norm(w, ord=2, axis=(-2, -1)).max() <= W_NORM_MAX
    again = random_lemma2_stacks(np.random.default_rng(31), 2000, max_dim=8)
    for stack, same in zip(stacks, again, strict=True):
        for a, b in zip(stack, same):
            assert np.array_equal(a, b)


def lemma2_outcomes(rng, t):
    """Per instance, whether check_lemma2 holds or "raises", over 50
    instances for each d = 1..8 whose W = Mp M^-1 has one singular value
    t and the rest uniform in [0, 1)."""
    outcomes = {d: [] for d in range(1, 9)}
    for d in outcomes:
        for _ in range(50):
            u, v = (np.linalg.qr(a)[0] for a in rng.standard_normal((2, d, d)))
            s = np.concatenate([[t], rng.uniform(0.0, 1.0, d - 1)])
            M = rng.standard_normal((d, d))
            inst = (M[None], ((u * s) @ v.T @ M)[None],
                    random_spd(rng, (1, d)), random_spd(rng, (1, 2 * d)))
            try:
                outcomes[d].append(check_lemma2(*inst)[2].item())
            except SingularCovariance:
                outcomes[d].append("raises")
    return outcomes


def test_lemma2_w_bound_closes_the_singular_path():
    # At t = W_NORM_MAX no instance raises and every one holds; at t = 1e8
    # every one with d >= 2 raises.  So it is the bound on ||W||_2 that
    # keeps random_lemma2_stacks' draws nonsingular.
    rng = np.random.default_rng(0)
    at_bound = lemma2_outcomes(rng, W_NORM_MAX)
    assert all(o is True for d in at_bound for o in at_bound[d])
    far = lemma2_outcomes(rng, 1e8)
    assert all(o == "raises" for d in far if d >= 2 for o in far[d])


def test_lemma2_equality_family_is_tight():
    """The lemma holds with equality when X = 0 and N = WY - Z is independent
    of Z, where W = M'M^-1; then rhs - lhs is rounding alone.

    Derivation.  Take Z and N independent with covariances S_Z and S_N, and
    Y = W^-1 (Z + N), so cov_yz is [[W^-1 (S_Z + S_N) W^-T, W^-1 S_Z],
    [S_Z W^-T, S_Z]].  With X = 0, lhs = h(Y) - h(Z) = h(Z + N) - log|det W|
    - h(Z).  (Y, Z) is (Z, N) mapped by [[W^-1, W^-1], [I, 0]], whose
    determinant has modulus 1 / |det W|, so h(Z | Y) = h(Y, Z) - h(Y) =
    h(Z) + h(N) - h(Z + N).  Since WY - Z = N, rhs = h(N) - h(Z | Y) -
    log|det W| = h(Z + N) - h(Z) - log|det W| = lhs.

    Rounding.  cov_y carries W^-1 on both sides and the difference covariance
    W cov_y W^T - ... cancels it again, so the error grows as cond(W)^2.  The
    bound is 64 eps cond(W)^2 bits; cond(W) <= 100 keeps it below 1e-10.
    The sign of the cross term in the difference covariance, flipped, misses
    equality by more than 0.1 bit here, while random instances have enough
    slack to hide it.
    """
    rng = np.random.default_rng(22)
    eps = np.finfo(float).eps
    for k in range(500):
        d = 1 + k % 4
        M, Mp = rng.standard_normal((2, d, d))
        W = Mp @ np.linalg.inv(M)
        cond = np.linalg.cond(W)
        if not cond <= 100:
            continue
        W_inv = np.linalg.inv(W)
        cov_z, cov_n = random_spd(rng, (2, d))
        cov_y = W_inv @ (cov_z + cov_n) @ W_inv.T
        cross = W_inv @ cov_z
        cov_yz = np.block([[(cov_y + cov_y.T) / 2, cross], [cross.T, cov_z]])
        [lhs], [rhs], [holds] = check_lemma2(M[None], Mp[None],
                                             np.zeros((1, d, d)), cov_yz[None])
        assert holds
        assert abs(rhs - lhs) <= 64 * eps * cond ** 2, (d, cond, lhs, rhs)


def test_lemma2_shape_validation():
    with pytest.raises(ValueError):
        check_lemma2(np.eye(2), np.eye(2), np.eye(2), np.eye(3))
    # One instance is a stack of one; a bare (d, d) instance is refused.
    with pytest.raises(ValueError):
        check_lemma2(np.eye(2), np.eye(2), np.eye(2), np.eye(4))
    with pytest.raises(ValueError):
        check_lemma2(np.ones((2, 1, 1)), np.ones((3, 1, 1)),
                     np.ones((2, 1, 1)), np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        check_lemma2(np.ones((2, 1, 1)), np.ones((2, 1, 1)),
                     np.ones((2, 1, 1)), np.eye(2))
    args = [np.ones((1, 1, 1))] * 3 + [np.eye(2)[None]]
    for position, name in enumerate(("M", "Mp", "cov_x", "cov_yz")):
        for value in (math.nan, math.inf):
            bad = list(args)
            bad[position] = np.where(np.eye(args[position].shape[-1]) > 0,
                                     value, 0.0)[None]
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                check_lemma2(*bad)
    with pytest.raises(SingularCovariance):
        check_lemma2([[[0.0]]], [[[1.0]]], [[[1.0]]], np.eye(2)[None])


def test_random_schedule_reaches_every_state(ref_channel, ref_plan):
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(20):
        seen.update(slot_states(
            ref_channel, *alphabet_schedule(ref_channel, ref_plan, 120, rng)))
    assert seen == set(StateLabel)
