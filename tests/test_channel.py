import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afdof.channel
from afdof import (
    ChannelRealization,
    ConditionReport,
    GenericityFailure,
    check_conditions,
    effective_noise_variance,
    end_to_end,
    plan_achievability,
    sample_channel,
)
from afdof.channel import nulling_coefficients
from conftest import REFERENCE_GAINS, reference_channel

finite_coeff = st.floats(min_value=-1e3, max_value=1e3,
                         allow_nan=False, allow_infinity=False)


def test_reference_determinants():
    # Hand expansion of the four 2x2 determinants.
    rep = check_conditions(reference_channel())
    assert rep.det_h1 == -5.0
    assert rep.det_h2 == -1.0
    assert rep.det_hsup1 == -11.0
    assert rep.det_hsup2 == 4.0
    assert rep.generic


def test_all_ones_is_rank_deficient():
    rep = check_conditions(ChannelRealization(*([1.0] * 8)))
    assert rep.all_nonzero
    assert not rep.rank_h1_full
    assert not rep.generic


def test_zero_gain_fails_all_nonzero():
    gains = list(REFERENCE_GAINS)
    gains[0] = 0.0
    rep = check_conditions(ChannelRealization(*gains))
    assert not rep.all_nonzero
    assert not rep.generic


def test_sampler_is_deterministic():
    assert sample_channel(42) == sample_channel(42)
    assert sample_channel(42) != sample_channel(43)


def test_sampler_gains_are_pinned():
    # The gains of channel seeds 0-999, as Python floats, pin the sampler's
    # draw and its build of ChannelRealization.
    gains = [sample_channel(seed).gains() for seed in range(1000)]
    assert all(type(g) is float for row in gains for g in row)
    digest = hashlib.sha256(np.array(gains, dtype="<f8").tobytes()).hexdigest()
    assert digest == (
        "8db144ce59d5157bc6b4fab20663dc1026703ca3f1ec49c56cce998b320f9de9")


def test_sampler_returns_generic_channels():
    for seed in (0, 7, 42, 12345):
        ch = sample_channel(seed)
        assert check_conditions(ch).generic
        assert all(math.isfinite(g) and g != 0 for g in ch.gains())


def test_sampler_never_rejects_over_many_seeds():
    # Smoke-sized version; the full 1e5-seed run lives in the acceptance suite.
    for seed in range(5000):
        sample_channel(seed)


def test_sampler_raises_on_a_nongeneric_draw(monkeypatch):
    # A seed is one draw: a draw the check rejects is reported with its
    # seed, not redrawn.  A tolerance of 10 rejects every draw.
    monkeypatch.setattr(afdof.channel, "GENERIC_TOL", 10.0)
    with pytest.raises(GenericityFailure, match="^seed 3:"):
        sample_channel(3)


def test_end_to_end_zero_coefficients(ref_channel):
    G = end_to_end(ref_channel, 0.0, 0.0)
    assert G.entries() == (0.0, 0.0, 0.0, 0.0)


def test_end_to_end_reference_substitution(ref_channel):
    # mu = c, lam = -2c collapses to [[-5c, 0], [-4c, 2c]] for any c.
    c = 0.25
    G = end_to_end(ref_channel, c, -2.0 * c)
    assert G.entries() == pytest.approx((-5 * c, 0.0, -4 * c, 2 * c), abs=1e-15)


def test_end_to_end_u_relay_only(ref_channel):
    G = end_to_end(ref_channel, 1.0, 0.0)
    assert G.entries() == (1.0, 2.0, 2.0, 4.0)


def test_end_to_end_matches_matrix_product(ref_channel):
    mu, lam = 0.7, -1.3
    G = end_to_end(ref_channel, mu, lam)
    first_hop = np.array([[ref_channel.h_s1u, ref_channel.h_s2u],
                          [ref_channel.h_s1v, ref_channel.h_s2v]])
    second_hop = np.array([[ref_channel.h_ud1, ref_channel.h_vd1],
                           [ref_channel.h_ud2, ref_channel.h_vd2]])
    product = second_hop @ np.diag([mu, lam]) @ first_hop
    np.testing.assert_allclose(np.reshape(G.entries(), (2, 2)), product,
                               rtol=1e-12)


def test_effective_noise_variance_examples(ref_channel):
    assert effective_noise_variance(ref_channel, 0.0, 0.0, 1) == 1.0
    c = 0.3
    assert effective_noise_variance(ref_channel, c, -2 * c, 1) == pytest.approx(5 * c * c + 1)
    assert effective_noise_variance(ref_channel, 1.0, 1.0, 2) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        effective_noise_variance(ref_channel, 1.0, 1.0, 3)


@given(mu=finite_coeff, lam=finite_coeff, a=finite_coeff)
def test_end_to_end_is_bilinear(mu, lam, a):
    ch = reference_channel()
    scaled = end_to_end(ch, a * mu, a * lam)
    base = end_to_end(ch, mu, lam)
    for got, want in zip(scaled.entries(), (a * e for e in base.entries())):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(mu=finite_coeff, lam=finite_coeff)
def test_noise_variance_at_least_one(mu, lam):
    ch = reference_channel()
    for dest in (1, 2):
        v = effective_noise_variance(ch, mu, lam, dest)
        assert v >= 1.0
        if mu == 0.0 and lam == 0.0:
            assert v == 1.0


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000),
       mu=st.floats(min_value=0.01, max_value=10, allow_nan=False))
def test_at_most_one_zero_entry(seed, mu):
    # Random pairs plus each single-entry nulling value: never two zeros.
    ch = sample_channel(seed)
    nulling = [
        -mu * ch.h_ud1 * ch.h_s1u / (ch.h_vd1 * ch.h_s1v),
        -mu * ch.h_ud1 * ch.h_s2u / (ch.h_vd1 * ch.h_s2v),
        -mu * ch.h_ud2 * ch.h_s1u / (ch.h_vd2 * ch.h_s1v),
        -mu * ch.h_ud2 * ch.h_s2u / (ch.h_vd2 * ch.h_s2v),
    ]
    for lam in nulling + [0.37 * mu]:
        G = end_to_end(ch, mu, lam)
        scale = max(map(abs, G.entries()))
        zeros = sum(abs(e) <= 1e-9 * scale for e in G.entries())
        assert zeros <= 1


def test_nulling_coefficients_zero_their_entry():
    for seed in range(200):
        ch = sample_channel(seed)
        for mu in (0.3, -2.0):
            for e, lam in enumerate(nulling_coefficients(ch, mu)):
                G = end_to_end(ch, mu, lam)
                assert abs(G.entries()[e]) <= 1e-12 * max(map(abs, G.entries()))


def test_nulling_coefficients_keep_the_hand_formulas():
    # Bit for bit the closed forms in the planner's operation order, so
    # plan.json and the fuzz alphabets keep their values.
    for seed in range(200):
        ch = sample_channel(seed)
        plan = plan_achievability(ch)
        c = plan.c
        assert nulling_coefficients(ch, c) == (
            -(c * ch.h_ud1 * ch.h_s1u) / (ch.h_vd1 * ch.h_s1v),
            -(c * ch.h_ud1 * ch.h_s2u) / (ch.h_vd1 * ch.h_s2v),
            -(c * ch.h_ud2 * ch.h_s1u) / (ch.h_vd2 * ch.h_s1v),
            -(c * ch.h_ud2 * ch.h_s2u) / (ch.h_vd2 * ch.h_s2v))
        assert (plan.lambda_phase1, plan.lambda_phase2) == (
            nulling_coefficients(ch, c)[1:3])


# Small integers give rank-deficient and zero-gain channels; the magnitude
# floor keeps every product scaled by 2**k clear of subnormals.
scalable_gain = st.one_of(st.integers(min_value=-3, max_value=3).map(float),
                          st.floats(min_value=1e-3, max_value=1e3),
                          st.floats(min_value=-1e3, max_value=-1e-3))


def test_genericity_is_distinct_nulling_ratios():
    # Over every channel with gains in {-2, -1, 1, 2}, the four critical
    # ratios r_e = nulling_coefficients(ch, 1)[e] are distinct exactly where
    # the matching determinants are nonzero.  The ratios of such small
    # integers are exact in float64, so == decides equality.
    rows = np.array(list(itertools.product((-2.0, -1.0, 1.0, 2.0), repeat=8)))
    r_a1, r_b1, r_a2, r_b2 = nulling_coefficients(ChannelRealization(*rows.T), 1.0)
    rep = check_conditions(rows)
    assert np.array_equal((r_a1 != r_b1) & (r_a2 != r_b2), rep.rank_h1_full)
    assert np.array_equal((r_a1 != r_a2) & (r_b1 != r_b2), rep.rank_h2_full)
    assert np.array_equal(r_a1 != r_b2, rep.rank_hsup1_full)
    assert np.array_equal(r_b1 != r_a2, rep.rank_hsup2_full)
    ratios = (r_a1, r_b1, r_a2, r_b2)
    distinct = np.logical_and.reduce(
        [a != b for a, b in itertools.combinations(ratios, 2)])
    assert np.array_equal(distinct, rep.generic)
    assert np.count_nonzero(distinct) == 32256



@given(gains=st.lists(scalable_gain, min_size=8, max_size=8),
       k=st.integers(min_value=-20, max_value=20))
def test_check_conditions_scale_invariant(gains, k):
    # Scaling by a power of two is exact in floating point, so the verdict
    # must not move and each determinant must scale exactly.
    s = 2.0 ** k
    base = check_conditions(ChannelRealization(*gains))
    scaled = check_conditions(ChannelRealization(*(s * g for g in gains)))

    def verdict(rep):
        return (rep.all_nonzero, rep.rank_h1_full, rep.rank_h2_full,
                rep.rank_hsup1_full, rep.rank_hsup2_full)

    assert verdict(scaled) == verdict(base)
    assert (scaled.det_h1, scaled.det_h2) == (s ** 2 * base.det_h1,
                                              s ** 2 * base.det_h2)
    assert (scaled.det_hsup1, scaled.det_hsup2) == (s ** 4 * base.det_hsup1,
                                                    s ** 4 * base.det_hsup2)
    # The array path on the stack of both rows gives the same reports.
    stacked = check_conditions(np.array([gains, [s * g for g in gains]]))
    for row, rep in enumerate((base, scaled)):
        assert tuple(bool(f[row]) for f in verdict(stacked)) == verdict(rep)
        assert (stacked.det_h1[row], stacked.det_h2[row], stacked.det_hsup1[row],
                stacked.det_hsup2[row]) == (rep.det_h1, rep.det_h2,
                                            rep.det_hsup1, rep.det_hsup2)


REPORT_FIELDS = [f.name for f in dataclasses.fields(ConditionReport)]


def assert_rows_match_scalar_checks(rows):
    # Every flag and determinant of the array report equals the scalar
    # report of that row's channel, bit for bit (NaN matches NaN).
    rep = check_conditions(rows)
    assert rep.generic.shape == (len(rows),)
    for i, row in enumerate(rows):
        one = check_conditions(ChannelRealization(*row.tolist()))
        assert type(one.generic) is bool
        assert bool(rep.generic[i]) == one.generic
        for name in REPORT_FIELDS:
            got, want = getattr(rep, name)[i], getattr(one, name)
            if isinstance(want, bool):
                assert got.dtype == bool and bool(got) == want, (i, name)
            else:
                assert type(want) is float, (i, name)
                assert (np.float64(got).tobytes() == np.float64(want).tobytes()
                        or (math.isnan(got) and math.isnan(want))), (i, name)
    return rep


def test_check_conditions_rows_match_scalar_on_drawn_rows():
    rng = np.random.default_rng(8)
    # Small integers make many rank-deficient and zero-gain rows.
    rows = np.concatenate([rng.standard_normal((1000, 8)),
                           rng.integers(-2, 3, size=(1000, 8)).astype(float)])
    rep = assert_rows_match_scalar_checks(rows)
    assert rep.generic[:1000].all()
    assert 0 < np.count_nonzero(~rep.generic[1000:]) < 1000


def _solve_gain(g, det):
    # Set one gain so that the named determinant vanishes up to rounding.
    s1u, s2u, s1v, s2v, ud1, vd1, ud2, vd2 = g
    if det == "det_h1":
        g[3] = s2u * s1v / s1u
    elif det == "det_h2":
        g[7] = vd1 * ud2 / ud1
    elif det == "det_hsup1":
        g[7] = vd1 * s1v * ud2 * s2u / (ud1 * s1u * s2v)
    else:
        g[7] = vd1 * s2v * ud2 * s1u / (ud1 * s2u * s1v)
    return g


@pytest.mark.parametrize("det,flag", [
    ("det_h1", "rank_h1_full"), ("det_h2", "rank_h2_full"),
    ("det_hsup1", "rank_hsup1_full"), ("det_hsup2", "rank_hsup2_full")])
def test_check_conditions_rows_match_scalar_on_singular_rows(det, flag):
    rows = np.random.default_rng(9).standard_normal((200, 8))
    rows = np.array([_solve_gain(g, det) for g in rows])
    rep = assert_rows_match_scalar_checks(rows)
    assert not getattr(rep, flag).any()
    assert not rep.generic.any()


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf, -math.inf],
                         ids=["zero", "nan", "inf", "neg-inf"])
def test_check_conditions_rows_match_scalar_on_bad_gains(value):
    # Each gain in turn set to zero or a non-finite value: never generic.
    rows = np.tile(np.random.default_rng(10).standard_normal(8), (8, 1))
    rows[np.arange(8), np.arange(8)] = value
    rep = assert_rows_match_scalar_checks(rows)
    assert not rep.generic.any()
    assert not rep.all_nonzero.any()


@pytest.mark.parametrize("shape", [(8,), (3, 7), (2, 8, 1)])
def test_check_conditions_rejects_misshapen_rows(shape):
    with pytest.raises(ValueError, match=r"\(n, 8\)"):
        check_conditions(np.ones(shape))


def test_json_roundtrip(ref_channel):
    again = ChannelRealization.from_dict(
        json.loads(json.dumps(ref_channel.to_dict())))
    assert again == ref_channel
    assert set(ref_channel.to_dict()) == {
        "s1u", "s2u", "s1v", "s2v", "ud1", "vd1", "ud2", "vd2"}


REF_GAIN_DICT = reference_channel().to_dict()


@pytest.mark.parametrize("gains,detail", [
    ({"s1u": 1.0}, "missing channel gains"),
    ({**REF_GAIN_DICT, "s1u": True}, "s1u"),
    ({**REF_GAIN_DICT, "vd1": "x"}, "vd1"),
    ({**REF_GAIN_DICT, "ud2": math.nan}, "ud2"),
    ({**REF_GAIN_DICT, "vd2": math.inf}, "vd2"),
    ({**REF_GAIN_DICT, "s2v": -math.inf}, "s2v"),
    ({**REF_GAIN_DICT, "extra": 5}, r"unknown channel gains: \['extra'\]"),
], ids=["missing", "bool", "string", "nan", "inf", "neg-inf", "extra"])
def test_from_dict_requires_all_gains(gains, detail):
    with pytest.raises(ValueError, match=detail):
        ChannelRealization.from_dict(gains)
