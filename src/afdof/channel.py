"""Fixed-gain model of the two-hop 2x2 interference channel.

Two sources reach two destinations only through two relays; there is no
direct source-destination link.  Everything here is a pure function of the
eight real channel gains: genericity checks, the end-to-end matrix induced
by one pair of relay scaling coefficients, and the variance of the
effective noise seen at a destination.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Genericity tests: a gain or a 2x2 determinant counts as zero at or below
# GENERIC_TOL times its scale.
GENERIC_TOL = 1e-12

_GAIN_KEYS = ("s1u", "s2u", "s1v", "s2v", "ud1", "vd1", "ud2", "vd2")


@dataclass(frozen=True)
class ChannelRealization:
    """Eight real gains: sources s1, s2 -> relays u, v -> destinations d1, d2."""

    h_s1u: float
    h_s2u: float
    h_s1v: float
    h_s2v: float
    h_ud1: float
    h_vd1: float
    h_ud2: float
    h_vd2: float

    def gains(self) -> tuple[float, ...]:
        return (self.h_s1u, self.h_s2u, self.h_s1v, self.h_s2v,
                self.h_ud1, self.h_vd1, self.h_ud2, self.h_vd2)

    def to_dict(self) -> dict:
        return dict(zip(_GAIN_KEYS, self.gains()))

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelRealization":
        missing = [k for k in _GAIN_KEYS if k not in d]
        if missing:
            raise ValueError(f"missing channel gains: {missing}")
        unknown = [k for k in d if k not in _GAIN_KEYS]
        if unknown:
            raise ValueError(f"unknown channel gains: {unknown}")
        for k in _GAIN_KEYS:
            g = d[k]
            if (isinstance(g, bool) or not isinstance(g, numbers.Real)
                    or not math.isfinite(g)):
                raise ValueError(f"channel gain {k} must be a finite number, "
                                 f"got {g!r}")
        return cls(*(float(d[k]) for k in _GAIN_KEYS))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the genericity check: four rank tests plus all-nonzero.

    Fields are Python ``bool``/``float`` for one channel, or ``(n,)``
    arrays when the check ran on ``n`` gain rows.
    """

    all_nonzero: bool
    rank_h1_full: bool
    rank_h2_full: bool
    rank_hsup1_full: bool
    rank_hsup2_full: bool
    det_h1: float
    det_h2: float
    det_hsup1: float
    det_hsup2: float

    @property
    def generic(self) -> bool:
        # `&`, not `and`, so array reports combine row by row.
        return (self.all_nonzero & self.rank_h1_full & self.rank_h2_full
                & self.rank_hsup1_full & self.rank_hsup2_full)


def _rows_max(*arrays):
    return functools.reduce(np.maximum, arrays)


def _det_and_rank(m11, m12, m21, m22, vmax) -> tuple:
    # Rank test is relative to the product of largest-magnitude row entries,
    # so it is invariant to rescaling either row.  vmax is max for scalars
    # and _rows_max for arrays.
    det = m11 * m22 - m12 * m21
    scale = vmax(abs(m11), abs(m12)) * vmax(abs(m21), abs(m22))
    return det, abs(det) > GENERIC_TOL * scale


def check_conditions(ch) -> ConditionReport:
    """Evaluate the genericity conditions for one channel or many.

    ``ch`` is a ``ChannelRealization``, giving a report of Python scalars,
    or an ``(n, 8)`` array of gain rows in ``ChannelRealization`` field
    order, giving a report of ``(n,)`` arrays.  Both forms run the same
    arithmetic in the same order, so row i's report equals the scalar
    report of row i's channel.  Checks that every gain is nonzero and that
    both hop matrices and both cross matrices have full rank, all relative
    to ``GENERIC_TOL``; a NaN or infinite gain fails.  Never raises on
    gain values; consumers decide what to do with a non-generic report.
    """
    if isinstance(ch, ChannelRealization):
        gains, vmax = ch.gains(), max
    else:
        rows = np.asarray(ch, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(_GAIN_KEYS):
            raise ValueError(f"gain rows must have shape (n, {len(_GAIN_KEYS)}), "
                             f"got {rows.shape}")
        gains, vmax = tuple(np.ascontiguousarray(rows.T)), _rows_max
    s1u, s2u, s1v, s2v, ud1, vd1, ud2, vd2 = gains
    det_h1, r_h1 = _det_and_rank(s1u, s2u, s1v, s2v, vmax)
    det_h2, r_h2 = _det_and_rank(ud1, vd1, ud2, vd2, vmax)
    det_x1, r_x1 = _det_and_rank(ud1 * s1u, vd1 * s1v, ud2 * s2u, vd2 * s2v, vmax)
    det_x2, r_x2 = _det_and_rank(ud1 * s2u, vd1 * s2v, ud2 * s1u, vd2 * s1v, vmax)
    gmax = vmax(*map(abs, gains))
    nonzero = functools.reduce(operator.and_,
                               [abs(g) > GENERIC_TOL * gmax for g in gains])
    return ConditionReport(
        all_nonzero=nonzero,
        rank_h1_full=r_h1, rank_h2_full=r_h2,
        rank_hsup1_full=r_x1, rank_hsup2_full=r_x2,
        det_h1=det_h1, det_h2=det_h2, det_hsup1=det_x1, det_hsup2=det_x2)


def sample_channel(seed: int) -> ChannelRealization:
    """The channel of i.i.d. standard normal gains that ``default_rng(seed)``
    draws first.  It is not checked: plan_achievability judges genericity
    for every channel, drawn or given.
    """
    gains = np.random.default_rng(seed).standard_normal(8)
    return ChannelRealization(*gains.tolist())


@dataclass(frozen=True)
class EndToEndMatrix:
    """The 2x2 source-to-destination matrix for one relay coefficient pair.

    Entry layout: [[alpha1, beta1], [alpha2, beta2]], rows indexed by
    destination and columns by source.
    """

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float

    def entries(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.beta1, self.alpha2, self.beta2)


def end_to_end(ch: ChannelRealization, mu: float, lam: float) -> EndToEndMatrix:
    """End-to-end matrix seen through relays scaling by mu (u) and lam (v)."""
    return EndToEndMatrix(
        alpha1=mu * ch.h_ud1 * ch.h_s1u + lam * ch.h_vd1 * ch.h_s1v,
        beta1=mu * ch.h_ud1 * ch.h_s2u + lam * ch.h_vd1 * ch.h_s2v,
        alpha2=mu * ch.h_ud2 * ch.h_s1u + lam * ch.h_vd2 * ch.h_s1v,
        beta2=mu * ch.h_ud2 * ch.h_s2u + lam * ch.h_vd2 * ch.h_s2v)


def nulling_coefficients(ch: ChannelRealization, mu: float) -> tuple[float, ...]:
    """Entry e is the v-relay coefficient that zeros end-to-end entry e
    (alpha1, beta1, alpha2, beta2) when the u-relay scales by mu."""
    u, v = end_to_end(ch, mu, 0.0), end_to_end(ch, 0.0, 1.0)
    return tuple(-a / b for a, b in zip(u.entries(), v.entries()))


def effective_noise_variance(ch: ChannelRealization, mu: float, lam: float,
                             dest: int) -> float:
    """Variance of the forwarded-plus-local noise at destination ``dest``.

    The relays forward unit-variance noise scaled by their coefficients and
    the destination adds its own unit-variance term, so the result is
    always >= 1.
    """
    if dest == 1:
        hu, hv = ch.h_ud1, ch.h_vd1
    elif dest == 2:
        hu, hv = ch.h_ud2, ch.h_vd2
    else:
        raise ValueError("dest must be 1 or 2")
    return hu * hu * mu * mu + hv * hv * lam * lam + 1.0
