"""Three-phase time-varying amplify-forward scheme.

Plans the relay coefficients that alternately cancel one source at one
destination, builds periodic schedules over the induced finite alphabets,
reconstructs both symbols at each destination from a three-slot block, and
evaluates the resulting noise variances and achievable rates analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import (
    ChannelRealization,
    EndToEndMatrix,
    check_conditions,
    effective_noise_variance,
    end_to_end,
    DEFAULT_REL_TOL,
)

# Looser than the construction tolerance (1e-12) so coefficient checks do
# not flap on accumulated rounding, still far below any generic entry.
DEFAULT_COEF_TOL = 1e-9


class NonGenericChannel(Exception):
    """The channel violates a genericity condition the scheme relies on."""


class DegenerateCoefficients(Exception):
    """An end-to-end coefficient required by the decoder is (near) zero."""


class InvalidPower(Exception):
    """Power argument below 1; the relay power constant assumes P >= 1."""


@dataclass(frozen=True)
class AfAlphabet:
    """Finite sets of admissible relay scaling values, one per relay."""

    U: tuple[float, ...]
    V: tuple[float, ...]

    def __post_init__(self):
        if len(self.U) == 0 or len(self.V) == 0:
            raise ValueError("alphabets must be nonempty")
        if not all(math.isfinite(x) for x in self.U + self.V):
            raise ValueError("alphabet values must be finite")


@dataclass(frozen=True)
class AfSchedule:
    """Per-slot relay coefficient pairs (mu_k, lambda_k), indexed by
    relay-transmit slot."""

    pairs: tuple[tuple[float, float], ...]
    alphabet: AfAlphabet | None = None

    def __post_init__(self):
        if self.alphabet is not None:
            for k, (mu, lam) in enumerate(self.pairs):
                if mu not in self.alphabet.U or lam not in self.alphabet.V:
                    raise ValueError(
                        f"slot {k}: coefficient pair ({mu}, {lam}) outside alphabet")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PhasePlan:
    """Coefficients of the three-phase scheme for one channel.

    mu_all is the common u-relay gain; lambda_phase1 cancels source 2 at
    destination 1, lambda_phase2 cancels source 1 at destination 2, and
    lambda_phase3 silences relay v.  c and l are the power-normalizing
    constants that keep both relays inside the transmit power budget for
    every P >= 1.
    """

    c: float
    l: float
    lambda_phase1: float
    lambda_phase2: float
    lambda_phase3: float
    mu_all: float

    def phase_pairs(self) -> tuple[tuple[float, float], ...]:
        return ((self.mu_all, self.lambda_phase1),
                (self.mu_all, self.lambda_phase2),
                (self.mu_all, self.lambda_phase3))

    def alphabet(self) -> AfAlphabet:
        v_vals: list[float] = []
        for v in (self.lambda_phase3, self.lambda_phase1, self.lambda_phase2):
            if v not in v_vals:
                v_vals.append(v)
        return AfAlphabet(U=(self.mu_all,), V=tuple(v_vals))

    def to_dict(self) -> dict:
        return {
            "c": self.c, "l": self.l,
            "lambda_phase1": self.lambda_phase1,
            "lambda_phase2": self.lambda_phase2,
            "lambda_phase3": self.lambda_phase3,
            "mu_all": self.mu_all,
        }


@dataclass(frozen=True)
class RateReport:
    """Per-power rates over a grid plus fitted DoF slopes (vs half-log power)."""

    P: tuple[float, ...]
    R1: tuple[float, ...]
    R2: tuple[float, ...]
    slope_user1: float | None = None
    slope_user2: float | None = None
    slope_sum: float | None = None

    def __post_init__(self):
        if any(r < 0 for r in self.R1 + self.R2):
            raise ValueError("rates must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "P": list(self.P), "R1": list(self.R1), "R2": list(self.R2),
            "slope_user1": self.slope_user1, "slope_user2": self.slope_user2,
            "slope_sum": self.slope_sum,
        }


def plan_achievability(ch: ChannelRealization,
                       rel_tol: float = DEFAULT_REL_TOL) -> PhasePlan:
    """Derive the three-phase relay coefficients for a generic channel.

    The relay gain magnitude c is the largest value for which both relays
    meet the transmit power constraint in every phase:

        l = min(|h_vd1 h_s2v / (h_ud1 h_s2u)|, |h_vd2 h_s1v / (h_ud2 h_s1u)|)
        c = min(sqrt(1 / (h_s1u^2 + h_s2u^2 + 1)),
                l * sqrt(1 / (h_s1v^2 + h_s2v^2 + 1)))

    Raises NonGenericChannel when any gain is zero or a rank condition
    fails, since the cancelling ratios would be undefined or useless.
    """
    report = check_conditions(ch, rel_tol)
    if not report.generic:
        raise NonGenericChannel(f"channel fails genericity: {report}")
    l = min(abs((ch.h_vd1 * ch.h_s2v) / (ch.h_ud1 * ch.h_s2u)),
            abs((ch.h_vd2 * ch.h_s1v) / (ch.h_ud2 * ch.h_s1u)))
    c = min(math.sqrt(1.0 / (ch.h_s1u ** 2 + ch.h_s2u ** 2 + 1.0)),
            l * math.sqrt(1.0 / (ch.h_s1v ** 2 + ch.h_s2v ** 2 + 1.0)))
    lam1 = -(c * ch.h_ud1 * ch.h_s2u) / (ch.h_vd1 * ch.h_s2v)
    lam2 = -(c * ch.h_ud2 * ch.h_s1u) / (ch.h_vd2 * ch.h_s1v)
    return PhasePlan(c=c, l=l, lambda_phase1=lam1, lambda_phase2=lam2,
                     lambda_phase3=0.0, mu_all=c)


def schedule_from_plan(plan: PhasePlan, n: int) -> AfSchedule:
    """Periodic schedule of n relay-transmit slots cycling phases 1, 2, 3.

    Slot k carries the phase (k mod 3) coefficients; a partial trailing
    period is fine.  The one-slot relay delay is handled by the simulator,
    which pairs relay slot t with the source symbols of slot t - 1.
    """
    if n < 3:
        raise ValueError("schedule needs at least one full period (n >= 3)")
    phase = plan.phase_pairs()
    return AfSchedule(pairs=tuple(phase[k % 3] for k in range(n)),
                      alphabet=plan.alphabet())


def _coef_scale(*matrices: EndToEndMatrix) -> float:
    return max(g.max_abs() for g in matrices)


def _need_nonzero(value: float, scale: float, rel_tol: float, name: str) -> None:
    if abs(value) <= rel_tol * scale:
        raise DegenerateCoefficients(f"{name} is below tolerance ({value!r})")


def _need_zero(value: float, scale: float, rel_tol: float, name: str) -> None:
    if abs(value) > rel_tol * scale:
        raise DegenerateCoefficients(f"{name} must vanish but is {value!r}")


def reconstruct_d1(y11, y12, y13,
                   G1: EndToEndMatrix, G2: EndToEndMatrix, G3: EndToEndMatrix,
                   rel_tol: float = DEFAULT_COEF_TOL):
    """Decode destination 1's two streams from its three block samples.

    Slot 1 carries the first stream alone (the cross coefficient is
    nulled); slot 3 is used to strip the first stream and the known
    interference symbol out of slot 2, leaving the second stream.  Inputs
    may be scalars or equal-length arrays.
    """
    scale = _coef_scale(G1, G2, G3)
    _need_nonzero(G1.alpha1, scale, rel_tol, "G1.alpha1")
    _need_nonzero(G2.alpha1, scale, rel_tol, "G2.alpha1")
    _need_nonzero(G3.beta1, scale, rel_tol, "G3.beta1")
    _need_zero(G1.beta1, scale, rel_tol, "G1.beta1")
    a1_hat = y11 / G1.alpha1
    a2_hat = (y12 - (G2.beta1 / G3.beta1) * (y13 - G3.alpha1 * a1_hat)) / G2.alpha1
    return a1_hat, a2_hat


def reconstruct_d2(y21, y22, y23,
                   G1: EndToEndMatrix, G2: EndToEndMatrix, G3: EndToEndMatrix,
                   rel_tol: float = DEFAULT_COEF_TOL):
    """Decode destination 2's two streams; mirror image of reconstruct_d1.

    Slot 2 carries the second stream alone; slot 3 recovers the other
    user's repeated symbol, which slot 1 then cancels to expose the first
    stream.
    """
    scale = _coef_scale(G1, G2, G3)
    _need_nonzero(G2.beta2, scale, rel_tol, "G2.beta2")
    _need_nonzero(G3.alpha2, scale, rel_tol, "G3.alpha2")
    _need_nonzero(G1.beta2, scale, rel_tol, "G1.beta2")
    _need_zero(G2.alpha2, scale, rel_tol, "G2.alpha2")
    b2_hat = y22 / G2.beta2
    a1_mid = (y23 - G3.beta2 * b2_hat) / G3.alpha2
    b1_hat = (y21 - G1.alpha2 * a1_mid) / G1.beta2
    return b1_hat, b2_hat


def analytic_noise_variances(ch: ChannelRealization, plan: PhasePlan,
                             rel_tol: float = DEFAULT_COEF_TOL):
    """Noise variances of the four decoded streams, independent of P.

    Returns ((sigma1_sq, sigma2_sq), (sigma1_sq_d2, sigma2_sq_d2)) where the
    first entry of each pair is the directly-received stream and the second
    the three-slot combination.  The three phases forward disjoint relay
    noise samples, so the combination's variance is the sum of its three
    scaled per-phase effective noise variances.
    """
    pairs = plan.phase_pairs()
    G1, G2, G3 = (end_to_end(ch, mu, lam) for mu, lam in pairs)
    v1 = [effective_noise_variance(ch, mu, lam, 1) for mu, lam in pairs]
    v2 = [effective_noise_variance(ch, mu, lam, 2) for mu, lam in pairs]

    scale = _coef_scale(G1, G2, G3)
    for val, name in ((G1.alpha1, "G1.alpha1"), (G2.alpha1, "G2.alpha1"),
                      (G3.beta1, "G3.beta1"), (G2.beta2, "G2.beta2"),
                      (G3.alpha2, "G3.alpha2"), (G1.beta2, "G1.beta2")):
        _need_nonzero(val, scale, rel_tol, name)

    sigma1_sq = v1[0] / G1.alpha1 ** 2
    k3 = G2.beta1 / (G2.alpha1 * G3.beta1)
    k1 = (G3.alpha1 * G2.beta1) / (G1.alpha1 * G2.alpha1 * G3.beta1)
    sigma2_sq = v1[1] / G2.alpha1 ** 2 + k3 * k3 * v1[2] + k1 * k1 * v1[0]

    tau1_sq = v2[1] / G2.beta2 ** 2
    m3 = G1.alpha2 / (G1.beta2 * G3.alpha2)
    m2 = (G1.alpha2 * G3.beta2) / (G1.beta2 * G3.alpha2 * G2.beta2)
    tau2_sq = v2[0] / G1.beta2 ** 2 + m3 * m3 * v2[2] + m2 * m2 * v2[1]

    return (sigma1_sq, sigma2_sq), (tau1_sq, tau2_sq)


def achievable_rate(P: float, sigma1_sq: float, sigma2_sq: float) -> float:
    """Per-user rate in bits per channel use: two decoded streams every
    three slots, each behind its own effective noise variance."""
    if P < 1:
        raise InvalidPower(f"P must be >= 1, got {P}")
    if sigma1_sq <= 0 or sigma2_sq <= 0:
        raise ValueError("noise variances must be positive")
    return (math.log2(1.0 + P / sigma1_sq) + math.log2(1.0 + P / sigma2_sq)) / 6.0


def baseline_tdma_rate(ch: ChannelRealization, P: float,
                       plan: PhasePlan | None = None) -> tuple[float, float]:
    """Constant-AF time-sharing baseline: each user transmits alone in half
    the slots.

    During user 1's slots the relays hold the phase-1 coefficients, during
    user 2's the phase-2 coefficients, so each destination sees its own
    direct coefficient with no interference.  Per-user rate is
    (1/4) log2(1 + P g^2 / noise_var); the sum scales like a single
    interference-free user.
    """
    if P < 1:
        raise InvalidPower(f"P must be >= 1, got {P}")
    if plan is None:
        plan = plan_achievability(ch)
    (mu1, lam1), (mu2, lam2), _ = plan.phase_pairs()
    g1 = end_to_end(ch, mu1, lam1).alpha1
    g2 = end_to_end(ch, mu2, lam2).beta2
    n1 = effective_noise_variance(ch, mu1, lam1, 1)
    n2 = effective_noise_variance(ch, mu2, lam2, 2)
    r1 = 0.25 * math.log2(1.0 + P * g1 * g1 / n1)
    r2 = 0.25 * math.log2(1.0 + P * g2 * g2 / n2)
    return r1, r2
