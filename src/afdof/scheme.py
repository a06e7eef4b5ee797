"""Three-phase time-varying amplify-forward scheme.

Plans the relay coefficients that alternately cancel one source at one
destination, builds periodic schedules over the induced finite alphabets,
reconstructs both symbols at each destination from a three-slot block, and
evaluates the resulting noise variances and achievable rates analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (
    ChannelRealization,
    EndToEndMatrix,
    check_conditions,
    effective_noise_variance,
    end_to_end,
    nulling_coefficients,
)

# The one zero test for end-to-end coefficients, used by the decoders and by
# the state labels of bounds._label_ids.  Looser than channel.GENERIC_TOL
# (1e-12) so it does not flap on accumulated rounding, still far below any
# generic entry.
COEF_TOL = 1e-9


class NonGenericChannel(Exception):
    """The channel violates a genericity condition the scheme relies on."""


class DegenerateCoefficients(Exception):
    """An end-to-end coefficient required by the decoder is (near) zero."""


class InvalidPower(Exception):
    """Power argument below 1 or not finite; the relay power constant
    assumes P >= 1."""


def check_power(P: float) -> None:
    """Raise InvalidPower unless 1 <= P < inf (so nan fails too)."""
    if not 1 <= P < math.inf:
        raise InvalidPower(f"P must be finite and >= 1, got {P}")


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


@dataclass(frozen=True, eq=False)
class AfSchedule:
    """Per-slot relay coefficients as alphabet indices: slot k uses
    (U[index[k, 0]], V[index[k, 1]]), read as the cached arrays mu and lam."""

    alphabet: AfAlphabet
    index: np.ndarray

    def __post_init__(self):
        index = np.asarray(self.index)
        n_u, n_v = len(self.alphabet.U), len(self.alphabet.V)
        if index.ndim != 2 or index.shape[1] != 2 or index.dtype.kind not in "iu":
            raise ValueError("index must be an (L, 2) integer array")
        if index.size and (index.min() < 0 or index[:, 0].max() >= n_u
                           or index[:, 1].max() >= n_v):
            raise ValueError(f"index outside the alphabet sizes ({n_u}, {n_v})")
        object.__setattr__(self, "index", index.astype(
            np.min_scalar_type(max(n_u, n_v) - 1), copy=False))

    def __len__(self) -> int:
        return len(self.index)

    @cached_property
    def mu(self) -> np.ndarray:
        return np.asarray(self.alphabet.U)[self.index[:, 0]]

    @cached_property
    def lam(self) -> np.ndarray:
        return np.asarray(self.alphabet.V)[self.index[:, 1]]


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
        return AfAlphabet(U=(self.mu_all,), V=tuple(dict.fromkeys(
            (self.lambda_phase3, self.lambda_phase1, self.lambda_phase2))))


def plan_achievability(ch: ChannelRealization) -> PhasePlan:
    """Derive the three-phase relay coefficients for a generic channel.

    The relay gain magnitude c is the largest value for which both relays
    meet the transmit power constraint in every phase:

        l = min(|h_vd1 h_s2v / (h_ud1 h_s2u)|, |h_vd2 h_s1v / (h_ud2 h_s1u)|)
        c = min(sqrt(1 / (h_s1u^2 + h_s2u^2 + 1)),
                l * sqrt(1 / (h_s1v^2 + h_s2v^2 + 1)))

    Raises NonGenericChannel when any gain is zero or a rank condition
    fails, since the cancelling ratios would be undefined or useless.
    """
    report = check_conditions(ch)
    if not report.generic:
        raise NonGenericChannel(f"channel fails genericity: {report}")
    l = min(abs((ch.h_vd1 * ch.h_s2v) / (ch.h_ud1 * ch.h_s2u)),
            abs((ch.h_vd2 * ch.h_s1v) / (ch.h_ud2 * ch.h_s1u)))
    c = min(math.sqrt(1.0 / (ch.h_s1u ** 2 + ch.h_s2u ** 2 + 1.0)),
            l * math.sqrt(1.0 / (ch.h_s1v ** 2 + ch.h_s2v ** 2 + 1.0)))
    _, lam1, lam2, _ = nulling_coefficients(ch, c)
    return PhasePlan(c=c, l=l, lambda_phase1=lam1, lambda_phase2=lam2,
                     lambda_phase3=0.0, mu_all=c)


def scheme_schedule(plan: PhasePlan, n_triples: int) -> AfSchedule:
    """The scheme's relay schedule for n_triples blocks: 3 n_triples slots,
    slot k carrying plan.phase_pairs()[k % 3], so each block runs phases 1,
    2, 3."""
    if n_triples < 1:
        raise ValueError("schedule needs at least one block (n_triples >= 1)")
    alphabet = plan.alphabet()
    index = np.zeros((3 * n_triples, 2), dtype=np.uint8)
    for phase, (_, lam) in enumerate(plan.phase_pairs()):
        index[phase::3, 1] = alphabet.V.index(lam)
    return AfSchedule(alphabet, index)


def _coef_scale(*matrices: EndToEndMatrix) -> float:
    return max(g.max_abs() for g in matrices)


def _need_nonzero(value: float, scale: float, name: str) -> None:
    if abs(value) <= COEF_TOL * scale:
        raise DegenerateCoefficients(f"{name} is below tolerance ({value!r})")


def _need_zero(value: float, scale: float, name: str) -> None:
    if abs(value) > COEF_TOL * scale:
        raise DegenerateCoefficients(f"{name} must vanish but is {value!r}")


def reconstruct_d1(y11, y12, y13,
                   G1: EndToEndMatrix, G2: EndToEndMatrix, G3: EndToEndMatrix):
    """Decode destination 1's two streams from its three block samples.

    Slot 1 carries the first stream alone (the cross coefficient is
    nulled); slot 3 is used to strip the first stream and the known
    interference symbol out of slot 2, leaving the second stream.  Inputs
    may be scalars or equal-length arrays.
    """
    scale = _coef_scale(G1, G2, G3)
    _need_nonzero(G1.alpha1, scale, "G1.alpha1")
    _need_nonzero(G2.alpha1, scale, "G2.alpha1")
    _need_nonzero(G3.beta1, scale, "G3.beta1")
    _need_zero(G1.beta1, scale, "G1.beta1")
    a1_hat = y11 / G1.alpha1
    a2_hat = (y12 - (G2.beta1 / G3.beta1) * (y13 - G3.alpha1 * a1_hat)) / G2.alpha1
    return a1_hat, a2_hat


def reconstruct_d2(y21, y22, y23,
                   G1: EndToEndMatrix, G2: EndToEndMatrix, G3: EndToEndMatrix):
    """Decode destination 2's two streams; mirror image of reconstruct_d1.

    Slot 2 carries the second stream alone; slot 3 recovers the other
    user's repeated symbol, which slot 1 then cancels to expose the first
    stream.
    """
    scale = _coef_scale(G1, G2, G3)
    _need_nonzero(G2.beta2, scale, "G2.beta2")
    _need_nonzero(G3.alpha2, scale, "G3.alpha2")
    _need_nonzero(G1.beta2, scale, "G1.beta2")
    _need_zero(G2.alpha2, scale, "G2.alpha2")
    b2_hat = y22 / G2.beta2
    a1_mid = (y23 - G3.beta2 * b2_hat) / G3.alpha2
    b1_hat = (y21 - G1.alpha2 * a1_mid) / G1.beta2
    return b1_hat, b2_hat


def analytic_noise_variances(ch: ChannelRealization, plan: PhasePlan):
    """Noise variances of the four decoded streams, independent of P.

    Returns ((sigma1_sq, sigma2_sq), (sigma1_sq_d2, sigma2_sq_d2)) where the
    first entry of each pair is the directly-received stream and the second
    the three-slot combination.  The decoders are linear, so feeding them
    the three unit impulses gives each stream's weights on the block's
    samples.  The three phases forward disjoint relay noise samples, so a
    stream's variance is its squared weights times the per-phase effective
    noise variances.  Raises DegenerateCoefficients when the decoders do.
    """
    pairs = plan.phase_pairs()
    G = [end_to_end(ch, mu, lam) for mu, lam in pairs]
    variances = []
    for dest, decode in ((1, reconstruct_d1), (2, reconstruct_d2)):
        noise = [effective_noise_variance(ch, mu, lam, dest) for mu, lam in pairs]
        weights = np.square(decode(*np.eye(3), *G))
        variances.append([float(w @ noise) for w in weights])
    (a1, a2), (b1, b2) = variances
    return (a1, a2), (b2, b1)


def achievable_rate(P: float, sigma1_sq: float, sigma2_sq: float) -> float:
    """Per-user rate in bits per channel use: two decoded streams every
    three slots, each behind its own effective noise variance."""
    check_power(P)
    if sigma1_sq <= 0 or sigma2_sq <= 0:
        raise ValueError("noise variances must be positive")
    return (math.log2(1.0 + P / sigma1_sq) + math.log2(1.0 + P / sigma2_sq)) / 6.0


def baseline_tdma_rate(ch: ChannelRealization, P: float,
                       plan: PhasePlan) -> tuple[float, float]:
    """Constant-AF time-sharing baseline: each user transmits alone in half
    the slots.

    During user 1's slots the relays hold the phase-1 coefficients, during
    user 2's the phase-2 coefficients, so each destination decodes its own
    direct stream with no interference.  Per-user rate is
    (1/4) log2(1 + P / sigma_sq) with sigma_sq that direct stream's
    variance; the sum scales like a single interference-free user.
    """
    check_power(P)
    (s1, _), (t1, _) = analytic_noise_variances(ch, plan)
    return 0.25 * math.log2(1.0 + P / s1), 0.25 * math.log2(1.0 + P / t1)
