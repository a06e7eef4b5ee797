"""Three-phase time-varying amplify-forward scheme.

Plans the relay coefficients that alternately cancel one source at one
destination, builds the scheme's periodic schedule as per-slot (mu, lam)
arrays, labels end-to-end matrices by their zero entries (the one zero
rule, read by phase_matrices and the outer-bound census), reconstructs both
symbols at each destination from a three-slot block, and evaluates the
resulting noise variances and achievable rates analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (
    ChannelRealization,
    EndToEndMatrix,
    check_conditions,
    effective_noise_variance,
    end_to_end,
    nulling_coefficients,
)

# The one zero rule for end-to-end coefficients, read only by _label_ids:
# an entry is zero at or below COEF_TOL times the largest-magnitude entry of
# its own matrix.  Looser than channel.GENERIC_TOL (1e-12) so it does not
# flap on accumulated rounding, still far below any generic entry.
COEF_TOL = 1e-9


class NonGenericChannel(Exception):
    """The channel violates a genericity condition the scheme relies on."""


class DegenerateCoefficients(Exception):
    """A phase of the plan is not in the state its decoders need (B, A and
    C1 for phases 1, 2 and 3) by the zero rule; raised by phase_matrices."""


class InvalidPower(Exception):
    """Power argument below 1 or not finite; the relay power constant
    assumes P >= 1."""


def check_power(P: float) -> None:
    """Raise InvalidPower unless 1 <= P < inf (so nan fails too)."""
    if not 1 <= P < math.inf:
        raise InvalidPower(f"P must be finite and >= 1, got {P}")


class StateLabel(str, Enum):
    A = "A"          # only the (2,1) entry is zero
    B = "B"          # only the (1,2) entry is zero
    C1 = "C1"        # no zero entries
    C2 = "C2"        # only the (1,1) entry is zero
    C3 = "C3"        # only the (2,2) entry is zero
    ZERO = "Zero"    # all entries zero (both coefficients zero)


# Label order is bounds.StateCensus's count order: nA, nB, nC1, nC2, nC3,
# nZero.
_LABELS = tuple(StateLabel)

# The label of a matrix whose only zero is entry e, in entry order
# (alpha1, beta1, alpha2, beta2).
_ONE_ZERO_LABELS = (StateLabel.C2, StateLabel.B, StateLabel.A, StateLabel.C3)
_ONE_ZERO_IDS = np.array([_LABELS.index(s) for s in _ONE_ZERO_LABELS])
_C1_ID = _LABELS.index(StateLabel.C1)
_ZERO_ID = _LABELS.index(StateLabel.ZERO)
# Label position by zero pattern, bit e set when entry e is zero.  Two or
# more zeros (-1) are impossible unless all four are, which _label_ids
# labels Zero apart.
_PATTERN_IDS = np.full(16, -1)
_PATTERN_IDS[0] = _C1_ID
_PATTERN_IDS[[1, 2, 4, 8]] = _ONE_ZERO_IDS

# The states the decoders need: phase 1 nulls beta1, phase 2 alpha2.
_PHASE_STATES = (StateLabel.B, StateLabel.A, StateLabel.C1)


def _label_ids(G: EndToEndMatrix) -> tuple[np.ndarray, np.ndarray]:
    """State positions, in StateLabel order, of end-to-end matrices whose
    fields are floats or same-shape arrays, and their (4, ...) zero mask.

    This is the one zero rule: an entry is zero at or below COEF_TOL times
    the largest-magnitude entry of its matrix.  An all-zero matrix is Zero.
    Two or three zeros cannot happen unless a channel sits within COEF_TOL
    of a genericity boundary, so those patterns get -1.
    """
    magnitude = np.abs(G.entries())
    scale = magnitude.max(axis=0)
    zero = magnitude <= COEF_TOL * scale
    pattern = _PATTERN_IDS[np.packbits(zero, axis=0, bitorder="little")[0]]
    return np.where(scale == 0.0, _ZERO_ID, pattern), zero


@dataclass(frozen=True)
class PhasePlan:
    """Coefficients of the three-phase scheme for one channel.

    lambda_phase1 cancels source 2 at destination 1 and lambda_phase2
    cancels source 1 at destination 2.  c and l are the power-normalizing
    constants that keep both relays inside the transmit power budget for
    every P >= 1.  phase_pairs() is the one definition of the phases.
    """

    c: float
    l: float
    lambda_phase1: float
    lambda_phase2: float

    def phase_pairs(self) -> tuple[tuple[float, float], ...]:
        """(mu, lam) of phases 1, 2 and 3; relay v is silent in phase 3."""
        return ((self.c, self.lambda_phase1), (self.c, self.lambda_phase2),
                (self.c, 0.0))


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
    return PhasePlan(c=c, l=l, lambda_phase1=lam1, lambda_phase2=lam2)


def relay_powers(ch: ChannelRealization, plan: PhasePlan,
                 P: float) -> tuple[tuple[float, float], ...]:
    """Exact transmit second moments (u, v) of the two relays in each phase:
    with independent variance-P symbols and unit relay noise, a relay scaling
    by g sends g^2 (P (h_s1^2 + h_s2^2) + 1), which the planner's c keeps
    <= P for every P >= 1."""
    check_power(P)
    su = P * (ch.h_s1u ** 2 + ch.h_s2u ** 2) + 1.0
    sv = P * (ch.h_s1v ** 2 + ch.h_s2v ** 2) + 1.0
    return tuple((mu * mu * su, lam * lam * sv) for mu, lam in plan.phase_pairs())


def scheme_schedule(plan: PhasePlan,
                    n_triples: int) -> tuple[np.ndarray, np.ndarray]:
    """The scheme's relay schedule for n_triples blocks as per-slot (mu, lam)
    arrays: 3 n_triples slots, slot k carrying plan.phase_pairs()[k % 3], so
    each block runs phases 1, 2, 3."""
    if n_triples < 1:
        raise ValueError("schedule needs at least one block (n_triples >= 1)")
    mu, lam = np.tile(np.transpose(plan.phase_pairs()), n_triples)
    return mu, lam


def phase_matrices(ch: ChannelRealization,
                   plan: PhasePlan) -> tuple[EndToEndMatrix, ...]:
    """The end-to-end matrices of plan.phase_pairs(), labelled by the zero
    rule of _label_ids in one call.

    Raises DegenerateCoefficients, naming the first offending phase, its
    state and its entries, unless phases 1, 2 and 3 are in states B, A and
    C1: exactly the entries reconstruct_d1 and reconstruct_d2 divide by are
    nonzero, and the two they ignore are zero.
    """
    mu, lam = np.transpose(plan.phase_pairs())
    G = end_to_end(ch, mu, lam)
    rows = np.transpose(G.entries()).tolist()
    for phase, (i, want, row) in enumerate(
            zip(_label_ids(G)[0].tolist(), _PHASE_STATES, rows), 1):
        state = _LABELS[i].value if i >= 0 else "impossible"
        if state != want.value:
            raise DegenerateCoefficients(
                f"phase {phase} is {state}, not {want.value}: entries "
                f"(alpha1, beta1, alpha2, beta2) = {tuple(row)}")
    return tuple(EndToEndMatrix(*row) for row in rows)


def reconstruct_d1(y11, y12, y13,
                   G1: EndToEndMatrix, G2: EndToEndMatrix, G3: EndToEndMatrix):
    """Decode destination 1's two streams from its three block samples.

    Slot 1 carries the first stream alone (the cross coefficient is
    nulled); slot 3 is used to strip the first stream and the known
    interference symbol out of slot 2, leaving the second stream.  Inputs
    may be scalars or equal-length arrays.  The matrices must be ones
    phase_matrices accepted: G1.alpha1, G2.alpha1 and G3.beta1 nonzero and
    G1.beta1 zero, which is ignored.
    """
    a1_hat = y11 / G1.alpha1
    a2_hat = (y12 - (G2.beta1 / G3.beta1) * (y13 - G3.alpha1 * a1_hat)) / G2.alpha1
    return a1_hat, a2_hat


def reconstruct_d2(y21, y22, y23,
                   G1: EndToEndMatrix, G2: EndToEndMatrix, G3: EndToEndMatrix):
    """Decode destination 2's two streams; mirror image of reconstruct_d1.

    Slot 2 carries the second stream alone; slot 3 recovers the other
    user's repeated symbol, which slot 1 then cancels to expose the first
    stream.  The matrices must be ones phase_matrices accepted: G2.beta2,
    G3.alpha2 and G1.beta2 nonzero and G2.alpha2 zero, which is ignored.
    """
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
    noise variances.  Raises DegenerateCoefficients as phase_matrices does.
    """
    pairs = plan.phase_pairs()
    G = phase_matrices(ch, plan)
    variances = []
    for dest, decode in ((1, reconstruct_d1), (2, reconstruct_d2)):
        noise = [effective_noise_variance(ch, mu, lam, dest) for mu, lam in pairs]
        weights = np.square(decode(*np.eye(3), *G))
        variances.append([math.fsum(w * noise) for w in weights])
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
