"""Computable artifacts of the sum-rate outer bound.

Classifies each slot's end-to-end matrix by the position of its single
zero entry (or lack of one), counts those states over a schedule, builds
the coefficient-maximum constants entering the bound, evaluates the three
slope bounds whose minimum caps the sum-DoF at 4/3, and numerically checks
the Gaussian entropy-difference lemma the bound proofs lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (
    ChannelRealization,
    EndToEndMatrix,
    effective_noise_variance,
    end_to_end,
)
from .scheme import COEF_TOL, AfAlphabet, AfSchedule, PhasePlan, check_power

_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)

# check_lemma2 compares lhs <= rhs + LEMMA2_SLACK, absorbing rounding in
# the entropy evaluations.
LEMMA2_SLACK = 1e-9

RESIDUAL_NOTE = ("bound constants omit entropy-difference remainders that "
                 "have no closed form; compare slope terms only")


class ImpossiblePattern(Exception):
    """A zero pattern that generic channels cannot produce: two or more
    zero entries with at least one nonzero entry."""


class SingularCovariance(Exception):
    """Covariance (or mixing matrix) too close to singular to evaluate."""


class StateLabel(str, Enum):
    A = "A"          # only the (2,1) entry is zero
    B = "B"          # only the (1,2) entry is zero
    C1 = "C1"        # no zero entries
    C2 = "C2"        # only the (1,1) entry is zero
    C3 = "C3"        # only the (2,2) entry is zero
    ZERO = "Zero"    # all entries zero (both coefficients zero)


# Label order is StateCensus's count order: nA, nB, nC1, nC2, nC3, nZero.
_LABELS = tuple(StateLabel)


@dataclass(frozen=True)
class StateCensus:
    """Per-state slot counts for one schedule."""

    nA: int
    nB: int
    nC1: int
    nC2: int
    nC3: int
    nZero: int
    n: int

    def __post_init__(self):
        counts = (self.nA, self.nB, self.nC1, self.nC2, self.nC3, self.nZero)
        if any(c < 0 for c in counts) or self.n < 1:
            raise ValueError("counts must be nonnegative and n >= 1")
        if sum(counts) != self.n:
            raise ValueError("state counts must sum to n")

    @property
    def nC(self) -> int:
        return self.nC1 + self.nC2 + self.nC3

    @property
    def nS(self) -> int:
        return self.n - self.nZero


@dataclass(frozen=True)
class BoundConstants:
    """Alphabet-wide maxima: M bounds any squared end-to-end coefficient,
    N bounds any effective noise variance."""

    M: float
    N: float
    M_ij: tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class BoundEvaluation:
    """The three per-symbol bound values at one power.

    Each bound is its slope term (1/2)(1 + |L|/n) log2 P plus the
    explicitly computable constant component; slope_dof holds the three
    prelog coefficients 1 + |L|/n in the same order.  Further constant
    remainders exist but are not closed-form (RESIDUAL_NOTE).
    """

    bound1: float
    bound2: float
    bound3: float
    slope_dof: tuple[float, float, float]


def classify_state(G: EndToEndMatrix) -> StateLabel:
    """Label a slot matrix by the position of its zero entry, if any.

    Entries are zero-tested against COEF_TOL times the largest-magnitude
    entry, the decoders' rule.  Two or three zeros cannot happen over a
    generic channel, so that pattern raises ImpossiblePattern (a tolerance
    or genericity bug).
    """
    entries = G.entries()
    scale = max(abs(e) for e in entries)
    if scale == 0.0:
        return StateLabel.ZERO
    zero = [abs(e) <= COEF_TOL * scale for e in entries]
    n_zero = sum(zero)
    if n_zero == 0:
        return StateLabel.C1
    if n_zero == 1:
        # entry order: alpha1, beta1, alpha2, beta2
        return (StateLabel.C2, StateLabel.B, StateLabel.A,
                StateLabel.C3)[zero.index(True)]
    raise ImpossiblePattern(
        f"{n_zero} zero entries with a nonzero entry present: {entries}")


def _slot_label_ids(ch: ChannelRealization,
                    schedule: AfSchedule) -> np.ndarray:
    """Each slot's state as a position in StateLabel order.

    A slot's state depends only on its (mu, lambda) index pair, so each
    distinct pair that occurs is classified once and every slot reads its
    pair's label from that table.
    """
    U, V = schedule.alphabet.U, schedule.alphabet.V
    iu, iv = schedule.index.T.astype(np.intp)
    codes, slot_code = np.unique(iu * len(V) + iv, return_inverse=True)
    table = []
    for mu, lam in ((U[c // len(V)], V[c % len(V)]) for c in codes.tolist()):
        label = StateLabel.ZERO
        if mu != 0.0 or lam != 0.0:
            label = classify_state(end_to_end(ch, mu, lam))
            if label is StateLabel.ZERO:
                raise ImpossiblePattern(
                    f"pair ({mu}, {lam}): nonzero coefficients produced an "
                    "all-zero matrix")
        table.append(_LABELS.index(label))
    return np.array(table, dtype=np.intp)[slot_code]


def slot_states(ch: ChannelRealization,
                schedule: AfSchedule) -> list[StateLabel]:
    """Per-slot state labels for a schedule."""
    return [_LABELS[i] for i in _slot_label_ids(ch, schedule).tolist()]


def census(ch: ChannelRealization, schedule: AfSchedule) -> StateCensus:
    """Classify every slot of a schedule and count the states."""
    ids = _slot_label_ids(ch, schedule)
    return StateCensus(*np.bincount(ids, minlength=len(_LABELS)).tolist(), n=len(ids))


def bound_constants(ch: ChannelRealization,
                    alphabet: AfAlphabet) -> BoundConstants:
    """Exhaustively maximize the squared coefficients and noise variances
    over the finite alphabet."""
    pairs = [(mu, lam) for mu in alphabet.U for lam in alphabet.V]
    squares = [[e ** 2 for e in end_to_end(ch, mu, lam).entries()]
               for mu, lam in pairs]
    m11, m12, m21, m22 = (max(column) for column in zip(*squares))
    noise = max(effective_noise_variance(ch, mu, lam, dest)
                for mu, lam in pairs for dest in (1, 2))
    return BoundConstants(M=max(m11, m12, m21, m22), N=noise,
                          M_ij=((m11, m12), (m21, m22)))


def evaluate_bounds(census_counts: StateCensus, P: float,
                    constants: BoundConstants) -> BoundEvaluation:
    """Evaluate the three sum-rate bounds per symbol, in bits.

    Each bound contributes, per received-sample entropy term it contains,
    a packing constant (1/2) log2(1 + 2M/N); counted slots additionally
    contribute half of log2(N) plus half of log2(2 pi e).  All computable
    parts are functions of the census and constants alone; the remainders
    are the ones RESIDUAL_NOTE names.
    """
    check_power(P)
    n = census_counts.n
    log2_p = math.log2(P)
    packing = 0.5 * math.log2(1.0 + 2.0 * constants.M / constants.N)
    log2_n_const = math.log2(constants.N)

    def one(count_l: int, counted: int, entropy_terms: int) -> tuple[float, float]:
        slope_coeff = 1.0 + count_l / n
        const = (entropy_terms * packing
                 + (counted / (2.0 * n)) * (log2_n_const + _LOG2_2PIE))
        return slope_coeff, 0.5 * slope_coeff * log2_p + const

    c_a, c_b = census_counts.nA, census_counts.nB
    c_c, c_s = census_counts.nC, census_counts.nS
    s1, b1 = one(c_c, c_a + c_b + 2 * c_c, 4)
    s2, b2 = one(c_b, c_s + c_b, 2)
    s3, b3 = one(c_a, c_s + c_a, 2)
    return BoundEvaluation(bound1=b1, bound2=b2, bound3=b3, slope_dof=(s1, s2, s3))


def min_census_fraction(census_counts: StateCensus) -> tuple[str, float]:
    """Smallest of |A|/n, |B|/n, |C|/n; ties break in that order.

    Always at most 1/3, and strictly less when any slot idles both relays.
    """
    counts = (("A", census_counts.nA), ("B", census_counts.nB),
              ("C", census_counts.nC))
    name, count = min(counts, key=lambda kv: kv[1])
    return name, count / census_counts.n


def gaussian_entropy(cov) -> float:
    """Differential entropy of a Gaussian with the given covariance, in bits."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
        raise ValueError("covariance must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if not np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12 * scale):
        raise ValueError("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"covariance not positive definite: {exc}") from exc
    diag = np.diag(chol)
    if float(np.min(diag)) ** 2 <= 1e-12 * float(np.max(np.diag(cov))):
        raise SingularCovariance("covariance determinant below tolerance")
    dim = cov.shape[0]
    return 0.5 * dim * _LOG2_2PIE + float(np.sum(np.log2(diag)))


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def check_lemma2(M, Mp, cov_x, cov_yz):
    """Evaluate both sides of the entropy-difference inequality

        h(M X + Y) - h(M' X + Z)
            <= h(M' M^-1 Y - Z) - h(Z | Y) - log2 |det(M' M^-1)|

    for jointly Gaussian (X, Y, Z) with X independent of (Y, Z).

    Parameters
    ----------
    M, Mp : (d, d) invertible mixing matrices
    cov_x : (d, d) covariance of X
    cov_yz : (2d, 2d) joint covariance of (Y, Z)

    Returns
    -------
    (lhs, rhs, holds) with everything in bits.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    Mp = np.atleast_2d(np.asarray(Mp, dtype=float))
    cov_x = np.atleast_2d(np.asarray(cov_x, dtype=float))
    cov_yz = np.atleast_2d(np.asarray(cov_yz, dtype=float))
    d = M.shape[0]
    if M.shape != (d, d) or Mp.shape != (d, d) or cov_x.shape != (d, d):
        raise ValueError("M, Mp and cov_x must all be (d, d)")
    if cov_yz.shape != (2 * d, 2 * d):
        raise ValueError("cov_yz must be the (2d, 2d) joint covariance of (Y, Z)")

    sign_m, logabs_m = np.linalg.slogdet(M)
    sign_mp, logabs_mp = np.linalg.slogdet(Mp)
    if sign_m == 0 or sign_mp == 0:
        raise SingularCovariance("mixing matrices must be invertible")

    cov_y = cov_yz[:d, :d]
    cov_z = cov_yz[d:, d:]
    cov_cross = cov_yz[:d, d:]          # Cov(Y, Z)

    lhs = (gaussian_entropy(_symmetrized(M @ cov_x @ M.T + cov_y))
           - gaussian_entropy(_symmetrized(Mp @ cov_x @ Mp.T + cov_z)))

    w = Mp @ np.linalg.inv(M)
    diff_cov = (w @ cov_y @ w.T - w @ cov_cross - cov_cross.T @ w.T + cov_z)
    h_diff = gaussian_entropy(_symmetrized(diff_cov))
    h_z_given_y = gaussian_entropy(cov_yz) - gaussian_entropy(cov_y)
    log2_det_w = (logabs_mp - logabs_m) / math.log(2.0)
    rhs = h_diff - h_z_given_y - log2_det_w
    return float(lhs), float(rhs), bool(lhs <= rhs + LEMMA2_SLACK)


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random symmetric positive definite matrix, comfortably conditioned."""
    a = rng.standard_normal((dim, dim))
    return a @ a.T + 0.5 * np.eye(dim)


def random_lemma2_instance(rng: np.random.Generator, max_dim: int = 4):
    """Random (M, Mp, cov_x, cov_yz) tuple for exercising check_lemma2."""
    d = int(rng.integers(1, max_dim + 1))

    def invertible() -> np.ndarray:
        while True:
            m = rng.standard_normal((d, d))
            if abs(np.linalg.det(m)) > 1e-3:
                return m

    return invertible(), invertible(), random_spd(rng, d), random_spd(rng, 2 * d)


def random_schedule(ch: ChannelRealization, plan: PhasePlan, n: int,
                    rng: np.random.Generator) -> AfSchedule:
    """Random schedule over an alphabet rich enough to reach every state.

    ``plan`` is ``plan_achievability(ch)``.  The coefficient set contains
    its two cancelling values, the two values nulling the remaining
    diagonal entries, a random filler, and zeros so some slots idle both
    relays.
    """
    c = plan.c
    null_c2 = -(c * ch.h_ud1 * ch.h_s1u) / (ch.h_vd1 * ch.h_s1v)
    null_c3 = -(c * ch.h_ud2 * ch.h_s2u) / (ch.h_vd2 * ch.h_s2v)
    u_vals = (c, 0.0)
    v_vals = (0.0, plan.lambda_phase1, plan.lambda_phase2, null_c2, null_c3,
              float(rng.uniform(0.2, 2.0)))
    index = rng.integers((len(u_vals), len(v_vals)), size=(n, 2))
    return AfSchedule(AfAlphabet(U=u_vals, V=v_vals), index)
