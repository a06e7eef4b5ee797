"""Computable artifacts of the sum-rate outer bound.

Classifies each slot's end-to-end matrix by the position of its single
zero entry (or lack of one), counts those states over a schedule, gives
the slope coefficients of the three sum-rate bounds, whose minimum caps
the sum-DoF at 4/3, and numerically checks the Gaussian entropy-difference
lemma the bound proofs lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (
    ChannelRealization,
    EndToEndMatrix,
    end_to_end,
    nulling_coefficients,
)
from .scheme import COEF_TOL, AfAlphabet, AfSchedule, PhasePlan

_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)

# check_lemma2 compares lhs <= rhs + LEMMA2_SLACK, absorbing rounding in
# the entropy evaluations.
LEMMA2_SLACK = 1e-9


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

# The label of a matrix whose only zero is entry e, in entry order
# (alpha1, beta1, alpha2, beta2).
_ONE_ZERO_LABELS = (StateLabel.C2, StateLabel.B, StateLabel.A, StateLabel.C3)
_ZERO_ID = _LABELS.index(StateLabel.ZERO)
# Label position by zero pattern, bit e set when entry e is zero.  Two or
# more zeros (-1) are impossible unless all four are, which _label_ids
# labels Zero apart.
_PATTERN_IDS = np.full(16, -1)
_PATTERN_IDS[0] = _LABELS.index(StateLabel.C1)
_PATTERN_IDS[[1, 2, 4, 8]] = [_LABELS.index(s) for s in _ONE_ZERO_LABELS]


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


def _label_ids(G: EndToEndMatrix) -> tuple[np.ndarray, np.ndarray]:
    """State positions, in StateLabel order, of end-to-end matrices whose
    fields are floats or same-shape arrays, and their (4, ...) zero mask.

    This is the one zero rule: an entry is zero at or below COEF_TOL times
    the largest-magnitude entry of its matrix, the decoders' rule.  An
    all-zero matrix is Zero.  Two or three zeros cannot happen over a
    generic channel, so those patterns get -1 (a tolerance or genericity
    bug).
    """
    magnitude = np.abs(G.entries())
    scale = magnitude.max(axis=0)
    zero = magnitude <= COEF_TOL * scale
    pattern = _PATTERN_IDS[np.packbits(zero, axis=0, bitorder="little")[0]]
    return np.where(scale == 0.0, _ZERO_ID, pattern), zero


def _slot_label_ids(ch: ChannelRealization,
                    schedule: AfSchedule) -> np.ndarray:
    """Each slot's state as a position in StateLabel order.

    A slot's state depends only on its (mu, lambda) index pair, so the
    end_to_end matrices of the whole U x V alphabet grid are labelled at
    once and every slot reads its pair's label from that table.  Zero means
    both relays idle; a matrix that vanishes while a relay sends is
    impossible.  Only the pairs the schedule uses can raise
    ImpossiblePattern.
    """
    mu = np.array(schedule.alphabet.U)[:, None]
    lam = np.array(schedule.alphabet.V)
    table, zero = _label_ids(end_to_end(ch, mu, lam))
    table[(table == _ZERO_ID) & ((mu != 0.0) | (lam != 0.0))] = -1
    iu, iv = schedule.index.T
    ids = table[iu, iv]
    if table.min() < 0 and (ids < 0).any():
        i, j = schedule.index[np.argmax(ids < 0)]
        raise ImpossiblePattern(
            f"pair ({schedule.alphabet.U[i]}, {schedule.alphabet.V[j]}): "
            f"{np.count_nonzero(zero[:, i, j])} zero entries with nonzero "
            "coefficients")
    return ids


def slot_states(ch: ChannelRealization,
                schedule: AfSchedule) -> list[StateLabel]:
    """Per-slot state labels for a schedule."""
    return [_LABELS[i] for i in _slot_label_ids(ch, schedule).tolist()]


def census(ch: ChannelRealization, schedule: AfSchedule) -> StateCensus:
    """Classify every slot of a schedule and count the states."""
    ids = _slot_label_ids(ch, schedule)
    return StateCensus(*np.bincount(ids, minlength=len(_LABELS)).tolist(), n=len(ids))


def bound_slopes(census_counts: StateCensus) -> tuple[float, float, float]:
    """Slope coefficients 1 + |L|/n of the three sum-rate bounds, for L = C,
    B and A in that order.

    Each bound grows as (1/2)(1 + |L|/n) log2 P, so the smallest
    coefficient caps the sum-DoF: 4/3 on a balanced census.
    """
    n = census_counts.n
    return tuple(1.0 + count / n for count in
                 (census_counts.nC, census_counts.nB, census_counts.nA))


def min_census_fraction(census_counts: StateCensus) -> tuple[str, float]:
    """Smallest of |A|/n, |B|/n, |C|/n; ties break in that order.

    Always at most 1/3, and strictly less when any slot idles both relays.
    """
    counts = (("A", census_counts.nA), ("B", census_counts.nB),
              ("C", census_counts.nC))
    name, count = min(counts, key=lambda kv: kv[1])
    return name, count / census_counts.n


def _transposed(mat: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a (..., m, n) stack."""
    return np.swapaxes(mat, -1, -2)


def gaussian_entropy(cov):
    """Differential entropy of a Gaussian with the given covariance, in bits.

    ``cov`` is one (d, d) covariance, which gives a float, or a (..., d, d)
    stack of them, which gives an array of the leading shape.  Every matrix
    must be finite and symmetric; SingularCovariance is raised if any one of
    them is not numerically positive definite.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    dim = cov.shape[-1]
    if cov.shape[-2] != dim or dim < 1:
        raise ValueError("covariance must be a square matrix")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance must be finite")
    cov_t = _transposed(cov)
    # np.allclose's rule per matrix: rtol 1e-9, atol 1e-12 * max(1, max|cov|)
    atol = 1e-12 * np.maximum(1.0, np.abs(cov).max(axis=(-2, -1)))
    if not np.all(np.abs(cov - cov_t)
                  <= atol[..., None, None] + 1e-9 * np.abs(cov_t)):
        raise ValueError("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"covariance not positive definite: {exc}") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    if np.any(diag.min(axis=-1) ** 2
              <= 1e-12 * np.diagonal(cov, axis1=-2, axis2=-1).max(axis=-1)):
        raise SingularCovariance("covariance determinant below tolerance")
    h = 0.5 * dim * _LOG2_2PIE + np.sum(np.log2(diag), axis=-1)
    return float(h) if cov.ndim == 2 else h


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + _transposed(mat))


def check_lemma2(M, Mp, cov_x, cov_yz):
    """Evaluate both sides of the entropy-difference inequality

        h(M X + Y) - h(M' X + Z)
            <= h(M' M^-1 Y - Z) - h(Z | Y) - log2 |det(M' M^-1)|

    for jointly Gaussian (X, Y, Z) with X independent of (Y, Z).

    Parameters
    ----------
    M, Mp : (d, d) invertible mixing matrices, or (k, d, d) stacks of k
    cov_x : (d, d) covariance of X, or a (k, d, d) stack
    cov_yz : (2d, 2d) joint covariance of (Y, Z), or a (k, 2d, 2d) stack

    Returns
    -------
    (lhs, rhs, holds) with everything in bits: a float, a float and a bool
    for one instance, or three (k,) arrays for a stack.  SingularCovariance
    is raised if any instance of a stack is singular.
    """
    M, Mp, cov_x, cov_yz = (np.asarray(a, dtype=float)
                            for a in (M, Mp, cov_x, cov_yz))
    single = M.ndim <= 2
    if single:
        M, Mp, cov_x, cov_yz = (np.atleast_2d(a)[None]
                                for a in (M, Mp, cov_x, cov_yz))
    k, d = M.shape[0], M.shape[-1]
    if M.shape != (k, d, d) or Mp.shape != M.shape or cov_x.shape != M.shape:
        raise ValueError("M, Mp and cov_x must all be (d, d), or (k, d, d) stacks")
    if cov_yz.shape != (k, 2 * d, 2 * d):
        raise ValueError("cov_yz must be the (2d, 2d) joint covariance of (Y, Z)")
    for name, a in (("M", M), ("Mp", Mp), ("cov_x", cov_x), ("cov_yz", cov_yz)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")

    sign_m, logabs_m = np.linalg.slogdet(M)
    sign_mp, logabs_mp = np.linalg.slogdet(Mp)
    if np.any(sign_m == 0) or np.any(sign_mp == 0):
        raise SingularCovariance("mixing matrices must be invertible")

    cov_y = cov_yz[:, :d, :d]
    cov_z = cov_yz[:, d:, d:]
    cov_cross = cov_yz[:, :d, d:]       # Cov(Y, Z)

    lhs = (gaussian_entropy(_symmetrized(M @ cov_x @ _transposed(M) + cov_y))
           - gaussian_entropy(
               _symmetrized(Mp @ cov_x @ _transposed(Mp) + cov_z)))

    w = Mp @ np.linalg.inv(M)
    w_t = _transposed(w)
    diff_cov = (w @ cov_y @ w_t - w @ cov_cross - _transposed(cov_cross) @ w_t
                + cov_z)
    h_diff = gaussian_entropy(_symmetrized(diff_cov))
    h_z_given_y = gaussian_entropy(cov_yz) - gaussian_entropy(cov_y)
    log2_det_w = (logabs_mp - logabs_m) / math.log(2.0)
    rhs = h_diff - h_z_given_y - log2_det_w
    holds = lhs <= rhs + LEMMA2_SLACK
    if single:
        return float(lhs[0]), float(rhs[0]), bool(holds[0])
    return lhs, rhs, holds


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
    null_c2, _, _, null_c3 = nulling_coefficients(ch, plan.c)
    u_vals = (plan.c, 0.0)
    v_vals = (0.0, plan.lambda_phase1, plan.lambda_phase2, null_c2, null_c3,
              float(rng.uniform(0.2, 2.0)))
    index = rng.integers((len(u_vals), len(v_vals)), size=(n, 2))
    return AfSchedule(AfAlphabet(U=u_vals, V=v_vals), index)
