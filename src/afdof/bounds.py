"""Computable artifacts of the sum-rate outer bound.

Labels each slot's end-to-end matrix by the zero rule of scheme._label_ids
(the position of its single zero entry, or lack of one), counts those
states over a schedule, gives the slope coefficients of the three sum-rate
bounds, whose minimum caps the sum-DoF at 4/3, fuzzes that census on random schedules against the
channel's critical-ratio map, and numerically checks the Gaussian
entropy-difference lemma the bound proofs lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, end_to_end, nulling_coefficients
from .scheme import (_C1_ID, _LABELS, _ONE_ZERO_IDS, _ZERO_ID, AfSchedule,
                     PhasePlan, StateLabel, _label_ids)

_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)

# check_lemma2 compares lhs <= rhs + LEMMA2_SLACK, absorbing rounding in
# the entropy evaluations.
LEMMA2_SLACK = 1e-9

# The critical-ratio map matches lam/mu to a ratio r when
# |lam/mu - r| <= RATIO_MAP_REL_TOL * max(|lam/mu|, |r|), math.isclose's rule.
RATIO_MAP_REL_TOL = 1e-9

# Fuzz schedules are drawn into and labelled from (FUZZ_CHUNK, n) arrays, so
# the fuzz's memory does not grow with the number of schedules.
FUZZ_CHUNK = 32

# A fuzz alphabet's sizes: U is (c, 0), V five fixed values and a filler.
_FUZZ_GRID = (2, 6)


class ImpossiblePattern(Exception):
    """A scheduled pair whose matrix no state describes: two or more zero
    entries with at least one nonzero entry, or a vanishing matrix while a
    relay sends.  Genericity does not rule it out: a channel that passes
    check_conditions within COEF_TOL of a determinant boundary can give
    two critical ratios that the zero rule cannot tell apart."""


class SingularCovariance(Exception):
    """Covariance (or mixing matrix) too close to singular to evaluate."""


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

    @classmethod
    def of(cls, states: list[StateLabel]) -> StateCensus:
        """The census of a schedule's per-slot states."""
        return cls(*map(states.count, _LABELS), n=len(states))

    @property
    def nC(self) -> int:
        return self.nC1 + self.nC2 + self.nC3

    @property
    def nS(self) -> int:
        return self.n - self.nZero


def _grid_label_ids(ch: ChannelRealization, mu: np.ndarray,
                    lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_label_ids of the end_to_end matrices of broadcast mu and lam arrays.
    Zero means both relays idle; a matrix that vanishes while a relay sends
    is impossible (-1)."""
    table, zero = _label_ids(end_to_end(ch, mu, lam))
    table[(table == _ZERO_ID) & ((mu != 0.0) | (lam != 0.0))] = -1
    return table, zero


def _impossible(mu: float, lam: float, zeros: int) -> ImpossiblePattern:
    return ImpossiblePattern(
        f"pair ({mu}, {lam}): {zeros} zero entries with nonzero coefficients")


def _gather_label_ids(ch: ChannelRealization, U: tuple[float, ...],
                      V: np.ndarray,
                      index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's state, as an int8 position in StateLabel order, and its
    grid code i * |V| + j, for k schedules of n slots over one U and k rows
    of V, with (k, n, 2) index pairs (i, j).

    A slot's state depends only on its (mu, lambda) pair, so the k U x V
    grids are labelled at once and every slot reads its pair's label from
    them.  Only the pairs the schedules use can raise ImpossiblePattern,
    which names the first.
    """
    U = np.asarray(U, dtype=float)
    k, n = index.shape[:2]
    table, zero = _grid_label_ids(ch, U[:, None], V[:, None, :])
    codes = index[..., 0].astype(np.intp) * V.shape[1] + index[..., 1]
    ids = np.take_along_axis(table.reshape(k, -1).astype(np.int8), codes, 1)
    if table.min() < 0 and (ids < 0).any():
        j, slot = divmod(int(np.argmax(ids < 0)), n)
        i, v = index[j, slot]
        raise _impossible(float(U[i]), float(V[j, v]),
                          np.count_nonzero(zero[:, j, i, v]))
    return ids, codes


def slot_states(ch: ChannelRealization,
                schedule: AfSchedule) -> list[StateLabel]:
    """Per-slot state labels for a schedule."""
    ids, _ = _gather_label_ids(ch, schedule.alphabet.U,
                               np.array([schedule.alphabet.V]),
                               schedule.index[None])
    return [_LABELS[i] for i in ids[0].tolist()]


def census(ch: ChannelRealization, schedule: AfSchedule) -> StateCensus:
    """Classify every slot of a schedule and count the states."""
    return StateCensus.of(slot_states(ch, schedule))


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


def _fuzz_values(ch: ChannelRealization,
                 plan: PhasePlan) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A fuzz alphabet's U and the five fixed values of its V: the plan's
    cancelling values, the two values nulling the remaining diagonal
    entries, and zeros so some slots idle both relays."""
    null_c2, _, _, null_c3 = nulling_coefficients(ch, plan.c)
    return (plan.c, 0.0), (0.0, plan.lambda_phase1, plan.lambda_phase2,
                           null_c2, null_c3)


def _draw_fuzz(rng: np.random.Generator, n: int) -> tuple[float, np.ndarray]:
    """One fuzz schedule's draws, in stream order: its V filler, then its
    (n, 2) alphabet index pairs, each split from one uniform draw over the
    U x V grid."""
    filler = float(rng.uniform(0.2, 2.0))
    cell = rng.integers(_FUZZ_GRID[0] * _FUZZ_GRID[1], size=n)
    return filler, np.transpose(np.divmod(cell, _FUZZ_GRID[1]))


def _ratio_map_ids(ch: ChannelRealization, mu: np.ndarray,
                   lam: np.ndarray) -> np.ndarray:
    """States of broadcast (mu, lam) pairs by the critical-ratio map, in
    StateLabel order, without forming a matrix.

    Entry e of end_to_end(ch, mu, lam) vanishes exactly when lam/mu is
    r_e, the e-th of nulling_coefficients(ch, 1); the four r_e are distinct
    over a generic channel.  With mu and lam nonzero, the state is that of
    the one r_e within RATIO_MAP_REL_TOL of lam/mu, C1 if none is, and -1
    if several are.  mu = 0 or lam = 0 alone is C1; both zero is Zero.
    """
    r = np.array(nulling_coefficients(ch, 1.0))
    ratio = (lam / np.where(mu != 0.0, mu, 1.0))[..., None]
    hits = ((np.abs(ratio - r)
             <= RATIO_MAP_REL_TOL * np.maximum(np.abs(ratio), np.abs(r)))
            & ((mu != 0.0) & (lam != 0.0))[..., None])
    n_hits = hits.sum(axis=-1)
    ids = np.where(n_hits == 1, _ONE_ZERO_IDS[hits.argmax(axis=-1)],
                   np.where(n_hits == 0, _C1_ID, -1))
    return np.where((mu == 0.0) & (lam == 0.0), _ZERO_ID, ids)


def _fuzz_chunks(ch: ChannelRealization, plan: PhasePlan, n: int,
                 schedules: int, rng: np.random.Generator):
    """Census rows of ``schedules`` random schedules of n slots, each drawn
    from rng by _draw_fuzz, at most FUZZ_CHUNK at a time.

    Yields, per chunk of k schedules, their (k, 6) state counts in
    StateLabel order, row for row the census of each schedule, and their
    (k,) counts of slots whose state differs from _ratio_map_ids'.  Each
    schedule's alphabet is the fixed U x V[:5] grid plus its filler column,
    so a chunk's k grids are labelled in one _gather_label_ids call.
    """
    u_vals, v_fixed = _fuzz_values(ch, plan)
    mu = np.array(u_vals)[:, None]
    pairs = np.empty((FUZZ_CHUNK, n, 2), dtype=np.uint8)
    lam = np.empty((FUZZ_CHUNK, _FUZZ_GRID[1]))
    lam[:, :-1] = v_fixed
    for start in range(0, schedules, FUZZ_CHUNK):
        k = min(FUZZ_CHUNK, schedules - start)
        for j in range(k):
            lam[j, -1], pairs[j] = _draw_fuzz(rng, n)
        ids, codes = _gather_label_ids(ch, u_vals, lam[:k], pairs[:k])
        expected = _ratio_map_ids(ch, mu, lam[:k, None]).reshape(k, -1)
        rows = len(_LABELS) * np.arange(k)[:, None]
        counts = np.bincount((ids + rows).ravel(), minlength=len(_LABELS) * k)
        yield (counts.reshape(k, len(_LABELS)), np.count_nonzero(
            ids != np.take_along_axis(expected, codes, 1), axis=1))


def fuzz_census(ch: ChannelRealization, plan: PhasePlan, n: int,
                schedules: int, rng: np.random.Generator) -> tuple[int, int]:
    """Census of ``schedules`` random schedules of n slots, drawn from rng
    over _fuzz_values' alphabet plus a random filler, which reaches every
    state.

    Returns (violations, disagreements): the schedules whose smallest of
    |A|/n, |B|/n and |C|/n exceeds 1/3 (pigeonhole arithmetic, never on a
    valid census), and the slots whose census state is not the state the
    critical-ratio map gives their (mu, lam) pair.
    """
    if n < 1:
        raise ValueError("fuzz schedules need n >= 1 slots")
    violations = disagreements = 0
    for counts, wrong in _fuzz_chunks(ch, plan, n, schedules, rng):
        smallest = np.minimum(np.minimum(counts[:, 0], counts[:, 1]),
                              counts[:, 2:5].sum(axis=1))
        violations += int(np.count_nonzero(smallest / n > 1.0 / 3.0 + 1e-12))
        disagreements += int(wrong.sum())
    return violations, disagreements
