"""Computable artifacts of the sum-rate outer bound.

Labels each slot of a schedule, given as per-slot (mu, lam) arrays, by the
zero rule of scheme._label_ids (the position of its end-to-end matrix's
single zero entry, or lack of one), counts those states over a schedule,
gives the slope coefficients of the three sum-rate bounds, whose minimum
caps the sum-DoF at 4/3, probes the zero rule against the channel's
critical-ratio map on both sides of each critical ratio, and numerically
checks the Gaussian entropy-difference lemma the bound proofs lean on, on
random instances whose mixing is bounded so that none is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, end_to_end, nulling_coefficients
from .scheme import (_C1_ID, _LABELS, _ONE_ZERO_IDS, _ONE_ZERO_LABELS,
                     _ZERO_ID, PhasePlan, StateLabel, _label_ids)

_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)

# check_lemma2 compares lhs <= rhs + LEMMA2_SLACK, absorbing rounding in
# the entropy evaluations.
LEMMA2_SLACK = 1e-9

# random_lemma2_stacks redraws a pair (M, Mp) while ||Mp M^-1||_2 exceeds
# this; see its docstring for why that keeps its stacks nonsingular.
W_NORM_MAX = 1e3

# The critical-ratio map matches lam/mu to a ratio r when
# |lam/mu - r| <= RATIO_MAP_REL_TOL * max(|lam/mu|, |r|), math.isclose's rule.
RATIO_MAP_REL_TOL = 1e-9

# The ratio-map probe visits both sides of each critical ratio at these
# relative offsets, smallest first: 1e-13 ... 1e-3.
PROBE_OFFSETS = np.array([10.0 ** -k for k in range(13, 2, -1)])

# The range of the probe's random filler values of lambda.
FILLER_RANGE = (0.2, 2.0)


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


def _grid_label_ids(ch: ChannelRealization, mu: np.ndarray,
                    lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_label_ids of the end_to_end matrices of broadcast mu and lam arrays.
    Zero means both relays idle; a matrix that vanishes while a relay sends
    is impossible (-1)."""
    table, zero = _label_ids(end_to_end(ch, mu, lam))
    table[(table == _ZERO_ID) & ((mu != 0.0) | (lam != 0.0))] = -1
    return table, zero


def slot_states(ch: ChannelRealization, mu: np.ndarray,
                lam: np.ndarray) -> list[StateLabel]:
    """Per-slot state labels of a schedule given as equal-length 1-D arrays
    of finite relay coefficients, slot k using (mu[k], lam[k]).

    ImpossiblePattern names the first slot's pair that no state describes.
    """
    mu, lam = (np.asarray(a, dtype=float) for a in (mu, lam))
    if mu.ndim != 1 or mu.shape != lam.shape:
        raise ValueError("mu and lam must be equal-length 1-D arrays")
    if not (np.isfinite(mu).all() and np.isfinite(lam).all()):
        raise ValueError("schedule coefficients must be finite")
    ids, zero = _grid_label_ids(ch, mu, lam)
    if (ids < 0).any():
        k = int(np.argmax(ids < 0))
        raise ImpossiblePattern(
            f"pair ({mu[k]}, {lam[k]}): {np.count_nonzero(zero[:, k])} zero "
            "entries with nonzero coefficients")
    return [_LABELS[k] for k in ids.tolist()]


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
    M, Mp : (k, d, d) stacks of k invertible mixing matrices
    cov_x : (k, d, d) stack of covariances of X
    cov_yz : (k, 2d, 2d) stack of joint covariances of (Y, Z)

    Returns
    -------
    (lhs, rhs, holds), three (k,) arrays, lhs and rhs in bits.
    SingularCovariance is raised if any instance of the stack is singular.
    """
    M, Mp, cov_x, cov_yz = (np.asarray(a, dtype=float)
                            for a in (M, Mp, cov_x, cov_yz))
    if (M.ndim != 3 or M.shape[1] != M.shape[2] or Mp.shape != M.shape
            or cov_x.shape != M.shape):
        raise ValueError("M, Mp and cov_x must all be (k, d, d) stacks")
    k, d = M.shape[:2]
    if cov_yz.shape != (k, 2 * d, 2 * d):
        raise ValueError("cov_yz must be the (k, 2d, 2d) covariances of (Y, Z)")
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
    return lhs, rhs, lhs <= rhs + LEMMA2_SLACK


def random_spd(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A (*shape, shape[-1]) stack of random symmetric positive definite
    matrices A A^T + I/2, A standard normal: every eigenvalue is >= 1/2."""
    a = rng.standard_normal((*shape, shape[-1]))
    return a @ _transposed(a) + 0.5 * np.eye(shape[-1])


def random_lemma2_stacks(rng: np.random.Generator, count: int,
                         max_dim: int = 4) -> list:
    """``count`` random check_lemma2 instances of dimensions 1..max_dim, as
    one (M, Mp, cov_x, cov_yz) stack per dimension drawn, smallest first.

    A pair (M, Mp) is redrawn while ||W||_2 > W_NORM_MAX, W = Mp M^-1, so no
    stack can be singular.  Every covariance check_lemma2 forms has
    eigenvalues >= 1/2: random_spd adds I/2, and Cov(WY - Z) is
    [W, -I] cov_yz [W, -I]^T, where every singular value of [W, -I] is >= 1.
    gaussian_entropy's relative test then fires only on a covariance whose
    largest diagonal entry is 5e11 or more.  Measured with one singular
    value of W set to t, the rest <= 1, over 7000 instances with d = 2..8:
    none raised at t = 1e3 or 1e5, and 6996 did at t = 1e8.  The bound has
    a margin of at least 100x.
    """
    dims = rng.integers(1, max_dim + 1, size=count)
    stacks = []
    for d, k in zip(*np.unique(dims, return_counts=True)):
        pairs = np.empty((k, 2, d, d))
        far = np.ones(k, dtype=bool)
        while far.any():
            pairs[far] = rng.standard_normal((np.count_nonzero(far), 2, d, d))
            w = pairs[:, 1] @ np.linalg.inv(pairs[:, 0])
            far = np.linalg.norm(w, ord=2, axis=(-2, -1)) > W_NORM_MAX
        stacks.append((pairs[:, 0], pairs[:, 1], random_spd(rng, (k, d)),
                       random_spd(rng, (k, 2 * d))))
    return stacks


def _fuzz_values(ch: ChannelRealization,
                 plan: PhasePlan) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The fuzz alphabet's U and the five fixed values of its V: the plan's
    cancelling values, the two values nulling the remaining diagonal
    entries, and zeros, so its grid holds every state."""
    null_c2, _, _, null_c3 = nulling_coefficients(ch, plan.c)
    return (plan.c, 0.0), (0.0, plan.lambda_phase1, plan.lambda_phase2,
                           null_c2, null_c3)


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


@dataclass(frozen=True)
class RatioProbe:
    """How the zero rule's labels compare with the critical-ratio map's on
    the pairs of ratio_map_probe."""

    probes: int  # pairs labelled by both rules
    violations: int  # pairs that break the agreement rule
    disagreements: int  # pairs labelled differently inside a band
    band: dict[str, float]  # per entry, keyed by its one-zero state


def ratio_map_probe(ch: ChannelRealization, plan: PhasePlan,
                    fillers) -> RatioProbe:
    """Label probe pairs once by the zero rule and once by the critical-ratio
    map, and count the pairs that break the rule the two must agree by.

    The pairs are the U x V grid of _fuzz_values, a walk to each side of
    each critical value c r_e of lambda, (c, c r_e (1 -+ d)) for d in
    PROBE_OFFSETS, and (c, f) and (0, f) for each filler f.

    The two rules measure different things near r_e: the zero rule entry
    e's size against the largest entry, the map lambda/mu's distance from
    r_e against RATIO_MAP_REL_TOL.  So along each walk both rules must
    switch once, from entry e's state to C1, with the state at the smallest
    offset and C1 at the largest; between the two switches they may
    disagree.  Entry e's band is the smallest probed offset at which both
    rules have switched to C1 on both sides.  A filler inside a band may get
    that entry's state or C1 from either rule; every other pair must get
    the same label from both.
    """
    crit = np.array(nulling_coefficients(ch, plan.c))
    walks = crit[:, None, None] * (
        1.0 + np.array([-1.0, 1.0])[:, None] * PROBE_OFFSETS)  # entry, side, d
    fillers = np.asarray(fillers, dtype=float)
    u_vals, v_fixed = _fuzz_values(ch, plan)
    grid_mu, grid_lam = np.meshgrid(u_vals, v_fixed, indexing="ij")
    mu = np.concatenate([np.full(walks.size + len(fillers), plan.c),
                         grid_mu.ravel(), np.zeros(len(fillers))])
    lam = np.concatenate([walks.ravel(), fillers, grid_lam.ravel(), fillers])
    ids = np.stack([_grid_label_ids(ch, mu, lam)[0],
                    _ratio_map_ids(ch, mu, lam)])  # (rule, pair)
    differ = ids[0] != ids[1]

    # Each rule's single switch along a walk: as many of entry e's state as
    # the walk has, then C1, and never C1 first or the state last.
    walk_ids = ids[:, :walks.size].reshape(2, *walks.shape)
    state = _ONE_ZERO_IDS[:, None, None]
    switch = np.count_nonzero(walk_ids == state, axis=-1, keepdims=True)
    step = np.where(np.arange(len(PROBE_OFFSETS)) < switch, state, _C1_ID)
    step[..., 0], step[..., -1] = state[..., 0], _C1_ID
    off_walk = (walk_ids != step).any(axis=0).ravel()
    band = PROBE_OFFSETS[np.minimum(switch, len(PROBE_OFFSETS) - 1)].max(
        axis=(0, 2, 3))

    fill = slice(walks.size, walks.size + len(fillers))
    in_band = np.abs(fillers[:, None] / crit - 1.0) < band
    either = ((ids[:, fill, None] == _ONE_ZERO_IDS)
              | (ids[:, fill, None] == _C1_ID)).all(axis=0)
    bad = differ.copy()
    bad[:walks.size] = off_walk
    bad[fill] &= ~(in_band & either).any(axis=1)
    return RatioProbe(
        probes=len(mu), violations=int(np.count_nonzero(bad)),
        disagreements=int(np.count_nonzero(differ & ~bad)),
        band={s.value: float(b) for s, b in zip(_ONE_ZERO_LABELS, band)})
