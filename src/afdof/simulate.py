"""Sample-level Monte Carlo simulation of the two-hop chain.

sweep_power_grid is the one entry to the chain; a single power is its
grid of one.  Relay slot k forwards the relays' slot-k received sample
scaled by the schedule's slot-k coefficients, so L schedule slots carry L
source slots to L destination samples; the relays' one-slot latency shifts
every sample alike and is not modelled.  keyed_rng builds every random
stream but the channel draw.  The chain runs once, on a block's unit
impulses, for each draw's weight in the decoded errors, so every MSE of a
sweep is a quadratic form in the Gram matrix S of its blocks' draws.  A
sweep draws S itself (_gram), a Wishart matrix, and every power reads that
one draw; memory and time do not depend on the number of blocks.  Relay
powers have a closed form, scheme.relay_powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .scheme import (
    PhasePlan,
    achievable_rate,
    check_power,
    phase_matrices,
    reconstruct_d1,
    reconstruct_d2,
)

# Stream purposes.  Each purpose has one stream per seed.
SWEEP, FUZZ, LEMMA, SAMPLE_CONDITIONS = range(4)

# The normals of one block, in the order of the block weights' columns and
# the Gram matrix's rows: the symbols a1, a2, b1, b2, then zu for phases
# 1-3, zv for phases 1-2 (relay v is silent in phase 3), zd1 for phases 1-3
# and zd2 for phases 1-3.
BLOCK_DRAWS = 15


class InsufficientGrid(Exception):
    """The power grid cannot support a meaningful slope fit."""


@dataclass(frozen=True)
class SchemeStats:
    """Reconstruction MSEs at power P, each a mean over a sweep's N blocks."""

    P: float
    mse_a1: float
    mse_a2: float
    mse_b1: float
    mse_b2: float

    @property
    def R1(self) -> float:
        return achievable_rate(self.P, self.mse_a1, self.mse_a2)

    @property
    def R2(self) -> float:
        return achievable_rate(self.P, self.mse_b1, self.mse_b2)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of sum rate against half-log power."""

    grid: tuple[float, ...]
    sum_rates: tuple[float, ...]
    slope: float
    intercept: float
    residual: float


@dataclass(frozen=True)
class RateReport:
    """DoF slopes of one power sweep: the sum-rate fit and each user's slope."""

    sum_fit: SlopeFit
    slope_user1: float
    slope_user2: float

    @property
    def slope_sum(self) -> float:
        return self.sum_fit.slope


def keyed_rng(purpose: int, seed: int) -> np.random.Generator:
    """The SFC64 generator of one stream.  SeedSequence hashes the 32-bit
    words of ``seed``, zero-padded to four, then ``(purpose, 0)``.  Read
    from the end these give back purpose and seed, so distinct purposes
    hash distinct words.  ``sample_channel``'s ``default_rng(s)`` is a
    PCG64 generator, so no keyed stream replays it."""
    if seed < 0:
        raise ValueError(f"stream seed {seed} < 0")
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(purpose, 0))))


def _chain(ch: ChannelRealization, mu, lam, x1, x2, zu, zv, zd1, zd2):
    """Run the physical chain: each relay scales its received sample by its
    coefficient, a scalar or one per slot, and both relays reach both
    destinations.  Returns the destination samples y1, y2 and the relays'
    sent samples xu, xv; writes none of its inputs."""
    xu = (ch.h_s1u * x1 + ch.h_s2u * x2 + zu) * mu
    xv = (ch.h_s1v * x1 + ch.h_s2v * x2 + zv) * lam
    y1 = ch.h_ud1 * xu + ch.h_vd1 * xv + zd1
    y2 = ch.h_ud2 * xu + ch.h_vd2 * xv + zd2
    return y1, y2, xu, xv


def _block_weights(ch: ChannelRealization, plan: PhasePlan) -> np.ndarray:
    """The (4, BLOCK_DRAWS) weights of a block's draws in the errors of its
    decoded streams (a1, a2, b1, b2): decoded minus sent for the symbols.
    The relay coefficients do not depend on P, so the chain and decoders
    are linear.  Raises DegenerateCoefficients as phase_matrices does."""
    G = phase_matrices(ch, plan)
    a1, a2, b1, b2, zu1, zu2, zu3, zv1, zv2, *zd = np.eye(BLOCK_DRAWS)
    inputs = ((a1, b1, zu1, zv1, zd[0], zd[3]),
              (a2, b2, zu2, zv2, zd[1], zd[4]),
              (a1, b2, zu3, 0.0, zd[2], zd[5]))  # relay v is silent
    y1, y2 = zip(*(_chain(ch, mu, lam, *phase)[:2]
                   for (mu, lam), phase in zip(plan.phase_pairs(), inputs)))
    weights = np.array((*reconstruct_d1(*y1, *G), *reconstruct_d2(*y2, *G)))
    weights[:, :4] -= np.eye(4)
    return weights


def _gram(rng: np.random.Generator, n: int) -> np.ndarray:
    """S = sum_k g_k g_k^T over n blocks of BLOCK_DRAWS standard normals,
    drawn as itself: S is Wishart(BLOCK_DRAWS, n, I), so by Bartlett's
    decomposition S = T T^T, T lower trapezoidal of m = min(n, BLOCK_DRAWS)
    columns, all independent: T_jj**2 chi-square of n - j degrees of freedom,
    drawn first, then standard normals below the diagonal in np.tril_indices
    order (Odell and Feiveson, JASA 61(313), 1966).  For n < BLOCK_DRAWS, with
    G = [g_1 ... g_n] = [L1 Q; G2] (Q orthogonal, L1 Bartlett's n x n factor),
    G2 Q^T is iid normal and independent of L1, as G2 is of Q, so S = G G^T =
    T T^T with T = [L1; G2 Q^T] (Srivastava, Ann. Statist. 31(5), 2003)."""
    m = min(n, BLOCK_DRAWS)
    T = np.eye(BLOCK_DRAWS, m) * np.sqrt(rng.chisquare(n - np.arange(m)))
    below = np.tril_indices(BLOCK_DRAWS, -1, m)
    T[below] = rng.standard_normal(len(below[0]))
    return T @ T.T


def _gram_stats(weights: np.ndarray, S: np.ndarray, n: int,
                grid) -> list[SchemeStats]:
    """One SchemeStats per power of the grid from the (4, BLOCK_DRAWS)
    block weights and the Gram matrix S of n blocks' draws.  With w_s the
    weights on the symbols and w_n those on the noise, a stream's squared
    error sum at power P is P*A + 2*sqrt(P)*B + C, A = w_s S w_s,
    B = w_s S w_n and C = w_n S w_n: in real arithmetic
    sum_k (sqrt(P) w_s.g_k + w_n.g_k)**2.  A, B and C do not depend on P,
    so point i equals the grid of one, (grid[i],)."""
    w_s = weights * (np.arange(BLOCK_DRAWS) < 4)
    w_n = weights - w_s
    A, B, C = (np.sum(u @ S * v, axis=1)
               for u, v in ((w_s, w_s), (w_s, w_n), (w_n, w_n)))
    return [SchemeStats(P, *((P * A + 2.0 * math.sqrt(P) * B + C) / n).tolist())
            for P in grid]


def sweep_power_grid(ch: ChannelRealization, plan: PhasePlan, grid,
                     n_triples: int, trials: int, seed: int) -> list[SchemeStats]:
    """Simulate trials of n_triples three-phase blocks at each power of the
    grid, decode, and return one SchemeStats per power, in grid order.

    Source symbols are zero-mean Gaussian with variance P.  A block sends
    (a1, b1), (a2, b2), (a1, b2): in phase 3 user 1 resends its first
    symbol and user 2 its second.  Each phase runs through _chain with its
    coefficients of plan.phase_pairs(), the slots of scheme_schedule(plan,
    n_triples); relay v is silent in phase 3, so no noise is drawn for it.
    check_power (on every power) and _block_weights (DegenerateCoefficients
    unless the phases are B, A and C1) run before any draw.

    _block_weights gives each decoded stream's error, decoded minus sent,
    as a weighting of a block's BLOCK_DRAWS unit-variance normals, so the
    MSEs of N = trials * n_triples blocks are quadratic forms in their Gram
    matrix S (_gram_stats).  The sweep's one generator,
    keyed_rng(SWEEP, seed), draws S by _gram, and every power reads it
    (common random numbers); trials and n_triples enter only through N.
    The MSEs have the joint law of summing N blocks' errors: each point's
    N * MSE / sigma^2 is chi-square with N degrees of freedom, and the
    bounds read from a sweep are union bounds over its points, which need
    no independence.  A and B carry the symbols' leak through entries zero
    only to COEF_TOL.  Rates come from the analytic formula fed by these
    MSEs.
    """
    grid = [float(P) for P in grid]
    for P in grid:
        check_power(P)
    if n_triples < 1 or trials < 1:
        raise ValueError("n_triples and trials must be >= 1")
    weights = _block_weights(ch, plan)
    n = trials * n_triples
    return _gram_stats(weights, _gram(keyed_rng(SWEEP, seed), n), n, grid)


def estimate_dof_slope(rates) -> SlopeFit:
    """OLS fit of sum rate y against x = (1/2) log2 P; the slope is the
    empirical sum-DoF.  In closed form, every sum a math.fsum:

        slope = sum (x - mean x)(y - mean y) / sum (x - mean x)**2
        intercept = mean y - slope * mean x

    Requires at least 4 strictly increasing finite powers >= 1 spanning at
    least 4 decades.
    """
    pts = [(float(p), float(r)) for p, r in rates]
    if len(pts) < 4:
        raise InsufficientGrid("need at least 4 grid points")
    powers = [p for p, _ in pts]
    if not all(1 <= p < math.inf for p in powers):
        raise InsufficientGrid("grid powers must be finite and >= 1")
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise InsufficientGrid("grid must be strictly increasing")
    if math.log10(powers[-1] / powers[0]) < 4 - 1e-9:
        raise InsufficientGrid("grid must span at least 4 decades")
    x = 0.5 * np.array([math.log2(p) for p in powers])
    y = np.array([r for _, r in pts])
    x_bar, y_bar = math.fsum(x) / len(x), math.fsum(y) / len(y)
    slope = math.fsum((x - x_bar) * (y - y_bar)) / math.fsum((x - x_bar) ** 2)
    intercept = y_bar - slope * x_bar
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SlopeFit(grid=tuple(powers), sum_rates=tuple(y),
                    slope=float(slope), intercept=float(intercept),
                    residual=resid)


def fit_rate_report(points: list[SchemeStats]) -> RateReport:
    """Fit per-user and sum DoF slopes over a measured power sweep."""
    return RateReport(
        sum_fit=estimate_dof_slope([(p.P, p.R1 + p.R2) for p in points]),
        slope_user1=estimate_dof_slope([(p.P, p.R1) for p in points]).slope,
        slope_user2=estimate_dof_slope([(p.P, p.R2) for p in points]).slope)
