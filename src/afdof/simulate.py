"""Sample-level Monte Carlo simulation of the two-hop chain.

sweep_power_grid is the one entry to the chain; run_scheme_trials is its
grid of one.  Relay slot k forwards the relays' slot-k received sample
scaled by the schedule's slot-k coefficients, so L schedule slots carry L
source slots to L destination samples; the relays' one-slot latency shifts
every sample alike and is not modelled.  keyed_rng builds every random
stream but the channel draw.  A sweep has one generator whose draws every
power reads, BLOCK_DRAWS normals per block, trial t's after trial t - 1's.
Each tile runs the linear chain twice, symbols alone and noise alone, and
a leaf of LEAF triples keeps per stream three np.sums whose squared error
at power P is P*A + 2*sqrt(P)*B + C; a trial's leaf sums go through
math.fsum.  The chain runs phase by phase in tiles of whole trials, or of
one leaf of a longer trial, so memory is a tile and its zero-noise twin,
and results depend on neither the tiling, the number of trials nor the
rest of the grid.  Relay powers have a closed form, scheme.relay_powers.
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

# The normals of one block, in draw order: the symbols a1, a2, b1, b2, then
# zu for phases 1-3, zv for phases 1-2 (relay v is silent in phase 3), zd1
# for phases 1-3 and zd2 for phases 1-3.
BLOCK_DRAWS = 15

# sweep_power_grid sums a trial in leaves of LEAF triples.  Trials of one
# leaf share tiles of at most GROUP_CAP slots; a longer trial runs one leaf
# per tile, whatever the cap.  3 * LEAF <= GROUP_CAP, so a tile's draws,
# zero noise, chain scratch and decoded streams take at most 2 MB.
LEAF = 2 ** 12
GROUP_CAP = 2 ** 14


class InsufficientGrid(Exception):
    """The power grid cannot support a meaningful slope fit."""


@dataclass(frozen=True)
class SchemeStats:
    """Trial-averaged reconstruction MSEs at power P."""

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


def _chain(ch: ChannelRealization, mu, lam, x1, x2, zu, zv, zd1, zd2, t1, t2):
    """Run the physical chain: each relay scales its received sample by its
    coefficient, a scalar or one per slot, and both relays reach both
    destinations.  Works in place, with t1 and t2 as scratch: yu then xu
    over zu, yv then xv over zv, y1 over zd1 and y2 over zd2; x1 and x2 are
    only read."""
    def mix(a, x, b, y, z):  # z <- (a*x + b*y) + z
        np.add(np.multiply(x, a, out=t1), np.multiply(y, b, out=t2), out=t1)
        return np.add(t1, z, out=z)

    xu = np.multiply(mix(ch.h_s1u, x1, ch.h_s2u, x2, zu), mu, out=zu)
    xv = np.multiply(mix(ch.h_s1v, x1, ch.h_s2v, x2, zv), lam, out=zv)
    y1 = mix(ch.h_ud1, xu, ch.h_vd1, xv, zd1)
    y2 = mix(ch.h_ud2, xu, ch.h_vd2, xv, zd2)
    return y1, y2, xu, xv


def sweep_power_grid(ch: ChannelRealization, plan: PhasePlan, grid,
                     n_triples: int, trials: int, seed: int) -> list[SchemeStats]:
    """Simulate trials of n_triples three-phase blocks at each power of the
    grid, decode, and return one SchemeStats per power, in grid order.

    Source symbols are zero-mean Gaussian with variance P.  A block sends
    (a1, b1), (a2, b2), (a1, b2): in phase 3 user 1 resends its first
    symbol and user 2 its second.  Each phase runs through _chain with its
    coefficients of plan.phase_pairs(), the slots of scheme_schedule(plan,
    n_triples); relay v is silent in phase 3, so no noise is drawn for it.
    check_power (on every power) and phase_matrices (DegenerateCoefficients
    unless the phases are B, A and C1) run before any draw.

    The sweep has one generator, keyed_rng(SWEEP, seed), and every power
    reads its draws (common random numbers).  The relay coefficients do
    not depend on P, so the chain and decoders are linear, and each tile
    runs through them twice: its unit-variance symbols with zero noise
    (the signal path), and its noise, in place, with zero symbols.  With
    e_s the decoded signal minus the sent symbol and e_n the decoded
    noise, a stream's squared error at power P is P*A + 2*sqrt(P)*B + C,
    A = sum e_s**2, B = sum e_s*e_n and C = sum e_n**2: in real arithmetic
    sum (sqrt(P)*e_s + e_n)**2.  A and B carry the symbols' leak through
    entries zero only to COEF_TOL.  Point i equals run_scheme_trials at
    grid[i] and the same seed.  Each point's N * MSE / sigma^2 is still
    chi-square with N degrees of freedom, and the bounds read from a sweep
    are union bounds over its points, which need no independence.  Rates
    come from the analytic formula fed by these MSEs.

    A trial's A, B and C are np.sums over consecutive leaves of LEAF
    triples (the last holds the remainder), and each power's leaf sums go
    through math.fsum.  A tile is as many whole trials as fit in GROUP_CAP
    slots when n_triples <= LEAF, else one leaf of one trial; it fills a
    (rows, BLOCK_DRAWS, w) array in C order, so each (trial, leaf) of w
    triples reads the next BLOCK_DRAWS * w normals.  Memory is a tile's
    draws and the signal path's zero noise, whatever the grid, and results
    depend neither on the tiling nor on the number of trials.
    """
    grid = [float(P) for P in grid]
    for P in grid:
        check_power(P)
    if n_triples < 1 or trials < 1:
        raise ValueError("n_triples and trials must be >= 1")
    G = phase_matrices(ch, plan)
    rng = keyed_rng(SWEEP, seed)
    span = min(n_triples, LEAF)  # the longest tile
    group = max(1, min(trials, GROUP_CAP // (3 * span))) if n_triples <= LEAF else 1
    widths = [min(LEAF, n_triples - pos) for pos in range(0, n_triples, LEAF)]
    # A tile's draws, whose noise the noise path overwrites; the chain's
    # scratch t1, t2 and relay v's phase-3 input, which phase 3's lam = 0
    # keeps zero.
    draws = np.empty(group * BLOCK_DRAWS * span)
    scratch = np.zeros((3, group * span))

    def decode(x, z):
        """The decoded streams (a1, a2, b1, b2) of symbols x and noise z."""
        a1, a2, b1, b2 = x
        rows, _, w = z.shape
        zu1, zu2, zu3, zv1, zv2, *zd = z.transpose(1, 0, 2)
        t1, t2, zv3 = scratch[:, :rows * w].reshape(3, rows, w)
        inputs = ((a1, b1, zu1, zv1, zd[0], zd[3]),
                  (a2, b2, zu2, zv2, zd[1], zd[4]),
                  (a1, b2, zu3, zv3, zd[2], zd[5]))
        y1, y2 = zip(*(_chain(ch, mu, lam, *phase, t1, t2)[:2]
                       for (mu, lam), phase in zip(plan.phase_pairs(), inputs)))
        return (*reconstruct_d1(*y1, *G), *reconstruct_d2(*y2, *G))

    sq_errs = [[] for _ in grid]  # per power, per trial: (a1, a2, b1, b2)
    power = np.reshape(grid, (-1, 1, 1, 1))
    for first in range(0, trials, group):
        rows = min(group, trials - first)
        terms = np.empty((3, len(widths), 4, rows))  # A, B, C per leaf and stream
        for leaf, w in enumerate(widths):
            block = draws[:rows * BLOCK_DRAWS * w].reshape(rows, BLOCK_DRAWS, w)
            rng.standard_normal(out=block)
            z = np.zeros((rows, BLOCK_DRAWS - 4, w))  # the chain overwrites it
            sent = block[:, :4].transpose(1, 0, 2)
            e_s = np.subtract(decode(sent, z), sent)
            e_n = np.array(decode((0.0,) * 4, block[:, 4:]))
            for j, (u, v) in enumerate(((e_s, e_s), (e_s, e_n), (e_n, e_n))):
                np.sum(u * v, axis=2, out=terms[j, leaf])
        leaf_sums = power * terms[0] + 2.0 * np.sqrt(power) * terms[1] + terms[2]
        for point, sums in zip(sq_errs, leaf_sums.transpose(0, 3, 2, 1).tolist()):
            point += [list(map(math.fsum, trial)) for trial in sums]
    return [SchemeStats(P, *(sum(c) / (trials * n_triples) for c in zip(*point)))
            for P, point in zip(grid, sq_errs)]


def run_scheme_trials(ch: ChannelRealization, plan: PhasePlan, P: float,
                      n_triples: int, trials: int, seed: int) -> SchemeStats:
    """The stream MSEs at one power: the grid of one, sweep_power_grid(ch,
    plan, (P,), n_triples, trials, seed)[0], and so point i of any sweep at
    this seed whose grid[i] is P."""
    return sweep_power_grid(ch, plan, (P,), n_triples, trials, seed)[0]


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
