"""Sample-level Monte Carlo simulation of the two-hop chain.

Relays forward the previous slot's received sample scaled by the schedule
coefficients, so relay-transmit slot t carries source slot t - 1; the first
relay slot forwards a zero input and is excluded from statistics.  Trials
are independent with per-trial random substreams, so results do not depend
on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, end_to_end
from .scheme import (
    AfSchedule,
    InvalidPower,
    PhasePlan,
    RateReport,
    achievable_rate,
    reconstruct_d1,
    reconstruct_d2,
)

# Substream tags: every consumer of randomness inside a trial gets its own
# generator keyed by (seed, trial, tag) so the chain and matrix evaluation
# paths can replay identical samples.
_TAG_SYMBOLS, _TAG_RELAY_U, _TAG_RELAY_V, _TAG_DEST1, _TAG_DEST2 = range(5)


class InsufficientGrid(Exception):
    """The power grid cannot support a meaningful slope fit."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters: power, block count, trials, seed."""

    P: float
    n_triples: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.P < 1:
            raise InvalidPower(f"P must be >= 1, got {self.P}")
        if self.n_triples < 1 or self.trials < 1:
            raise ValueError("n_triples and trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class TrialRecord:
    """Aggregates of one trial: summed squared reconstruction errors per
    stream and the relays' empirical transmit second moments."""

    sq_err_a1: float
    sq_err_a2: float
    sq_err_b1: float
    sq_err_b2: float
    relay_u_second_moment: float
    relay_v_second_moment: float
    n_triples: int


@dataclass(frozen=True)
class SchemeStats:
    """Trial-averaged reconstruction MSEs and relay powers."""

    mse_a1: float
    mse_a2: float
    mse_b1: float
    mse_b2: float
    relay_pu: float
    relay_pv: float
    relay_pu_se: float
    relay_pv_se: float
    n_samples: int


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of sum rate against half-log power."""

    grid: tuple[float, ...]
    sum_rates: tuple[float, ...]
    slope: float
    intercept: float
    residual: float

    def to_dict(self) -> dict:
        return {"grid": list(self.grid), "sum_rates": list(self.sum_rates),
                "slope": self.slope, "intercept": self.intercept,
                "residual": self.residual}


@dataclass(frozen=True)
class RatePoint:
    """One power-grid row: rates, per-stream MSEs and relay powers."""

    P: float
    R1: float
    R2: float
    mse_a1: float
    mse_a2: float
    mse_b1: float
    mse_b2: float
    relay_pu: float
    relay_pv: float
    relay_pu_se: float = 0.0
    relay_pv_se: float = 0.0


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _chain(ch: ChannelRealization, mu_arr, lam_arr, x1, x2, zu, zv, zd1, zd2):
    """Run the physical chain; relay slot 0 forwards a zero input."""
    yu = ch.h_s1u * x1 + ch.h_s2u * x2 + zu
    yv = ch.h_s1v * x1 + ch.h_s2v * x2 + zv
    n_slots = len(mu_arr)
    xu = np.zeros(n_slots)
    xv = np.zeros(n_slots)
    xu[1:] = mu_arr[1:] * yu
    xv[1:] = lam_arr[1:] * yv
    y1 = ch.h_ud1 * xu + ch.h_vd1 * xv + zd1
    y2 = ch.h_ud2 * xu + ch.h_vd2 * xv + zd2
    return y1, y2, xu, xv


def _chain_noise(seed: int, trial: int, n_source: int, noise_scale: float):
    """Relay noise for n_source source slots and destination noise for the
    n_source + 1 relay slots, each from its own (seed, trial, tag) stream."""
    zu = _stream(seed, trial, _TAG_RELAY_U).standard_normal(n_source) * noise_scale
    zv = _stream(seed, trial, _TAG_RELAY_V).standard_normal(n_source) * noise_scale
    zd1 = _stream(seed, trial, _TAG_DEST1).standard_normal(n_source + 1) * noise_scale
    zd2 = _stream(seed, trial, _TAG_DEST2).standard_normal(n_source + 1) * noise_scale
    return zu, zv, zd1, zd2


def _block_inputs(schedule: AfSchedule, symbols, noise_seed: int,
                  noise_scale: float):
    """Validate one block and return the chain inputs after the channel:
    (mu_arr, lam_arr, x1, x2, zu, zv, zd1, zd2), noise from trial 0."""
    symbols = np.asarray(symbols, dtype=float)
    if symbols.size == 0:
        symbols = symbols.reshape(0, 2)
    if symbols.ndim != 2 or symbols.shape[1] != 2:
        raise ValueError("symbols must have shape (slots, 2)")
    if symbols.shape[0] != len(schedule) - 1:
        raise ValueError(
            f"schedule length {len(schedule)} must be symbol slots + 1 "
            f"(got {symbols.shape[0]} symbol slots)")
    pairs = np.asarray(schedule.pairs, dtype=float)
    return (pairs[:, 0], pairs[:, 1], symbols[:, 0], symbols[:, 1],
            *_chain_noise(noise_seed, 0, symbols.shape[0], noise_scale))


def simulate_block(ch: ChannelRealization, schedule: AfSchedule, symbols,
                   noise_seed: int, noise_scale: float = 1.0):
    """Direct chain simulation of one block.

    Parameters
    ----------
    schedule : relay coefficients per relay-transmit slot, length L
    symbols : (L - 1, 2) array; row j holds both sources' slot-j symbols
    noise_seed : seeds the relay and destination noise substreams
    noise_scale : multiplies every noise sample (0 disables noise)

    Returns
    -------
    (y1, y2) : length-L received sample arrays at the two destinations
    """
    y1, y2, _, _ = _chain(ch, *_block_inputs(schedule, symbols, noise_seed,
                                             noise_scale))
    return y1, y2


def relay_samples(ch: ChannelRealization, schedule: AfSchedule, symbols,
                  noise_seed: int, noise_scale: float = 1.0):
    """Relay transmit samples (xu, xv) for one block, same conventions and
    noise substreams as simulate_block."""
    _, _, xu, xv = _chain(ch, *_block_inputs(schedule, symbols, noise_seed,
                                             noise_scale))
    return xu, xv


def simulate_block_matrix(ch: ChannelRealization, schedule: AfSchedule, symbols,
                          noise_seed: int, noise_scale: float = 1.0):
    """Shortcut evaluation of one block through the per-slot end-to-end
    matrices plus the explicit effective-noise combination.

    Consumes the same noise substreams as simulate_block, so with a shared
    noise_seed the two paths must agree sample for sample.
    """
    mu_arr, lam_arr, x1, x2, zu, zv, zd1, zd2 = _block_inputs(
        schedule, symbols, noise_seed, noise_scale)
    x1_prev = np.concatenate(([0.0], x1))
    x2_prev = np.concatenate(([0.0], x2))
    zu_prev = np.concatenate(([0.0], zu))
    zv_prev = np.concatenate(([0.0], zv))

    alpha1 = mu_arr * ch.h_ud1 * ch.h_s1u + lam_arr * ch.h_vd1 * ch.h_s1v
    beta1 = mu_arr * ch.h_ud1 * ch.h_s2u + lam_arr * ch.h_vd1 * ch.h_s2v
    alpha2 = mu_arr * ch.h_ud2 * ch.h_s1u + lam_arr * ch.h_vd2 * ch.h_s1v
    beta2 = mu_arr * ch.h_ud2 * ch.h_s2u + lam_arr * ch.h_vd2 * ch.h_s2v
    # Zero-padding the previous-slot sequences encodes the warmup: slot 0
    # forwards no symbols and no relay noise.
    zt1 = ch.h_ud1 * mu_arr * zu_prev + ch.h_vd1 * lam_arr * zv_prev + zd1
    zt2 = ch.h_ud2 * mu_arr * zu_prev + ch.h_vd2 * lam_arr * zv_prev + zd2
    y1 = alpha1 * x1_prev + beta1 * x2_prev + zt1
    y2 = alpha2 * x1_prev + beta2 * x2_prev + zt2
    return y1, y2


def _scheme_lam_array(plan: PhasePlan, n_triples: int) -> np.ndarray:
    # Relay slot t forwards source slot t - 1, whose phase is (t - 1) mod 3;
    # index 0 falls on the warmup slot (its coefficient scales a zero input).
    m = 3 * n_triples
    lam = np.empty(m + 1)
    lam[0] = plan.lambda_phase3
    lam[1::3] = plan.lambda_phase1
    lam[2::3] = plan.lambda_phase2
    lam[3::3] = plan.lambda_phase3
    return lam


def run_scheme_trial(ch: ChannelRealization, plan: PhasePlan, P: float,
                     n_triples: int, seed: int, trial: int,
                     noise_scale: float = 1.0) -> TrialRecord:
    """Simulate one trial of n_triples three-phase blocks and decode them.

    Source symbols are zero-mean Gaussian with variance P.  Within each
    block, both sources repeat their phase-3 symbols as the scheme
    requires (user 1 resends its first symbol, user 2 its second).
    """
    sym = _stream(seed, trial, _TAG_SYMBOLS).standard_normal((n_triples, 4))
    sym *= math.sqrt(P)
    a1, a2, b1, b2 = sym.T
    m = 3 * n_triples
    x1 = np.empty(m)
    x2 = np.empty(m)
    x1[0::3] = a1
    x1[1::3] = a2
    x1[2::3] = a1
    x2[0::3] = b1
    x2[1::3] = b2
    x2[2::3] = b2

    mu_arr = np.full(m + 1, plan.mu_all)
    lam_arr = _scheme_lam_array(plan, n_triples)
    y1, y2, xu, xv = _chain(ch, mu_arr, lam_arr, x1, x2,
                            *_chain_noise(seed, trial, m, noise_scale))

    G1, G2, G3 = (end_to_end(ch, mu, lam) for mu, lam in plan.phase_pairs())
    a1_hat, a2_hat = reconstruct_d1(y1[1::3], y1[2::3], y1[3::3], G1, G2, G3)
    b1_hat, b2_hat = reconstruct_d2(y2[1::3], y2[2::3], y2[3::3], G1, G2, G3)

    return TrialRecord(
        sq_err_a1=float(np.sum((a1_hat - a1) ** 2)),
        sq_err_a2=float(np.sum((a2_hat - a2) ** 2)),
        sq_err_b1=float(np.sum((b1_hat - b1) ** 2)),
        sq_err_b2=float(np.sum((b2_hat - b2) ** 2)),
        relay_u_second_moment=float(np.mean(xu[1:] ** 2)),
        relay_v_second_moment=float(np.mean(xv[1:] ** 2)),
        n_triples=n_triples)


def run_scheme_trials(ch: ChannelRealization, plan: PhasePlan,
                      config: SimConfig, noise_scale: float = 1.0) -> SchemeStats:
    """Run config.trials independent trials and aggregate their records."""
    records = [run_scheme_trial(ch, plan, config.P, config.n_triples,
                                config.seed, t, noise_scale)
               for t in range(config.trials)]
    n_samples = config.trials * config.n_triples
    pu = np.array([r.relay_u_second_moment for r in records])
    pv = np.array([r.relay_v_second_moment for r in records])
    se_u = float(np.std(pu, ddof=1) / math.sqrt(len(pu))) if len(pu) > 1 else 0.0
    se_v = float(np.std(pv, ddof=1) / math.sqrt(len(pv))) if len(pv) > 1 else 0.0
    return SchemeStats(
        mse_a1=sum(r.sq_err_a1 for r in records) / n_samples,
        mse_a2=sum(r.sq_err_a2 for r in records) / n_samples,
        mse_b1=sum(r.sq_err_b1 for r in records) / n_samples,
        mse_b2=sum(r.sq_err_b2 for r in records) / n_samples,
        relay_pu=float(np.mean(pu)), relay_pv=float(np.mean(pv)),
        relay_pu_se=se_u, relay_pv_se=se_v,
        n_samples=n_samples)


def estimate_dof_slope(rates) -> SlopeFit:
    """OLS fit of sum rate against (1/2) log2 P; the slope is the empirical
    sum-DoF.  Requires at least 4 strictly increasing powers >= 1 spanning
    at least 4 decades.
    """
    pts = [(float(p), float(r)) for p, r in rates]
    if len(pts) < 4:
        raise InsufficientGrid("need at least 4 grid points")
    powers = [p for p, _ in pts]
    if any(p < 1 for p in powers):
        raise InsufficientGrid("grid powers must be >= 1")
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise InsufficientGrid("grid must be strictly increasing")
    if math.log10(powers[-1] / powers[0]) < 4 - 1e-9:
        raise InsufficientGrid("grid must span at least 4 decades")
    x = 0.5 * np.log2(powers)
    y = np.array([r for _, r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SlopeFit(grid=tuple(powers), sum_rates=tuple(y),
                    slope=float(slope), intercept=float(intercept),
                    residual=resid)


def sweep_power_grid(ch: ChannelRealization, plan: PhasePlan, grid,
                     n_triples: int, trials: int, seed: int) -> list[RatePoint]:
    """Measure rates over a power grid.

    Rates come from the analytic formula fed by the empirical stream MSEs,
    not from bit-error counting.  Each grid point gets its own derived
    seed, keeping the sweep deterministic.
    """
    points = []
    for idx, P in enumerate(grid):
        cfg = SimConfig(P=float(P), n_triples=n_triples, trials=trials,
                        seed=seed + idx)
        s = run_scheme_trials(ch, plan, cfg)
        points.append(RatePoint(
            P=float(P),
            R1=achievable_rate(P, s.mse_a1, s.mse_a2),
            R2=achievable_rate(P, s.mse_b1, s.mse_b2),
            mse_a1=s.mse_a1, mse_a2=s.mse_a2,
            mse_b1=s.mse_b1, mse_b2=s.mse_b2,
            relay_pu=s.relay_pu, relay_pv=s.relay_pv,
            relay_pu_se=s.relay_pu_se, relay_pv_se=s.relay_pv_se))
    return points


def fit_rate_report(points: list[RatePoint]) -> RateReport:
    """Fit per-user and sum DoF slopes over a measured power sweep."""
    sum_fit = estimate_dof_slope([(p.P, p.R1 + p.R2) for p in points])
    u1_fit = estimate_dof_slope([(p.P, p.R1) for p in points])
    u2_fit = estimate_dof_slope([(p.P, p.R2) for p in points])
    return RateReport(P=tuple(p.P for p in points),
                      R1=tuple(p.R1 for p in points),
                      R2=tuple(p.R2 for p in points),
                      slope_user1=u1_fit.slope,
                      slope_user2=u2_fit.slope,
                      slope_sum=sum_fit.slope)
