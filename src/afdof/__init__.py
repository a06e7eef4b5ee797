"""Two-hop 2x2 interference channel with time-varying amplify-forward relays.

Desk-scale simulator and analysis toolkit: channel model and genericity
checks, the three-phase interference-cancelling scheme, Monte Carlo link
simulation with DoF slope fitting, and the computable pieces of the
matching sum-rate outer bound.
"""

from .channel import (
    ChannelRealization,
    ConditionReport,
    EndToEndMatrix,
    GenericityFailure,
    check_conditions,
    effective_noise_variance,
    end_to_end,
    sample_channel,
)
from .scheme import (
    DegenerateCoefficients,
    InvalidPower,
    NonGenericChannel,
    PhasePlan,
    StateLabel,
    achievable_rate,
    analytic_noise_variances,
    baseline_tdma_rate,
    plan_achievability,
    reconstruct_d1,
    reconstruct_d2,
    relay_powers,
    scheme_schedule,
)
from .simulate import (
    InsufficientGrid,
    RateReport,
    SchemeStats,
    SlopeFit,
    estimate_dof_slope,
    fit_rate_report,
    sweep_power_grid,
)
from .bounds import (
    ImpossiblePattern,
    SingularCovariance,
    StateCensus,
    bound_slopes,
    check_lemma2,
    gaussian_entropy,
    min_census_fraction,
    random_lemma2_stacks,
    ratio_map_probe,
    slot_states,
)

__version__ = "0.1.0"
