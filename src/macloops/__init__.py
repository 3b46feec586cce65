"""Networks of linear control loops sharing a contention-based sensor link.

The package simulates event-triggered LQG loops whose sensors contend for a
p-persistent CSMA medium: scheduler policies (including the innovation
threshold that keeps the loop free of control/estimation coupling), the
prediction observer, finite-horizon LQG control, the contention model, a
seeded Monte Carlo harness, and the exact scalar two-step problem where the
probing incentive of the first input can be computed and compared against
certainty equivalence.
"""

from .control import (
    CostReport,
    RiccatiSolution,
    ce_u0,
    riccati_backward,
    two_step_s1,
    two_step_stationarity_residual,
    two_step_u0_optimal,
    two_step_u1,
)
from .errors import (
    BracketingError,
    ConfigurationError,
    DegenerateTruncationError,
    NumericalError,
    QuadratureError,
)
from .estimation import (
    TwoStepPosterior,
    last_delivery,
    observer_update,
    two_step_posterior,
)
from .model import (
    LoopConfig,
    NetworkScenario,
    PlantModel,
    RngStream,
    pcg64_states,
)
from .network import (
    CrmConfig,
    SlotOutcome,
    TrafficSource,
    resolve_contention,
    traffic_step,
)
from .scheduling import (
    SchedulerPolicy,
    decide,
    is_symmetric_control_free,
)
from .sim import (
    DualEffectReport,
    EventTable,
    LoopTrace,
    MonteCarloResult,
    SweepResult,
    ce_law,
    dual_effect_experiment,
    monte_carlo,
    run_episode,
    sweep_threshold,
    zero_law,
)
from .stats import (
    QuadratureSpec,
    TruncatedGaussian,
    compound_density,
    conditional_moments_compound,
    find_root,
    integrate,
    std_normal_cdf,
    std_normal_pdf,
    truncated_moments,
)

__version__ = "0.1.0"
