"""monosde: Monte Carlo toolkit for SDEs with monotone (one-sided Lipschitz,
super-linear growth) drifts and random coefficients.

Simulates the base SDE with divergence-aware schemes, computes pathwise
Jacobians, inverse flows and stochastic Wronskians, Malliavin derivative
fields and directional derivatives, and numerically verifies the flow
representation of the Malliavin derivative, Cameron-Martin shifts, Gateaux
difference-quotient convergence, and Bismut-Elworthy-Li sensitivities.
"""

__version__ = "0.1.0"

from .core import (
    CameronMartinPath,
    History,
    MCEstimate,
    NoisePath,
    StatePath,
    TimeGrid,
    make_grid,
    mc_estimate,
    sample_noise,
)
from .errors import (
    DegenerateWronskianError,
    DimensionMismatchError,
    DivergenceError,
    InvalidParameterError,
    MissingGradientsError,
    MonosdeError,
    NewtonFailureError,
    NoClosedFormError,
    OutOfDomainError,
    SingularDiffusionError,
    UnknownModelError,
    WorkerLostError,
)
from .models import (
    ClosedForm,
    CoefficientField,
    ModelSpec,
    ProbeReport,
    ZOO_NAMES,
    eval_closed_form,
    probe_assumptions,
    uniform_sampler,
    zoo_lookup,
)
from .solver import (
    EULER,
    IMPLICIT,
    SCHEMES,
    TAMED,
    SchemeChoice,
    simulate,
    stability_ratio,
)
from .variational import (
    JacobianBundle,
    finite_difference_jacobian,
    gateaux_direction,
    jacobian,
)
from .malliavin import (
    MalliavinField,
    MalliavinMatrix,
    RepresentationParts,
    directional_derivative,
    malliavin_field,
    malliavin_matrix,
    representation_parts,
)
from .shiftlab import (
    CameronMartinReport,
    QuotientLadder,
    cameron_martin_check,
    clipped_sup_norm,
    doleans_dade,
    gateaux_ladder,
    terminal_value,
)
from .greeks import (
    GradientReport,
    constant_weight,
    digital_payoff,
    gradients,
    identity_payoff,
    linear_weight,
    tanh_payoff,
)
