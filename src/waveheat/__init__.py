"""Numerical toolkit for the 1-D coupled wave-heat interface system.

Quantitative verification, at desk scale, of the spectral structure,
resolvent growth and energy-decay rate of the coupled system: a vibrating
string on [-1, 0] joined at the origin to a diffusive rod on [0, 1],
with Neumann or Dirichlet conditions at the far string end.
"""

from .characteristic import (
    BoundaryVariant,
    ScaledValue,
    char_fn,
    char_fn_deriv,
    char_fn_scaled,
    det_growth_ratio,
    fg_split,
    principal_sqrt,
)
from .discretization import DiscreteGenerator, GridSpec, assemble, make_domain_data
from .resolvent import (
    ClosedFormResolvent,
    apply_resolvent,
    resolvent_norm_discrete,
    resolvent_norm_sampled,
)
from .simulator import (
    DecayFit,
    EnergySeries,
    SimulationConfig,
    fit_decay,
    kernel_functional,
    project_kernel,
    run,
)
from .spectrum import (
    EigenvalueRecord,
    EigenvalueSeed,
    asymptotics_report,
    count_zeros_contour,
    enumerate_eigenvalues,
    polish,
    seeds,
)
from .state import StateVector

__version__ = "0.1.0"
