"""ddkit: compile dynamical-decoupling pulse schedules, verify the achieved
decoupling order against random bounded quantum baths, and design
finite-amplitude pulses approximating ideal pulses to second order."""

from .errors import DDKitError, PreconditionError, UnfittableError
from .linalg import expm_i, kron, spectral_norm
from .model import HamiltonianModel, random_model
from .operators import (
    Moos,
    Operator,
    build_moos,
    lie_closure,
    mlevel_diagonal_moos,
    mlevel_full_moos,
    pauli,
    qubit_dephasing_moos,
    qubit_full_moos,
    sigma_x_level,
    sigma_z_level,
)
from .pulseshape import (
    PulseShape,
    design_pulse,
    eta_integrals,
    pulse_error_scan,
    rectangular_pulse,
)
from .sequences import (
    Schedule,
    cdd_nested,
    cdd_uniform,
    first_order_schedule,
    nudd,
    sdd_schedule,
    udd_schedule,
    udd_times,
)
from .simulate import (
    ModelSpec,
    RunConfig,
    ScalingResult,
    fit_loglog,
    order_scan,
    preservation_error,
    propagate,
)

from .acceptance import CRITERIA, CriterionResult, run_all

__version__ = "0.1.0"
