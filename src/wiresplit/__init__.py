"""Diamagnetic-deflection trajectory toolkit.

Simulates classical wavepacket-branch trajectories in the field of
current-carrying wires and synthesises wire layouts (positions + currents)
that maximise the separation of two mirror-symmetric branches before
closing them back on their launch point.
"""

from .analytic import (
    analytic_orbit,
    apex_wire_position,
    closest_approach,
    closest_approach_headon,
    current_density,
    field_magnitude_at,
    inverse_current_ratio,
    inverse_max_size,
    scattering_angle,
    stiffness_k,
    triangular_current_ratio,
    triangular_max_size,
)
from .designer import (
    DesignFailure,
    DesignSpec,
    closure_error,
    design_trajectories,
)
from .field import GUARD_RADIUS, WireSingularityError, b_field
from .integrator import (
    EventLog,
    PeriapsisEvent,
    StepControl,
    StiffnessError,
    Trajectory,
    kernel_backend,
    mirror_trajectory,
    simulate,
)
from .model import (
    CHI_M_DIAMOND,
    MU0,
    DesignResult,
    InfeasibleDesignError,
    Medium,
    PacketState,
    ScatteringInputs,
    Wire,
    default_medium,
    make_medium,
)
from .sweep import SweepTable, ValidationRow, validate_analytic, velocity_sweep

__version__ = "0.1.0"

__all__ = [
    "CHI_M_DIAMOND",
    "GUARD_RADIUS",
    "MU0",
    "DesignFailure",
    "DesignResult",
    "DesignSpec",
    "EventLog",
    "InfeasibleDesignError",
    "Medium",
    "PacketState",
    "PeriapsisEvent",
    "ScatteringInputs",
    "StepControl",
    "StiffnessError",
    "SweepTable",
    "Trajectory",
    "ValidationRow",
    "Wire",
    "WireSingularityError",
    "analytic_orbit",
    "apex_wire_position",
    "b_field",
    "closest_approach",
    "closest_approach_headon",
    "closure_error",
    "current_density",
    "default_medium",
    "design_trajectories",
    "field_magnitude_at",
    "inverse_current_ratio",
    "inverse_max_size",
    "kernel_backend",
    "make_medium",
    "mirror_trajectory",
    "scattering_angle",
    "simulate",
    "stiffness_k",
    "triangular_current_ratio",
    "triangular_max_size",
    "validate_analytic",
    "velocity_sweep",
]
