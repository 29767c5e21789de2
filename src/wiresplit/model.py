"""Shared domain types, unit conventions and material constants.

Everything in this package is SI internally: metres, seconds, amperes,
teslas. Micrometre-flavoured convenience appears only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MU0 = 4.0e-7 * math.pi
"""Vacuum permeability, T m / A."""

CHI_M_DIAMOND = -6.2e-9
"""Mass magnetic susceptibility of diamond, m^3 / kg.

Calibrated so that the derived repulsion coupling reproduces the reference
wire currents used throughout the test suite.
"""


class InfeasibleDesignError(ValueError):
    """The requested geometry/timing cannot be realised (flight too short)."""


def _require_finite(name: str, value: float) -> float:
    # float() would parse a numeric string, which the caller then stores
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(
            f"{name} must be a real number, not {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value:g}")
    return value


@dataclass(frozen=True)
class Medium:
    """Diamagnetic material constants plus the derived coupling.

    ``alpha = -chi_m * MU0 / (4 pi^2)`` has units m^4 s^-2 A^-2 and is the
    single number through which the material enters the dynamics: the
    specific potential of one wire is ``alpha * I^2 / (2 r^2)``.
    """

    chi_m: float  # mass susceptibility, m^3/kg; negative for diamagnets
    alpha: float  # repulsion coupling, m^4 s^-2 A^-2


def make_medium(chi_m: float = CHI_M_DIAMOND) -> Medium:
    """Build a :class:`Medium` from a mass susceptibility.

    Rejects a ``chi_m`` that gives no ``alpha > 0``, which the repulsion
    model assumes: a paramagnetic (attracted) or zero susceptibility, or
    one so small that alpha underflows to 0.
    """
    chi_m = _require_finite("chi_m", chi_m)
    alpha = -chi_m * MU0 / (4.0 * math.pi**2)
    if not alpha > 0.0:
        raise ValueError(
            f"chi_m must be negative (diamagnetic) and give alpha > 0; got "
            f"{chi_m:g} (paramagnetic or zero susceptibility is unsupported)"
        )
    return Medium(chi_m=chi_m, alpha=alpha)


_DEFAULT_MEDIUM = make_medium()


def default_medium() -> Medium:
    """The diamond medium used by all reference configurations."""
    return _DEFAULT_MEDIUM


@dataclass(frozen=True)
class Wire:
    """Infinite straight wire perpendicular to the x-z plane.

    ``current`` is signed, positive along +y. A wire with zero current
    contributes no field.
    """

    x: float
    z: float
    current: float

    def __post_init__(self):
        _require_finite("x", self.x)
        _require_finite("z", self.z)
        _require_finite("current", self.current)


@dataclass(frozen=True)
class PacketState:
    """Classical surrogate for one wavepacket branch: position, velocity, time."""

    x: float
    z: float
    vx: float
    vz: float
    t: float = 0.0

    def __post_init__(self):
        for name in ("x", "z", "vx", "vz", "t"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class ScatteringInputs:
    """Launch parameters shared by both closure schemes."""

    v0: float            # incident speed, m/s
    b: float             # impact parameter, m
    x0: float            # launch distance from the splitting wire, m
    tau: float           # total flight time, s

    def __post_init__(self):
        for name in ("v0", "b", "x0", "tau"):
            _require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class DesignResult:
    """Synthesised wire configuration plus the metrics it achieves.

    ``max_separation`` is twice the height of the top branch's apex, the
    extremum the kernel locates by bisection. ``min_current_density`` is
    the density a real wire must support: the worst per-wire
    ``|I| / (pi d_min^2)`` with ``d_min`` the closest approach of either
    branch to that wire. ``peak_field`` is the total field magnitude at the
    globally closest approach point.
    """

    wires: tuple[Wire, ...]
    max_separation: float                 # m
    closure_error: float                  # m, |z miss| at the launch plane
    return_velocity: tuple[float, float]  # m/s
    min_distance_per_wire: tuple[float, ...]  # m
    min_current_density: float            # A/m^2
    peak_field: float                     # T
    return_time: float                    # s

    def to_dict(self) -> dict:
        return {
            "wires": [
                {"x_m": w.x, "z_m": w.z, "current_a": w.current}
                for w in self.wires
            ],
            "max_separation_m": self.max_separation,
            "closure_error_m": self.closure_error,
            "return_velocity_m_per_s": list(self.return_velocity),
            "min_distance_per_wire_m": list(self.min_distance_per_wire),
            "min_current_density_a_per_m2": self.min_current_density,
            "peak_field_t": self.peak_field,
            "return_time_s": self.return_time,
        }
