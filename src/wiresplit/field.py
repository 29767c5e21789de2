"""Field, specific potential and acceleration of an arbitrary wire array.

Two layers live here.

Electromagnetic evaluation: with the reduced sum
``S = sum_i I_i * (-dz_i, dx_i) / r_i^2`` over wires, the magnetic field is
``B = (mu0 / 2 pi) * S`` and the specific potential (potential energy per
unit mass) of a diamagnet is

    u = -chi_m |B|^2 / (2 mu0) = alpha/2 * |S|^2.

:func:`acceleration` is the exact gradient of that total, evaluated in
closed form from ``S`` and its (symmetric, traceless) Jacobian -- the cross
terms between wires are included, so it is *not* the sum of single-wire
forces.

Trajectory model: the design schemes treat every deflection as a clean
single-wire scattering, so the integrator and designers use the
superposition of independent single-wire repulsions,
:func:`repulsion_acceleration` with potential :func:`repulsion_potential`
(``u = sum_i alpha I_i^2 / (2 r_i^2)``). The two models agree exactly for a
single wire and differ by the inter-wire cross terms of ``|B|^2``; all
reference configurations this package reproduces are calibrated in the
superposition model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import MU0, Medium

GUARD_RADIUS = 1.0e-9
"""Default exclusion radius around each wire, m.

Field queries closer than this raise :class:`WireSingularityError` instead
of returning values from the 1/r pole.
"""


class WireSingularityError(RuntimeError):
    """A field query or trajectory came within the guard radius of a wire."""

    def __init__(self, wire_index: int, point, t: float | None = None):
        self.wire_index = wire_index
        self.point = tuple(point)
        self.t = t
        where = f"({point[0]:.6e}, {point[1]:.6e}) m"
        when = "" if t is None else f" at t = {t:.9e} s"
        super().__init__(
            f"point {where}{when} is inside the guard radius of wire {wire_index}"
        )


@dataclass(frozen=True)
class FieldSample:
    """Field vector, specific potential and acceleration at one point."""

    b_vec: tuple[float, float]   # T
    u_spec: float                # m^2/s^2
    accel: tuple[float, float]   # m/s^2


def _reduced_sums(x, z, wires, guard_radius):
    """Accumulate S, plus the Jacobian sums P = d(Sz)/dx and Q = d(Sx)/dx.

    Wires with zero current are skipped entirely (no field, no pole).
    """
    guard2 = guard_radius * guard_radius
    sx = sz = p = q = 0.0
    for i, w in enumerate(wires):
        cur = w.current
        if cur == 0.0:
            continue
        dx = x - w.x
        dz = z - w.z
        r2 = dx * dx + dz * dz
        if r2 <= guard2:
            raise WireSingularityError(i, (x, z))
        inv = cur / r2
        inv2 = inv / r2
        sx -= dz * inv
        sz += dx * inv
        p += (dz * dz - dx * dx) * inv2
        q += 2.0 * dx * dz * inv2
    return sx, sz, p, q


def b_field(point, wires, mu0: float = MU0, guard_radius: float = GUARD_RADIUS):
    """Total magnetic field (T, T) at ``point`` from a wire array."""
    sx, sz, _, _ = _reduced_sums(point[0], point[1], wires, guard_radius)
    scale = mu0 / (2.0 * math.pi)
    return (scale * sx, scale * sz)


def specific_potential(point, wires, medium: Medium,
                       guard_radius: float = GUARD_RADIUS) -> float:
    """Potential energy per unit mass, m^2/s^2 (non-negative for diamagnets)."""
    sx, sz, _, _ = _reduced_sums(point[0], point[1], wires, guard_radius)
    return 0.5 * medium.alpha * (sx * sx + sz * sz)


def acceleration(point, wires, medium: Medium,
                 guard_radius: float = GUARD_RADIUS):
    """Acceleration (m/s^2, m/s^2): the exact gradient of the total potential.

    For a single wire this reduces to ``alpha I^2 / r^3`` directed away from
    the wire; mass never enters.
    """
    sx, sz, p, q = _reduced_sums(point[0], point[1], wires, guard_radius)
    alpha = medium.alpha
    ax = -alpha * (sx * q + sz * p)
    az = -alpha * (sx * p - sz * q)
    return (ax, az)


def repulsion_potential(point, wires, medium: Medium,
                        guard_radius: float = GUARD_RADIUS) -> float:
    """Specific potential of the superposed single-wire repulsions, m^2/s^2.

    The potential the trajectory model conserves: ``sum_i alpha I_i^2 / (2 r_i^2)``.
    """
    x, z = point
    guard2 = guard_radius * guard_radius
    alpha = medium.alpha
    u = 0.0
    for i, w in enumerate(wires):
        if w.current == 0.0:
            continue
        dx = x - w.x
        dz = z - w.z
        r2 = dx * dx + dz * dz
        if r2 <= guard2:
            raise WireSingularityError(i, (x, z))
        u += 0.5 * alpha * w.current * w.current / r2
    return u


def repulsion_acceleration(point, wires, medium: Medium,
                           guard_radius: float = GUARD_RADIUS):
    """Acceleration of the trajectory model: ``sum_i alpha I_i^2 / r_i^3 rhat_i``.

    This is what the integrator's equation of motion uses; identical to
    :func:`acceleration` for a single wire.
    """
    x, z = point
    guard2 = guard_radius * guard_radius
    alpha = medium.alpha
    ax = az = 0.0
    for i, w in enumerate(wires):
        if w.current == 0.0:
            continue
        dx = x - w.x
        dz = z - w.z
        r2 = dx * dx + dz * dz
        if r2 <= guard2:
            raise WireSingularityError(i, (x, z))
        c = alpha * w.current * w.current / (r2 * r2)
        ax += c * dx
        az += c * dz
    return (ax, az)


def field_sample(point, wires, medium: Medium,
                 guard_radius: float = GUARD_RADIUS) -> FieldSample:
    """Evaluate field, potential and acceleration in one pass."""
    sx, sz, p, q = _reduced_sums(point[0], point[1], wires, guard_radius)
    scale = medium.mu0 / (2.0 * math.pi)
    alpha = medium.alpha
    return FieldSample(
        b_vec=(scale * sx, scale * sz),
        u_spec=0.5 * alpha * (sx * sx + sz * sz),
        accel=(-alpha * (sx * q + sz * p), -alpha * (sx * p - sz * q)),
    )

