"""Closed-form single-wire scattering and the design formulas built on it.

A packet incident with speed ``v0`` and impact parameter ``b`` on a wire
carrying current ``I`` follows the polar orbit

    r(theta) = sqrt(k) b / cos(sqrt(k) theta - theta0),
    theta0   = (sqrt(k) - 1/2) pi,
    k        = 1 + alpha I^2 / (v0^2 b^2),

valid between the incoming asymptote (theta -> pi) and the outgoing one
(theta -> theta_s). Everything else here -- scattering angle, maximum
superposition sizes for the two closure schemes, current/impact-parameter
ratios, closest approaches, current density -- follows from that orbit and
from energy/angular-momentum conservation.
"""

from __future__ import annotations

import math

from .model import InfeasibleDesignError, Medium


def stiffness_k(current: float, b: float, v0: float, medium: Medium) -> float:
    """Dimensionless orbit stiffness ``k``; k > 1 for any nonzero current."""
    if b == 0.0:
        raise ValueError(
            "b = 0 is the head-on (degenerate) case; use closest_approach_headon"
        )
    if b < 0.0 or v0 <= 0.0 or v0 * v0 * b * b == 0.0:
        raise ValueError(f"require b > 0 and v0 > 0 with v0^2 b^2 > 0, got "
                         f"b = {b:g} m and v0 = {v0:g} m/s")
    if current == 0.0:
        raise ValueError("current must be nonzero (k would be exactly 1)")
    excess = medium.alpha * current * current / (v0 * v0 * b * b)
    if excess == 0.0:
        raise ValueError(
            f"alpha I^2 / (v0^2 b^2) underflows to 0 at current = {current:g} A, "
            f"b = {b:g} m and v0 = {v0:g} m/s (k would be exactly 1)")
    if not excess < math.inf:
        raise ValueError(
            f"alpha I^2 / (v0^2 b^2) is {excess} at current = {current:g} A, "
            f"b = {b:g} m and v0 = {v0:g} m/s (a square overflows)")
    return 1.0 + excess


def scattering_angle(k: float) -> float:
    """Polar angle of the outgoing asymptote, rad: ``(1 - 1/sqrt(k)) pi``."""
    if k < 1.0:
        raise ValueError(f"k must be >= 1, got {k:g}")
    return (1.0 - 1.0 / math.sqrt(k)) * math.pi


def analytic_orbit(theta: float, k: float, b: float) -> float:
    """Orbit radius r(theta), m, on the physical branch.

    The branch is the open interval (theta_s, pi); outside it the cosine in
    the denominator is not positive and the radius is undefined.
    """
    if k < 1.0:
        raise ValueError(f"k must be >= 1, got {k:g}")
    if b <= 0.0:
        raise ValueError(f"b must be positive, got {b:g}")
    sqrt_k = math.sqrt(k)
    theta0 = (sqrt_k - 0.5) * math.pi
    c = math.cos(sqrt_k * theta - theta0)
    if c <= 0.0:
        raise ValueError(
            f"theta = {theta:g} rad is outside the physical branch "
            f"({scattering_angle(k):g}, {math.pi:g})"
        )
    return sqrt_k * b / c


def triangular_max_size(v0: float, tau: float, x0: float) -> float:
    """Largest branch separation for the triangular closure, m."""
    _require_feasible(v0, tau, x0)
    square = v0 * v0 * tau * tau - 2.0 * v0 * x0 * tau
    if not square >= 0.0:
        raise ValueError(
            f"v0^2 tau^2 - 2 v0 x0 tau rounds to {square:g} m^2 at v0 = "
            f"{v0:g} m/s, tau = {tau:g} s and x0 = {x0:g} m (v0^2 underflows)")
    return math.sqrt(square)


def inverse_max_size(v0: float, tau: float, x0: float) -> float:
    """Largest branch separation for the retrace (inverse) closure, m."""
    _require_feasible(v0, tau, x0)
    return v0 * tau - 2.0 * x0


def triangular_current_ratio(v0: float, tau: float, x0: float,
                             medium: Medium) -> float:
    """Splitting-wire current per impact parameter (A/m), triangular scheme.

    The deflection must send the packet along the first side of the
    maximum-area triangle; the ratio grows without bound as the flight time
    budget shrinks toward the feasibility limit v0 tau = 2 x0.
    """
    _require_feasible(v0, tau, x0)
    g = x0 / (v0 * tau - x0)
    # feasibility guarantees 0 < g < 1
    bracket = math.pi**2 / math.acos(g) ** 2 - 1.0
    return (v0 / math.sqrt(medium.alpha)) * math.sqrt(bracket)


def inverse_current_ratio(v0: float, medium: Medium) -> float:
    """Splitting-wire current per impact parameter (A/m), retrace scheme.

    Fixed by requiring a 90-degree deflection, i.e. k = 4 exactly.
    """
    if v0 <= 0.0:
        raise ValueError(f"v0 must be positive, got {v0:g}")
    return v0 * math.sqrt(3.0 / medium.alpha)


def closest_approach_headon(current: float, v0: float, medium: Medium) -> float:
    """Turning radius d0 for a head-on (b = 0) approach, m."""
    if v0 <= 0.0:
        raise ValueError(f"v0 must be positive, got {v0:g}")
    return math.sqrt(medium.alpha) * abs(current) / v0


def closest_approach(b: float, current: float, v0: float,
                     medium: Medium) -> float:
    """Periapsis distance for impact parameter b, m: ``sqrt(b^2 + d0^2)``."""
    d0 = closest_approach_headon(current, v0, medium)
    return math.hypot(b, d0)


def current_density(v0: float, b: float, ratio: float, medium: Medium) -> float:
    """Required current density (A/m^2) when the wire radius equals the
    closest approach; ``ratio`` is the current per impact parameter I/b.

    Algebraically identical to I / (pi d^2) with d the closest approach.
    """
    if ratio <= 0.0 or b <= 0.0:
        raise ValueError("require ratio > 0 and b > 0")
    c = ratio
    denominator = math.pi * (v0 * v0 + medium.alpha * c * c)
    if denominator == 0.0:
        raise ValueError(
            f"pi (v0^2 + alpha c^2) underflows to 0 at v0 = {v0:g} m/s and "
            f"I/b = {c:g} A/m")
    return (1.0 / b) * c * v0 * v0 / denominator


def apex_wire_position(x0: float, b: float, v0: float, tau: float):
    """Deflector-wire position for the triangular scheme, (m, m).

    The two triangle sides have fixed total length ``v0 tau - x0``, so the
    apex that maximises the height lies on the minor axis of the ellipse
    with foci at the launch point and the splitting wire. The mirror wire
    sits at the negated z.
    """
    _require_feasible(v0, tau, x0)
    semi_major = (v0 * tau - x0) / 2.0
    focal_half = x0 / 2.0
    semi_minor = math.sqrt(semi_major * semi_major - focal_half * focal_half)
    return (-x0 / 2.0, b + semi_minor)


def _require_feasible(v0, tau, x0):
    if v0 <= 0.0 or tau <= 0.0 or x0 <= 0.0:
        raise ValueError("require v0 > 0, tau > 0, x0 > 0")
    if v0 * tau <= 2.0 * x0:
        raise InfeasibleDesignError(
            f"flight too short: v0*tau = {v0 * tau:g} m must exceed "
            f"2*x0 = {2.0 * x0:g} m for the packet to return"
        )
