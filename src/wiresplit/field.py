"""Magnetic field of an arbitrary wire array, and the wire guard radius.

With the reduced sum ``S = sum_i I_i * (-dz_i, dx_i) / r_i^2`` over wires,
the magnetic field is ``B = (mu0 / 2 pi) * S``. ``DesignResult.peak_field``
reports its magnitude at a design's closest approach.

The force on the packet is not evaluated here. The design schemes treat
every deflection as a clean single-wire scattering, so the integration
kernels (``wiresplit._kernel`` and its twin ``wiresplit._kernel_py``)
integrate the superposition of independent single-wire repulsions,
``a = sum_i alpha I_i^2 / r_i^3 rhat_i`` with potential
``u = sum_i alpha I_i^2 / (2 r_i^2)``. That leaves out the inter-wire cross
terms of the full field energy ``alpha/2 |S|^2``; all reference
configurations this package reproduces are calibrated without them.
"""

from __future__ import annotations

import math

from .model import MU0

GUARD_RADIUS = 1.0e-9
"""Default exclusion radius around each wire, m.

:func:`b_field` queries closer than this raise :class:`WireSingularityError`
instead of returning values from the 1/r pole; ``StepControl`` takes it as
its default.
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


def b_field(point, wires):
    """Total magnetic field (T, T) at ``point`` from a wire array.

    Wires with zero current are skipped (no field, no pole); a point within
    ``GUARD_RADIUS`` of one that carries current raises
    :class:`WireSingularityError`.
    """
    x, z = point[0], point[1]
    guard2 = GUARD_RADIUS * GUARD_RADIUS
    sx = sz = 0.0
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
        sx -= dz * inv
        sz += dx * inv
    scale = MU0 / (2.0 * math.pi)
    return (scale * sx, scale * sz)
