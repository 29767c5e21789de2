"""Parameter studies: separation and current density versus launch speed,
plus batch comparison of numeric trajectories against the closed-form orbit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from . import analytic
from .integrator import DEFAULT_CONTROL, StepControl, simulate
from .model import Medium, PacketState, Wire, _require_positive, default_medium

SWEEP_COLUMNS = (
    "v0_m_per_s",
    "feasible",
    "dz_triangular_m",
    "dz_inverse_m",
    "current_ratio_triangular_a_per_m",
    "current_ratio_inverse_a_per_m",
    "current_density_triangular_a_per_m2",
    "current_density_inverse_a_per_m2",
)


@dataclass(frozen=True)
class SweepTable:
    """One row per launch speed; infeasible rows are flagged, not dropped.

    Each column is a tuple with one entry per row: Python floats, and bools
    for ``feasible``; an infeasible row's values are NaN.
    """

    v0: tuple[float, ...]
    feasible: tuple[bool, ...]
    dz_triangular: tuple[float, ...]
    dz_inverse: tuple[float, ...]
    ratio_triangular: tuple[float, ...]
    ratio_inverse: tuple[float, ...]
    density_triangular: tuple[float, ...]
    density_inverse: tuple[float, ...]

    def rows(self):
        return zip(self.v0, self.feasible, self.dz_triangular, self.dz_inverse,
                   self.ratio_triangular, self.ratio_inverse,
                   self.density_triangular, self.density_inverse)

    def write_csv(self, path) -> None:
        # 12 significant digits per value
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            for row in self.rows():
                writer.writerow(
                    [f"{row[0]:.11e}", int(row[1])]
                    + [f"{v:.11e}" for v in row[2:]]
                )

    def to_dicts(self):
        """Rows as dicts; an infeasible row's NaN values become None."""
        return [{name: None if math.isnan(v) else v
                 for name, v in zip(SWEEP_COLUMNS, row)} for row in self.rows()]


def velocity_grid(v_min: float, v_max: float,
                  n_points: int) -> tuple[float, ...]:
    """``n_points`` speeds from ``v_min`` to ``v_max``, evenly spaced in log.

    Point i is ``10 ** (log10(v_min) + i * step)`` with ``step =
    (log10(v_max) - log10(v_min)) / (n_points - 1)``, as ``numpy.geomspace``
    builds it, but the power is libm's, so the two can differ in the last
    bits. The ends are ``v_min`` and ``v_max`` exactly; one point, or equal
    ends, repeats ``v_min``, and ``n_points <= 0`` gives no points.
    """
    _require_positive("v_min", v_min)
    _require_positive("v_max", v_max)
    if n_points < 2 or v_min == v_max:
        return (v_min,) * n_points
    lo = math.log10(v_min)
    step = (math.log10(v_max) - lo) / (n_points - 1)
    inner = (10.0 ** (lo + i * step) for i in range(1, n_points - 1))
    return (v_min, *inner, v_max)


DEFAULT_GRID_POINTS = 50  # speeds in the default grid


def default_velocity_grid(x0: float = 300e-6, tau: float = 0.1) -> tuple[float, ...]:
    """Logarithmic grid of ``DEFAULT_GRID_POINTS`` speeds from just above the
    feasibility bound, 1.05 * 2 x0 / tau, up to 2 m/s. A lower end above
    2 m/s, where the grid would run downward, raises ``ValueError`` naming
    x0 and tau."""
    _require_positive("x0", x0)
    _require_positive("tau", tau)
    v_min = 1.05 * 2.0 * x0 / tau
    if v_min > 2.0:
        raise ValueError(
            f"x0 = {x0:g} m and tau = {tau:g} s put the default grid's lower "
            f"end, 1.05 * 2 x0 / tau = {v_min:g} m/s, above its upper end, "
            "2 m/s")
    return velocity_grid(v_min, 2.0, DEFAULT_GRID_POINTS)


def velocity_sweep(v0_values=None, b: float = 0.5e-6, x0: float = 300e-6,
                   tau: float = 0.1, medium: Medium | None = None) -> SweepTable:
    """Closed-form separations and current densities across launch speeds.

    A feasible row whose value overflows or underflows to inf or NaN raises
    ``ValueError`` naming the column; infeasible rows hold NaN.
    """
    for name, value in (("b", b), ("x0", x0), ("tau", tau)):
        _require_positive(name, value)
    medium = medium if medium is not None else default_medium()
    if v0_values is None:
        v0_values = default_velocity_grid(x0, tau)
    v0_values = tuple(float(v) for v in v0_values)
    if not all(math.isfinite(v) for v in v0_values):
        raise ValueError("every v0 must be finite")

    rows = []
    for v0 in v0_values:
        if v0 * tau <= 2.0 * x0:
            rows.append((v0, False) + (math.nan,) * 6)
            continue
        c1 = analytic.triangular_current_ratio(v0, tau, x0, medium)
        c2 = analytic.inverse_current_ratio(v0, medium)
        row = (v0, True,
               analytic.triangular_max_size(v0, tau, x0),
               analytic.inverse_max_size(v0, tau, x0),
               c1, c2,
               analytic.current_density(v0, b, c1, medium),
               analytic.current_density(v0, b, c2, medium))
        for name, value in zip(SWEEP_COLUMNS[2:], row[2:]):
            if not math.isfinite(value):
                raise ValueError(f"{name} is {value} at the feasible "
                                 f"v0 = {v0:g} m/s")
        rows.append(row)

    columns = tuple(zip(*rows)) or ((),) * len(SWEEP_COLUMNS)  # no rows
    return SweepTable(*columns)


@dataclass(frozen=True)
class ValidationRow:
    b: float
    k: float
    scattering_angle: float
    periapsis_analytic: float
    periapsis_numeric: float
    max_rel_deviation: float
    n_compared: int

    def to_dict(self):
        return {
            "b_m": self.b,
            "k": self.k,
            "scattering_angle_rad": self.scattering_angle,
            "periapsis_analytic_m": self.periapsis_analytic,
            "periapsis_numeric_m": self.periapsis_numeric,
            "max_rel_deviation": self.max_rel_deviation,
            "n_compared": self.n_compared,
        }


def validate_analytic(b_values=(0.5e-6, 3e-6, 6e-6), current: float = 2.0,
                      v0: float = 0.01, medium: Medium | None = None,
                      launch_distance: float = 300e-6,
                      region_radius: float | None = None,
                      control: StepControl = DEFAULT_CONTROL) -> list[ValidationRow]:
    """Max relative radial deviation of numeric vs closed-form trajectories.

    One single-wire scattering run per impact parameter. The deviation is
    taken over samples inside the scattering region (radius
    ``region_radius``, default a tenth of the launch distance); outside it
    the orbit hugs its asymptotes, where the radius-at-angle comparison
    degenerates. With zero current the reference is the straight line
    ``r = b / sin(theta)``, but the run is a single step over the whole
    duration: its only samples are the launch and the end, a launch
    distance or more from the wire, so only a region that reaches them
    compares anything, and there the deviation is zero to round-off. No
    ``b_values``, or a region that holds no sample of some run, raises
    ``ValueError``: a deviation over no samples would read as a perfect
    overlay.
    """
    b_values = tuple(b_values)
    if not b_values:
        raise ValueError("b_values is empty: a validation needs at least "
                         "one impact parameter to compare")
    for i, b in enumerate(b_values):
        _require_positive(f"b_values[{i}]", b)
    _require_positive("v0", v0)
    _require_positive("launch_distance", launch_distance)
    if region_radius is None:
        region_radius = launch_distance / 10.0
    _require_positive("region_radius", region_radius)
    medium = medium if medium is not None else default_medium()
    wires = (Wire(0.0, 0.0, current),)
    rows = []
    for b in b_values:
        k = analytic.stiffness_k(current, b, v0, medium) if current != 0.0 else 1.0
        theta_s = analytic.scattering_angle(k)
        initial = PacketState(x=-launch_distance, z=b, vx=v0, vz=0.0)
        # long enough to come back out of the comparison region
        duration = 2.2 * launch_distance / v0
        traj = simulate(initial, wires, medium, duration, control)
        samples = traj.states.tolist()
        devs = []
        for x, z, _, _ in samples:
            r = math.hypot(x, z)
            if r <= region_radius:
                ra = analytic.analytic_orbit(math.atan2(z, x), k, b)
                devs.append(abs(r - ra) / ra)
        if not devs:
            r_min = min(math.hypot(x, z) for x, z, _, _ in samples)
            raise ValueError(
                f"region_radius = {region_radius:g} m holds no sample of the "
                f"b = {b:g} m run: the nearest of its {len(samples)} samples "
                f"lies {r_min:g} m from the wire")
        rows.append(ValidationRow(
            b=b,
            k=k,
            scattering_angle=theta_s,
            periapsis_analytic=math.sqrt(k) * b,
            periapsis_numeric=traj.events.periapsis_per_wire[0].distance,
            max_rel_deviation=max(0.0, *devs),  # a NaN deviation is skipped
            n_compared=len(devs),
        ))
    return rows
