"""Parameter studies: separation and current density versus launch speed,
plus batch comparison of numeric trajectories against the closed-form orbit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

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
    """One row per launch speed; infeasible rows are flagged, not dropped."""

    v0: np.ndarray
    feasible: np.ndarray
    dz_triangular: np.ndarray
    dz_inverse: np.ndarray
    ratio_triangular: np.ndarray
    ratio_inverse: np.ndarray
    density_triangular: np.ndarray
    density_inverse: np.ndarray

    def rows(self):
        for i in range(len(self.v0)):
            yield (
                self.v0[i],
                bool(self.feasible[i]),
                self.dz_triangular[i],
                self.dz_inverse[i],
                self.ratio_triangular[i],
                self.ratio_inverse[i],
                self.density_triangular[i],
                self.density_inverse[i],
            )

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


def default_velocity_grid(x0: float = 300e-6, tau: float = 0.1,
                          n_points: int = 50) -> np.ndarray:
    """Logarithmic grid from just above the feasibility bound up to 2 m/s."""
    _require_positive("x0", x0)
    _require_positive("tau", tau)
    v_min = 1.05 * 2.0 * x0 / tau
    return np.geomspace(v_min, 2.0, n_points)


def velocity_sweep(v0_values=None, b: float = 0.5e-6, x0: float = 300e-6,
                   tau: float = 0.1, medium: Medium | None = None) -> SweepTable:
    """Closed-form separations and current densities across launch speeds."""
    for name, value in (("b", b), ("x0", x0), ("tau", tau)):
        _require_positive(name, value)
    medium = medium if medium is not None else default_medium()
    if v0_values is None:
        v0_values = default_velocity_grid(x0, tau)
    v0_values = np.asarray(v0_values, dtype=float)
    if not np.all(np.isfinite(v0_values)):
        raise ValueError("every v0 must be finite")

    n = len(v0_values)
    feasible = np.zeros(n, dtype=bool)
    out = {name: np.full(n, math.nan) for name in SWEEP_COLUMNS[2:]}

    for i, v0 in enumerate(v0_values):
        if v0 * tau <= 2.0 * x0:
            continue
        feasible[i] = True
        c1 = analytic.triangular_current_ratio(v0, tau, x0, medium)
        c2 = analytic.inverse_current_ratio(v0, medium)
        out["dz_triangular_m"][i] = analytic.triangular_max_size(v0, tau, x0)
        out["dz_inverse_m"][i] = analytic.inverse_max_size(v0, tau, x0)
        out["current_ratio_triangular_a_per_m"][i] = c1
        out["current_ratio_inverse_a_per_m"][i] = c2
        out["current_density_triangular_a_per_m2"][i] = \
            analytic.current_density(v0, b, c1, medium)
        out["current_density_inverse_a_per_m2"][i] = \
            analytic.current_density(v0, b, c2, medium)

    return SweepTable(
        v0=v0_values,
        feasible=feasible,
        dz_triangular=out["dz_triangular_m"],
        dz_inverse=out["dz_inverse_m"],
        ratio_triangular=out["current_ratio_triangular_a_per_m"],
        ratio_inverse=out["current_ratio_inverse_a_per_m"],
        density_triangular=out["current_density_triangular_a_per_m2"],
        density_inverse=out["current_density_inverse_a_per_m2"],
    )


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
    ``r = b / sin(theta)`` and the deviation is zero to round-off. A region
    that holds no sample of some run raises ``ValueError``: a deviation over
    no samples would read as a perfect overlay.
    """
    b_values = tuple(b_values)
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
        x = traj.states[:, 0]
        z = traj.states[:, 1]
        r = np.hypot(x, z)
        theta = np.arctan2(z, x)
        inside = r <= region_radius
        dev = 0.0
        n_used = 0
        for ri, thi in zip(r[inside], theta[inside]):
            ra = analytic.analytic_orbit(thi, k, b)
            d = abs(ri - ra) / ra
            if d > dev:
                dev = d
            n_used += 1
        if n_used == 0:
            raise ValueError(
                f"region_radius = {region_radius:g} m holds no sample of the "
                f"b = {b:g} m run; it must exceed the closest approach")
        rows.append(ValidationRow(
            b=b,
            k=k,
            scattering_angle=theta_s,
            periapsis_analytic=math.sqrt(k) * b,
            periapsis_numeric=traj.events.periapsis_per_wire[0].distance,
            max_rel_deviation=dev,
            n_compared=n_used,
        ))
    return rows
