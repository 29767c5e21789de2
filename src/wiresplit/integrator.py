"""Trajectory integration: adaptive Runge-Kutta 5(4) with event detection.

The stepping loop lives in one kernel, picked at import: the compiled
extension ``wiresplit._kernel`` if it is built, else its pure-Python twin
``wiresplit._kernel_py``. Both implement the identical algorithm and return
bitwise-identical results. ``simulate`` wraps the kernel into domain types
and computes the energy-drift statistic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernel_py
from .field import GUARD_RADIUS, WireSingularityError
from .model import Medium, PacketState

try:
    from . import _kernel  # compiled extension
except ImportError:
    _kernel = _kernel_py


def kernel_backend() -> str:
    """Name of the kernel ``simulate`` runs: ``compiled`` or ``python``."""
    return "python" if _kernel is _kernel_py else "compiled"


class StiffnessError(RuntimeError):
    """The step size underflowed or the step budget was exhausted."""


@dataclass(frozen=True)
class StepControl:
    """Integrator tolerances and safety limits.

    The default relative tolerance keeps the specific-energy drift of
    reference-scale runs a factor of a few under 1e-8.

    Each state component has the error scale ``atol + rtol * |value|``.
    ``atol=0`` is pure relative control, which carries no length unit and
    so keeps runs covariant under a change of scale. A component that is
    exactly 0 then has scale 0: it counts 0 in the initial-step heuristic,
    and in a step's error norm it counts 0 when its error is 0 and rejects
    the step otherwise.

    ``guard_radius`` must be finite and at least 1e-70 m. The kernels
    divide by r^4 = r2 * r2 only where r2 > guard_radius^2 * 1e-6, so at
    this floor r^4 > 1e-292 and the force stays finite. Any floor of
    (2^-1075 / 1e-12)^(1/4) = 1.3e-78 m or more keeps r2 * r2 from
    rounding to 0.
    """

    rtol: float = 1e-11
    atol: float = 1e-13
    max_steps: int = 5_000_000
    guard_radius: float = GUARD_RADIUS
    event_dt: float = 1e-12  # event bisection resolution, s

    def __post_init__(self):
        for name in ("rtol", "atol", "event_dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} must be finite and at least 0, got {value!r}")
        if self.rtol == 0.0 and self.atol == 0.0:
            raise ValueError("rtol and atol must not both be 0")
        if not self.max_steps >= 1:
            raise ValueError(
                f"max_steps must be at least 1, got {self.max_steps!r}")
        if not 1e-70 <= self.guard_radius < math.inf:
            raise ValueError("guard_radius must be finite and at least "
                             f"1e-70 m, got {self.guard_radius!r}")


DEFAULT_CONTROL = StepControl()


@dataclass(frozen=True)
class PeriapsisEvent:
    wire_index: int
    distance: float
    state: PacketState


@dataclass(frozen=True)
class EventLog:
    apex: PacketState
    periapsis_per_wire: tuple[PeriapsisEvent, ...]
    closure: PacketState | None
    separation_max: float | None = None


@dataclass(frozen=True)
class TrajectoryStats:
    n_steps: int
    n_rejected: int
    n_rhs_evals: int
    min_step: float
    energy_drift: float  # max relative drift of (kinetic + potential)/mass


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of one packet plus its event log."""

    t: np.ndarray       # (n,)
    states: np.ndarray  # (n, 4): x, z, vx, vz
    events: EventLog
    stats: TrajectoryStats

    @property
    def final(self) -> PacketState:
        r = self.states[-1]
        return PacketState(x=r[0], z=r[1], vx=r[2], vz=r[3], t=self.t[-1])


def _specific_energy(states: np.ndarray, wires, medium: Medium) -> np.ndarray:
    """Kinetic plus trajectory-model potential per unit mass, per sample."""
    u = np.zeros(len(states))
    for w in wires:
        if w.current == 0.0:
            continue
        dx = states[:, 0] - w.x
        dz = states[:, 1] - w.z
        r2 = dx * dx + dz * dz
        u += 0.5 * medium.alpha * w.current * w.current / r2
    return 0.5 * (states[:, 2] ** 2 + states[:, 3] ** 2) + u


def simulate(initial: PacketState, wires, medium: Medium, duration: float,
             control: StepControl = DEFAULT_CONTROL, *,
             stop_at_closure: bool = False) -> Trajectory:
    """Integrate the equation of motion over ``[t0, t0 + duration]``.

    Events are recorded along the way; the closure is the first crossing
    of the launch plane ``x = initial.x`` with vx < 0. With
    ``stop_at_closure`` the run ends at the closure crossing instead of
    the full duration.

    Raises ``ValueError`` for a duration that is not positive and finite
    or a launch whose specific kinetic energy overflows (the energy drift
    would be NaN), ``WireSingularityError`` when the launch or the path
    comes within the guard radius of a wire that carries current, and
    ``StiffnessError`` when the step size underflows or the step budget runs
    out.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration:g}")
    if not math.isfinite(0.5 * (initial.vx * initial.vx + initial.vz * initial.vz)):
        raise ValueError(
            "launch speed too large: the specific kinetic energy "
            f"0.5*(vx^2 + vz^2) overflows at vx = {initial.vx:g} m/s, "
            f"vz = {initial.vz:g} m/s")
    wires = tuple(wires)
    for i, w in enumerate(wires):
        if w.current == 0.0:
            continue
        if math.hypot(initial.x - w.x, initial.z - w.z) <= control.guard_radius:
            raise WireSingularityError(i, (initial.x, initial.z), initial.t)

    # looked up per call, so a wrapper set on the module (perfbench's
    # tracer) sees every run
    raw = _kernel.integrate(
        initial.x, initial.z, initial.vx, initial.vz, initial.t, duration,
        [w.x for w in wires], [w.z for w in wires], [w.current for w in wires],
        medium.alpha,
        control.rtol, control.atol, control.guard_radius, control.max_steps,
        bool(stop_at_closure), control.event_dt,
    )

    if raw["status"] == _kernel_py.STATUS_SINGULARITY:
        raise WireSingularityError(
            raw["fail_wire"],
            (wires[raw["fail_wire"]].x, wires[raw["fail_wire"]].z),
            raw["t_fail"],
        )
    if raw["status"] == _kernel_py.STATUS_UNDERFLOW:
        raise StiffnessError(
            f"step size underflow at t = {raw['t_fail']:.9e} s "
            "(force too stiff for the requested tolerances)"
        )
    if raw["status"] == _kernel_py.STATUS_MAXSTEPS:
        raise StiffnessError(
            f"step budget ({control.max_steps}) exhausted at t = {raw['t_fail']:.9e} s"
        )

    rows = np.array(raw["samples"], dtype=float).reshape(-1, 5)
    t = rows[:, 0]
    states = rows[:, 1:]

    energy = _specific_energy(states, wires, medium)
    e0 = energy[0]
    scale = abs(e0) if e0 != 0.0 else 1.0
    drift = float(np.max(np.abs(energy - e0)) / scale)

    def as_state(tup):
        return PacketState(t=tup[0], x=tup[1], z=tup[2], vx=tup[3], vz=tup[4])

    peri = tuple(
        PeriapsisEvent(i, raw["periapsis_distance"][i], as_state(raw["periapsis_state"][i]))
        for i in range(len(wires))
    )
    events = EventLog(
        apex=as_state(raw["apex"]),
        periapsis_per_wire=peri,
        closure=as_state(raw["closure"]) if raw["closure"] is not None else None,
    )
    stats = TrajectoryStats(
        n_steps=raw["n_steps"],
        n_rejected=raw["n_rejected"],
        n_rhs_evals=raw["n_rhs"],
        min_step=raw["min_step"],
        energy_drift=drift,
    )
    return Trajectory(t=t, states=states, events=events, stats=stats)


def mirror_trajectory(traj: Trajectory) -> Trajectory:
    """The z -> -z mirror image (exact for a z-symmetric wire array)."""
    states = traj.states.copy()
    states[:, 1] *= -1.0
    states[:, 3] *= -1.0

    def flip(s: PacketState) -> PacketState:
        return replace(s, z=-s.z, vz=-s.vz)

    ev = traj.events
    events = EventLog(
        apex=flip(ev.apex),
        periapsis_per_wire=tuple(
            PeriapsisEvent(p.wire_index, p.distance, flip(p.state))
            for p in ev.periapsis_per_wire
        ),
        closure=flip(ev.closure) if ev.closure is not None else None,
        separation_max=ev.separation_max,
    )
    return Trajectory(t=traj.t.copy(), states=states, events=events, stats=traj.stats)


TRAJECTORY_CSV_COLUMNS = ("t_s", "x_m", "z_m", "vx_m_per_s", "vz_m_per_s")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write samples as CSV with SI columns t_s, x_m, z_m, vx_m_per_s, vz_m_per_s."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_CSV_COLUMNS)
        for ti, row in zip(traj.t, traj.states):
            writer.writerow([f"{v:.12e}" for v in (ti, row[0], row[1], row[2], row[3])])


def _state_dict(s: PacketState | None):
    if s is None:
        return None
    return {"t_s": s.t, "x_m": s.x, "z_m": s.z,
            "vx_m_per_s": s.vx, "vz_m_per_s": s.vz}


def event_log_dict(traj: Trajectory) -> dict:
    """JSON-ready event log (schema shared with the CLI)."""
    ev = traj.events
    return {
        "apex": _state_dict(ev.apex),
        "periapsis_per_wire": [
            {
                "wire_index": p.wire_index,
                "distance_m": p.distance,
                "state": _state_dict(p.state),
            }
            for p in ev.periapsis_per_wire
        ],
        "closure": _state_dict(ev.closure),
        "separation_max_m": ev.separation_max,
        "stats": {
            "n_steps": traj.stats.n_steps,
            "n_rejected": traj.stats.n_rejected,
            "n_rhs_evals": traj.stats.n_rhs_evals,
            "min_step_s": traj.stats.min_step,
            "energy_drift_rel": traj.stats.energy_drift,
        },
    }
