"""Trajectory integration: adaptive Runge-Kutta 5(4) with event detection.

The stepping loop lives in one kernel, picked at import: the compiled
extension ``wiresplit._kernel`` if it is built, else its pure-Python twin
``wiresplit._kernel_py``. Both implement the identical algorithm and return
bitwise-identical results, the energy-drift statistic included: the
repulsion potential is evaluated only in the kernels. ``simulate`` wraps
the kernel's output into domain types; its samples stay the kernel's
buffers of native doubles.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field, replace

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


MAX_STEPS = 5_000_000  # steps per simulate run, rejected ones included


@dataclass(frozen=True)
class StepControl:
    """Integrator tolerances.

    The default relative tolerance keeps the specific-energy drift of
    reference-scale runs a factor of a few under 1e-8.

    Each state component has the error scale ``atol + rtol * |value|``.
    ``atol=0`` is pure relative control, which carries no length unit and
    so keeps runs covariant under a change of scale. A component that is
    exactly 0 then has scale 0: in a step's error norm it counts 0 when its
    error is 0 and rejects the step otherwise. Neither tolerance enters the
    first step, which comes from the launch geometry (see ``_kernel_py``).

    The rest is fixed: the guard radius around each wire is
    ``field.GUARD_RADIUS`` (1 nm), the step budget is :data:`MAX_STEPS`, and
    events (apex, periapses, closure) are located to 1e-12 s, the kernels'
    ``EVENT_DT``, or as close as 80 halvings of a step get.
    """

    rtol: float = 1e-11
    atol: float = 1e-13

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} must be finite and at least 0, got {value!r}")
        if self.rtol == 0.0 and self.atol == 0.0:
            raise ValueError("rtol and atol must not both be 0")


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
    """Time-ordered samples of one packet plus its event log.

    ``t`` (n,) and ``states`` (n, 4: x, z, vx, vz) are read-only
    ``memoryview``s of the kernel's doubles, cast without a copy:
    ``states[i, j]`` reads one value, ``states.tolist()`` the rows, and
    ``numpy.asarray`` views either buffer without a copy.
    """

    t: memoryview
    states: memoryview
    events: EventLog
    stats: TrajectoryStats

    @property
    def final(self) -> PacketState:
        s = self.states
        return PacketState(x=s[-1, 0], z=s[-1, 1], vx=s[-1, 2], vz=s[-1, 3],
                           t=self.t[-1])


@dataclass(frozen=True)
class _TurnRun(Trajectory):
    """A ``stop_at_turn`` run, with the kernel's snapshot that continues it
    after its turn step; see :func:`_resumed`."""

    resume: bytes = field(repr=False)


@dataclass(frozen=True)
class _Resumed(PacketState):
    """A launch state, with the snapshot, ``t`` and ``states`` of a
    :class:`_TurnRun` from it."""

    resume: tuple = field(default=(), repr=False)


def _resumed(initial: PacketState, turn) -> PacketState:
    """``initial``, from which ``simulate`` takes up ``turn``, a
    ``stop_at_turn`` run from it with the same other arguments, after its
    turn step. The kernel runs on from the snapshot (its layout is in
    ``_kernel_py.integrate``), and ``simulate`` puts ``turn``'s rows in
    front of the new ones. The run is bitwise the fresh one, except that
    its counters count only its own work, and so does its
    :data:`MAX_STEPS` budget: with ``turn``'s, they add up to the fresh
    run's. Without a continuation (``turn`` did not turn, or closed by the
    end of its turn step), ``initial`` itself.

    The continuation rides on ``simulate``'s own argument and result, so
    a continued run passes through ``simulate`` like any other, and
    through a wrapper set on it, such as perfbench's tracer.
    """
    if not isinstance(turn, _TurnRun):
        return initial
    return _Resumed(**vars(initial), resume=(turn.resume, turn.t, turn.states))


def simulate(initial: PacketState, wires, medium: Medium, duration: float,
             control: StepControl = DEFAULT_CONTROL, *,
             stop_at_closure: bool = False,
             stop_at_turn: bool = False) -> Trajectory:
    """Integrate the equation of motion over ``[t0, t0 + duration]``.

    Events are recorded along the way; the closure is the first crossing
    of the launch plane ``x = initial.x`` with vx < 0. With
    ``stop_at_closure`` the run ends at the closure crossing instead of
    the full duration. With ``stop_at_turn`` it ends with the step that
    holds the turn, the first point where vz goes from positive to
    negative, and the turn is located as the apex is. An inverse branch
    turns at its deflector, where it retraces its path.

    Raises ``ValueError`` for both stop flags set, a duration that is not
    positive and finite or too small to move ``t0 + duration`` off ``t0``,
    or a launch whose specific kinetic energy overflows (the energy drift
    would be NaN), ``WireSingularityError`` when the launch or the path
    comes within ``GUARD_RADIUS`` of a wire that carries current, and
    ``StiffnessError`` when the step size underflows or the
    :data:`MAX_STEPS` budget runs out.
    """
    if stop_at_closure and stop_at_turn:
        raise ValueError("stop_at_closure and stop_at_turn are exclusive")
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration:g}")
    if initial.t + duration == initial.t:
        raise ValueError(
            f"duration {duration:g} s is lost in rounding: t0 + duration "
            f"equals t0 = {initial.t:g} s")
    if not math.isfinite(0.5 * (initial.vx * initial.vx + initial.vz * initial.vz)):
        raise ValueError(
            "launch speed too large: the specific kinetic energy "
            f"0.5*(vx^2 + vz^2) overflows at vx = {initial.vx:g} m/s, "
            f"vz = {initial.vz:g} m/s")
    wires = tuple(wires)
    for i, w in enumerate(wires):
        if w.current == 0.0:
            continue
        if math.hypot(initial.x - w.x, initial.z - w.z) <= GUARD_RADIUS:
            raise WireSingularityError(i, (initial.x, initial.z), initial.t)

    snapshot, t_pre, s_pre = (initial.resume if isinstance(initial, _Resumed)
                              else (None, None, None))
    # looked up per call, so a wrapper set on the module (perfbench's
    # tracer) sees every run
    raw = _kernel.integrate(
        initial.x, initial.z, initial.vx, initial.vz, initial.t, duration,
        array("d", [v for w in wires for v in (w.x, w.z, w.current)]),
        medium.alpha,
        control.rtol, control.atol, GUARD_RADIUS, MAX_STEPS,
        _kernel_py.STOP_CLOSURE if stop_at_closure
        else _kernel_py.STOP_TURN if stop_at_turn else _kernel_py.STOP_NONE,
        snapshot,
    )

    t_buf, s_buf = raw["t"], raw["states"]
    if snapshot is not None:  # the turn run's rows come first
        t_buf, s_buf = b"".join((t_pre, t_buf)), b"".join((s_pre, s_buf))
    t = memoryview(t_buf).cast("d")  # the last row is where a run stopped
    # the event state's layout is in _kernel_py.integrate
    apex, drift, min_step, dist, peri_state, closure = _kernel_py._unstate(
        raw["events"], len(wires))
    if raw["status"] == _kernel_py.STATUS_SINGULARITY:
        # the kernels keep the failing point as that wire's periapsis state
        t_fail, x, z = peri_state[raw["fail_wire"]][:3]
        raise WireSingularityError(raw["fail_wire"], (x, z), t_fail)
    if raw["status"] == _kernel_py.STATUS_UNDERFLOW:
        raise StiffnessError(
            f"step size underflow at t = {t[-1]:.9e} s "
            "(force too stiff for the requested tolerances)"
        )
    if raw["status"] == _kernel_py.STATUS_MAXSTEPS:
        raise StiffnessError(
            f"step budget ({MAX_STEPS}) exhausted at t = {t[-1]:.9e} s"
        )

    def as_state(tup):
        return PacketState(t=tup[0], x=tup[1], z=tup[2], vx=tup[3], vz=tup[4])

    peri = tuple(PeriapsisEvent(i, dist[i], as_state(peri_state[i]))
                 for i in range(len(wires)))
    events = EventLog(
        apex=as_state(apex),
        periapsis_per_wire=peri,
        closure=as_state(closure) if closure is not None else None,
    )
    stats = TrajectoryStats(
        n_steps=raw["n_steps"],
        n_rejected=raw["n_rejected"],
        n_rhs_evals=raw["n_rhs"],
        min_step=min_step,
        energy_drift=drift,
    )
    states = memoryview(s_buf).cast("d", (len(t), 4))
    if raw["resume"] is not None:
        return _TurnRun(t, states, events, stats, raw["resume"])
    return Trajectory(t=t, states=states, events=events, stats=stats)


def _mirrored(traj: Trajectory, partner) -> Trajectory:
    """The z -> -z mirror image of ``traj``, a run through a z-symmetric
    wire array in which wire i's mirror partner is ``partner[i]``.

    The mirror run passes wire i where ``traj`` passed its partner, so
    periapsis entry i of the result is the partner's entry, flipped, under
    wire index i.
    """
    ev = traj.events
    # z and vz, columns 1 and 3, are the odd entries of the flat rows
    flat = array("d", traj.states.tobytes())
    flat[1::2] = array("d", [-v for v in flat[1::2]])
    states = memoryview(flat.tobytes()).cast("d", traj.states.shape)

    def flip(s: PacketState) -> PacketState:
        return replace(s, z=-s.z, vz=-s.vz)

    peri = ev.periapsis_per_wire
    events = EventLog(
        apex=flip(ev.apex),
        periapsis_per_wire=tuple(
            PeriapsisEvent(i, peri[j].distance, flip(peri[j].state))
            for i, j in enumerate(partner)
        ),
        closure=flip(ev.closure) if ev.closure is not None else None,
        separation_max=ev.separation_max,
    )
    return Trajectory(t=traj.t, states=states, events=events, stats=traj.stats)


TRAJECTORY_CSV_COLUMNS = ("t_s", "x_m", "z_m", "vx_m_per_s", "vz_m_per_s")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write samples as CSV with SI columns t_s, x_m, z_m, vx_m_per_s, vz_m_per_s."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_CSV_COLUMNS)
        for t, row in zip(traj.t, traj.states.tolist()):
            writer.writerow([f"{v:.12e}" for v in (t, *row)])


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
