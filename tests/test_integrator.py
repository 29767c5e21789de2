"""Physics invariants of simulated trajectories, events, mirror branches."""

import math

import numpy as np
import pytest

from wiresplit import (
    PacketState,
    StepControl,
    Wire,
    analytic_orbit,
    mirror_trajectory,
    simulate,
    stiffness_k,
)
from wiresplit.integrator import event_log_dict


LAUNCH_X = -300e-6


def _scattering(medium, b=0.5e-6, current=2.0, v0=0.01, duration=0.06,
                control=None):
    initial = PacketState(x=LAUNCH_X, z=b, vx=v0, vz=0.0)
    wires = (Wire(0.0, 0.0, current),)
    if control is None:
        return simulate(initial, wires, medium, duration), wires
    return simulate(initial, wires, medium, duration, control), wires


def test_energy_conservation(medium):
    traj, wires = _scattering(medium)
    assert traj.stats.energy_drift < 1e-8
    assert np.all(np.diff(traj.t) > 0.0)  # samples are time-ordered
    # recompute independently at a handful of samples, with the one wire's
    # repulsion potential alpha I^2 / (2 r^2)
    (wire,) = wires
    x, z, vx, vz = traj.states[:: max(1, len(traj.t) // 50)].T
    r2 = (x - wire.x) ** 2 + (z - wire.z) ** 2
    e = 0.5 * (vx**2 + vz**2) + 0.5 * medium.alpha * wire.current**2 / r2
    assert max(e) - min(e) < 1e-8 * e[0]


def test_angular_momentum_conservation_single_wire(medium):
    traj, _ = _scattering(medium)
    x, z, vx, vz = traj.states.T
    ell = x * vz - z * vx
    drift = np.max(np.abs(ell - ell[0])) / np.abs(ell[0])
    assert drift < 1e-8


def test_time_reversal(medium):
    traj, wires = _scattering(medium, duration=0.05)
    end = traj.final
    back = simulate(
        PacketState(x=end.x, z=end.z, vx=-end.vx, vz=-end.vz, t=0.0),
        wires, medium, 0.05)
    ret = back.final
    assert math.hypot(ret.x - LAUNCH_X, ret.z - 0.5e-6) < 1e-9


def test_numeric_overlays_analytic_orbit(medium):
    """Radial deviation from the closed-form orbit stays below a tenth of a
    percent through the scattering region."""
    traj, _ = _scattering(medium, b=0.5e-6)
    k = stiffness_k(2.0, 0.5e-6, 0.01, medium)
    x, z = traj.states[:, 0], traj.states[:, 1]
    r = np.hypot(x, z)
    theta = np.arctan2(z, x)
    inside = r <= 30e-6
    assert inside.sum() > 50
    devs = [abs(ri - analytic_orbit(ti, k, 0.5e-6)) / analytic_orbit(ti, k, 0.5e-6)
            for ri, ti in zip(r[inside], theta[inside])]
    assert max(devs) < 1e-3


def test_periapsis_event_matches_analytic(medium):
    traj, _ = _scattering(medium)
    k = stiffness_k(2.0, 0.5e-6, 0.01, medium)
    peri = traj.events.periapsis_per_wire[0]
    assert peri.distance == pytest.approx(math.sqrt(k) * 0.5e-6, rel=1e-4)
    # the periapsis state is an actual turning point of the radius
    rdot = peri.state.x * peri.state.vx + peri.state.z * peri.state.vz
    assert abs(rdot) < 1e-7 * peri.distance * 0.01


def test_apex_event_is_global_extremum(medium):
    traj, _ = _scattering(medium)
    apex = traj.events.apex
    assert abs(apex.z) >= np.max(np.abs(traj.states[:, 1])) - 1e-15


def test_mirror_trajectory_flips_z(medium):
    top, _ = _scattering(medium, duration=0.02)
    bot = mirror_trajectory(top)
    assert np.array_equal(bot.states[:, 1], -top.states[:, 1])
    assert np.array_equal(bot.states[:, 3], -top.states[:, 3])
    assert np.array_equal(bot.states[:, 0], top.states[:, 0])
    assert bot.events.apex.z == -top.events.apex.z


def test_event_log_dict_schema(medium):
    traj, _ = _scattering(medium, duration=0.02)
    d = event_log_dict(traj)
    assert set(d) == {"apex", "periapsis_per_wire", "closure",
                      "separation_max_m", "stats"}
    assert d["periapsis_per_wire"][0]["wire_index"] == 0
    assert d["apex"]["z_m"] == traj.events.apex.z
    assert d["stats"]["n_steps"] == traj.stats.n_steps


@pytest.mark.parametrize("field, value", [
    ("rtol", -1e-9), ("rtol", math.nan), ("rtol", math.inf),
    ("atol", -1e-13), ("atol", math.nan), ("atol", math.inf),
    ("max_steps", 0), ("max_steps", -1),
    ("event_dt", -1e-12), ("event_dt", math.nan), ("event_dt", math.inf),
    ("guard_radius", 0.0), ("guard_radius", -1e-9), ("guard_radius", math.nan),
])
def test_step_control_rejects_invalid_field(field, value):
    with pytest.raises(ValueError, match=field):
        StepControl(**{field: value})


def test_step_control_rejects_zero_tolerances():
    # no error scale at all: every step with a nonzero error is rejected
    with pytest.raises(ValueError, match="rtol and atol"):
        StepControl(rtol=0.0, atol=0.0)


def test_step_control_accepts_boundary_values():
    assert StepControl(rtol=0.0).atol > 0.0  # pure absolute control
    assert StepControl(atol=0.0).rtol > 0.0  # pure relative control
    control = StepControl(max_steps=1, event_dt=0.0)
    assert (control.max_steps, control.event_dt) == (1, 0.0)
