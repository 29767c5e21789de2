"""Stepper mechanics and backend agreement."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiresplit import (
    GUARD_RADIUS,
    PacketState,
    StepControl,
    StiffnessError,
    Wire,
    WireSingularityError,
    closest_approach_headon,
    kernel_backend,
    simulate,
)
from wiresplit import _kernel_py, integrator


def _fig_scenario():
    wires = (Wire(0.0, 0.0, 2.0),)
    initial = PacketState(x=-300e-6, z=0.5e-6, vx=0.01, vz=0.0)
    return initial, wires


def _symmetric_scenario():
    # two equal wires mirrored in z = 0: z and vz stay exactly 0
    wires = (Wire(0.0, 50e-6, 1.0), Wire(0.0, -50e-6, 1.0))
    initial = PacketState(x=-300e-6, z=0.0, vx=0.01, vz=0.0)
    return initial, wires


# pure relative error control: a component that is exactly 0 has scale 0
PURE_RELATIVE = StepControl(atol=0.0)


def test_default_backend_is_fastest_available():
    try:
        from wiresplit import _kernel  # noqa: F401
    except ImportError:
        assert kernel_backend() == "python"
    else:
        assert kernel_backend() == "compiled"


def _inverse_scenario():
    # the inverse reference layout: the branch runs head-on into the upper
    # deflector, turns at about t = 0.05 s and retraces its path
    wires = (Wire(0.0, 0.0, 0.616467), Wire(-0.5e-6, 200e-6, 0.0082995),
             Wire(-0.5e-6, -200e-6, 0.0082995))
    return PacketState(x=-300e-6, z=0.5e-6, vx=0.01, vz=0.0), wires


def _headon():
    # b = 0: the packet stalls short of the wire and retraces its path
    return PacketState(x=-50e-6, z=0.0, vx=0.01, vz=0.0), (Wire(0.0, 0.0, 2.0),)


def _wires(triples):
    """The kernels' ``wires`` buffer of (x, z, current) ``triples``."""
    return array("d", [v for triple in triples for v in triple]).tobytes()


def _events(raw, wires):
    """``_kernel_py._unstate`` of a kernel result's ``events`` for the
    ``wires`` buffer it ran on: 7 + 6 n doubles for n wires, then the
    closure's 5 when there is one."""
    n = len(wires) // 24
    assert len(raw["events"]) in (8 * (7 + 6 * n), 8 * (12 + 6 * n))
    return _kernel_py._unstate(raw["events"], n)


def _bitwise_case(name, medium):
    """(kernel arguments, expected status) of one exit path of the kernel."""
    initial, wires = _fig_scenario()
    duration, control, stop = 0.02, StepControl(), _kernel_py.STOP_NONE
    guard, max_steps = GUARD_RADIUS, integrator.MAX_STEPS
    status = _kernel_py.STATUS_OK
    if name == "three_wire":
        # multi-wire case stresses the force loop ordering too
        wires += (Wire(-150e-6, 316.5e-6, 1.57), Wire(-150e-6, -316.5e-6, 1.57))
    elif name == "singularity":
        initial, wires = _headon()
        # a guard wider than the turning radius
        guard = 2.0 * closest_approach_headon(2.0, 0.01, medium)
        status = _kernel_py.STATUS_SINGULARITY
    elif name == "max_steps":
        duration, max_steps = 0.06, 50
        status = _kernel_py.STATUS_MAXSTEPS
    elif name == "underflow":
        # the step floor 16 eps |t| = 3.6e-3 s exceeds the whole duration
        initial = PacketState(x=-300e-6, z=0.5e-6, vx=0.01, vz=0.0, t=1e12)
        duration = 1e-3
        status = _kernel_py.STATUS_UNDERFLOW
    elif name == "stop_at_closure":
        initial, wires = _headon()
        stop = _kernel_py.STOP_CLOSURE
    elif name in ("stop_at_turn", "resumed_at_turn"):
        # the inverse reference layout run to its turn at the deflector, or
        # to its closure from the twin's continuation of that run
        initial, wires = _inverse_scenario()
        duration, stop = 0.11, _kernel_py.STOP_TURN
    elif name == "no_wires":
        wires = ()
    elif name in ("vz0_pure_relative", "z_axis_pure_relative",
                  "tiny_vz_pure_relative"):
        if name.startswith("z_axis"):
            initial, wires = _symmetric_scenario()
        elif name.startswith("tiny_vz"):
            # vz's launch error scale is rtol |vz| = 1e-41 m/s; each step's
            # scale takes the larger end, so the run steps as at vz = 0
            initial = PacketState(x=-300e-6, z=0.5e-6, vx=0.01, vz=1e-30)
        duration, control = 0.06, PURE_RELATIVE
    elif name == "extreme_launch":
        # atol = 0 and x = 1e-300: x's launch error scale rtol |x| is
        # subnormal, and vx / (rtol |x|) overflows to inf; the first step
        # comes from the distance to the wire, which no scale enters
        initial = PacketState(x=1e-300, z=0.5e-6, vx=0.01, vz=0.0)
        wires = (Wire(0.0, 300e-6, 2.0),)
        duration, control = 0.01, PURE_RELATIVE
    elif name == "dead_wire":
        wires += (Wire(-150e-6, 20e-6, 0.0),)
    elif name.startswith("triangular_closure"):
        # the triangular reference layout run to closure: it bisects the
        # closure, the apex and all three periapses; the apex is a maximum
        # of z, or a minimum on the mirrored launch
        wires = (Wire(0.0, 0.0, 0.925273), Wire(-150e-6, 316.5e-6, 1.57),
                 Wire(-150e-6, -316.5e-6, 1.57))
        duration, stop = 0.105, _kernel_py.STOP_CLOSURE
        if name.endswith("mirror"):
            initial = PacketState(x=initial.x, z=-initial.z, vx=initial.vx,
                                  vz=initial.vz)
    elif name == "bisection_cap":
        # a straight flight past a dead wire 1e9 m away, in 22 steps: the
        # periapsis step has h = 2.75e11 s, so no bracket of doubles gets
        # down to 1e-12 s and the bisection runs all 80 halvings
        initial = PacketState(x=0.0, z=0.0, vx=0.01, vz=0.0)
        wires, duration = (Wire(1e9, 1.0, 0.0),), 5e11
    elif name.startswith("near_wire"):
        # a 25 us run launched a few b = 0.5 um from one wire, at (x/b,
        # z/b, vx, vz, I): energy_drift, a maximum over the rows, moves when
        # one end-of-step row's potential changes in the last bit
        x, z, vx, vz, current = {
            "near_wire_1": (-4.0, -1.0, 0.005, -0.01, 1.57),
            "near_wire_2": (-3.0, 1.0, 0.01, 0.0, 2.0),
            "near_wire_3": (1.0, 3.0, 0.01, 0.0, 1.57)}[name]
        initial = PacketState(x=x * 0.5e-6, z=z * 0.5e-6, vx=vx, vz=vz)
        wires, duration = (Wire(0.0, 0.0, current),), 25e-6
    elif name == "at_rest":
        # at rest 300 um from the wire: the first step's 0.1 d_min / |v| is
        # inf, so it tries the whole duration, and the controller accepts it
        initial = PacketState(x=-300e-6, z=0.5e-6, vx=0.0, vz=0.0)
    elif name == "no_powered_wire":
        # d_min is inf: one step over the whole duration
        wires = (Wire(0.0, 0.0, 0.0),)
    elif name == "guard_launch":
        # launched 1.5 GUARD_RADIUS from the wire toward it, a first try of
        # 1.5e-8 s; at this vz, sqrt(vx^2 + vz^2) and libm's hypot(vx, vz)
        # differ in the last bit, so the rows show how |v| is rounded
        initial = PacketState(x=-1.5 * GUARD_RADIUS, z=0.0, vx=0.01, vz=1e-4)
        duration = 1e-3
    elif name == "late_launch":
        # at t0 = 1e6 s the step floor 16 eps |t| is 3.55e-9 s, and the
        # first step 0.1 * 20 nm / (1 m/s) = 2e-9 s starts at the floor
        initial = PacketState(x=-20e-9, z=0.0, vx=-1.0, vz=0.0, t=1e6)
        wires, duration = (Wire(0.0, 0.0, 1e-3),), 1e-6
    elif name == "uneven_current":
        # (alpha I) I and alpha (I I) differ in the last bit for this I (not
        # for 2.0 or 1.57), so the force coefficient's rounding shows
        wires = (Wire(-150e-6, 20e-6, 0.0), Wire(0.0, 0.0, 0.616467))
    args = (initial.x, initial.z, initial.vx, initial.vz, initial.t, duration,
            _wires((w.x, w.z, w.current) for w in wires), medium.alpha,
            control.rtol, control.atol, guard, max_steps, stop)
    if name == "resumed_at_turn":
        args = (*args[:-1], _kernel_py.STOP_CLOSURE,
                _kernel_py.integrate(*args)["resume"])
    return args, status


# launches whose first step is an edge of the rule 0.1 d_min / |v|
FIRST_STEP_CASES = ["at_rest", "no_powered_wire", "guard_launch", "late_launch"]


@pytest.mark.parametrize("case", FIRST_STEP_CASES)
def test_first_step_cases_complete_under_simulate(medium, case):
    args, _ = _bitwise_case(case, medium)
    x, z, vx, vz, t0, duration, wires = args[:7]
    w = memoryview(wires).cast("d").tolist()
    traj = simulate(PacketState(x=x, z=z, vx=vx, vz=vz, t=t0),
                    [Wire(*w[i:i + 3]) for i in range(0, len(w), 3)], medium,
                    duration, StepControl(rtol=args[8], atol=args[9]))
    assert traj.t[-1] == t0 + duration
    assert traj.t.tobytes() == _kernel_py.integrate(*args)["t"]


def test_first_step_is_a_tenth_of_the_way_to_the_nearest_wire(
        triangular_design):
    # the reference top branch's first step is accepted whole; d_min and
    # |v| are computed as the kernels compute them
    result, top, _ = triangular_design
    x, z, vx, vz = top.states.tolist()[0]
    d_min = min(math.sqrt((x - w.x) * (x - w.x) + (z - w.z) * (z - w.z))
                for w in result.wires if w.current != 0.0)
    assert top.t[1] - top.t[0] == 0.1 * d_min / math.sqrt(vx * vx + vz * vz)
    assert top.t[1] - top.t[0] == 0.0030000041666637728


def _doubles(buf):
    """The native doubles of a kernel's ``t`` or ``states`` bytes."""
    return memoryview(buf).cast("d").tolist()


COUNTERS = ("n_steps", "n_rejected", "n_rhs")


def _bits(obj):
    """``obj`` with every float replaced by its hex form, so == is bitwise."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return type(obj)(_bits(v) for v in obj)
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    return obj


@pytest.mark.parametrize("case", ["three_wire", "singularity", "max_steps",
                                  "underflow", "stop_at_closure",
                                  "stop_at_turn", "resumed_at_turn",
                                  "no_wires",
                                  "dead_wire", "uneven_current",
                                  "near_wire_1", "near_wire_2", "near_wire_3",
                                  "triangular_closure",
                                  "triangular_closure_mirror", "bisection_cap",
                                  "vz0_pure_relative", "z_axis_pure_relative",
                                  "tiny_vz_pure_relative", "extreme_launch",
                                  *FIRST_STEP_CASES])
def test_backends_bitwise_identical(medium, compiled_kernel, case):
    args, status = _bitwise_case(case, medium)
    fast = compiled_kernel.integrate(*args)
    slow = _kernel_py.integrate(*args)
    assert slow["status"] == status
    closure = _events(slow, args[6])[5]
    if case in ("at_rest", "no_powered_wire", "no_wires"):
        assert slow["n_steps"] == 1 and slow["n_rejected"] == 0
        assert _doubles(slow["t"]) == [0.0, args[5]]
    if case == "late_launch":
        t_bound = args[4] + args[5]
        assert _events(slow, args[6])[2] == 16.0 * _kernel_py._EPS * t_bound
    if case == "stop_at_closure":
        assert closure is not None and _doubles(slow["t"])[-1] < 0.02
    if case == "stop_at_turn":
        assert closure is None and _doubles(slow["t"])[-1] < 0.06
    if case == "resumed_at_turn":
        # past the turn to the end of the run, whose branch misses the
        # launch plane: one row per step, after the turn step
        assert closure is None and _doubles(slow["t"])[-1] == 0.11
        assert slow["n_steps"] == len(_doubles(slow["t"]))
    assert _bits(fast) == _bits(slow)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


# 0-5 wires a few um off the path, so that most runs are deflected and some
# hit a guard radius, with the launch at least 10 um from every wire; the
# tolerances are ones the CLI accepts. The guard radius is a kernel argument,
# not a CLI field: simulate's 1 nm GUARD_RADIUS, or 1 um so that more runs
# hit it. Dead wires and atol = 0 are drawn often.
_WIRES = st.lists(st.tuples(
    st.floats(-10e-6, 50e-6), st.floats(-5e-6, 5e-6),
    st.one_of(st.just(0.0), st.floats(-3.0, 3.0))), max_size=5)
_LAUNCHES = st.tuples(st.floats(-50e-6, -20e-6), st.floats(-2e-6, 2e-6),
                      st.floats(0.005, 0.02), st.floats(-1e-4, 1e-4))
_CONTROLS = st.tuples(_log_uniform(-12.0, -9.0),
                      st.one_of(st.just(0.0), _log_uniform(-16.0, -10.0)),
                      st.sampled_from([1e-9, 1e-6]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(wires=_WIRES, launch=_LAUNCHES, control=_CONTROLS,
       duration=_log_uniform(-3.0, -1.7),
       stop=st.sampled_from([_kernel_py.STOP_NONE, _kernel_py.STOP_CLOSURE,
                             _kernel_py.STOP_TURN]))
def test_backends_agree_on_random_runs(medium, compiled_kernel, wires, launch,
                                       control, duration, stop):
    # the 2000-step budget bounds each draw's cost
    rtol, atol, guard_radius = control
    args = (*launch, 0.0, duration, _wires(wires), medium.alpha,
            rtol, atol, guard_radius, 2000, stop)
    outcomes = []
    for kernel in (compiled_kernel, _kernel_py):
        try:
            outcomes.append(kernel.integrate(*args))
        except Exception as exc:  # then both must raise its type
            outcomes.append(type(exc))
    assert _bits(outcomes[0]) == _bits(outcomes[1])
    if isinstance(outcomes[1], dict):
        times = _doubles(outcomes[1]["t"])
        assert all(a < b for a, b in zip(times, times[1:]))


# one powered wire on the line of flight, head-on within 1 um, past a launch
# that climbs as an inverse branch does toward its deflector; the duration
# leaves time to come back, so most runs end at their closure or their turn
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(launch=st.tuples(st.floats(-50e-6, -20e-6), st.floats(-2e-6, 2e-6),
                        st.floats(0.005, 0.02), st.floats(1e-6, 1e-4)),
       wire=st.tuples(st.floats(0.0, 30e-6), st.floats(-1e-6, 1e-6),
                      st.floats(0.5, 3.0) | st.floats(-3.0, -0.5)),
       data=st.data())
def test_backends_agree_on_stopped_runs(medium, compiled_kernel, launch, wire,
                                        data):
    x, z, vx, vz = launch
    xw, offset, current = wire
    duration = 3.0 * (xw - x) / vx
    args = (*launch, 0.0, duration,
            _wires([(xw, z + (xw - x) * vz / vx + offset, current)]),
            medium.alpha, 1e-11, 1e-13, GUARD_RADIUS, 20000)
    kernels = (compiled_kernel, _kernel_py)
    closure, turn = ([kernel.integrate(*args, stop) for kernel in kernels]
                     for stop in (_kernel_py.STOP_CLOSURE, _kernel_py.STOP_TURN))
    assert _bits(closure[0]) == _bits(closure[1])
    assert _bits(turn[0]) == _bits(turn[1])
    if turn[1]["resume"] is None:
        return
    # a run that turned, taken up in closure mode by each backend from the
    # other's snapshot, is the fresh closure run after the turn run's rows,
    # under the run's own budget and under one drawn up to the fresh run's
    # remaining step attempts and one more. With enough, its rows are the
    # fresh run's tail, its events the fresh run's, and its counters with
    # the turn run's add up to the fresh run's; with less, it runs out
    # after a prefix of that tail
    fresh = closure[1]
    start = len(turn[1]["t"]) // 8  # the turn run's rows
    tail = (_doubles(fresh["t"])[start:], _doubles(fresh["states"])[4 * start:])
    remaining = (fresh["n_steps"] + fresh["n_rejected"]
                 - turn[1]["n_steps"] - turn[1]["n_rejected"])
    for budget in (args[11], data.draw(st.integers(0, remaining + 1),
                                       label="max_steps")):
        resumed = [kernel.integrate(*args[:11], budget, _kernel_py.STOP_CLOSURE,
                                    source["resume"])
                   for kernel, source in zip(kernels, reversed(turn))]
        assert _bits(resumed[0]) == _bits(resumed[1])
        for run in resumed:
            rows = (_doubles(run["t"]), _doubles(run["states"]))
            assert len(rows[0]) == run["n_steps"]
            if budget >= remaining:
                assert _bits(rows) == _bits(tail)
                assert _bits({**run, "t": fresh["t"], "states": fresh["states"],
                              **{k: fresh[k] for k in COUNTERS}}) == _bits(fresh)
                assert [run[k] + turn[1][k] for k in COUNTERS] == [
                    fresh[k] for k in COUNTERS]
            else:
                assert run["status"] == _kernel_py.STATUS_MAXSTEPS
                assert run["n_steps"] + run["n_rejected"] == budget
                assert _bits(rows) == _bits((tail[0][:len(rows[0])],
                                             tail[1][:len(rows[1])]))


def test_continued_run_budget_counts_only_its_own_steps(medium,
                                                        compiled_kernel):
    # max_steps bounds the continued run's own step attempts, rejected ones
    # included: it completes on exactly that many, the turn run's steps
    # aside, and runs out on one fewer. With none, it accepts no step and
    # returns no rows, as empty bytes on both backends
    args, _ = _bitwise_case("resumed_at_turn", medium)
    for kernel in (compiled_kernel, _kernel_py):
        own = kernel.integrate(*args)
        budget = own["n_steps"] + own["n_rejected"]
        exact = kernel.integrate(*args[:11], budget, *args[12:])
        assert _bits(exact) == _bits(own)
        short = kernel.integrate(*args[:11], budget - 1, *args[12:])
        assert short["status"] == _kernel_py.STATUS_MAXSTEPS
        none = kernel.integrate(*args[:11], 0, *args[12:])
        assert none["status"] == _kernel_py.STATUS_MAXSTEPS
        assert (none["t"], none["states"]) == (b"", b"")


def test_backends_reject_a_continuation_that_does_not_fit(medium,
                                                          compiled_kernel):
    # a snapshot of 15 + 6 n doubles fits only a run through n wires: one
    # taken with a fourth, dead wire, or 7 bytes, is a ValueError, and a
    # str of the right length a TypeError, on both backends
    args, _ = _bitwise_case("stop_at_turn", medium)
    four = (*args[:6], args[6] + _wires([(-150e-6, 20e-6, 0.0)]), *args[7:])
    snapshot = _kernel_py.integrate(*four)["resume"]
    assert len(snapshot) == 8 * (15 + 6 * 4)
    closure = (*args[:-1], _kernel_py.STOP_CLOSURE)
    for kernel in (compiled_kernel, _kernel_py):
        for resume in (snapshot, bytes(7)):
            with pytest.raises(ValueError, match="does not fit this run"):
                kernel.integrate(*closure, resume)
        with pytest.raises(TypeError):
            kernel.integrate(*closure, "\0" * (8 * (15 + 6 * 3)))


def test_backends_reject_wires_that_are_not_triples(medium, compiled_kernel):
    # two doubles are no (x, z, current) triple: a ValueError, and a list of
    # wires, which is no bytes-like buffer, a TypeError, on both backends
    args, _ = _bitwise_case("three_wire", medium)
    for kernel in (compiled_kernel, _kernel_py):
        with pytest.raises(ValueError, match="triples"):
            kernel.integrate(*args[:6], bytes(16), *args[7:])
        with pytest.raises(TypeError):
            kernel.integrate(*args[:6], [[0.0, 0.0, 2.0]], *args[7:])


def _reference_energy_drift(traj, wires, medium):
    """The energy drift as ``simulate`` once computed it from the samples,
    with numpy: the kernels must return it bitwise."""
    states = np.asarray(traj.states)
    u = np.zeros(len(states))
    for w in wires:
        if w.current == 0.0:
            continue
        dx = states[:, 0] - w.x
        dz = states[:, 1] - w.z
        r2 = dx * dx + dz * dz
        u += 0.5 * medium.alpha * w.current * w.current / r2
    energy = 0.5 * (states[:, 2] ** 2 + states[:, 3] ** 2) + u
    e0 = energy[0]
    scale = abs(e0) if e0 != 0.0 else 1.0
    return float(np.max(np.abs(energy - e0)) / scale)


@pytest.mark.parametrize("case", ["triangular_design", "inverse_design",
                                  "dead_wire", "five_wire", "pure_relative"])
def test_energy_drift_matches_numpy_reference(request, medium, case):
    if case.endswith("_design"):
        # a reference design's top branch, truncated at its closure
        result, traj, _ = request.getfixturevalue(case)
        wires = result.wires
        assert traj.final == traj.events.closure
    else:
        initial, wires = _fig_scenario()
        control = PURE_RELATIVE if case == "pure_relative" else StepControl()
        if case == "dead_wire":
            wires += (Wire(-150e-6, 20e-6, 0.0),)
        elif case == "five_wire":
            wires += (Wire(-150e-6, 316.5e-6, 1.57), Wire(-150e-6, -316.5e-6, 1.57),
                      Wire(100e-6, 60e-6, 0.616467), Wire(50e-6, -40e-6, 0.7))
        traj = simulate(initial, wires, medium, 0.06, control)
    drift = traj.stats.energy_drift
    assert 0.0 < drift < 1e-8
    assert drift.hex() == _reference_energy_drift(traj, wires, medium).hex()


def test_pure_relative_control_with_zero_vz(medium):
    # vz = 0 at launch gives vz a zero error scale at the launch; the run
    # must complete and agree with the default control
    initial, wires = _fig_scenario()
    traj = simulate(initial, wires, medium, 0.06, PURE_RELATIVE)
    ref = simulate(initial, wires, medium, 0.06)
    assert traj.final.t == ref.final.t
    assert np.allclose(np.asarray(traj.states)[-1], np.asarray(ref.states)[-1],
                       rtol=1e-8, atol=0.0)
    assert traj.stats.energy_drift < 1e-8


def test_pure_relative_control_keeps_symmetric_axis(medium):
    # every accepted step has err_z / sc_z = 0 / 0, which counts as 0
    initial, wires = _symmetric_scenario()
    traj = simulate(initial, wires, medium, 0.06, PURE_RELATIVE)
    assert traj.final.t == initial.t + 0.06
    states = np.asarray(traj.states)
    assert np.all(states[:, 1] == 0.0)
    assert np.all(states[:, 3] == 0.0)
    assert traj.final.x > 0.0  # passed between the wires
    assert traj.stats.energy_drift < 1e-8


def test_straight_line_without_wires(medium):
    initial = PacketState(x=-1e-4, z=2e-6, vx=0.01, vz=0.0)
    traj = simulate(initial, [], medium, 0.01)
    assert np.allclose(np.asarray(traj.states)[:, 1], 2e-6, rtol=0, atol=1e-18)
    assert traj.final.x == pytest.approx(-1e-4 + 0.01 * 0.01, rel=1e-12)
    assert traj.final.t == traj.t[0] + 0.01
    # a dead wire changes nothing
    traj2 = simulate(initial, [Wire(0.0, 0.0, 0.0)], medium, 0.01)
    assert np.array_equal(np.asarray(traj.states)[-1],
                          np.asarray(traj2.states)[-1])


def test_first_sample_is_initial_state(medium):
    initial, wires = _fig_scenario()
    traj = simulate(initial, wires, medium, 0.01)
    assert traj.t[0] == initial.t
    assert tuple(np.asarray(traj.states)[0]) == (initial.x, initial.z,
                                                 initial.vx, initial.vz)
    assert np.all(np.diff(traj.t) > 0.0)


def test_trajectory_arrays_are_read_only(medium):
    # t and states view the kernel's buffers, and a mirror image shares t; a
    # write to them must not go unnoticed
    initial, wires = _fig_scenario()
    traj = simulate(initial, wires, medium, 0.01)
    with pytest.raises(TypeError):
        traj.t[0] = 0.0
    with pytest.raises(TypeError):
        traj.states[0, 0] = 0.0
    assert (traj.t[0], *traj.states.tolist()[0]) == (
        initial.t, initial.x, initial.z, initial.vx, initial.vz)


def test_headon_reflection_and_closure_event(medium):
    # b = 0: the packet stalls at d0 and retraces; the launch-plane
    # crossing on the way back is the closure event
    current, v0 = 2.0, 0.01
    initial = PacketState(x=-50e-6, z=0.0, vx=v0, vz=0.0)
    traj = simulate(initial, [Wire(0.0, 0.0, current)], medium, 0.02)
    peri = traj.events.periapsis_per_wire[0]
    # energy balance including the launch-point potential:
    # alpha I^2 / (2 d^2) = v0^2/2 + alpha I^2 / (2 x_launch^2)
    a_ii = medium.alpha * current * current
    d_expect = math.sqrt(a_ii / (v0 * v0 + a_ii / 50e-6**2))
    assert d_expect == pytest.approx(closest_approach_headon(current, v0, medium),
                                     rel=2e-3)
    assert peri.distance == pytest.approx(d_expect, rel=1e-8)
    clo = traj.events.closure
    assert clo is not None
    assert clo.vx == pytest.approx(-v0, rel=1e-7)
    assert abs(clo.z) < 1e-12
    assert clo.x == pytest.approx(initial.x, abs=1e-12)


def test_stop_at_closure_truncates(medium):
    current, v0 = 2.0, 0.01
    initial = PacketState(x=-50e-6, z=0.0, vx=v0, vz=0.0)
    traj = simulate(initial, [Wire(0.0, 0.0, current)], medium, 0.02,
                    stop_at_closure=True)
    assert traj.events.closure is not None
    assert traj.final.t == pytest.approx(traj.events.closure.t, abs=1e-12)
    assert traj.final.t < 0.02


def test_stop_at_turn_ends_at_first_descending_vz_zero(medium):
    initial, wires = _inverse_scenario()
    full = simulate(initial, wires, medium, 0.11)
    half = simulate(initial, wires, medium, 0.11, stop_at_turn=True)
    full_states = np.asarray(full.states)
    vz = full_states[:, 3]
    # the first step along which vz goes from > 0 to < 0
    i = next(i for i in range(len(vz) - 1) if vz[i] > 0.0 > vz[i + 1])
    # the same steps up to it and that step whole, with the turn inside it
    assert len(half.t) == i + 2
    assert np.array_equal(half.t, full.t[:i + 2])
    assert np.array_equal(half.states, full_states[:i + 2])
    assert full.t[i] < half.events.apex.t <= full.t[i + 1]
    assert half.events.apex.vz <= 0.0 < half.states[-2, 3]
    assert half.events.closure is None


def test_simulate_rejects_both_stop_flags(medium):
    initial, wires = _inverse_scenario()
    with pytest.raises(ValueError, match="exclusive"):
        simulate(initial, wires, medium, 0.11, stop_at_closure=True,
                 stop_at_turn=True)


def test_guard_radius_violation_raises(medium):
    # head-on at a current whose turning radius, 0.70 nm, lies inside the
    # 1 nm guard radius
    current, v0 = 5e-4, 0.01
    assert closest_approach_headon(current, v0, medium) < GUARD_RADIUS
    initial = PacketState(x=-50e-6, z=0.0, vx=v0, vz=0.0)
    wires = [Wire(0.0, 0.0, current)]
    with pytest.raises(WireSingularityError) as exc:
        simulate(initial, wires, medium, 0.02)
    assert exc.value.wire_index == 0
    assert exc.value.t is not None and exc.value.t > 0.0
    # the error names the failing point on the path, which the kernel keeps
    # as the wire's periapsis state, not the wire's centre
    assert math.hypot(*exc.value.point) <= GUARD_RADIUS
    buf = _wires([(0.0, 0.0, current)])
    raw = _kernel_py.integrate(
        initial.x, initial.z, initial.vx, initial.vz, initial.t, 0.02, buf,
        medium.alpha, StepControl().rtol, StepControl().atol, GUARD_RADIUS,
        integrator.MAX_STEPS, _kernel_py.STOP_NONE)
    t, x, z = _events(raw, buf)[4][0][:3]
    assert (exc.value.t, *exc.value.point) == (t, x, z)


def test_launch_inside_guard_rejected(medium):
    initial = PacketState(x=1e-10, z=0.0, vx=0.01, vz=0.0)
    with pytest.raises(WireSingularityError):
        simulate(initial, [Wire(0.0, 0.0, 1.0)], medium, 1e-3)


def test_step_budget_exhaustion_raises(medium, monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 50)
    initial, wires = _fig_scenario()
    with pytest.raises(StiffnessError, match="step budget"):
        simulate(initial, wires, medium, 0.06)


def test_invalid_duration(medium):
    initial, wires = _fig_scenario()
    for duration in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            simulate(initial, wires, medium, duration)


def test_tolerance_convergence_order(medium):
    """Loosening the tolerance degrades the final state consistently."""
    initial, wires = _fig_scenario()
    ref = simulate(initial, wires, medium, 0.05, StepControl(rtol=1e-13, atol=1e-16))

    def final_error(rtol):
        t = simulate(initial, wires, medium, 0.05, StepControl(rtol=rtol))
        return float(np.hypot(*(np.asarray(t.states)[-1, :2]
                                - np.asarray(ref.states)[-1, :2])))

    errors = [final_error(r) for r in (1e-5, 1e-7, 1e-9)]
    assert errors[0] > errors[1] > errors[2]
    # near-proportional control: two decades of tolerance buy at least one
    # decade of accuracy
    assert errors[0] / errors[1] > 10.0
    assert errors[1] / errors[2] > 10.0


def test_rejected_steps_are_counted(medium):
    initial, wires = _fig_scenario()
    traj = simulate(initial, wires, medium, 0.06)
    assert traj.stats.n_rejected > 0
    assert traj.stats.n_steps == len(traj.t) - 1
    assert traj.stats.min_step > 0.0
    assert traj.stats.n_rhs_evals > 6 * traj.stats.n_steps
