import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from wiresplit import (
    InfeasibleDesignError,
    PacketState,
    ScatteringInputs,
    StepControl,
    Wire,
    closest_approach,
    closure_error,
    mirror_trajectory,
    triangular_max_size,
)
from wiresplit import WireSingularityError, _kernel_py, designer, integrator
from wiresplit.cli import main
from wiresplit.designer import (
    CLOSURE_SENTINEL,
    DesignFailure,
    DesignSpec,
    triangular_deflector_position,
)
from wiresplit.integrator import DEFAULT_CONTROL, StiffnessError, simulate

V0, B, X0, TAU = 0.01, 0.5e-6, 300e-6, 0.1


class TestTriangular:
    def test_splitting_current(self, triangular_design):
        result, _, _ = triangular_design
        assert result.wires[0].current == pytest.approx(0.925273, rel=1e-4)
        assert result.wires[0].x == 0.0 and result.wires[0].z == 0.0

    def test_deflector_current_in_reference_band(self, triangular_design):
        result, _, _ = triangular_design
        assert result.wires[1].current == pytest.approx(1.57, rel=5e-2)
        assert result.wires[1].current == result.wires[2].current
        assert result.wires[1].z == -result.wires[2].z

    def test_max_separation(self, triangular_design, medium):
        result, _, _ = triangular_design
        assert result.max_separation == pytest.approx(628e-6, rel=1e-2)
        # the numeric optimum tracks the analytic bound from just below
        bound = triangular_max_size(V0, TAU, X0)
        assert result.max_separation <= bound
        assert result.max_separation / bound > 0.98

    def test_splitting_periapsis(self, triangular_design, medium):
        result, _, _ = triangular_design
        analytic = closest_approach(B, result.wires[0].current, V0, medium)
        assert result.min_distance_per_wire[0] == pytest.approx(analytic,
                                                                rel=3e-5)

    def test_deflector_periapsis_scale(self, triangular_design):
        result, _, _ = triangular_design
        assert result.min_distance_per_wire[1] == pytest.approx(2.3e-6, rel=0.1)

    def test_closure_and_return(self, triangular_design):
        result, _, _ = triangular_design
        assert result.closure_error <= 1e-8
        assert 0.95 * TAU <= result.return_time <= 1.05 * TAU
        # triangular branches come back steeply, not along -x
        assert result.return_velocity[1] < -0.5 * V0

    def test_engineering_metrics(self, triangular_design):
        result, _, _ = triangular_design
        assert result.min_current_density == pytest.approx(0.15e12, rel=2e-2)
        assert result.peak_field == pytest.approx(0.13, rel=5e-2)

    def test_result_invariants(self, triangular_design):
        result, _, _ = triangular_design
        assert result.max_separation >= 2.0 * B
        assert all(d > 0.0 for d in result.min_distance_per_wire)
        assert result.closure_error >= 0.0

    def test_branches_are_mirrors(self, triangular_design):
        _, top, bottom = triangular_design
        assert top.events.apex.z == -bottom.events.apex.z
        assert top.events.separation_max == bottom.events.separation_max
        assert top.events.separation_max == pytest.approx(
            2.0 * top.events.apex.z, rel=1e-6)


@pytest.mark.parametrize("design", ["triangular_design", "inverse_design"])
def test_bottom_branch_is_the_mirrored_top(design, request):
    result, top, bottom = request.getfixturevalue(design)
    # twice the bisected apex height, which no sample row exceeds
    assert result.max_separation == 2.0 * top.events.apex.z
    assert top.events.apex.z >= float(np.max(np.asarray(top.states)[:, 1]))
    assert top.events.separation_max == result.max_separation
    mirror = mirror_trajectory(top, result.wires)
    assert np.array_equal(bottom.t, mirror.t)
    assert np.array_equal(bottom.states, mirror.states)
    assert bottom.events == mirror.events
    assert bottom.events.separation_max == result.max_separation
    assert bottom.stats == mirror.stats
    # the bottom branch passes the lower deflector (wire 2) where the top
    # branch passes the upper one (wire 1), and the other way round
    top_peri, bottom_peri = (top.events.periapsis_per_wire,
                             bottom.events.periapsis_per_wire)
    assert [p.wire_index for p in bottom_peri] == [0, 1, 2]
    assert [p.distance for p in bottom_peri] == [
        top_peri[0].distance, top_peri[2].distance, top_peri[1].distance]


@pytest.mark.parametrize("design", ["triangular_design", "inverse_design"])
def test_bottom_branch_matches_a_fresh_mirrored_launch(design, request,
                                                      medium):
    # the bottom branch's periapses and apex are where a run from (-x0, -b)
    # puts them
    result, _, bottom = request.getfixturevalue(design)
    initial = PacketState(x=-X0, z=-B, vx=V0, vz=0.0)
    fresh = integrator.simulate(initial, result.wires, medium,
                                TAU * (1.0 + designer._TIME_MARGIN),
                                stop_at_closure=True)
    for got, want in zip(bottom.events.periapsis_per_wire,
                         fresh.events.periapsis_per_wire, strict=True):
        assert got.wire_index == want.wire_index
        assert got.distance == pytest.approx(want.distance, rel=1e-9)
    assert bottom.events.apex.z == pytest.approx(fresh.events.apex.z, rel=1e-9)


@pytest.mark.parametrize("design", ["triangular_design", "inverse_design"])
def test_top_branch_is_a_fresh_run_at_the_designed_wires(design, request,
                                                       medium):
    # the designer hands out its accepted triangular trial as the top
    # branch, and continues its accepted inverse trial after its turn step;
    # neither must change the branch
    result, top, _ = request.getfixturevalue(design)
    initial = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
    duration = TAU * (1.0 + designer._TIME_MARGIN)
    fresh = integrator.simulate(initial, result.wires, medium, duration,
                                stop_at_closure=True)
    assert np.array_equal(top.t, fresh.t)
    assert np.array_equal(top.states, fresh.states)
    assert fresh.events.separation_max is None
    assert top.events == replace(fresh.events,
                                 separation_max=top.events.separation_max)
    assert (top.stats.min_step, top.stats.energy_drift) == (
        fresh.stats.min_step, fresh.stats.energy_drift)
    if design == "triangular_design":
        assert top.stats == fresh.stats
    else:
        # the continued branch counts only its own work: with the turn
        # trial's, the fresh run's
        turn = integrator.simulate(initial, result.wires, medium, duration,
                                   stop_at_turn=True).stats
        assert (top.stats.n_steps + turn.n_steps,
                top.stats.n_rejected + turn.n_rejected,
                top.stats.n_rhs_evals + turn.n_rhs_evals) == (
            fresh.stats.n_steps, fresh.stats.n_rejected,
            fresh.stats.n_rhs_evals)


class TestInverse:
    def test_splitting_current(self, inverse_design):
        result, _, _ = inverse_design
        assert result.wires[0].current == pytest.approx(0.616467, rel=1e-4)

    def test_turning_current_in_reference_band(self, inverse_design):
        result, _, _ = inverse_design
        assert result.wires[1].current == pytest.approx(0.00823, rel=5e-2)

    def test_turning_wire_positions(self, inverse_design):
        result, _, _ = inverse_design
        assert result.wires[1].x == pytest.approx(-B, rel=1e-12)
        assert result.wires[1].z == pytest.approx(V0 * TAU / 2.0 - X0, rel=1e-12)

    def test_max_separation(self, inverse_design):
        result, _, _ = inverse_design
        assert result.max_separation == pytest.approx(399.977e-6, rel=1e-4)

    def test_min_distances(self, inverse_design):
        result, _, _ = inverse_design
        assert result.min_distance_per_wire[0] == pytest.approx(2.0 * B, rel=1e-3)
        assert result.min_distance_per_wire[1] == pytest.approx(0.0115617e-6,
                                                                rel=1e-2)

    def test_return_velocity_reverses_launch(self, inverse_design):
        result, _, _ = inverse_design
        vx, vz = result.return_velocity
        assert math.hypot(vx + V0, vz) < 1e-4 * V0

    def test_closure_and_return_time(self, inverse_design):
        result, _, _ = inverse_design
        assert result.closure_error <= 1e-8
        assert 0.95 * TAU <= result.return_time <= 1.05 * TAU

    def test_engineering_metrics(self, inverse_design):
        result, _, _ = inverse_design
        assert result.min_current_density == pytest.approx(19.6e12, rel=2e-2)
        assert result.peak_field == pytest.approx(0.14, rel=5e-2)


class TestClosureError:
    def test_converged_design_closes(self, triangular_design, medium):
        result, _, _ = triangular_design
        initial = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
        err = closure_error(result.wires, initial, medium, TAU)
        assert abs(err) <= 1e-8

    def test_dead_turning_wires_escape_to_sentinel(self, inverse_design, medium):
        result, _, _ = inverse_design
        wires = (result.wires[0],
                 Wire(result.wires[1].x, result.wires[1].z, 0.0),
                 Wire(result.wires[2].x, result.wires[2].z, 0.0))
        initial = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
        assert closure_error(wires, initial, medium, TAU) == CLOSURE_SENTINEL

    def test_dead_apex_wires_miss_wide(self, triangular_design, medium):
        # without the second deflection the branch still crosses the launch
        # plane, far above its starting height
        result, _, _ = triangular_design
        wires = (result.wires[0],
                 Wire(result.wires[1].x, result.wires[1].z, 0.0),
                 Wire(result.wires[2].x, result.wires[2].z, 0.0))
        initial = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
        err = closure_error(wires, initial, medium, TAU)
        assert err != CLOSURE_SENTINEL
        assert 5e-4 < err < 8e-4

    def test_monotone_in_deflector_current(self, triangular_design, medium):
        result, _, _ = triangular_design
        initial = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
        i_star = result.wires[1].current

        def err_at(scale):
            wires = (result.wires[0],
                     Wire(result.wires[1].x, result.wires[1].z, i_star * scale),
                     Wire(result.wires[2].x, result.wires[2].z, i_star * scale))
            return closure_error(wires, initial, medium, TAU)

        errs = [err_at(s) for s in (0.9, 0.95, 1.0, 1.05, 1.1)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[0] > 0.0 > errs[-1]


class TestSpecValidation:
    def test_scheme_names(self, paper_inputs):
        with pytest.raises(ValueError):
            DesignSpec(scheme="circular", inputs=paper_inputs)

    def test_closure_tolerance_finer_than_split(self, paper_inputs):
        with pytest.raises(ValueError):
            DesignSpec(scheme="inverse", inputs=paper_inputs,
                       closure_tolerance=1e-6)

    def test_infeasible_flight_time(self):
        inputs = ScatteringInputs(v0=V0, b=B, x0=X0, tau=2.0 * X0 / V0)
        for scheme in ("triangular", "inverse"):
            with pytest.raises(InfeasibleDesignError):
                designer.design_trajectories(
                    DesignSpec(scheme=scheme, inputs=inputs))

    def test_budget_exhaustion_reports_best_iterate(self):
        # a step miss never comes within a hundredth of the tolerance, so
        # the polish bisects the bracket until the budget of 8 runs out;
        # its two repeats of the bracket ends count but do not run again
        f, calls = _counted(lambda current: 1e-3 if current < 1.0 else -1e-3)
        with pytest.raises(DesignFailure, match="budget exhausted") as exc:
            designer._shoot(f, 0.5, 8, 1e-8)
        assert len(calls) == len(set(calls)) == 6
        assert (exc.value.best_current, exc.value.best_error) == (0.5, 1e-3)


class TestDesignFailure:
    def test_best_iterate_without_its_error(self):
        exc = DesignFailure("lost", best_current=1.5)
        assert exc.best_error is None
        assert str(exc) == "lost (best iterate: current = 1.500000e+00 A)"

    def test_lost_closure_crossing_exits_as_design_failure(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        # a shot current whose sampled run never recrosses the launch plane:
        # with dead turning wires the inverse branch escapes
        monkeypatch.setattr(designer, "_shoot",
                            lambda *args, power: (0.0, None, None))
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"scheme": "inverse", "v0_m_per_s": 0.01,
                                   "b_um": 0.5, "x0_um": 300.0,
                                   "tau_s": 0.1}))
        assert main(["design", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 3
        assert ("converged design lost its closure crossing (best iterate: "
                "current = 0.000000e+00 A)") in capsys.readouterr().err


class TestShootingWork:
    @pytest.mark.parametrize("scheme", ["triangular", "inverse"])
    def test_each_trial_current_integrated_once(self, scheme, paper_inputs,
                                                monkeypatch):
        # the polish asks again for the bracket ends, and the designer
        # for the accepted trial's branch; those repeats must not reach the
        # kernel. A triangular trial runs to the closure and the accepted one
        # is the top branch; an inverse trial runs to the turn, and the top
        # branch continues the accepted one after its turn step
        closures, turns, runs = [], [], []  # closures: (current, control, miss)
        closure_trial, turn_trial = designer._closure_trial, designer._turn_trial

        def counted_closure(wires, *args):
            miss, branch = closure_trial(wires, *args)
            closures.append((wires[1].current, args[-1], miss))
            return miss, branch

        def counted_turn(wires, *args):
            miss, branch = turn_trial(wires, *args)
            turns.append((wires[1].current, branch))
            return miss, branch

        kernel = integrator._kernel

        def counted_integrate(*args):
            # wire 1's current, from the wires buffer; the stop mode; resume
            current = memoryview(args[6]).cast("B").cast("d")[5]
            runs.append((current, args[12], args[13]))
            return kernel.integrate(*args)

        monkeypatch.setattr(designer, "_closure_trial", counted_closure)
        monkeypatch.setattr(designer, "_turn_trial", counted_turn)
        monkeypatch.setattr(integrator, "_kernel",
                            SimpleNamespace(integrate=counted_integrate))
        result, top, _ = designer.design_trajectories(
            DesignSpec(scheme=scheme, inputs=paper_inputs))
        current = result.wires[1].current
        if scheme == "triangular":
            # no current runs twice: the coarse pass ends at its first valid
            # miss under _COARSE_END b, here one of b or more that is kept,
            # and every later trial, the accepted one included, runs at the
            # design's control
            coarse = designer._coarse_control(DEFAULT_CONTROL)
            assert turns == []
            currents = [c for c, _, _ in closures]
            assert len(set(currents)) == len(currents) == len(runs)
            end = next(i for i, (_, control, miss) in enumerate(closures)
                       if control == coarse
                       and B <= abs(miss) < designer._COARSE_END * B)
            assert [control for _, control, _ in closures] == (
                [coarse] * (end + 1)
                + [DEFAULT_CONTROL] * (len(closures) - end - 1))
            assert currents[-1] == current
            assert runs == [(c, _kernel_py.STOP_CLOSURE, None)
                            for c in currents]
        else:
            # n turn runs, then one closure run that continues the last
            assert len({c for c, _ in turns}) == len(turns)
            (accepted,) = [branch for c, branch in turns if c == current]
            assert [c for c, _, _ in closures] == [current]
            assert runs == ([(c, _kernel_py.STOP_TURN, None) for c, _ in turns]
                            + [(current, _kernel_py.STOP_CLOSURE,
                                accepted.resume)])
            # it integrates only after the turn step
            assert top.stats.n_steps == len(top.t) - len(accepted.t)

    def test_turn_trials_read_the_turn_in_their_last_step(self, paper_inputs,
                                                          monkeypatch):
        # _turn_trial reads the turn from the apex, which lies at the upper
        # end of its bracket in the turn run's last step, the first along
        # which vz goes from > 0 to < 0
        branches = []
        turn_trial = designer._turn_trial

        def counted_turn(wires, *args):
            miss, branch = turn_trial(wires, *args)
            branches.append(branch)
            return miss, branch

        monkeypatch.setattr(designer, "_turn_trial", counted_turn)
        designer.design_trajectories(DesignSpec(scheme="inverse",
                                                inputs=paper_inputs))
        assert branches
        for branch in branches:
            apex = branch.events.apex
            assert branch.t[-2] < apex.t <= branch.t[-1]
            assert apex.vz <= 0.0 < branch.states[-2, 3]

    @pytest.mark.parametrize("scheme,work", [
        ("triangular", (5, 1446, 234, 10085)),
        ("inverse", (4, 1549, 214, 10581)),
    ])
    def test_reference_design_work(self, scheme, work, paper_inputs,
                                   monkeypatch):
        # kernel runs, steps, rejected steps and RHS evaluations of all the
        # design's simulate runs, equal on both backends: a change of the
        # designer's or the kernel's algorithm changes them, and is declared
        totals = [0, 0, 0, 0]

        def counted(*args, **kwargs):
            traj = simulate(*args, **kwargs)
            for i, n in enumerate((1, traj.stats.n_steps, traj.stats.n_rejected,
                                   traj.stats.n_rhs_evals)):
                totals[i] += n
            return traj

        monkeypatch.setattr(designer, "simulate", counted)
        designer.design_trajectories(DesignSpec(scheme=scheme,
                                                inputs=paper_inputs))
        assert tuple(totals) == work

    @pytest.mark.parametrize("scheme", ["triangular", "inverse"])
    def test_shooting_stops_at_first_trial_within_a_hundredth(
            self, scheme, paper_inputs, monkeypatch):
        # an inverse trial is the run to the turn, and its miss the estimate
        name = {"triangular": "_closure_trial", "inverse": "_turn_trial"}[scheme]
        trials = []
        trial = getattr(designer, name)

        def counted_trial(wires, *args):
            miss, branch = trial(wires, *args)
            trials.append((wires[1].current, miss))
            return miss, branch

        monkeypatch.setattr(designer, name, counted_trial)
        spec = DesignSpec(scheme=scheme, inputs=paper_inputs)
        result, _, _ = designer.design_trajectories(spec)
        # the polish's tolerance in current is far below the integrator's
        # noise, so it must not be the stop
        assert len({current for current, _ in trials}) <= {
            "triangular": 5, "inverse": 3}[scheme]
        accept = spec.closure_tolerance / 100
        closed = [abs(miss) <= accept for _, miss in trials]
        assert closed.index(True) == len(trials) - 1
        assert result.wires[1].current == trials[-1][0]
        assert result.closure_error <= accept

    def test_inverse_current_within_1e6_of_the_closure_root(
            self, inverse_design, medium):
        # the accepted turn-trial current against the root of the closure
        # miss itself, found by a secant of its own, not by _shoot
        result, _, _ = inverse_design
        current = result.wires[1].current
        initial = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
        splitting, upper, lower = result.wires

        def miss(i):
            wires = (splitting, replace(upper, current=i),
                     replace(lower, current=i))
            return closure_error(wires, initial, medium, TAU)

        (i0, m0), (i1, m1) = ((i, miss(i)) for i in (current * (1 - 1e-5),
                                                       current * (1 + 1e-5)))
        for _ in range(80):  # in the miss's noise the secant wanders a little
            if abs(i1 - i0) <= 1e-12 * current or m1 == m0:
                break
            (i0, m0), i1 = (i1, m1), i1 - m1 * (i1 - i0) / (m1 - m0)
            m1 = miss(i1)
        assert abs(i1 - i0) <= 1e-12 * current
        assert current == pytest.approx(i1, rel=1e-6)

    def test_inverse_turn_miss_is_a_line_in_current_squared(
            self, inverse_design, medium):
        # I miss against I^2 at the inverse reference, from half to twice
        # the designed current: the middle trial sits on the line through
        # the outer two, while the miss against I bends by a sixth of its
        # range there
        result, _, _ = inverse_design
        splitting, upper, lower = result.wires
        gain = designer._turn_gain(splitting.current, V0, B, X0, upper.z,
                                   medium)
        initial = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
        points = []
        for q in (0.5, 1.0, 2.0):
            i = q * upper.current
            wires = (splitting, replace(upper, current=i),
                     replace(lower, current=i))
            miss, _ = designer._turn_trial(wires, initial, medium, TAU,
                                           DEFAULT_CONTROL, gain)
            points.append((i, miss))

        def bend(xy):
            (x0, y0), (x1, y1), (x2, y2) = xy
            return abs(y1 - y0 - (y2 - y0) * (x1 - x0) / (x2 - x0)) / abs(y2 - y0)

        assert bend([(i * i, i * miss) for i, miss in points]) <= 1e-3
        assert bend(points) > 0.1


def _closure_runs(monkeypatch, spec, control=DEFAULT_CONTROL):
    """Design ``spec``; return the result and each closure run's (current,
    control, miss), in order."""
    runs = []
    closure_trial = designer._closure_trial

    def recorded(wires, *args):
        miss, branch = closure_trial(wires, *args)
        runs.append((wires[1].current, args[-1], miss))
        return miss, branch

    monkeypatch.setattr(designer, "_closure_trial", recorded)
    return designer.design_trajectories(spec, control=control)[0], runs


class TestCoarseTrials:
    """A triangular trial whose coarse run misses by b or more keeps that
    run; every other runs at the design's control, and so does every trial
    after the first valid coarse miss under ``_COARSE_END`` b."""

    def test_coarse_control(self):
        coarse = designer._coarse_control
        default = coarse(DEFAULT_CONTROL)
        assert default.rtol == pytest.approx(1e-8, rel=1e-12)
        assert default.atol == pytest.approx(1e-10, rel=1e-12)
        ten = coarse(StepControl(rtol=1e-9, atol=0.0))
        assert (ten.rtol, ten.atol) == (pytest.approx(1e-8, rel=1e-12), 0.0)
        relative_free = coarse(StepControl(rtol=0.0, atol=1e-13))
        assert relative_free.rtol == 0.0
        assert relative_free.atol == pytest.approx(1e-10, rel=1e-12)
        for control in (StepControl(rtol=1e-8), StepControl(rtol=1e-6),
                        StepControl(atol=1e306)):
            assert coarse(control) is None

    def test_near_and_accepted_trials_run_at_the_design_control(
            self, paper_inputs, monkeypatch):
        result, runs = _closure_runs(
            monkeypatch, DesignSpec(scheme="triangular", inputs=paper_inputs))
        kept = {c: (control, miss) for c, control, miss in runs}  # last run
        assert DEFAULT_CONTROL != kept[runs[0][0]][0]  # the seed's is coarse
        for control, miss in kept.values():
            if abs(miss) < B:
                assert control == DEFAULT_CONTROL
        assert kept[result.wires[1].current][0] == DEFAULT_CONTROL

    def test_coarse_miss_at_the_seed_within_a_percent(self, paper_inputs,
                                                      monkeypatch, medium):
        result, runs = _closure_runs(
            monkeypatch, DesignSpec(scheme="triangular", inputs=paper_inputs))
        seed, control, coarse_miss = runs[0]
        assert control == designer._coarse_control(DEFAULT_CONTROL)
        splitting, upper, lower = result.wires
        wires = (splitting, replace(upper, current=seed),
                 replace(lower, current=seed))
        initial = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
        miss = closure_error(wires, initial, medium, TAU)
        assert abs(miss) >= B
        assert coarse_miss == pytest.approx(miss, rel=1e-2)

    def test_no_coarse_trial_at_rtol_1e_8(self, paper_inputs, monkeypatch):
        control = StepControl(rtol=1e-8)
        _, runs = _closure_runs(
            monkeypatch, DesignSpec(scheme="triangular", inputs=paper_inputs),
            control)
        assert [c for c, _, _ in runs] == list(dict.fromkeys(
            c for c, _, _ in runs))
        assert {control for _, control, _ in runs} == {control}

    @staticmethod
    def _failing_coarse_runs(monkeypatch, error):
        """Make every coarse closure run raise ``error``; return each closure
        run's (current, control), in order."""
        calls = []
        closure_trial = designer._closure_trial
        coarse = designer._coarse_control(DEFAULT_CONTROL)

        def failing(wires, *args):
            calls.append((wires[1].current, args[-1]))
            if args[-1] == coarse:
                raise error
            return closure_trial(wires, *args)

        monkeypatch.setattr(designer, "_closure_trial", failing)
        return calls

    def test_coarse_stiffness_error_reruns_at_the_design_control(
            self, paper_inputs, monkeypatch):
        # a coarse run that fails as an integration reads as the sentinel:
        # the trial runs again at the design's control, and the design closes
        calls = self._failing_coarse_runs(
            monkeypatch, StiffnessError("step size underflow"))
        spec = DesignSpec(scheme="triangular", inputs=paper_inputs)
        result, _, _ = designer.design_trajectories(spec)
        assert result.closure_error <= spec.closure_tolerance
        coarse = designer._coarse_control(DEFAULT_CONTROL)
        assert calls[0][1] == coarse
        for (current, control), after in zip(calls, calls[1:]):
            if control == coarse:
                assert after == (current, DEFAULT_CONTROL)

    def test_coarse_programming_error_propagates(self, paper_inputs,
                                                 monkeypatch):
        # only an integration failure re-runs a coarse trial; any other
        # exception is a fault, and the design must not hide it
        calls = self._failing_coarse_runs(monkeypatch, TypeError("a fault"))
        with pytest.raises(TypeError, match="a fault"):
            designer.design_trajectories(
                DesignSpec(scheme="triangular", inputs=paper_inputs))
        assert calls == [(calls[0][0], designer._coarse_control(DEFAULT_CONTROL))]

    def test_inverse_trials_unchanged(self, paper_inputs, monkeypatch):
        # no coarse pass: the miss read at the turn is swamped by a control
        # even ten times looser
        calls = []
        turn_trial = designer._turn_trial

        def recorded(wires, initial, medium, tau, control, gain):
            calls.append((wires[1].current.hex(), control))
            return turn_trial(wires, initial, medium, tau, control, gain)

        monkeypatch.setattr(designer, "_turn_trial", recorded)
        result, runs = _closure_runs(
            monkeypatch, DesignSpec(scheme="inverse", inputs=paper_inputs))
        # the seed, one scan step, then the secant root in (I^2, I miss)
        assert calls == [(h, DEFAULT_CONTROL) for h in (
            "0x1.d282071d0b0b8p-8", "0x1.1563241749dddp-7",
            "0x1.0ff5c1a63c313p-7")]
        assert runs == [(result.wires[1].current, DEFAULT_CONTROL,
                         -7.271868295709298e-12)]
        assert result.wires[1].current.hex() == "0x1.0ff5c1a63c313p-7"


def _counted(objective):
    """A shooting trial of ``objective``'s miss, with no branch, and the
    currents it ran, in order."""
    calls = []

    def f(current):
        calls.append(current)
        return objective(current), None

    return f, calls


def test_shoot_stops_in_integrator_noise():
    # a linear miss with 1.3e-11 m of noise, the integrator's floor at the
    # inverse reference
    def miss(current):
        return (1.35e-2 * (8.2995e-3 - current)
                + 1.3e-11 * math.sin(1e9 * current))

    f, calls = _counted(miss)
    current, _, _ = designer._shoot(f, 6e-3, 80, 1e-8)
    # seed, two scan steps (x2^(1/4), x2^(1/2)), then the first interpolated
    # trial; the polish asks for both bracket ends again, which do not run
    assert len(calls) == len(set(calls)) == 4
    assert current == calls[-1]
    assert abs(miss(current)) <= 1e-10
    # a miss within 1e-10 m keeps the current within 1e-6 relative
    assert current == pytest.approx(8.2995e-3, rel=1e-6)


def test_shoot_closes_a_turn_law_miss_within_four_trials():
    # the inverse turn estimate's law, miss = A (I / I* - I* / I): I miss is
    # a line in I^2, so from any seed over the inverse seeds' spread the
    # secant root in (I^2, I miss) lands on the root once it is within the
    # scan's widest step
    root, amplitude = 8.2995e-3, -5.6e-5  # 1.35e-2 m/A at the root

    def miss(current):
        return amplitude * (current / root - root / current)

    for q in (0.35, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.75):
        f, calls = _counted(miss)
        current, _, _ = designer._shoot(f, q * root, 80, 1e-8, power=2)
        assert len(calls) == len(set(calls)) <= 4
        assert current == calls[-1] == pytest.approx(root, rel=1e-9)


def test_shoot_step_tolerance_bounds_the_current():
    # a miss so flat in current that every trial closes within a hundredth
    # of the tolerance: only the secant step to the root stops shooting
    def miss(current):
        return 1e-9 * (8.2995e-3 - current)

    f, calls = _counted(miss)
    current, _, _ = designer._shoot(f, 6e-3, 80, 1e-8)
    assert len(calls) > 1
    assert current == pytest.approx(8.2995e-3, rel=3e-7)


def test_shoot_returns_a_seed_that_closes():
    # exactly, and at either edge of closure_tolerance / 100; a first trial
    # has no secant step, so one scan step confirms it
    for seed_miss in (0.0, 1e-10, -1e-10):
        f, calls = _counted(lambda current: seed_miss + (6e-3 - current))
        assert designer._shoot(f, 6e-3, 80, 1e-8) == (6e-3, seed_miss, None)
        assert len(calls) == 2 and calls[0] == 6e-3


def test_shoot_polishes_a_square_root_kink():
    # the interpolation keeps landing on one side of a kink; a step that
    # does not halve the step before the last bisects instead, and the
    # bisection counts as both. From every seed, either miss closes within
    # 40 trials, the decreasing one within 20 from 0.45: the scan turns back
    # from the increasing one at its first step away from the root
    for sign in (1.0, -1.0):
        for seed in [k / 20 for k in range(1, 21)]:
            f, calls = _counted(
                lambda current: sign * math.copysign(
                    math.sqrt(abs(current - 0.5)), 0.5 - current))
            current, miss, _ = designer._shoot(f, seed, 80, 1e-8)
            bound = 20 if sign > 0.0 and seed == 0.45 else 40
            assert len(calls) == len(set(calls)) <= bound
            assert (current, miss) == (0.5, 0.0)


def test_shoot_bisects_where_the_interpolation_underflows():
    # in (I^2, I miss) a linear miss is no line, so the polish interpolates
    # after its first secant; at 1e-300 the inverse quadratic's
    # denominator, a product of y differences, underflows to zero, and the
    # polish takes the bracket's midpoint in s instead
    for scale in (1.0, 1e-300):
        f, calls = _counted(lambda current: scale * (1.0 - current))
        current, _, _ = designer._shoot(f, 0.7, 80, 1e-8, power=2)
        assert current == pytest.approx(1.0, rel=3e-7)
        # the scan's last two trials bracket the root, the secant trial
        # lands below it
        assert calls[2] > 1.0 > calls[3] > calls[1]
        s2, far = calls[3] ** 2, calls[2] ** 2
        midpoint = (s2 + (far - s2) / 2) ** 0.5
        assert (calls[4] == midpoint) == (scale == 1e-300)


def test_shoot_polishes_across_a_lost_band():
    # the sentinel reads as a positive miss, so a lost trial inside the
    # bracket moves its positive end, and the polish still converges
    f, calls = _counted(lambda current: (
        CLOSURE_SENTINEL if 0.9 < current < 0.99
        else 1e-3 * (1.0 - current ** 3)))
    current, _, _ = designer._shoot(f, 0.6, 80, 1e-8)
    assert any(0.9 < c < 0.99 for c in calls[3:])
    assert len(calls) == len(set(calls)) <= 12
    assert current == calls[-1] == pytest.approx(1.0, rel=3e-7)


def test_shoot_failure_without_a_bracket_reports_best_iterate():
    # a miss of one sign everywhere, least at the seed: each scan direction
    # turns back at its first step, which misses by more than the seed
    f, calls = _counted(
        lambda current: 1e-3 * (2.0 - math.exp(-abs(current - 0.5))))
    with pytest.raises(DesignFailure, match="failed to bracket") as exc:
        designer._shoot(f, 0.5, 100, 1e-8)
    # the seed, then one scan step each way
    assert len(calls) == len(set(calls)) == 3
    assert (exc.value.best_current, exc.value.best_error) == (0.5, 1e-3)


def test_shoot_failure_without_a_return_has_no_best_iterate():
    f, calls = _counted(lambda current: CLOSURE_SENTINEL)
    with pytest.raises(DesignFailure,
                       match="could not find a returning trajectory$") as exc:
        designer._shoot(f, 0.5, 80, 1e-8)
    assert calls == [0.5 * 2.0**k for k in range(18)]
    assert (exc.value.best_current, exc.value.best_error) == (None, None)


def test_shoot_reads_a_wire_singularity_as_the_sentinel():
    # a seed swallowed by a wire sends the scan upward as a lost seed does
    def shoot(seed_trial):
        calls = []

        def trial(current):
            calls.append(current)
            if current == 6e-3:
                return seed_trial()
            return 1.35e-2 * (8.2995e-3 - current), current

        return designer._shoot(trial, 6e-3, 80, 1e-8), calls

    def singular():
        raise WireSingularityError(1, (0.0, 0.0))

    closed, calls = shoot(singular)
    assert (closed, calls) == shoot(lambda: (CLOSURE_SENTINEL, None))
    assert calls[:2] == [6e-3, 1.2e-2]


class TestScaleFamily:
    @pytest.mark.parametrize("scheme", ["triangular", "inverse"])
    def test_lengths_and_currents_scale_together(self, scheme, paper_inputs,
                                                 shared_design):
        # pure relative error control: a fixed absolute tolerance carries a
        # length unit and would break the scale covariance being asserted
        control = StepControl(atol=0.0)
        base = shared_design(
            DesignSpec(scheme=scheme, inputs=paper_inputs), control)[0]
        s = 2.0
        scaled_inputs = ScatteringInputs(v0=V0, b=s * B, x0=s * X0, tau=s * TAU)
        spec = DesignSpec(scheme=scheme, inputs=scaled_inputs)
        scaled = shared_design(spec, control)[0]
        for w_base, w_scaled in zip(base.wires, scaled.wires):
            assert w_scaled.current == pytest.approx(s * w_base.current,
                                                     rel=1e-6)
            assert w_scaled.x == pytest.approx(s * w_base.x, abs=1e-18)
            assert w_scaled.z == pytest.approx(s * w_base.z, rel=1e-12)
        assert scaled.max_separation == pytest.approx(s * base.max_separation,
                                                      rel=1e-6)
        for d_base, d_scaled in zip(base.min_distance_per_wire,
                                    scaled.min_distance_per_wire):
            assert d_scaled == pytest.approx(s * d_base, rel=1e-6)
        assert scaled.min_current_density == pytest.approx(
            base.min_current_density / s, rel=1e-6)
        assert scaled.peak_field == pytest.approx(base.peak_field, rel=1e-6)
        assert scaled.return_time == pytest.approx(s * base.return_time,
                                                   rel=1e-6)


def test_deflector_position_between_candidate_heights():
    x, z = triangular_deflector_position(X0, B, V0, TAU)
    semi_minor = math.sqrt(((V0 * TAU - X0) / 2.0) ** 2 - (X0 / 2.0) ** 2)
    assert x == pytest.approx(-X0 / 2.0, rel=1e-12)
    assert semi_minor < z < semi_minor + B
    assert z == pytest.approx(semi_minor + B / 2.0, rel=1e-12)
