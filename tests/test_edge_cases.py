"""Corner cases: sign conventions, time offsets, symmetry, ordering."""

import dataclasses

import numpy as np
import pytest

from wiresplit import (
    DesignResult,
    PacketState,
    Wire,
    b_field,
    closest_approach,
    simulate,
    velocity_sweep,
)
from wiresplit.designer import DesignSpec


def test_force_is_even_in_current(medium):
    launch = PacketState(x=-100e-6, z=1e-6, vx=0.01, vz=0.0)
    pos = simulate(launch, [Wire(0.0, 0.0, 1.7)], medium, 0.02)
    neg = simulate(launch, [Wire(0.0, 0.0, -1.7)], medium, 0.02)
    assert np.array_equal(pos.t, neg.t)
    assert np.array_equal(pos.states, neg.states)
    assert pos.events == neg.events
    # the field itself flips with the current
    pt = (1.3e-6, -2.1e-6)
    b_pos = b_field(pt, [Wire(0.0, 0.0, 1.7)])
    b_neg = b_field(pt, [Wire(0.0, 0.0, -1.7)])
    assert b_pos == (-b_neg[0], -b_neg[1])


def test_closest_approach_even_in_current(medium):
    assert closest_approach(0.5e-6, -2.0, 0.01, medium) == \
        closest_approach(0.5e-6, 2.0, 0.01, medium)


def test_time_offset_initial_state(medium):
    wires = [Wire(0.0, 0.0, 2.0)]
    a = simulate(PacketState(x=-100e-6, z=1e-6, vx=0.01, vz=0.0, t=0.0),
                 wires, medium, 0.02)
    b = simulate(PacketState(x=-100e-6, z=1e-6, vx=0.01, vz=0.0, t=5.0),
                 wires, medium, 0.02)
    assert b.t[0] == 5.0
    assert b.final.t == pytest.approx(5.02, abs=1e-12)
    # same dynamics, shifted clock (clock arithmetic rounds differently, so
    # agreement is close but not bitwise)
    assert np.allclose(a.states, b.states, rtol=1e-8, atol=1e-14)
    assert np.allclose(b.t - 5.0, a.t, rtol=0, atol=1e-10)
    assert b.events.periapsis_per_wire[0].state.t == pytest.approx(
        a.events.periapsis_per_wire[0].state.t + 5.0, abs=1e-9)


def test_wires_iterable_accepted(medium):
    gen = (Wire(0.0, 0.0, 2.0) for _ in range(1))
    traj = simulate(PacketState(x=-100e-6, z=1e-6, vx=0.01, vz=0.0),
                    gen, medium, 0.01)
    assert len(traj.events.periapsis_per_wire) == 1


def test_pair_separation_of_independently_integrated_branches(medium):
    # designs report the bottom branch as the top one's mirror image; the
    # bottom branch integrated from its own launch state must agree with it
    wires = [Wire(0.0, 0.0, 0.925273), Wire(-150e-6, 316.5e-6, 1.57),
             Wire(-150e-6, -316.5e-6, 1.57)]
    top = simulate(PacketState(x=-300e-6, z=0.5e-6, vx=0.01, vz=0.0),
                   wires, medium, 0.11)
    bottom = simulate(PacketState(x=-300e-6, z=-0.5e-6, vx=0.01, vz=0.0),
                      wires, medium, 0.11)
    assert bottom.events.apex.z == pytest.approx(-top.events.apex.z, rel=1e-6)
    assert bottom.events.closure.z == pytest.approx(-top.events.closure.z,
                                                    rel=1e-6)
    # over the first 0.08 s the branches stay at least the initial split
    # apart: the lowest top sample is above the highest bottom one
    z_top = top.states[top.t <= 0.08, 1]
    z_bottom = bottom.states[bottom.t <= 0.08, 1]
    assert np.min(z_top) - np.max(z_bottom) >= 2.0 * 0.5e-6 - 1e-9


def test_sweep_preserves_input_order(medium):
    grid = [0.02, 0.008, 0.05]  # deliberately unsorted, one infeasible
    table = velocity_sweep(grid, medium=medium)
    assert list(table.v0) == grid
    assert list(table.feasible) == [True, True, True]
    table2 = velocity_sweep([0.02, 0.005, 0.05], medium=medium)
    assert list(table2.feasible) == [True, False, True]


def test_design_types_carry_no_mass():
    spec_fields = {f.name for f in dataclasses.fields(DesignSpec)}
    result_fields = {f.name for f in dataclasses.fields(DesignResult)}
    assert not any("mass" in name for name in spec_fields | result_fields)


def test_zero_duration_wire_free_events(medium):
    # no wires: no periapsis entries, no closure, apex is the launch state
    traj = simulate(PacketState(x=0.0, z=3e-6, vx=0.01, vz=0.0), [],
                    medium, 1e-3)
    assert traj.events.periapsis_per_wire == ()
    assert traj.events.closure is None
    assert traj.events.apex.z == 3e-6
    assert traj.stats.energy_drift == 0.0
