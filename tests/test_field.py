import math

import numpy as np
import pytest

from wiresplit import (
    MU0,
    Wire,
    WireSingularityError,
    b_field,
    closest_approach,
    closest_approach_headon,
)


def test_single_wire_field_magnitude_and_direction(medium):
    # 2 A at the origin, probe 1 um along +x: field is mu0 I / (2 pi r) in +z
    bx, bz = b_field((1e-6, 0.0), [Wire(0.0, 0.0, 2.0)])
    expected = MU0 * 2.0 / (2.0 * math.pi * 1e-6)
    assert expected == pytest.approx(0.4)
    assert bz == pytest.approx(expected, rel=1e-12)
    assert abs(bx) < 1e-15 * expected


def test_zero_current_wire_contributes_nothing():
    assert b_field((1e-6, 2e-6), [Wire(0.0, 0.0, 0.0)]) == (0.0, 0.0)


def test_mirror_pair_with_opposite_currents_on_axis():
    d = 2e-6
    pair = [Wire(0.0, d, 1.3), Wire(0.0, -d, -1.3)]
    bx, bz = b_field((1.7e-6, 0.0), pair)
    bx1, bz1 = b_field((1.7e-6, 0.0), pair[:1])
    assert abs(bz) < 1e-12 * abs(bx)      # z components cancel
    assert bx == pytest.approx(2.0 * bx1, rel=1e-12)


def test_potential_energy_balance_at_turning_points(medium):
    # the trajectory model's single-wire potential, u(r) = alpha I^2 / (2 r^2)
    current, v0, b = 0.925273, 0.01, 0.5e-6

    def u(r):
        return medium.alpha * current**2 / (2.0 * r**2)

    # head-on: u(d0) equals the full kinetic energy per mass
    d0 = closest_approach_headon(current, v0, medium)
    assert u(d0) == pytest.approx(0.5 * v0**2, rel=1e-12)
    # with impact parameter: u(d) + v^2/2 = v0^2/2, where v = v0 b / d
    d = closest_approach(b, current, v0, medium)
    v = v0 * b / d
    assert u(d) + 0.5 * v**2 == pytest.approx(0.5 * v0**2, rel=1e-12)
    # at the reported approach radius the potential is (d0/d)^2 of the
    # head-on value, within a tenth of a percent
    assert u(1.39269e-6) == pytest.approx(
        0.5 * v0**2 * (d0 / 1.39269e-6) ** 2, rel=1e-3)


def test_single_wire_rotational_symmetry():
    wire = [Wire(0.0, 0.0, 1.7)]
    r = 3.3e-6
    mags = []
    for phi in np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False):
        pt = (r * math.cos(phi), r * math.sin(phi))
        bx, bz = b_field(pt, wire)
        mag = math.hypot(bx, bz)
        mags.append(mag)
        # the field circles the wire: its radial projection vanishes
        radial = abs(math.cos(phi) * bx + math.sin(phi) * bz)
        assert radial < 1e-12 * mag
    spread = (max(mags) - min(mags)) / max(mags)
    assert spread < 1e-12


def test_singularity_raises_with_wire_index():
    wires = [Wire(0.0, 0.0, 1.0), Wire(5e-6, 0.0, 2.0)]
    with pytest.raises(WireSingularityError) as exc:
        b_field((5e-6, 0.0), wires)
    assert exc.value.wire_index == 1
    with pytest.raises(WireSingularityError):
        b_field((0.0, 0.5e-9), wires)  # inside guard radius
    # a dead wire has no pole
    assert b_field((0.0, 0.0), [Wire(0.0, 0.0, 0.0)]) == (0.0, 0.0)
