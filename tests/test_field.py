import math

import numpy as np
import pytest

from wiresplit import (
    MU0,
    Wire,
    WireSingularityError,
    acceleration,
    b_field,
    closest_approach,
    closest_approach_headon,
    specific_potential,
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
    # head-on: u(d0) equals the full kinetic energy per mass
    current, v0, b = 0.925273, 0.01, 0.5e-6
    d0 = closest_approach_headon(current, v0, medium)
    u0 = specific_potential((d0, 0.0), [Wire(0.0, 0.0, current)], medium)
    assert u0 == pytest.approx(0.5 * v0**2, rel=1e-12)
    # with impact parameter: u(d) + v^2/2 = v0^2/2, where v = v0 b / d
    d = closest_approach(b, current, v0, medium)
    u = specific_potential((0.0, d), [Wire(0.0, 0.0, current)], medium)
    v = v0 * b / d
    assert u + 0.5 * v**2 == pytest.approx(0.5 * v0**2, rel=1e-12)
    # at the reported approach radius the potential is (d0/d)^2 of the
    # head-on value, within a tenth of a percent
    u_ref = specific_potential((1.39269e-6, 0.0), [Wire(0.0, 0.0, current)], medium)
    assert u_ref == pytest.approx(0.5 * v0**2 * (d0 / 1.39269e-6) ** 2, rel=1e-3)


def test_potential_far_field_and_current_scaling(medium):
    wire = [Wire(0.0, 0.0, 1.0)]
    u_near = specific_potential((1e-6, 0.0), wire, medium)
    u_far = specific_potential((1.0, 0.0), wire, medium)
    assert u_far == pytest.approx(1e-12 * u_near, rel=1e-12)  # 1/r^2 decay
    assert u_far < 1e-16
    u2 = specific_potential((1e-6, 0.0), [Wire(0.0, 0.0, 2.0)], medium)
    assert u2 == pytest.approx(4.0 * u_near, rel=1e-12)


def test_single_wire_acceleration_value(medium):
    ax, az = acceleration((1e-6, 0.0), [Wire(0.0, 0.0, 2.0)], medium)
    expected = medium.alpha * 4.0 / 1e-18  # alpha I^2 / r^3
    assert expected == pytest.approx(789.4, rel=1e-3)
    assert ax == pytest.approx(expected, rel=1e-12)  # repulsive: +x
    assert abs(az) < 1e-15 * expected


def test_acceleration_cancels_at_symmetric_midpoint(medium):
    pair = [Wire(0.0, 2e-6, 1.0), Wire(0.0, -2e-6, 1.0)]
    ax, az = acceleration((0.0, 0.0), pair, medium)
    assert az == 0.0
    ax, az = acceleration((1e-6, 0.0), pair, medium)
    assert abs(az) < 1e-12 * abs(ax)


def test_acceleration_zero_without_current(medium):
    assert acceleration((1e-6, 0.0), [Wire(0.0, 0.0, 0.0)], medium) == (0.0, 0.0)
    assert acceleration((1e-6, 0.0), [], medium) == (0.0, 0.0)


def _central_gradient(ufunc, point, h):
    ux1 = ufunc((point[0] + h, point[1]))
    ux0 = ufunc((point[0] - h, point[1]))
    uz1 = ufunc((point[0], point[1] + h))
    uz0 = ufunc((point[0], point[1] - h))
    return (-(ux1 - ux0) / (2.0 * h), -(uz1 - uz0) / (2.0 * h))


def test_acceleration_matches_finite_difference_gradient(medium):
    wires = [Wire(0.0, 0.0, 0.9), Wire(-150e-6, 316.5e-6, 1.6),
             Wire(-150e-6, -316.5e-6, 1.6)]
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        pt = (rng.uniform(-500e-6, 200e-6), rng.uniform(-500e-6, 500e-6))
        if min(math.hypot(pt[0] - w.x, pt[1] - w.z) for w in wires) < 0.1e-6:
            continue
        ax, az = acceleration(pt, wires, medium)
        rmin = min(math.hypot(pt[0] - w.x, pt[1] - w.z) for w in wires)
        fdx, fdz = _central_gradient(
            lambda p: specific_potential(p, wires, medium), pt, rmin * 3e-6)
        scale = math.hypot(ax, az)
        assert math.hypot(ax - fdx, az - fdz) < 1e-6 * scale
        checked += 1


def test_single_wire_rotational_symmetry(medium):
    wire = [Wire(0.0, 0.0, 1.7)]
    r = 3.3e-6
    mags = []
    for phi in np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False):
        pt = (r * math.cos(phi), r * math.sin(phi))
        ax, az = acceleration(pt, wire, medium)
        mag = math.hypot(ax, az)
        mags.append(mag)
        # direction is radial: tangential projection vanishes
        tangential = abs(-math.sin(phi) * ax + math.cos(phi) * az)
        assert tangential < 1e-12 * mag
    spread = (max(mags) - min(mags)) / max(mags)
    assert spread < 1e-12


def test_two_wire_force_includes_field_cross_terms(medium):
    w1 = Wire(0.0, 0.0, 1.0)
    w2 = Wire(4e-6, 0.0, 1.0)
    pt = (1.5e-6, 1.0e-6)
    both = acceleration(pt, [w1, w2], medium)
    separate = acceleration(pt, [w1], medium), acceleration(pt, [w2], medium)
    naive = (separate[0][0] + separate[1][0], separate[0][1] + separate[1][1])
    # the full-field force differs from the per-wire sum...
    diff = math.hypot(both[0] - naive[0], both[1] - naive[1])
    assert diff > 1e-3 * math.hypot(*both)
    # ...by exactly the gradient of the interference energy: check the
    # potential identity u_12 = u_1 + u_2 + alpha * S1.S2
    scale = 2.0 * math.pi / medium.mu0
    s1 = tuple(scale * c for c in b_field(pt, [w1]))
    s2 = tuple(scale * c for c in b_field(pt, [w2]))
    u_both = specific_potential(pt, [w1, w2], medium)
    u1 = specific_potential(pt, [w1], medium)
    u2 = specific_potential(pt, [w2], medium)
    cross = medium.alpha * (s1[0] * s2[0] + s1[1] * s2[1])
    assert u_both == pytest.approx(u1 + u2 + cross, rel=1e-12)


def test_potential_is_nonnegative(medium):
    rng = np.random.default_rng(11)
    for _ in range(50):
        wires = [
            Wire(rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4),
                 rng.uniform(-2.0, 2.0))
            for _ in range(3)
        ]
        pt = (rng.uniform(-2e-4, 2e-4), rng.uniform(-2e-4, 2e-4))
        if min(math.hypot(pt[0] - w.x, pt[1] - w.z) for w in wires) < 1e-6:
            continue
        assert specific_potential(pt, wires, medium) >= 0.0


def test_singularity_raises_with_wire_index(medium):
    wires = [Wire(0.0, 0.0, 1.0), Wire(5e-6, 0.0, 2.0)]
    with pytest.raises(WireSingularityError) as exc:
        b_field((5e-6, 0.0), wires)
    assert exc.value.wire_index == 1
    with pytest.raises(WireSingularityError):
        specific_potential((0.0, 0.5e-9), wires, medium)  # inside guard radius
    with pytest.raises(WireSingularityError):
        acceleration((0.0, 0.0), wires, medium)
    # a dead wire has no pole
    assert b_field((0.0, 0.0), [Wire(0.0, 0.0, 0.0)]) == (0.0, 0.0)
