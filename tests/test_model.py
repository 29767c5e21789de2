import dataclasses
import math

import pytest

from wiresplit import (
    CHI_M_DIAMOND,
    MU0,
    Medium,
    PacketState,
    ScatteringInputs,
    Wire,
    default_medium,
    inverse_current_ratio,
    make_medium,
)


def test_alpha_formula_exact():
    med = make_medium(-6.2e-9)
    assert med.alpha == -(-6.2e-9) * MU0 / (4.0 * math.pi**2)
    assert med.chi_m == -6.2e-9


def test_alpha_matches_reference_current_oracle():
    # invert the retrace-scheme relation I/b = v0 sqrt(3/alpha) using the
    # reference current 0.616467 A at v0 = 0.01 m/s, b = 0.5 um
    v0, b, current = 0.01, 0.5e-6, 0.616467
    alpha_oracle = 3.0 * v0**2 * b**2 / current**2
    med = default_medium()
    assert med.alpha == pytest.approx(alpha_oracle, rel=1e-4)
    assert med.alpha == pytest.approx(1.9735e-16, rel=1e-4)


def test_alpha_linear_in_chi():
    a1 = make_medium(-1e-12).alpha
    assert a1 > 0.0
    assert make_medium(-2e-12).alpha == pytest.approx(2.0 * a1, rel=1e-15)
    # chi -> 0- limit
    assert make_medium(-1e-30).alpha < 1e-36


def test_alpha_roundtrip_through_current_ratio(medium):
    v0, b = 0.0137, 0.8e-6
    current = inverse_current_ratio(v0, medium) * b
    alpha_recovered = 3.0 * v0**2 * b**2 / current**2
    assert alpha_recovered == pytest.approx(medium.alpha, rel=1e-6)


def test_paramagnetic_rejected():
    with pytest.raises(ValueError, match="negative"):
        make_medium(6.2e-9)
    with pytest.raises(ValueError):
        make_medium(0.0)
    with pytest.raises(ValueError):
        make_medium(float("nan"))


def test_default_medium_is_diamond():
    med = default_medium()
    assert med.chi_m == CHI_M_DIAMOND
    assert med.chi_m < 0.0
    assert med.alpha > 0.0


def test_types_are_immutable():
    med = default_medium()
    with pytest.raises(dataclasses.FrozenInstanceError):
        med.alpha = 1.0
    w = Wire(0.0, 0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.current = 2.0
    s = PacketState(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.x = 1.0


def test_zero_current_wire_allowed():
    assert Wire(1e-6, -2e-6, 0.0).current == 0.0


def test_nonfinite_fields_rejected():
    with pytest.raises(ValueError):
        Wire(float("inf"), 0.0, 1.0)
    with pytest.raises(ValueError):
        PacketState(0.0, 0.0, float("nan"), 0.0)


def test_packet_state_speed():
    s = PacketState(0.0, 0.0, 3.0, 4.0)
    assert s.speed == pytest.approx(5.0)


def test_scattering_inputs_validation():
    ScatteringInputs(v0=0.01, b=0.5e-6, x0=300e-6, tau=0.1)
    with pytest.raises(ValueError):
        ScatteringInputs(v0=-0.01, b=0.5e-6, x0=300e-6, tau=0.1)
    with pytest.raises(ValueError):
        ScatteringInputs(v0=0.01, b=0.0, x0=300e-6, tau=0.1)


def test_medium_is_plain_value_type():
    a = Medium(chi_m=-1e-9, alpha=1e-17)
    b = Medium(chi_m=-1e-9, alpha=1e-17)
    assert a == b
