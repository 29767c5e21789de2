"""Acceptance gate: every reference number at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
all); tolerances are pinned here, not configurable.
"""

import json
import math

import numpy as np
import pytest

from wiresplit import (
    PacketState,
    StepControl,
    Wire,
    closest_approach,
    inverse_current_ratio,
    inverse_max_size,
    simulate,
    triangular_current_ratio,
    triangular_max_size,
    validate_analytic,
    velocity_sweep,
)
from wiresplit.cli import main as cli_main
from wiresplit.designer import DesignSpec

V0, B, X0, TAU = 0.01, 0.5e-6, 300e-6, 0.1


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_splitting_currents(medium):
    i_tri = triangular_current_ratio(V0, TAU, X0, medium) * B
    i_inv = inverse_current_ratio(V0, medium) * B
    ok = (abs(i_tri / 0.925273 - 1.0) < 1e-4
          and abs(i_inv / 0.616467 - 1.0) < 1e-4)
    _report("criterion 1 (splitting currents)", ok,
            f"triangular {i_tri:.6f} A vs 0.925273, "
            f"inverse {i_inv:.6f} A vs 0.616467, tol 1e-4")


def test_criterion_2_analytic_sizes():
    dz_t = triangular_max_size(V0, TAU, X0)
    dz_r = inverse_max_size(V0, TAU, X0)
    ok = abs(dz_t / 632.46e-6 - 1.0) < 1e-3 and dz_r == pytest.approx(
        400e-6, rel=1e-12)
    _report("criterion 2 (analytic sizes)", ok,
            f"{dz_t * 1e6:.2f} um vs 632.46 (0.1%), "
            f"{dz_r * 1e6:.6g} um vs 400 exactly")


def test_criterion_3_numeric_designs(triangular_design, inverse_design):
    tri, _, _ = triangular_design
    inv, _, _ = inverse_design
    checks = {
        "triangular separation":
            abs(tri.max_separation / 628e-6 - 1.0) < 1e-2,
        "apex current":
            abs(tri.wires[1].current / 1.57 - 1.0) < 5e-2,
        "inverse separation":
            abs(inv.max_separation / 399.977e-6 - 1.0) < 1e-4,
        "turning current":
            abs(inv.wires[1].current / 0.00823 - 1.0) < 5e-2,
    }
    _report("criterion 3 (numeric designs)", all(checks.values()),
            f"sep {tri.max_separation * 1e6:.2f}/628 um, "
            f"apex {tri.wires[1].current:.4f}/1.57 A (5%), "
            f"sep {inv.max_separation * 1e6:.4f}/399.977 um (0.01%), "
            f"turn {inv.wires[1].current:.6f}/0.00823 A (5%); "
            f"failed: {[k for k, v in checks.items() if not v]}")


def test_criterion_4_closest_approaches(triangular_design, inverse_design,
                                        medium):
    tri, _, _ = triangular_design
    inv, _, _ = inverse_design
    d_analytic = closest_approach(B, tri.wires[0].current, V0, medium)
    d_numeric = tri.min_distance_per_wire[0]
    checks = {
        "analytic d": abs(d_analytic / 1.39269e-6 - 1.0) < 1e-4,
        "numeric vs analytic": abs(d_numeric / d_analytic - 1.0) < 3e-5,
        "turning periapsis":
            abs(inv.min_distance_per_wire[1] / 0.0115617e-6 - 1.0) < 1e-2,
    }
    _report("criterion 4 (closest approaches)", all(checks.values()),
            f"analytic {d_analytic * 1e6:.6f} um vs 1.39269, numeric "
            f"{d_numeric * 1e6:.6f} (3e-5 rel), turning "
            f"{inv.min_distance_per_wire[1] * 1e6:.7f} um vs 0.0115617 (1%); "
            f"failed: {[k for k, v in checks.items() if not v]}")


def test_criterion_5_engineering_numbers(triangular_design, inverse_design):
    tri, _, _ = triangular_design
    inv, _, _ = inverse_design
    checks = {
        "triangular density":
            abs(tri.min_current_density / 0.15e12 - 1.0) < 2e-2,
        "inverse density":
            abs(inv.min_current_density / 19.6e12 - 1.0) < 2e-2,
        "triangular field": abs(tri.peak_field / 0.13 - 1.0) < 5e-2,
        "inverse field": abs(inv.peak_field / 0.14 - 1.0) < 5e-2,
    }
    _report("criterion 5 (engineering numbers)", all(checks.values()),
            f"rho {tri.min_current_density * 1e-12:.4f}/0.15, "
            f"{inv.min_current_density * 1e-12:.2f}/19.6 A/um^2 (2%); "
            f"B {tri.peak_field:.4f}/0.13, {inv.peak_field:.4f}/0.14 T (5%); "
            f"failed: {[k for k, v in checks.items() if not v]}")


def test_criterion_6_appendix_overlay(medium):
    rows = validate_analytic(b_values=(0.5e-6, 3e-6, 6e-6), current=2.0,
                             v0=V0, medium=medium)
    devs = [r.max_rel_deviation for r in rows]
    ok = all(d < 1e-3 for d in devs)
    _report("criterion 6 (appendix overlay)", ok,
            "max relative radial deviation per b: "
            + ", ".join(f"{d:.2e}" for d in devs) + " (< 1e-3)")


def test_criterion_7_property_suite(triangular_design, inverse_design, medium,
                                    shared_design, tmp_path):
    failures = []

    # energy drift on both reference-scale runs: the force the kernels
    # integrate and the potential simulate measures it with agree
    for name, (_, top, _) in (("triangular", triangular_design),
                              ("inverse", inverse_design)):
        if top.stats.energy_drift >= 1e-8:
            failures.append(f"energy drift {name} {top.stats.energy_drift:.2e}")

    # angular momentum about a single active wire
    traj = simulate(PacketState(x=-X0, z=B, vx=V0, vz=0.0),
                    [Wire(0.0, 0.0, 2.0)], medium, 0.06)
    x, z, vx, vz = np.asarray(traj.states).T
    ell = x * vz - z * vx
    if np.max(np.abs(ell - ell[0])) / abs(ell[0]) >= 1e-8:
        failures.append("angular momentum drift")

    # mass independence, bitwise, through the CLI mass metadata
    sim_cfg = {
        "wires": [{"x_um": 0.0, "z_um": 0.0, "current_a": 2.0}],
        "initial": {"x_um": -300.0, "z_um": 0.5,
                    "vx_m_per_s": V0, "vz_m_per_s": 0.0},
        "duration_s": 0.03,
    }
    outs = []
    for tag, mass in (("a", 1e-15), ("b", 1e-17)):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({**sim_cfg, "mass_kg": mass}))
        out = tmp_path / tag
        cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        outs.append((out / "trajectory.csv").read_bytes())
    if outs[0] != outs[1]:
        failures.append("mass metadata changed the trajectory")

    # time reversal
    launch = PacketState(x=-X0, z=B, vx=V0, vz=0.0)
    fwd = simulate(launch, [Wire(0.0, 0.0, 2.0)], medium, 0.05)
    end = fwd.final
    back = simulate(PacketState(x=end.x, z=end.z, vx=-end.vx, vz=-end.vz),
                    [Wire(0.0, 0.0, 2.0)], medium, 0.05)
    miss = math.hypot(back.final.x - launch.x, back.final.z - launch.z)
    if miss >= 1e-9:
        failures.append(f"time reversal miss {miss:.2e} m")

    # scale family at s = 2 with scale-free error control
    from wiresplit import ScatteringInputs
    control = StepControl(atol=0.0)
    s = 2.0
    for scheme, base_fix in (("triangular", triangular_design),
                             ("inverse", inverse_design)):
        base = shared_design(
            DesignSpec(scheme=scheme,
                       inputs=ScatteringInputs(v0=V0, b=B, x0=X0, tau=TAU)),
            control)[0]
        scaled = shared_design(
            DesignSpec(scheme=scheme,
                       inputs=ScatteringInputs(v0=V0, b=s * B, x0=s * X0,
                                               tau=s * TAU)),
            control)[0]
        rel = abs(scaled.wires[1].current / (s * base.wires[1].current) - 1.0)
        if rel >= 1e-6:
            failures.append(f"scale family {scheme} current off by {rel:.2e}")
        rel = abs(scaled.max_separation / (s * base.max_separation) - 1.0)
        if rel >= 1e-6:
            failures.append(f"scale family {scheme} separation off by {rel:.2e}")

    _report("criterion 7 (property suite)", not failures,
            "energy, angular momentum, mass, reversal, scaling"
            + (f"; failed: {failures}" if failures else " all within bounds"))


def test_criterion_8_sweep_properties(medium):
    table = velocity_sweep(medium=medium)
    v0 = np.asarray(table.v0)
    top = v0 >= v0[-1] / 10.0
    failures = []
    for name, col in (("triangular", np.asarray(table.dz_triangular)),
                      ("inverse", np.asarray(table.dz_inverse))):
        fit = np.polyfit(v0[top], col[top], 1)
        resid = np.max(np.abs(col[top] - np.polyval(fit, v0[top]))
                       / col[top])
        if resid >= 1e-3:
            failures.append(f"{name} linearity residual {resid:.2e}")
    rho_gap = np.max(np.abs(np.asarray(table.density_triangular)[top]
                            / np.asarray(table.density_inverse)[top] - 1.0))
    if rho_gap >= 1e-2:
        failures.append(f"density curves differ by {rho_gap:.2%}")
    _report("criterion 8 (sweep properties)", not failures,
            f"top-decade linearity and density agreement "
            f"(max gap {rho_gap:.3%})"
            + (f"; failed: {failures}" if failures else ""))
