import csv
import math
import re

import numpy as np
import pytest

from wiresplit import (
    closest_approach,
    current_density,
    inverse_max_size,
    triangular_max_size,
    validate_analytic,
    velocity_sweep,
)
from wiresplit.integrator import StepControl
from wiresplit.sweep import SWEEP_COLUMNS, default_velocity_grid


def test_default_grid_spans_feasible_range():
    grid = default_velocity_grid()
    assert len(grid) == 50
    assert grid[0] == pytest.approx(1.05 * 2.0 * 300e-6 / 0.1)
    assert grid[-1] == pytest.approx(2.0)
    assert np.all(np.diff(np.log(grid)) > 0)


def test_reference_row(medium):
    table = velocity_sweep([0.01], medium=medium)
    assert table.feasible[0]
    assert table.dz_triangular[0] == pytest.approx(632.46e-6, rel=1e-3)
    assert table.dz_inverse[0] == pytest.approx(400e-6, rel=1e-12)
    assert table.dz_triangular[0] == triangular_max_size(0.01, 0.1, 300e-6)
    assert table.dz_inverse[0] == inverse_max_size(0.01, 0.1, 300e-6)
    assert table.density_triangular[0] == current_density(
        0.01, 0.5e-6, table.ratio_triangular[0], medium)


def test_infeasible_rows_flagged_not_dropped(medium):
    table = velocity_sweep([0.001, 0.01], medium=medium)
    assert len(table.v0) == 2
    assert not table.feasible[0]
    assert math.isnan(table.dz_triangular[0])
    assert table.feasible[1]


def test_rows_reproducible_bit_for_bit(medium):
    a = velocity_sweep(medium=medium)
    b = velocity_sweep(medium=medium)
    for name in ("v0", "dz_triangular", "dz_inverse", "ratio_triangular",
                 "ratio_inverse", "density_triangular", "density_inverse"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_density_equals_current_over_approach_disc(medium):
    table = velocity_sweep(medium=medium)
    b = 0.5e-6
    for i in range(len(table.v0)):
        if not table.feasible[i]:
            continue
        for ratio, rho in ((table.ratio_triangular[i],
                            table.density_triangular[i]),
                           (table.ratio_inverse[i],
                            table.density_inverse[i])):
            current = ratio * b
            d = closest_approach(b, current, table.v0[i], medium)
            assert rho == pytest.approx(current / (math.pi * d * d), rel=1e-12)


def test_top_decade_linearity_and_density_agreement(medium):
    table = velocity_sweep(medium=medium)
    top = table.v0 >= table.v0[-1] / 10.0
    assert top.sum() >= 10
    for col in (table.dz_triangular, table.dz_inverse):
        fit = np.polyfit(table.v0[top], col[top], 1)
        resid = col[top] - np.polyval(fit, table.v0[top])
        assert np.max(np.abs(resid) / col[top]) < 1e-3
    ratio = table.density_triangular[top] / table.density_inverse[top]
    assert np.max(np.abs(ratio - 1.0)) < 1e-2


def test_csv_roundtrip(tmp_path, medium):
    table = velocity_sweep([0.01, 0.02], medium=medium)
    path = tmp_path / "sweep.csv"
    table.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SWEEP_COLUMNS)
    assert len(rows) == 3
    # 12 significant digits survive the round trip
    assert float(rows[1][2]) == pytest.approx(table.dz_triangular[0],
                                              rel=1e-11)


def test_validation_batch_overlays_analytic(medium):
    rows = validate_analytic(medium=medium)
    assert [r.b for r in rows] == [0.5e-6, 3e-6, 6e-6]
    for r in rows:
        assert r.max_rel_deviation < 1e-3
        assert r.n_compared > 50
        assert r.periapsis_numeric == pytest.approx(r.periapsis_analytic,
                                                    rel=1e-3)


def test_validation_deviation_is_model_limited_not_integration(medium):
    """Tightening the integrator tolerance two decades leaves the deviation
    unchanged: it measures the finite-launch approximation, not step error."""
    loose = validate_analytic([0.5e-6], medium=medium,
                              control=StepControl(rtol=1e-10))
    tight = validate_analytic([0.5e-6], medium=medium,
                              control=StepControl(rtol=1e-12))
    assert loose[0].max_rel_deviation == pytest.approx(
        tight[0].max_rel_deviation, rel=0.05)


def test_validation_zero_current_is_exact_line(medium):
    rows = validate_analytic([2e-6], current=0.0, v0=0.01, medium=medium,
                             region_radius=1.0)
    assert rows[0].k == 1.0
    assert rows[0].max_rel_deviation < 1e-12


@pytest.mark.parametrize("call, field", [
    (lambda: default_velocity_grid(tau=0.0), "tau"),
    (lambda: velocity_sweep(b=-1e-6), "b"),
    (lambda: velocity_sweep([0.01, math.nan]), "v0"),
    (lambda: validate_analytic(b_values=(0.5e-6, 0.0)), "b_values[1]"),
    (lambda: validate_analytic(launch_distance=math.inf), "launch_distance"),
    # inside every closest approach: the rows would compare no sample
    (lambda: validate_analytic(region_radius=0.1e-6), "region_radius"),
], ids=["grid_tau", "sweep_b", "sweep_nan_v0", "validate_b", "validate_launch",
        "validate_empty_region"])
def test_invalid_inputs_name_the_field(call, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        call()
