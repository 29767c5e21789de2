"""Designer behaviour away from the reference configuration."""

import pytest

from wiresplit import ScatteringInputs
from wiresplit.designer import DesignFailure, DesignSpec, design_trajectories


@pytest.mark.parametrize("scheme,kw", [
    ("triangular", dict(v0=0.005, b=0.25e-6, x0=200e-6, tau=0.12)),
    ("triangular", dict(v0=0.02, b=1e-6, x0=300e-6, tau=0.05)),
    ("triangular", dict(v0=0.05, b=2e-6, x0=500e-6, tau=0.1)),
    ("triangular", dict(v0=0.01, b=0.5e-6, x0=450e-6, tau=0.1)),
    ("triangular", dict(v0=0.5, b=0.1e-6, x0=300e-6, tau=0.01)),
    ("inverse", dict(v0=0.02, b=1e-6, x0=300e-6, tau=0.05)),
    ("inverse", dict(v0=0.05, b=2e-6, x0=500e-6, tau=0.1)),
    ("inverse", dict(v0=0.5, b=0.1e-6, x0=300e-6, tau=0.01)),
])
def test_designs_converge_off_reference(scheme, kw):
    spec = DesignSpec(scheme=scheme, inputs=ScatteringInputs(**kw))
    result, top, _ = design_trajectories(spec)
    assert result.closure_error <= spec.closure_tolerance
    assert 0.9 * kw["tau"] <= result.return_time <= 1.1 * kw["tau"]
    assert top.stats.energy_drift < 1e-8
    assert all(d > 0.0 for d in result.min_distance_per_wire)
    assert result.max_separation >= 2.0 * kw["b"]


@pytest.mark.parametrize("kw", [
    # retrace geometries with the turning wire only ~100 splits above the
    # axis: the reflection residual is amplified past the retrace corridor
    # at every current, so no closure root exists
    dict(v0=0.01, b=0.5e-6, x0=450e-6, tau=0.1),
    dict(v0=0.005, b=0.25e-6, x0=200e-6, tau=0.12),
])
def test_tight_retrace_geometry_fails_with_best_iterate(kw):
    spec = DesignSpec(scheme="inverse", inputs=ScatteringInputs(**kw))
    with pytest.raises(DesignFailure) as exc:
        design_trajectories(spec)
    assert exc.value.best_current is not None
    assert abs(exc.value.best_error) < 1e-3  # it got close, then ran out of roots
