"""Designer behaviour away from the reference configuration."""

from types import SimpleNamespace

import pytest

from wiresplit import ScatteringInputs, integrator
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


# retrace geometries with the turning wire only ~100 splits above the axis:
# the reflection residual is amplified past the retrace corridor at every
# current, so no closure root exists
TIGHT_RETRACE = [
    dict(v0=0.01, b=0.5e-6, x0=450e-6, tau=0.1),
    dict(v0=0.005, b=0.25e-6, x0=200e-6, tau=0.12),
]


@pytest.mark.parametrize("kw", TIGHT_RETRACE)
def test_tight_retrace_geometry_fails_with_best_iterate(kw):
    spec = DesignSpec(scheme="inverse", inputs=ScatteringInputs(**kw))
    with pytest.raises(DesignFailure) as exc:
        design_trajectories(spec)
    assert exc.value.best_current is not None
    assert abs(exc.value.best_error) < 1e-3  # it got close, then ran out of roots


@pytest.mark.parametrize("kw,best,runs", [
    (TIGHT_RETRACE[0], (8.465188e-3, -4.255e-4), 16),
    (TIGHT_RETRACE[1], (3.563161e-4, -6.208e-6), 15),
])
def test_tight_retrace_failure_costs_no_more_kernel_runs(kw, best, runs,
                                                         monkeypatch):
    # the scan in (I^2, I miss) turns back once its |I miss| exceeds that
    # of its start, so a design with no root fails after a few steps each
    # way
    calls = []
    kernel = integrator._kernel

    def counted(*args):
        calls.append(args[-1])
        return kernel.integrate(*args)

    monkeypatch.setattr(integrator, "_kernel",
                        SimpleNamespace(integrate=counted))
    spec = DesignSpec(scheme="inverse", inputs=ScatteringInputs(**kw))
    with pytest.raises(DesignFailure, match="failed to bracket") as exc:
        design_trajectories(spec)
    assert (exc.value.best_current, exc.value.best_error) == (
        pytest.approx(best[0], rel=1e-6), pytest.approx(best[1], rel=1e-3))
    assert len(calls) <= runs


def test_far_root_that_never_splits_fails():
    # the miss falls from the seed to a positive minimum, rises, and only
    # crosses zero at 8.6 times the best current, where the deflectors pin
    # the branch to the axis: it bounces head-on off the splitting wire and
    # comes back unsplit, with a separation of exactly 2 b. The scan turns
    # back at the rise instead of walking on to that root
    spec = DesignSpec(scheme="triangular", inputs=ScatteringInputs(
        v0=0.5, b=2e-6, x0=200e-6, tau=1.28e-3))
    with pytest.raises(DesignFailure, match="failed to bracket") as exc:
        design_trajectories(spec)
    assert exc.value.best_current == pytest.approx(5.436652e2, rel=1e-6)
