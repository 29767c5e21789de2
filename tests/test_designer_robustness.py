"""Designer behaviour away from the reference configuration."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiresplit import InfeasibleDesignError, ScatteringInputs, _kernel_py, integrator
from wiresplit.designer import DesignFailure, DesignSpec, design_trajectories
from wiresplit.integrator import event_log_dict

from test_kernel import _bits


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
    (TIGHT_RETRACE[1], (3.563161e-4, -6.250e-6), 15),
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


def _design_outcome(spec, kernel):
    """``design_trajectories(spec)`` on ``kernel``: the result and both
    branches, or the exception it raised."""
    default, integrator._kernel = integrator._kernel, kernel
    try:
        return design_trajectories(spec)
    except Exception as exc:
        return exc
    finally:
        integrator._kernel = default


def _record(outcome):
    """Everything a design hands back, as comparable data."""
    if isinstance(outcome, Exception):
        return (type(outcome), str(outcome),
                _bits([getattr(outcome, "best_current", None),
                       getattr(outcome, "best_error", None)]))
    result, top, bottom = outcome
    return (_bits(result.to_dict()),
            [(branch.t.tobytes(), branch.states.tobytes(),
              _bits(event_log_dict(branch))) for branch in (top, bottom)])


# the input domain of the paper's designs: launch speed (log-uniform over
# 5 mm/s-1 m/s), initial half-split b, launch distance x0, and the flight
# margin s = v0 tau / (2 x0). 30 draws add about 2 s to Tier-1 on the
# Python backend (each draw designs on both backends)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(scheme=st.sampled_from(["triangular", "inverse"]),
       v0=st.floats(math.log(5e-3), 0.0).map(math.exp),
       b=st.floats(0.1e-6, 2e-6), x0=st.floats(150e-6, 500e-6),
       s=st.floats(1.55, 2.5))
def test_designs_across_the_domain_agree_on_both_backends(
        compiled_kernel, scheme, v0, b, x0, s):
    spec = DesignSpec(scheme=scheme, inputs=ScatteringInputs(
        v0=v0, b=b, x0=x0, tau=2.0 * s * x0 / v0))
    twin = _design_outcome(spec, _kernel_py)
    assert _record(_design_outcome(spec, compiled_kernel)) == _record(twin)
    if isinstance(twin, Exception):
        assert type(twin) in (DesignFailure, InfeasibleDesignError), twin
        return
    result, top, bottom = twin
    assert result.closure_error <= spec.closure_tolerance
    # the bottom branch is the top's exact z-mirror
    assert bottom.t.tobytes() == top.t.tobytes()
    assert np.array_equal(np.asarray(bottom.states),
                          np.asarray(top.states) * [1.0, -1.0, 1.0, -1.0])
    closure = top.events.closure
    assert abs(closure.x + x0) <= _kernel_py.EVENT_DT * abs(closure.vx)
    # a split design separates the branches far beyond the initial split
    # 2 b (at least 85 times over 300 random specs); an unsplit one returns
    # with exactly 2 b
    assert result.max_separation > 10.0 * (2.0 * b)
