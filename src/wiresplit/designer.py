"""Wire-layout synthesis by shooting on the deflector-wire current.

Both schemes share the same structure: the splitting-wire current follows
in closed form from the scheme's deflection requirement, the mirror pair of
deflector wires sits at an analytically fixed position, and the one free
parameter -- the deflector current -- is tuned until the branch trajectory
re-crosses the launch plane at its starting height. All wires stay powered
throughout, so the objective sees every wire's repulsion over the whole
flight, not just the nominal encounters.

The bracket scan steps the current from the analytic seed by x2^(1/4),
x2^(1/2), then x2 per trial (or their reciprocals). A triangular seed lies
at 0.85-0.98 of the designed current, so it brackets in one step instead of
first overshooting into currents whose branch never returns. Shooting stops
at the first trial, in any phase, that closes within
``closure_tolerance / 100`` (see :class:`DesignSpec`). Each trial's miss and
branch are memoised per design: a repeat is not integrated again but counts
toward the budget, and the accepted trial is the design's top branch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from . import analytic
from .field import WireSingularityError, b_field
from .integrator import (
    DEFAULT_CONTROL,
    StepControl,
    Trajectory,
    mirror_trajectory,
    simulate,
)
from .model import (
    DesignResult,
    InfeasibleDesignError,
    Medium,
    PacketState,
    ScatteringInputs,
    Wire,
    default_medium,
)

logger = logging.getLogger(__name__)

CLOSURE_SENTINEL = 10.0
"""Returned by :func:`closure_error` when the packet never recrosses the
launch plane within the time budget; vastly larger than any real miss."""

_TIME_MARGIN = 0.1  # fraction of tau allowed beyond the nominal flight time
_ACCEPT_FRACTION = 0.01  # of closure_tolerance; see DesignSpec
_SHOOT_BUDGET = 80  # trials per design; see DesignSpec


class DesignFailure(RuntimeError):
    """Shooting failed to bracket or converge; carries the best iterate."""

    def __init__(self, message: str, best_current=None, best_error=None):
        self.best_current = best_current
        self.best_error = best_error
        if best_current is not None:
            error = ("" if best_error is None
                     else f", closure error = {best_error:.3e} m")
            message += f" (best iterate: current = {best_current:.6e} A{error})"
        super().__init__(message)


class _Closed(Exception):
    """Ends shooting; carries the trial current that closed."""


@dataclass(frozen=True)
class DesignSpec:
    """What to design: scheme, launch parameters, closure tolerance.

    Shooting returns the first trial current that closes within
    ``closure_tolerance / 100``: a miss m shifts the current by
    m / (I |dz_c/dI|) = m / 1.1e-4 m relative at the stiffer reference
    (inverse, 8.30e-3 A, 1.35e-2 m/A), so the scale family's 1e-6 relative
    bound needs m <= 1.1e-10 m, about 8x the scatter of the numerical miss
    across nearby currents at one step control.

    The miss is that of the numerical branch, not of the model. At the
    default ``StepControl`` the inverse designs' true miss, re-integrated at
    rtol 1e-12 and atol 0, reaches 5.6e-7 m (median 4.2e-8 m) on perfbench's
    design_mix seed 1, while their reported closure errors stay under
    1e-10 m; the triangular designs' true miss stays under 4e-11 m.

    The shooting budget is fixed at 80 trials per design, repeats included;
    the robustness suite's designs take at most 34. The step control's
    guard radius and step budget are fixed too (see ``StepControl``).
    """

    scheme: str  # "triangular" | "inverse"
    inputs: ScatteringInputs
    closure_tolerance: float = 1e-8  # m

    def __post_init__(self):
        if self.scheme not in ("triangular", "inverse"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.closure_tolerance > 0.0:
            raise ValueError("closure_tolerance must be positive")
        if self.closure_tolerance >= self.inputs.b:
            raise ValueError(
                "closure_tolerance must be finer than the initial split b"
            )


def _closure_trial(wires, initial: PacketState, medium: Medium, tau: float,
                   control: StepControl) -> tuple[float, Trajectory]:
    """One shooting trial: the closure miss and the branch it was read from."""
    traj = simulate(initial, wires, medium, tau * (1.0 + _TIME_MARGIN), control,
                    stop_at_closure=True)
    if traj.events.closure is None:
        logger.debug(
            "no launch-plane crossing within %.3e s; returning sentinel",
            tau * (1.0 + _TIME_MARGIN),
        )
        return CLOSURE_SENTINEL, traj
    return traj.events.closure.z - initial.z, traj


def closure_error(wires, initial: PacketState, medium: Medium, tau: float,
                  control: StepControl = DEFAULT_CONTROL) -> float:
    """Signed z miss (m) at the first re-crossing of the launch plane.

    Positive when the branch comes back above its starting height. Returns
    :data:`CLOSURE_SENTINEL` when no crossing with vx < 0 happens within
    ``tau * (1 + _TIME_MARGIN)``.
    """
    return _closure_trial(wires, initial, medium, tau, control)[0]


def _deflector_seed(splitting_current, v0, b, x0, wire_x, wire_z,
                    medium: Medium) -> float:
    """Analytic starting guess for the deflector current.

    Treats the branch after the splitting deflection as its outgoing
    asymptote (offset b on the wire side), reads off the impact parameter
    with respect to the deflector wire and the turn angle needed to head
    back to the launch point, and inverts the single-wire deflection
    formulas. When the deflector sits on the asymptote (retrace geometry)
    the impact parameter degenerates to zero; then the seed instead targets
    a head-on turning radius of a few percent of the initial split.
    """
    k_split = analytic.stiffness_k(splitting_current, b, v0, medium)
    theta_s = analytic.scattering_angle(k_split)
    ux, uz = math.cos(theta_s), math.sin(theta_s)
    # outgoing asymptote passes at distance b on the travel-left of the wire
    px, pz = -uz * b, ux * b
    s = ux * (wire_z - pz) - uz * (wire_x - px)
    b_eff = abs(s)
    if b_eff < 1e-3 * b:
        d0_target = b / 50.0
        return d0_target * v0 / math.sqrt(medium.alpha)
    rx, rz = -x0 - wire_x, b - wire_z
    rn = math.hypot(rx, rz)
    dot = (ux * rx + uz * rz) / rn
    cross = (ux * rz - uz * rx) / rn
    turn = abs(math.atan2(cross, dot))
    if turn == math.pi:  # one wire turns a branch by (1 - 1/sqrt(k)) pi < pi
        raise InfeasibleDesignError("turning the branch by pi takes an infinite current")
    sqrt_k = math.pi / (math.pi - turn)
    k2 = sqrt_k * sqrt_k
    return b_eff * (v0 / math.sqrt(medium.alpha)) * math.sqrt(k2 - 1.0)


def _brentq(f, xa, xb, xtol, rtol, maxiter):
    """Brent's root finder (Brent 1973, ch. 4), step for step as scipy's
    ``brentq.c``, so the evaluation sequence and root are scipy's bitwise.

    ``f(xa)`` and ``f(xb)`` must differ in sign. A NaN value raises
    ``ValueError``, and no convergence within ``maxiter`` iterations raises
    ``RuntimeError``, as scipy does.
    """
    def fn(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = fn(xpre)
    fcur = fn(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        # an infinite trial step fails the test below and bisects, as the
        # inf or NaN that C gets from a division by zero does
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        bound = 3 * abs(sbis) - delta
        if abs(spre) < bound:  # C's MIN(), not Python's min(), on NaN
            bound = abs(spre)
        if 2 * abs(stry) < bound:  # good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fn(xcur)
    raise RuntimeError(
        f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _shoot(objective, seed: float, budget: int, tolerance: float) -> float:
    """Bracket by geometric scan from the seed, then polish with Brent's method.

    Near its root the objective decreases through zero as the deflector
    current grows: too little current leaves the branch over-high (or lost
    entirely, the sentinel case), too much slams it below the launch
    height. The scan walks that direction first and falls back to the
    opposite one, so a locally inverted regime still brackets if a root
    exists at all.
    """
    evals = 0
    best = (None, math.inf)

    def f(current):
        nonlocal evals, best
        if evals >= budget:
            raise DesignFailure(
                "shooting iteration budget exhausted",
                best_current=best[0], best_error=best[1],
            )
        evals += 1
        try:
            err = objective(current)
        except WireSingularityError:
            # packet swallowed by a wire: invalid trial, same as no return
            err = CLOSURE_SENTINEL
        if valid(err) and abs(err) < abs(best[1]):
            best = (current, err)
        logger.debug("shoot: I = %.9e A -> closure error %.6e m", current, err)
        if valid(err) and abs(err) <= _ACCEPT_FRACTION * tolerance:
            raise _Closed(current)
        return err

    def valid(err):
        return abs(err) < 0.5 * CLOSURE_SENTINEL

    def walk(widest):
        # steps widest**(1/4), widest**(1/2), then widest: a seed near its
        # root brackets at once, and a lost trial stops the growth for good
        growth = [widest ** 0.5, widest]
        step = widest ** 0.25
        prev_i, prev_e = start_i, start_e
        for _ in range(40):
            cur_i = prev_i * step
            cur_e = f(cur_i)
            if valid(cur_e) and (cur_e > 0.0) != (prev_e > 0.0):
                return (prev_i, cur_i)
            if valid(cur_e):
                monotone = cur_e < prev_e if step > 1.0 else cur_e > prev_e
                if not monotone:
                    logger.debug(
                        "closure error not monotone across scan: "
                        "I %.3e -> %.3e A, err %.3e -> %.3e m",
                        prev_i, cur_i, prev_e, cur_e,
                    )
                prev_i, prev_e = cur_i, cur_e
                if growth:
                    step = growth.pop(0)
            else:
                # lost the trajectory; shrink toward the valid side
                growth = []
                step = math.sqrt(step)
                if abs(step - 1.0) < 1e-3:
                    return None
        return None

    try:
        start_i, start_e = seed, f(seed)
        while not valid(start_e):
            # sentinel at the seed means under-deflection: walk upward
            start_i *= 2.0
            start_e = f(start_i)
            if start_i > seed * 2.0**16:
                raise DesignFailure("could not find a returning trajectory",
                                    best_current=best[0], best_error=best[1])
        widest = 2.0 if start_e > 0.0 else 0.5
        bracket = walk(widest)
        if bracket is None:
            bracket = walk(1.0 / widest)
        if bracket is None:
            raise DesignFailure("failed to bracket a closure root",
                                best_current=best[0], best_error=best[1])
        root = _brentq(f, min(bracket), max(bracket), xtol=1e-12 * seed,
                       rtol=8.9e-16, maxiter=budget)
        final = f(root)
    except _Closed as closed:
        return closed.args[0]
    if abs(final) > tolerance:
        raise DesignFailure(
            f"converged current misses closure tolerance: |{final:.3e}| m "
            f"> {tolerance:.3e} m",
            best_current=best[0], best_error=best[1],
        )
    return root


def _design(spec: DesignSpec, medium: Medium, control: StepControl,
            splitting_current: float, deflector_xz
            ) -> tuple[DesignResult, Trajectory, Trajectory]:
    v0, b, x0, tau = (spec.inputs.v0, spec.inputs.b,
                      spec.inputs.x0, spec.inputs.tau)
    dx_w, dz_w = deflector_xz
    initial = PacketState(x=-x0, z=b, vx=v0, vz=0.0, t=0.0)

    def wires_for(current):
        return (
            Wire(0.0, 0.0, splitting_current),
            Wire(dx_w, dz_w, current),
            Wire(dx_w, -dz_w, current),
        )

    # Brent's method re-asks for the bracket ends the scan has just tried,
    # and the accepted trial is the top branch; each current is integrated
    # once, and the branch of a current _shoot never tried is integrated here
    trials = {}

    def trial(current):
        if current not in trials:
            trials[current] = _closure_trial(wires_for(current), initial,
                                             medium, tau, control)
        return trials[current]

    seed = _deflector_seed(splitting_current, v0, b, x0, dx_w, dz_w, medium)
    logger.debug("%s seed current: %.6e A", spec.scheme, seed)
    current = _shoot(lambda c: trial(c)[0], seed, _SHOOT_BUDGET,
                     spec.closure_tolerance)

    wires = wires_for(current)
    top = trial(current)[1]

    closure = top.events.closure
    if closure is None:
        raise DesignFailure("converged design lost its closure crossing",
                            best_current=current)

    peri = top.events.periapsis_per_wire
    # z -> -z symmetry: the bottom branch sees the mirror wire at the same
    # distance, so the per-wire minimum over both branches is the top
    # branch's distance to the deflector on its own side.
    d_split = peri[0].distance
    d_deflector = peri[1].distance
    min_dists = (d_split, d_deflector, d_deflector)
    densities = [abs(w.current) / (math.pi * d * d)
                 for w, d in zip(wires, min_dists)]
    closest = min(peri[:2], key=lambda p: p.distance)
    bx, bz = b_field((closest.state.x, closest.state.z), wires)

    # the bottom branch is the exact mirror image, so the separation is
    # twice the top branch's height, largest at its located apex
    max_separation = 2.0 * top.events.apex.z
    top = replace(top, events=replace(top.events, separation_max=max_separation))
    bottom = mirror_trajectory(top, wires)

    result = DesignResult(
        wires=wires,
        max_separation=max_separation,
        closure_error=abs(closure.z - initial.z),
        return_velocity=(closure.vx, closure.vz),
        min_distance_per_wire=min_dists,
        min_current_density=max(densities),
        peak_field=math.hypot(bx, bz),
        return_time=closure.t - initial.t,
    )
    return result, top, bottom


def design_trajectories(spec: DesignSpec, medium: Medium | None = None,
                        control: StepControl = DEFAULT_CONTROL
                        ) -> tuple[DesignResult, Trajectory, Trajectory]:
    """Run a design and return ``(result, top_branch, bottom_branch)``."""
    medium = medium if medium is not None else default_medium()
    v0, b, x0, tau = (spec.inputs.v0, spec.inputs.b,
                      spec.inputs.x0, spec.inputs.tau)
    analytic._require_feasible(v0, tau, x0)
    if spec.scheme == "triangular":
        ratio = analytic.triangular_current_ratio(v0, tau, x0, medium)
        deflector = triangular_deflector_position(x0, b, v0, tau)
    else:
        ratio = analytic.inverse_current_ratio(v0, medium)
        deflector = (-b, v0 * tau / 2.0 - x0)
    return _design(spec, medium, control, ratio * b, deflector)


def triangular_deflector_position(x0: float, b: float, v0: float, tau: float):
    """Where the triangular designer puts the deflector wires, (m, m).

    The geometry admits two natural heights: the branch-ellipse vertex
    (launch offset plus semi-minor, :func:`analytic.apex_wire_position`) and
    the centre-line vertex (semi-minor alone). The scattered branch passes
    between them, and the synthesized deflector current is very sensitive to
    the choice; the midpoint, half the launch offset above the centre-line
    vertex, reproduces the reference configuration's current.
    """
    x_w, z_vertex = analytic.apex_wire_position(x0, b, v0, tau)
    return (x_w, z_vertex - b / 2.0)

