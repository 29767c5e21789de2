"""Wire-layout synthesis by shooting on the deflector-wire current.

Both schemes share the same structure: the splitting-wire current follows
in closed form from the scheme's deflection requirement, the mirror pair of
deflector wires sits at an analytically fixed position, and the one free
parameter -- the deflector current -- is tuned until the branch trajectory
re-crosses the launch plane at its starting height. All wires stay powered
throughout, so the objective sees every wire's repulsion over the whole
flight, not just the nominal encounters.

What differs between the schemes -- the splitting current, the deflector
position, the seed and the trial -- is chosen in one place,
:func:`design_trajectories`, with the reason for each rule there.
:func:`_shoot` does the rest for both: it brackets the root by a scan from
the seed, polishes it by interpolation, and keeps one record of a design's
trials, so a current runs at most once. What closes a design is
:class:`DesignSpec`'s.

A triangular trial integrates the branch to its closure, and the accepted
trial is the design's top branch. The inverse branch runs head-on into the
deflector, stops and retraces its path, so its closure is decided at the
turn: an inverse trial integrates only up to the turn and estimates the
miss from the angular momentum left there (:func:`_turn_trial`). The top
branch continues the accepted trial after its turn step to the closure
(``integrator._resumed``). It is bitwise the full run at that
current, and gives the reported, measured closure miss.

On perfbench's design_mix seeds 1-3, a triangular seed lies at 0.83-0.98
of the designed current and usually brackets in one step. No trial there
is lost: an over-deflected branch swings below the axis and comes back
late, and the 1.15 tau a trial runs (``_TIME_MARGIN``) lets it reach the
launch plane. 7 of the 903 triangular runs repeat a current, after a
coarse run that missed by less than b. Inverse seeds lie at 0.31-1.75 of
the designed current and close in 3.24 turn trials on average.
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
    StiffnessError,
    Trajectory,
    _resumed,
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

# fraction of tau a trial runs beyond the nominal flight time. An
# over-deflected triangular branch swings below the axis and comes back
# late: at 0.1, 28 trials of design_mix seeds 1-3 ran out of time a few um
# short of the launch plane and read as lost; from 0.15 none does
_TIME_MARGIN = 0.15
_ACCEPT_FRACTION = 0.01  # of closure_tolerance; see DesignSpec
_SHOOT_BUDGET = 80  # trials per design; see DesignSpec
_ACCEPT_STEP = 3e-7  # relative secant step to the root; see DesignSpec
_COARSE_RTOL = 1e-8  # triangular: loosest rtol of a coarse trial
_COARSE_FACTOR = 1000.0  # most by which a coarse trial loosens the control
_COARSE_END = 20.0  # b: a coarse miss under this ends the coarse pass


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

    Shooting returns the first trial current that closes: its miss is
    within ``closure_tolerance / 100``, and the secant step to the root,
    taken from the last valid trial at another current, is within 3e-7 of
    the current. A miss m shifts the current by m / (I |dz_c/dI|) =
    m / 1.1e-4 m relative at the stiffer reference (inverse, 8.30e-3 A,
    1.35e-2 m/A), so the scale family's 1e-6 relative bound needs
    m <= 1.1e-10 m, about 8x the scatter of the numerical miss across
    nearby currents at one step control. The step bound holds the current
    where a smaller I |dz_c/dI| than the reference's would let it drift
    further: on perfbench's design_mix seeds 1-3 the 90 inverse currents
    lie within 6.0e-7 of the root of the closure miss itself, as a secant
    from 1e-5 either side finds it. A first trial never closes on its own.

    An inverse trial runs only to the branch's turn, and its miss is
    estimated from the turn state. The reported ``closure_error`` of either
    scheme is measured on the full branch at the accepted current, and a
    miss above ``closure_tolerance`` there raises :class:`DesignFailure`.

    The miss is that of the numerical branch, not of the model. At the
    default ``StepControl`` the inverse designs' true miss, re-integrated at
    rtol 1e-12 and atol 0, reaches 5.6e-7 m (median 4.2e-8 m) on perfbench's
    design_mix seed 1, while their reported closure errors stay under
    1e-10 m; the triangular designs' true miss stays under 4e-11 m.

    The shooting budget is fixed at 80 trials per design, repeats included;
    the robustness suite's designs take at most 20, those that fail to
    bracket included. The step control's guard radius and step budget are
    fixed too (see ``StepControl``).
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


def _valid(err) -> bool:
    """Whether a trial's miss is a miss, not :data:`CLOSURE_SENTINEL`."""
    return abs(err) < 0.5 * CLOSURE_SENTINEL


def _coarse_control(control: StepControl) -> StepControl | None:
    """The control of a triangular design's coarse trials: ``control`` with
    rtol and atol both multiplied by min(1000, 1e-8 / rtol), or by 1000 at
    rtol 0; None when that would not loosen it."""
    k = (_COARSE_FACTOR if control.rtol == 0.0
         else min(_COARSE_FACTOR, _COARSE_RTOL / control.rtol))
    if k <= 1.0 or not math.isfinite(control.atol * k):
        return None
    return StepControl(rtol=control.rtol * k, atol=control.atol * k)


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


def _turn_gain(splitting_current, v0, b, x0, deflector_z,
               medium: Medium) -> float:
    """Closure miss (m) per radian by which an inverse branch's turn falls
    short of an exact reversal; see :func:`_turn_trial`."""
    k = analytic.stiffness_k(splitting_current, b, v0, medium)
    # |d theta_s / d b| of the splitting deflection theta_s = (1 - 1/sqrt(k)) pi
    spread = math.pi * (k - 1.0) / (b * k * math.sqrt(k))
    return spread * deflector_z * x0 - deflector_z - x0


def _turn_trial(wires, initial: PacketState, medium: Medium, tau: float,
                control: StepControl, gain: float
                ) -> tuple[float, Trajectory]:
    """One inverse shooting trial, run to the turn: the estimated closure
    miss (m), or :data:`CLOSURE_SENTINEL` when the branch does not turn or
    turns by a right angle or less, which retraces nothing; and the branch
    up to the end of the step that holds the turn. The turn is that step's
    apex, where its vz goes from > 0 to <= 0.

    The estimate takes each encounter as a single-wire scattering joined by
    straight asymptotes. The branch turns at the deflector ``wires[1]``
    (current I) with angular momentum L about it, which that scattering
    conserves, and leaves at pi - phi from its incoming line, with
    phi = pi L / sqrt(L^2 + alpha I^2). Back down the asymptote over the
    deflector height z_d, phi brings the branch phi z_d closer to the
    splitting wire, which then turns it |d theta_s / d b| phi z_d further,
    less phi itself, and the closer passage carries over to the outgoing
    line. Over the last x0 to the launch plane the miss is phi
    (|d theta_s / d b| z_d x0 - z_d - x0), where the bracket is the
    ``gain`` of :func:`_turn_gain`. At the inverse reference this agrees
    with the measured miss of full runs to 1e-3 relative.

    The design shoots on this estimate where it is a straight line. Near
    closure phi ~ pi L / (sqrt(alpha) I). L comes from two torques over the
    flight: the splitting wire's, whose current the scheme fixes, and the
    mirror deflectors', whose force grows as I^2; so L ~ L_s + L_m I^2, and
    I times the miss is a line in I^2. On the first four inverse designs
    of perfbench's design_mix seed 1, miss / (I / I* - I* / I), for root
    I*, stays constant to 4e-6 relative from 0.35 I* to 2 I*.
    """
    traj = simulate(initial, wires, medium, tau * (1.0 + _TIME_MARGIN),
                    control, stop_at_turn=True)
    if not traj.states[-2, 3] > 0.0 > traj.states[-1, 3]:  # never turned
        return CLOSURE_SENTINEL, traj
    turner, end = wires[1], traj.events.apex  # the turn, in the last step
    ang = (end.x - turner.x) * end.vz - (end.z - turner.z) * end.vx
    phi = math.pi * ang / math.hypot(ang, math.sqrt(medium.alpha) * turner.current)
    if abs(phi) >= 0.5 * math.pi:
        return CLOSURE_SENTINEL, traj
    return gain * phi, traj


def _deflector_seed(splitting_current, v0, b, x0, wire_x, wire_z,
                    medium: Medium) -> float:
    """Analytic starting guess for the deflector current.

    Treats the branch after the splitting deflection as its outgoing
    asymptote (offset b on the wire side), reads off the impact parameter
    with respect to the deflector wire and the turn angle needed to head
    back to the launch point, and inverts the single-wire deflection
    formulas.
    """
    k_split = analytic.stiffness_k(splitting_current, b, v0, medium)
    theta_s = analytic.scattering_angle(k_split)
    ux, uz = math.cos(theta_s), math.sin(theta_s)
    # outgoing asymptote passes at distance b on the travel-left of the wire
    px, pz = -uz * b, ux * b
    s = ux * (wire_z - pz) - uz * (wire_x - px)
    b_eff = abs(s)
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


def _shoot(trial, seed: float, budget: int, tolerance: float,
           power: int = 1):
    """Bracket by a scan from the seed, then polish by interpolation.

    ``trial(current)`` returns ``(miss, branch)``; the accepted trial comes
    back as ``(current, miss, branch)``. Each current runs at most once, and
    a repeat counts toward ``budget`` without running again. A trial that
    raises :class:`WireSingularityError` reads as the sentinel.

    Near its root the miss decreases through zero as the deflector current
    grows: too little current leaves the branch over-high, too much slams
    it below the launch height. A trial far from the root can be lost, the
    sentinel case: with too little current an inverse branch runs into its
    deflector, which the seed's walk upward handles, and with too much a
    triangular one can return too late. The scan walks the miss's
    decreasing direction first and falls back to the opposite one, so a
    locally inverted regime still brackets.

    Both phases run on y = I^(power-1) miss against s = I^power, where I
    is the current: at ``power`` 1 the miss against the current, at a
    higher power a line on which y(s) is straight (the inverse scheme's,
    see :func:`_turn_trial`). After the seed and the first scan step, each
    valid trial of the scan's sign is followed by the secant root in
    (s, y) when it lies within the scan's widest step, and by the
    geometric step when it lies further. The scan turns geometric for good
    once a trial's |y| stops falling or a trial is lost. It turns back as
    soon as a valid trial's |y| exceeds that of its start, the first
    returning current from the seed up: that direction leads away from
    the root, so the other one starts at once, and once both have turned
    back the design fails to bracket. A root beyond such a rise is not
    sought. The triangular one there pins the branch to the axis, where it
    bounces off the splitting wire and returns unsplit.

    The polish asks for both bracket ends again, in ascending order, so a
    seed or scan trial can close once it has a neighbour. It then steps
    from its latest trial, an end of the bracket: by the secant through
    the two ends first, then by inverse quadratic interpolation through
    the last three trials. A step is taken only when it lands strictly
    inside the bracket and is under half the step before the last, as in
    Brent's method; otherwise, or when the interpolation divides by zero
    (equal or underflowing y), the polish bisects the bracket in s, and
    the bisection counts as both the last step and the one before it.
    Each trial keeps its exact current. A lost trial reads as a positive
    miss. The polish stops at a zero miss, or once the bracket is within
    1e-12 seed^power + 8.9e-16 |s|, and returns the end with the smaller
    |y|.

    A trial closes when its miss is within ``_ACCEPT_FRACTION * tolerance``
    and the secant step to the root, from the last valid trial at another
    current, is within ``_ACCEPT_STEP`` of the current; so a first trial
    never closes on its own.
    """
    trials = {}  # current -> (miss, branch), in the order the trials ran
    evals = 0

    def failure(message):
        valid = [(c, miss) for c, (miss, _) in trials.items() if _valid(miss)]
        best = min(valid, key=lambda t: abs(t[1]), default=(None, None))
        return DesignFailure(message, best_current=best[0], best_error=best[1])

    def f(current):
        nonlocal evals
        if evals >= budget:
            raise failure("shooting iteration budget exhausted")
        evals += 1
        if current not in trials:
            try:
                trials[current] = trial(current)
            except WireSingularityError:
                # packet swallowed by a wire: invalid trial, same as no return
                trials[current] = (CLOSURE_SENTINEL, None)
        err = trials[current][0]
        logger.debug("shoot: I = %.9e A -> closure error %.6e m", current, err)
        if _valid(err) and abs(err) <= _ACCEPT_FRACTION * tolerance:
            prev = next(((c, miss) for c, (miss, _) in reversed(trials.items())
                         if c != current and _valid(miss)), None)
            # |err / secant slope| <= _ACCEPT_STEP * |current|
            if prev is not None and (
                    abs(err * (current - prev[0]))
                    <= _ACCEPT_STEP * abs(current) * abs(err - prev[1])):
                raise _Closed(current)
        return err

    def line(current, miss):
        return current ** power, current ** (power - 1) * miss

    def walk(widest):
        # steps widest**(1/4), widest**(1/2), then widest: a seed near its
        # root brackets at once, and a lost trial stops the growth for good
        growth = [widest ** 0.5, widest]
        step = widest ** 0.25
        prev_i, prev_e = start_i, start_e
        start_y = abs(line(start_i, start_e)[1])
        secant = True  # until |y| stops falling or a trial is lost
        back = None  # the valid trial before prev, once the secant applies
        for _ in range(40):
            stride = step
            if back is not None:
                (s0, y0), (s1, y1) = line(*back), line(prev_i, prev_e)
                ratio = (s1 - y1 * (s1 - s0) / (y1 - y0)) / s1  # root's s / s1
                if (ratio <= widest ** power if widest > 1.0
                        else ratio >= widest ** power):
                    stride = ratio ** (1.0 / power)
            cur_i = prev_i * stride
            cur_e = f(cur_i)
            if _valid(cur_e) and (cur_e > 0.0) != (prev_e > 0.0):
                return (prev_i, cur_i)
            if _valid(cur_e):
                y = abs(line(cur_i, cur_e)[1])
                if y > start_y:  # walking away from the root
                    return None
                secant = secant and y < abs(line(prev_i, prev_e)[1])
                back = (prev_i, prev_e) if secant else None
                prev_i, prev_e = cur_i, cur_e
                if growth:
                    step = growth.pop(0)
            else:
                # lost the trajectory; shrink toward the valid side
                growth = []
                step = math.sqrt(stride)
                secant, back = False, None
                if abs(step - 1.0) < 1e-3:
                    return None
        return None

    try:
        start_i, start_e = seed, f(seed)
        while not _valid(start_e):
            # sentinel at the seed means under-deflection: walk upward
            start_i *= 2.0
            start_e = f(start_i)
            if start_i > seed * 2.0**16:
                raise failure("could not find a returning trajectory")
        widest = 2.0 if start_e > 0.0 else 0.5
        bracket = walk(widest)
        if bracket is None:
            bracket = walk(1.0 / widest)
        if bracket is None:
            raise failure("failed to bracket a closure root")
        # the polish's (current, s, y) points: both ends asked again, in
        # ascending order, then the better end interpolated from first
        lo, hi = [(c, *line(c, f(c))) for c in sorted(bracket)]
        points = sorted((lo, hi), key=lambda p: -abs(p[2]))
        # the last polish step in s and the one before it, as Brent's method
        # keeps them; both start at the bracket's width
        before = moved = hi[1] - lo[1]
        while True:
            last = points[-1]  # always a bracket end
            far = lo if last is hi else hi
            s2, y2 = last[1:]
            if y2 == 0.0 or abs(far[1] - s2) <= (1e-12 * seed ** power
                                                 + 8.9e-16 * abs(s2)):
                break
            # bisect, unless the interpolation holds; a bisection resets both
            # remembered steps
            step = (far[1] - s2) / 2
            next_before = abs(step)
            try:
                if len(points) == 2:  # secant
                    guess = -y2 * (s2 - far[1]) / (y2 - far[2])
                else:  # inverse quadratic through the last three trials
                    (_, s0, y0), (_, s1, y1) = points[-3:-1]
                    d0, d1 = (y0 - y2) / (s0 - s2), (y1 - y2) / (s1 - s2)
                    guess = -y2 * (y0 * d0 - y1 * d1) / (d0 * d1 * (y0 - y1))
                if lo[1] < s2 + guess < hi[1] and abs(guess) < before / 2:
                    step, next_before = guess, moved
            except ZeroDivisionError:  # equal or underflowing y
                pass
            before, moved = next_before, abs(step)
            current = (s2 + step) ** (1.0 / power)
            points.append((current, *line(current, f(current))))
            if (points[-1][2] > 0.0) == (lo[2] > 0.0):
                lo = points[-1]
            else:
                hi = points[-1]
        current = min(lo, hi, key=lambda p: abs(p[2]))[0]
    except _Closed as closed:
        current = closed.args[0]
    return (current, *trials[current])


def design_trajectories(spec: DesignSpec, medium: Medium | None = None,
                        control: StepControl = DEFAULT_CONTROL
                        ) -> tuple[DesignResult, Trajectory, Trajectory]:
    """Run a design and return ``(result, top_branch, bottom_branch)``."""
    medium = medium if medium is not None else default_medium()
    v0, b, x0, tau = (spec.inputs.v0, spec.inputs.b,
                      spec.inputs.x0, spec.inputs.tau)
    analytic._require_feasible(v0, tau, x0)
    initial = PacketState(x=-x0, z=b, vx=v0, vz=0.0, t=0.0)

    inverse = spec.scheme == "inverse"
    if inverse:
        splitting_current = analytic.inverse_current_ratio(v0, medium) * b
        dx_w, dz_w = -b, v0 * tau / 2.0 - x0
        # the deflector sits on the outgoing asymptote, which leaves no
        # impact parameter to invert: aim at a head-on turning radius of b/50
        seed = (b / 50.0) * v0 / math.sqrt(medium.alpha)
        gain = _turn_gain(splitting_current, v0, b, x0, dz_w, medium)
        # shoot on I miss against I^2, where the turn estimate is a straight
        # line (see _turn_trial). There is no coarse pass: a control even
        # ten times looser swamps the miss read at the turn
        power = 2

        def trial(current):
            return _turn_trial(wires_for(current), initial, medium, tau,
                               control, gain)
    else:
        splitting_current = (
            analytic.triangular_current_ratio(v0, tau, x0, medium) * b)
        dx_w, dz_w = triangular_deflector_position(x0, b, v0, tau)
        seed = _deflector_seed(splitting_current, v0, b, x0, dx_w, dz_w, medium)
        # the miss bends in I^2: on perfbench's design_mix seeds 1-3,
        # shooting in (I^2, miss) costs 19% more step attempts, in
        # (I^2, I miss) 0.1% more
        power = 1
        # Far from the root the miss needs little accuracy, so until the
        # coarse pass ends a trial first runs at the coarse control. With
        # the pass never ended early, the 705 valid coarse misses of
        # design_mix seeds 1-3 lay within 4.4e-9 m of the design-control
        # ones, at least 70 times under b; so a coarse miss of b or more is
        # kept. A smaller one, the sentinel (a coarse run can lose a
        # returning branch) or an integration error runs the trial again at
        # the design's control. The first valid coarse miss under
        # _COARSE_END b ends the pass: the next trial then usually misses by
        # less than b, and would run twice. The accept threshold lies below
        # b, so the accepted trial always comes from a design-control run.
        # b and rtol scale with the geometry, so under atol = 0 the trial
        # sequence does too
        coarse = _coarse_control(control)

        def trial(current):
            nonlocal coarse
            args = (wires_for(current), initial, medium, tau)
            if coarse is not None:
                try:
                    miss, branch = _closure_trial(*args, coarse)
                except (WireSingularityError, StiffnessError):
                    miss = CLOSURE_SENTINEL
                if _valid(miss) and abs(miss) < _COARSE_END * b:
                    coarse = None
                if _valid(miss) and abs(miss) >= b:
                    return miss, branch
                logger.debug("coarse miss %.3e m at I = %.9e A: re-run",
                             miss, current)
            return _closure_trial(*args, control)

    def wires_for(current):
        return (
            Wire(0.0, 0.0, splitting_current),
            Wire(dx_w, dz_w, current),
            Wire(dx_w, -dz_w, current),
        )

    logger.debug("%s seed current: %.6e A", spec.scheme, seed)
    current, miss, top = _shoot(trial, seed, _SHOOT_BUDGET,
                                spec.closure_tolerance, power=power)

    # an accepted triangular trial is the top branch; an inverse trial
    # stopped at the turn, so the top branch continues it to the closure
    wires = wires_for(current)
    if inverse:
        miss, top = _closure_trial(wires, _resumed(initial, top), medium, tau,
                                   control)
    if not _valid(miss):
        raise DesignFailure("converged design lost its closure crossing",
                            best_current=current)
    if abs(miss) > spec.closure_tolerance:
        raise DesignFailure(
            f"measured closure miss |{miss:.3e}| m > "
            f"{spec.closure_tolerance:.3e} m", best_current=current)

    closure = top.events.closure
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

