"""Pure-Python integration kernel (fallback backend).

Mirror of the compiled extension ``wiresplit._kernel``: same Dormand-Prince
5(4) pair, same step controller, same cubic-Hermite dense output and event
bisection, with every floating-point operation in the same order, so both
backends produce identical trajectories. This module is used automatically
when the extension is not built; README's Installation section gives its
measured cost against the extension.

The samples, the launch and then each accepted step, are returned as two
``bytes`` of native doubles, each converted once from a list at the end:
``t`` (n times) and ``states`` (n rows x, z, vx, vz). Beside them,
``events`` holds the event state as native doubles, in the layout that
``integrate`` documents; ``_state`` writes it and ``_unstate`` reads it.
One ``_bisect`` refines every event: at most 80 halvings of the step
fraction [lo, hi] = [0, hi] down to ``EVENT_DT`` seconds, with lo = mid
exactly when ``(g(dense(mid)) > 0.0) == side``. The closure has g = x - x0, the apex
g = vz with side ``vz > 0.0`` at the step's start, a periapsis
g = -((x - xw) vx + (z - zw) vz); else side is true. Every event lies at
its bracket's upper end: time t + hi h, state dense(hi).

The pair runs in Runge-Kutta-Nystrom form, since x' = v holds exactly.
Stage i's position is ``x + h*(c_i*vx + h*sum_l (A^2)_il a_l)`` over the
stage accelerations a_l; the new position is ``x + h*(vx + h*sum_l
(bA)_l a_l)`` and its error ``h*(h*sum_l (eA)_l a_l)``, where e A takes
e_7 b for the FSAL row and the velocity term drops because sum e = 0. In
exact arithmetic this is the pair itself; it only skips the stage
velocities, which the force does not read. The velocities step as in the
pair: ``vx + h*sum_l b_l a_l``, with the error ``h*sum_l e_l a_l``.

The first step carries the packet a tenth of the way to the nearest
powered wire at its launch speed, ``0.1 * d_min / |v|``, and at most the
whole duration, which it is at rest or without a powered wire; a first
step under the step floor starts at the floor, unless the floor exceeds
the duration. A step's error norm uses the scale ``atol + rtol * |value|``
per component. With ``atol = 0`` a component that is exactly 0 has scale
0; then 0/0 counts 0, while any other error counts err/0.0 as IEEE
division gives it (+-inf, or NaN for a NaN error), so the step is
rejected.

Every division follows IEEE rules and none raises: at rest, the first
step's 0.1 d_min / 0 counts inf. The force divides by r2 * r2 only for
r2 > guard_radius^2 * 1e-6, which stays positive for a guard_radius of
(2^-1075 / 1e-12)^(1/4) = 1.3e-78 m or more; a direct caller must pass at
least that, and ``simulate`` passes ``field.GUARD_RADIUS`` (1 nm). The
potential divides by r2 unguarded, and r2 = 0 gives alpha I^2 / 2 / 0 as
IEEE does.

State vector: (x, z, vx, vz). The force is the superposition of
independent single-wire repulsions, a = sum_i alpha I_i^2 / r_i^3 * rhat_i,
so each deflection is a clean single-wire scattering. Its potential,
u = sum_i alpha I_i^2 / (2 r_i^2), is evaluated only in the kernels. The
energy drift in ``events`` is max |E - E0| over the sample rows, divided by
|E0| (by 1 when E0 = 0), of the specific energy E = 0.5 (vx^2 + vz^2) + u,
and a NaN E makes the drift NaN. Each row's u is summed in the loop over
the wires that already measures that row, the launch loop for row 0 and
the periapsis loop at the end of each step for every later row: from 0.0,
it adds ``((0.5 * alpha) * I) * I / r2`` per powered wire in wire order,
with the r2 of that row's periapsis distance. The inter-wire cross terms
of the full field energy alpha/2 |S|^2 (``wiresplit.field``) are left out,
as the designs assume.
"""

import math
from array import array
from itertools import chain

STATUS_OK = 0
STATUS_SINGULARITY = 1
STATUS_UNDERFLOW = 2
STATUS_MAXSTEPS = 3

# stop modes: run the whole duration, or end at the closure or at the turn
STOP_NONE = 0
STOP_CLOSURE = 1
STOP_TURN = 2

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_EPS = 2.220446049250313e-16
_NAN = float("nan")
_INF = float("inf")

EVENT_DT = 1e-12  # event bisection resolution, s


def _dense(step, theta):
    """The cubic Hermite interpolant of an accepted ``step`` at the step
    fraction theta: the state (x, z, vx, vz). ``step`` is (h, x, z, vx, vz,
    ax, az, x_new, z_new, vx_new, vz_new, ax_new, az_new), the step's size,
    its start and end states and their accelerations; the velocities are
    the positions' derivatives."""
    h, x, z, vx, vz, ax, az, xn, zn, vxn, vzn, axn, azn = step
    om = 1.0 - theta
    h00 = (1.0 + 2.0 * theta) * om * om
    h10 = theta * om * om
    h01 = theta * theta * (3.0 - 2.0 * theta)
    h11 = theta * theta * (theta - 1.0)
    return (
        h00 * x + h10 * h * vx + h01 * xn + h11 * h * vxn,
        h00 * z + h10 * h * vz + h01 * zn + h11 * h * vzn,
        h00 * vx + h10 * h * ax + h01 * vxn + h11 * h * axn,
        h00 * vz + h10 * h * az + h01 * vzn + h11 * h * azn,
    )


# event functions g(s, p) of a dense state s for _bisect: the closure (p is
# the launch x0), the apex, and a periapsis (p is the wire's (x, z, ...))
def _g_closure(s, x0):
    return s[0] - x0


def _g_apex(s, p):
    return s[3]


def _g_periapsis(s, w):
    return -((s[0] - w[0]) * s[2] + (s[1] - w[1]) * s[3])


def _bisect(step, g, p, side, hi):
    """The event's step fraction in the accepted ``step`` (see
    :func:`_dense`), the upper end of its bracket within [0, hi]; see the
    module docstring."""
    h = step[0]
    lo = 0.0
    for _ in range(80):
        if (hi - lo) * h <= EVENT_DT:
            break
        mid = 0.5 * (lo + hi)
        if (g(_dense(step, mid), p) > 0.0) == side:
            lo = mid
        else:
            hi = mid
    return hi


def _state(apex, drift, min_step, peri_dist, peri_state, closure=()):
    """The event state as the bytes of its native doubles, in the layout of
    :func:`integrate`'s ``events``."""
    return array("d", [*apex, drift, min_step, *peri_dist,
                       *chain.from_iterable(peri_state), *closure]).tobytes()


def _unstate(buf, n):
    """``(apex, drift, min_step, periapsis distances, periapsis states,
    closure)`` of the event state in the bytes-like ``buf`` for n wires,
    as :func:`_state` writes it; the closure is None when ``buf`` ends
    before it. The distances and states are lists, the rest tuples."""
    v = memoryview(buf).cast("d").tolist()
    states = 7 + n
    return (tuple(v[:5]), v[5], v[6], v[7:states],
            [tuple(v[states + 5 * i:states + 5 * i + 5]) for i in range(n)],
            tuple(v[states + 5 * n:]) or None)


def integrate(x0, z0, vx0, vz0, t0, duration, wires, alpha,
              rtol, atol, guard_radius, max_steps, stop_mode, resume=None, /):
    """Integrate one packet through the wire array.

    Every argument is positional only, as in the compiled twin.

    ``wires`` is a bytes-like buffer of native doubles, (x, z, current) per
    wire; a length that is not a whole number of triples raises
    ``ValueError``, and an object that is no bytes-like buffer
    ``TypeError``. Returns a plain dict; the integrator module wraps it.
    Events -- apex of |z|, per-wire periapsis, first re-crossing of the
    launch plane moving in -x -- are located by sign-change bracketing on
    the dense output and refined by bisection to ``EVENT_DT`` seconds. The
    first step is a tenth of the launch distance to the nearest powered
    wire over the launch speed, at most ``duration`` (module docstring).

    The result's ``events`` is one ``bytes`` of native doubles: the apex
    (t, x, z, vx, vz), the energy drift divided by |E0|, ``min_step``,
    each wire's periapsis distance (n values) and periapsis state (t, x, z,
    vx, vz; 5 n values), then the closure (t, x, z, vx, vz) only when there
    is one: 7 + 6 n doubles without a closure, 12 + 6 n with one.

    ``stop_mode`` ends the run early: ``STOP_CLOSURE`` at the closure,
    whose dense state is then the last row and ends the step's events, and
    ``STOP_TURN`` after the turn step, the first accepted step where vz goes
    from > 0 to < 0, which is not cut. Any other value, such as
    ``STOP_NONE``, runs the whole duration.

    A turn-mode run that has not closed by the end of its turn step also
    returns ``resume``, a snapshot of the stepping state at the end of that
    step: one ``bytes`` of 15 + 6 n native doubles for n wires. They are
    t, x, z, vx, vz of the last row, their derivative's ax and az, the next
    step's h, then the event state in the layout of ``events``, without a
    closure and with the drift before its division by |E0|. Every other run
    returns None. With the same other arguments and the snapshot as
    ``resume``, a run goes on from there as the fresh run does: its rows
    are the fresh run's after the turn run's, bitwise, and its counters
    count only its own work, against ``max_steps`` too, so with the turn
    run's they add up to the fresh run's. A snapshot of any other length raises ``ValueError``, and
    an object that is no bytes-like buffer ``TypeError``.
    """
    w = memoryview(wires).cast("B")
    if len(w) % 24:
        raise ValueError("wires must be (x, z, current) triples")
    w = w.cast("d").tolist()
    n = len(w) // 3
    alpha = float(alpha)
    guard2 = guard_radius * guard_radius
    tiny_r2 = guard2 * 1e-6
    sqrt = math.sqrt
    abs_ = abs

    n_rhs = 0

    # (x, z, alpha I^2) of each wire that carries current, in wire order,
    # and per wire (x, z, its potential's ((0.5 alpha) I) I), None if dead
    powered = []
    wire_u = []
    for i in range(n):
        xw, zw, current = w[3 * i:3 * i + 3]
        if current != 0.0:
            powered.append((xw, zw, alpha * current * current))
            wire_u.append((xw, zw, 0.5 * alpha * current * current))
        else:
            wire_u.append((xw, zw, None))

    def accel(px, pz):
        ax = 0.0
        az = 0.0
        for xw, zw, k in powered:
            dx = px - xw
            dz = pz - zw
            r2 = dx * dx + dz * dz
            if r2 <= tiny_r2:
                return (_NAN, _NAN)
            c = k / (r2 * r2)
            ax += c * dx
            az += c * dz
        return (ax, az)

    t = float(t0)
    t_bound = t0 + duration
    abs_t_bound = abs_(t_bound)
    x = float(x0)
    z = float(z0)
    vx = float(vx0)
    vz = float(vz0)

    # event accumulators, the launch row's potential u (c / 0 is IEEE's)
    # and the distance d_min to the nearest powered wire
    apex = (t, x, z, vx, vz)
    peri_dist = [0.0] * n
    peri_state = [None] * n
    u = 0.0
    d_min = _INF
    for i in range(n):
        xw, zw, c = wire_u[i]
        dx = x - xw
        dz = z - zw
        r2 = dx * dx + dz * dz
        peri_dist[i] = sqrt(r2)
        peri_state[i] = (t, x, z, vx, vz)
        if c is not None:
            u += c / r2 if r2 != 0.0 else c * _INF
            if peri_dist[i] < d_min:
                d_min = peri_dist[i]
    closure = None

    # one sample per row: its time, and its state (x, z, vx, vz)
    ts = [t]
    states = [x, z, vx, vz]
    # specific energy 0.5 (vx^2 + vz^2) + u of the launch row, and the
    # largest |E - E0| over the rows so far (NaN once any is NaN)
    e0 = 0.5 * (vx * vx + vz * vz) + u
    drift = abs_(e0 - e0)

    status = STATUS_OK
    fail_wire = -1
    n_steps = 0
    n_rejected = 0
    min_step = duration

    if resume is None:
        # the first step carries the packet a tenth of the way to the
        # nearest powered wire at its launch speed, and at most the whole
        # duration (so the whole duration at rest or without a powered wire)
        k1vx, k1vz = accel(x, z)
        n_rhs += 1
        speed = sqrt(vx * vx + vz * vz)
        h = 0.1 * d_min / speed if speed != 0.0 else _INF
        if not (h < duration):
            h = duration
        # a first step under the step floor (a launch very near a wire, or
        # late in time) starts at the floor instead, unless the floor
        # exceeds the whole duration
        h_floor = 16.0 * _EPS * (abs_(t) if abs_(t) > abs_t_bound else abs_t_bound)
        if h < h_floor < duration:
            h = h_floor
    else:
        # take up a turn-mode run after its turn step, whose rows are the
        # turn run's
        c = memoryview(resume).cast("B")
        if len(c) != 8 * (15 + 6 * n):
            raise ValueError("continuation does not fit this run")
        t, x, z, vx, vz, k1vx, k1vz, h = c[:64].cast("d").tolist()
        apex, drift, min_step, peri_dist, peri_state, _ = _unstate(c[64:], n)
        ts, states = [], []
    cont = None  # this run's continuation
    turn_mode = stop_mode == STOP_TURN
    # each wire's radial product (x - xw) vx + (z - zw) vz at the step's
    # start; the step's end carries it to the next step
    radial = [0.0] * n
    for i in range(n):
        xw, zw, _ = wire_u[i]
        radial[i] = (x - xw) * vx + (z - zw) * vz

    # The weights of the module docstring's form, c = A 1, A^2, b A, b, e A
    # and e, are written in place, such as 3.0 / 10.0 for c_3, which CPython
    # folds into one constant of the same double; zero weights are left out.
    # k1vx, k1vz and k7vx, k7vz are the accelerations at the step's start
    # and end.
    while True:
        if t >= t_bound:
            break
        if n_steps + n_rejected >= max_steps:
            status = STATUS_MAXSTEPS
            break
        abs_t = abs_(t)
        h_floor = 16.0 * _EPS * (abs_t if abs_t > abs_t_bound else abs_t_bound)
        if h < h_floor:
            status = STATUS_UNDERFLOW
            break
        last = False
        if t + h >= t_bound:
            h = t_bound - t
            last = True

        # stages 2..6, stage i at x + h (c_i v + h sum_l (A^2)_il k_l) with
        # k_l stage l's acceleration (klvx, klvz)
        xs2 = x + h * (0.2 * vx)
        zs2 = z + h * (0.2 * vz)
        k2vx, k2vz = accel(xs2, zs2)

        xs3 = x + h * (3.0 / 10.0 * vx + h * (9.0 / 200.0 * k1vx))
        zs3 = z + h * (3.0 / 10.0 * vz + h * (9.0 / 200.0 * k1vz))
        k3vx, k3vz = accel(xs3, zs3)

        xs4 = x + h * (4.0 / 5.0 * vx + h * (-12.0 / 25.0 * k1vx + 4.0 / 5.0 * k2vx))
        zs4 = z + h * (4.0 / 5.0 * vz + h * (-12.0 / 25.0 * k1vz + 4.0 / 5.0 * k2vz))
        k4vx, k4vz = accel(xs4, zs4)

        xs5 = x + h * (8.0 / 9.0 * vx + h * (-12248.0 / 6561.0 * k1vx + 7208.0 / 2187.0 * k2vx
                                             - 6784.0 / 6561.0 * k3vx))
        zs5 = z + h * (8.0 / 9.0 * vz + h * (-12248.0 / 6561.0 * k1vz + 7208.0 / 2187.0 * k2vz
                                             - 6784.0 / 6561.0 * k3vz))
        k5vx, k5vz = accel(xs5, zs5)

        xs6 = x + h * (vx + h * (-533.0 / 264.0 * k1vx + 91.0 / 22.0 * k2vx - 56.0 / 33.0 * k3vx
                                 + 7.0 / 88.0 * k4vx))
        zs6 = z + h * (vz + h * (-533.0 / 264.0 * k1vz + 91.0 / 22.0 * k2vz - 56.0 / 33.0 * k3vz
                                 + 7.0 / 88.0 * k4vz))
        k6vx, k6vz = accel(xs6, zs6)

        n_rhs += 6

        # 5th-order solution, positions with the weights (bA)_l; its
        # acceleration is the FSAL stage k7
        x_new = x + h * (vx + h * (35.0 / 384.0 * k1vx + 50.0 / 159.0 * k3vx
                                   + 25.0 / 192.0 * k4vx - 243.0 / 6784.0 * k5vx))
        z_new = z + h * (vz + h * (35.0 / 384.0 * k1vz + 50.0 / 159.0 * k3vz
                                   + 25.0 / 192.0 * k4vz - 243.0 / 6784.0 * k5vz))
        vx_new = vx + h * (35.0 / 384.0 * k1vx + 500.0 / 1113.0 * k3vx + 125.0 / 192.0 * k4vx
                           - 2187.0 / 6784.0 * k5vx + 11.0 / 84.0 * k6vx)
        vz_new = vz + h * (35.0 / 384.0 * k1vz + 500.0 / 1113.0 * k3vz + 125.0 / 192.0 * k4vz
                           - 2187.0 / 6784.0 * k5vz + 11.0 / 84.0 * k6vz)
        k7vx, k7vz = accel(x_new, z_new)

        # error estimates; the positions' weights (eA)_l take e_7 b_l for
        # the FSAL row, and their velocity term sum_i e_i v is 0 (sum e = 0)
        err_x = h * (h * (611.0 / 230400.0 * k1vx - 514.0 / 83475.0 * k3vx
                          + 391.0 / 38400.0 * k4vx - 4617.0 / 1356800.0 * k5vx
                          - 11.0 / 3360.0 * k6vx))
        err_z = h * (h * (611.0 / 230400.0 * k1vz - 514.0 / 83475.0 * k3vz
                          + 391.0 / 38400.0 * k4vz - 4617.0 / 1356800.0 * k5vz
                          - 11.0 / 3360.0 * k6vz))
        err_vx = h * (71.0 / 57600.0 * k1vx - 71.0 / 16695.0 * k3vx + 71.0 / 1920.0 * k4vx
                      - 17253.0 / 339200.0 * k5vx + 22.0 / 525.0 * k6vx - 1.0 / 40.0 * k7vx)
        err_vz = h * (71.0 / 57600.0 * k1vz - 71.0 / 16695.0 * k3vz + 71.0 / 1920.0 * k4vz
                      - 17253.0 / 339200.0 * k5vz + 22.0 / 525.0 * k6vz - 1.0 / 40.0 * k7vz)

        a0 = abs_(x)
        a1 = abs_(x_new)
        sc_x = atol + rtol * (a0 if a0 > a1 else a1)
        a0 = abs_(z)
        a1 = abs_(z_new)
        sc_z = atol + rtol * (a0 if a0 > a1 else a1)
        a0 = abs_(vx)
        a1 = abs_(vx_new)
        sc_vx = atol + rtol * (a0 if a0 > a1 else a1)
        a0 = abs_(vz)
        a1 = abs_(vz_new)
        sc_vz = atol + rtol * (a0 if a0 > a1 else a1)
        # over a zero scale: 0/0 counts 0, any other error is err/0.0 under
        # IEEE rules (+-inf, or NaN for NaN), so the step is rejected
        q0 = err_x / sc_x if sc_x != 0.0 else (0.0 if err_x == 0.0 else err_x * _INF)
        q1 = err_z / sc_z if sc_z != 0.0 else (0.0 if err_z == 0.0 else err_z * _INF)
        q2 = err_vx / sc_vx if sc_vx != 0.0 else (0.0 if err_vx == 0.0 else err_vx * _INF)
        q3 = err_vz / sc_vz if sc_vz != 0.0 else (0.0 if err_vz == 0.0 else err_vz * _INF)
        err_norm = sqrt(0.25 * (q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3))

        if not (err_norm <= 1.0):
            n_rejected += 1
            if err_norm != err_norm:  # NaN: a stage hit a pole
                fac = 0.1
            else:
                fac = _SAFETY * err_norm**-0.2
                if fac < _MIN_FACTOR:
                    fac = _MIN_FACTOR
            h = h * fac
            continue

        # --- accepted ---
        t_new = t_bound if last else t + h
        # the step for _dense, made only when an event's bracket fires
        step = None

        theta_end = 1.0
        x_end = x_new
        z_end = z_new
        vx_end = vx_new
        vz_end = vz_new
        t_end = t_new
        # the turn, the first step along which vz goes from > 0 to < 0,
        # ends a turn-mode run after the whole step
        ends = turn_mode and vz > 0.0 and vz_end < 0.0

        # closure: first crossing of the launch plane x = x0 moving in -x;
        # a closure-mode run ends there, cut
        if closure is None and x - x0 > 0.0 and x_end - x0 <= 0.0:
            step = (h, x, z, vx, vz, k1vx, k1vz, x_new, z_new, vx_new, vz_new, k7vx, k7vz)
            hi = _bisect(step, _g_closure, x0, True, theta_end)
            xc, zc, vxc, vzc = _dense(step, hi)
            if vxc < 0.0:
                closure = (t + hi * h, xc, zc, vxc, vzc)
                if stop_mode == STOP_CLOSURE:
                    theta_end = hi
                    t_end, x_end, z_end, vx_end, vz_end = closure
                    ends = True

        # apex: interior extremum of z (vz sign change)
        if vz * vz_end < 0.0:
            step = step or (h, x, z, vx, vz, k1vx, k1vz, x_new, z_new, vx_new, vz_new, k7vx, k7vz)
            hi = _bisect(step, _g_apex, None, vz > 0.0, theta_end)
            xa, za, vxa, vza = _dense(step, hi)
            if abs_(za) > abs_(apex[2]):
                apex = (t + hi * h, xa, za, vxa, vza)

        # per-wire periapsis: radial speed changes sign - -> +; the end row's
        # distance to each wire also gives its potential u
        u = 0.0
        for i in range(n):
            wire = wire_u[i]
            xw, zw, c = wire
            dx1 = x_end - xw
            dz1 = z_end - zw
            g1 = dx1 * vx_end + dz1 * vz_end
            if radial[i] < 0.0 and g1 >= 0.0:
                step = step or (h, x, z, vx, vz, k1vx, k1vz, x_new, z_new, vx_new, vz_new,
                                k7vx, k7vz)
                hi = _bisect(step, _g_periapsis, wire, True, theta_end)
                xp, zp, vxp, vzp = _dense(step, hi)
                dxp = xp - xw
                dzp = zp - zw
                dist = sqrt(dxp * dxp + dzp * dzp)
                if dist < peri_dist[i]:
                    peri_dist[i] = dist
                    peri_state[i] = (t + hi * h, xp, zp, vxp, vzp)
                if c is not None and dist * dist <= guard2:
                    status = STATUS_SINGULARITY
                    fail_wire = i
            radial[i] = g1
            r2 = dx1 * dx1 + dz1 * dz1
            d_end = sqrt(r2)
            if d_end < peri_dist[i]:
                peri_dist[i] = d_end
                peri_state[i] = (t_end, x_end, z_end, vx_end, vz_end)
            if c is not None:
                u += c / r2 if r2 != 0.0 else c * _INF
                if d_end * d_end <= guard2:
                    status = STATUS_SINGULARITY
                    fail_wire = i

        ts.append(t_end)
        states += (x_end, z_end, vx_end, vz_end)
        d = abs_(0.5 * (vx_end * vx_end + vz_end * vz_end) + u - e0)
        if d > drift or d != d:
            drift = d
        n_steps += 1
        if h < min_step:
            min_step = h

        if status == STATUS_SINGULARITY:
            break

        t = t_end
        x = x_end
        z = z_end
        vx = vx_end
        vz = vz_end
        k1vx = k7vx
        k1vz = k7vz

        if err_norm == 0.0:
            fac = _MAX_FACTOR
        else:
            fac = _SAFETY * err_norm**-0.2
            if fac > _MAX_FACTOR:
                fac = _MAX_FACTOR
        h = h * fac
        if ends:
            if closure is None:  # a turn-mode run that has not closed
                cont = (array("d", (t, x, z, vx, vz, k1vx, k1vz, h)).tobytes()
                        + _state(apex, drift, min_step, peri_dist, peri_state))
            break

    # trajectory endpoints compete for the apex
    if abs_(z) > abs_(apex[2]):
        apex = (t, x, z, vx, vz)

    return {
        "status": status,
        "fail_wire": fail_wire,
        "t": array("d", ts).tobytes(),
        "states": array("d", states).tobytes(),
        "events": _state(apex, drift / (abs_(e0) if e0 != 0.0 else 1.0),
                         min_step, peri_dist, peri_state, closure or ()),
        "n_steps": n_steps,
        "n_rejected": n_rejected,
        "n_rhs": n_rhs,
        "resume": cont,
    }
