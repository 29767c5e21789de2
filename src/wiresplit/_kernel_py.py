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
g = -((x - xw) vx + (z - zw) vz); else side is true.

Error norms use the scale ``atol + rtol * |value|`` per component. With
``atol = 0`` a component that is exactly 0 has scale 0; it counts 0 in the
initial-step heuristic's norms, and in a step's error norm 0/0 counts 0
while any other error counts err/0.0 as IEEE division gives it (+-inf, or
NaN for a NaN error), so the step is rejected.

Every division follows IEEE rules and none raises. The only divisor that
can be 0 unguarded is the initial-step heuristic's h0, for example when
atol = 0 and a launch coordinate is near 1e-300, so that d1 is inf. Then
d2 = rms/h0 is inf (NaN for rms = 0), the first step
min(100 h0, h1, duration) is 0, and it falls back to ``duration * 1e-6``.
The force divides by r2 * r2 only for r2 > guard_radius^2 * 1e-6, which
stays positive for a guard_radius of (2^-1075 / 1e-12)^(1/4) = 1.3e-78 m or
more; a direct caller must pass at least that, and ``simulate`` passes
``field.GUARD_RADIUS`` (1 nm). The potential divides by r2 unguarded, and
r2 = 0 gives alpha I^2 / 2 / 0 as IEEE does.

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

# Dormand-Prince 5(4) tableau
_A21 = 0.2
_A31 = 3.0 / 40.0
_A32 = 9.0 / 40.0
_A41 = 44.0 / 45.0
_A42 = -56.0 / 15.0
_A43 = 32.0 / 9.0
_A51 = 19372.0 / 6561.0
_A52 = -25360.0 / 2187.0
_A53 = 64448.0 / 6561.0
_A54 = -212.0 / 729.0
_A61 = 9017.0 / 3168.0
_A62 = -355.0 / 33.0
_A63 = 46732.0 / 5247.0
_A64 = 49.0 / 176.0
_A65 = -5103.0 / 18656.0
_B1 = 35.0 / 384.0
_B3 = 500.0 / 1113.0
_B4 = 125.0 / 192.0
_B5 = -2187.0 / 6784.0
_B6 = 11.0 / 84.0
# error = 5th-order minus embedded 4th-order weights
_E1 = 71.0 / 57600.0
_E3 = -71.0 / 16695.0
_E4 = 71.0 / 1920.0
_E5 = -17253.0 / 339200.0
_E6 = 22.0 / 525.0
_E7 = -1.0 / 40.0

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_EPS = 2.220446049250313e-16
_NAN = float("nan")
_INF = float("inf")

EVENT_DT = 1e-12  # event bisection resolution, s


def _bisect(dense, g, side, hi, h):
    """The event bracket ``(lo, hi)`` within [0, hi]; see the module docstring."""
    lo = 0.0
    for _ in range(80):
        if (hi - lo) * h <= EVENT_DT:
            break
        mid = 0.5 * (lo + hi)
        if (g(dense(mid)) > 0.0) == side:
            lo = mid
        else:
            hi = mid
    return lo, hi


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
              rtol, atol, guard_radius, max_steps, stop_mode, resume=None):
    """Integrate one packet through the wire array.

    ``wires`` is a bytes-like buffer of native doubles, (x, z, current) per
    wire; a length that is not a whole number of triples raises
    ``ValueError``, and an object that is no bytes-like buffer
    ``TypeError``. Returns a plain dict; the integrator module wraps it.
    Events -- apex of |z|, per-wire periapsis, first re-crossing of the
    launch plane moving in -x -- are located by sign-change bracketing on
    the dense output and refined by bisection to ``EVENT_DT`` seconds.

    The result's ``events`` is one ``bytes`` of native doubles: the apex
    (t, x, z, vx, vz), the energy drift divided by |E0|, ``min_step``,
    each wire's periapsis distance (n values) and periapsis state (t, x, z,
    vx, vz; 5 n values), then the closure (t, x, z, vx, vz) only when there
    is one: 7 + 6 n doubles without a closure, 12 + 6 n with one.

    ``stop_mode`` ends the run early: ``STOP_CLOSURE`` at the closure,
    ``STOP_TURN`` in the first accepted step where vz goes from > 0 to < 0.
    The last row is then the dense state at the bisected bracket's hi, and
    the events of that step are found up to it. Any other value, such as
    ``STOP_NONE``, runs the whole duration.

    A turn-mode run whose closure did not come before its turn step also
    returns ``resume``, a snapshot of the stepping state at the start of
    that step as tried: one ``bytes`` of 15 + 6 n native doubles for n
    wires. They are t, x, z, vx, vz of the step's start row, the first
    stage's ax and az, h, then the event state in the layout of
    ``events``, without a closure and with the drift before its division
    by |E0|. Every other run returns None. With the same other arguments,
    ``resume=snapshot`` re-takes that step whole and runs on. Its rows are
    the fresh run's after the start row, bitwise, and its counters count
    only its own work, against ``max_steps`` too. A snapshot of any other
    length raises ``ValueError``, and an object that is no bytes-like
    buffer ``TypeError``.
    """
    w = memoryview(wires).cast("B")
    if len(w) % 24:
        raise ValueError("wires must be (x, z, current) triples")
    w = w.cast("d").tolist()
    wx, wz, wi = w[0::3], w[1::3], w[2::3]
    n = len(wi)
    alpha = float(alpha)
    guard2 = guard_radius * guard_radius
    tiny_r2 = guard2 * 1e-6
    sqrt = math.sqrt

    n_rhs = 0

    # (x, z, alpha I^2) of each wire that carries current, in wire order
    powered = tuple((wx[i], wz[i], alpha * wi[i] * wi[i])
                    for i in range(n) if wi[i] != 0.0)

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
    x = float(x0)
    z = float(z0)
    vx = float(vx0)
    vz = float(vz0)

    # event accumulators, and the launch row's potential u (c / 0 is IEEE's)
    apex = (t, x, z, vx, vz)
    peri_dist = [0.0] * n
    peri_state = [None] * n
    u = 0.0
    for i in range(n):
        dx = x - wx[i]
        dz = z - wz[i]
        r2 = dx * dx + dz * dz
        peri_dist[i] = sqrt(r2)
        peri_state[i] = (t, x, z, vx, vz)
        if wi[i] != 0.0:
            c = 0.5 * alpha * wi[i] * wi[i]
            u += c / r2 if r2 != 0.0 else c * _INF
    closure = None

    # one sample per row: its time, and its state (x, z, vx, vz)
    ts = [t]
    states = [x, z, vx, vz]
    # specific energy 0.5 (vx^2 + vz^2) + u of the launch row, and the
    # largest |E - E0| over the rows so far (NaN once any is NaN)
    e0 = 0.5 * (vx * vx + vz * vz) + u
    drift = abs(e0 - e0)

    status = STATUS_OK
    fail_wire = -1
    n_steps = 0
    n_rejected = 0
    min_step = duration

    if resume is None:
        # initial step size (Hairer-style heuristic); a component whose
        # scale is exactly 0 (atol = 0 and the value 0) counts 0 in the
        # norms d0, d1 and d2
        y = (x, z, vx, vz)
        k1 = (vx, vz) + accel(x, z)
        n_rhs += 1
        sc = [atol + rtol * abs(v) for v in y]

        def rms(v):
            q = [v[c] / sc[c] if sc[c] != 0.0 else 0.0 for c in range(4)]
            return sqrt(0.25 * (q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]))

        d0 = rms(y)
        d1 = rms(k1)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        if h0 > duration:
            h0 = duration
        ys = [y[c] + h0 * k1[c] for c in range(4)]
        k2 = (ys[2], ys[3]) + accel(ys[0], ys[1])
        n_rhs += 1
        rms2 = rms([k2[c] - k1[c] for c in range(4)])
        d2 = rms2 / h0 if h0 != 0.0 else rms2 * _INF
        dm = d1 if d1 > d2 else d2
        if dm <= 1e-15:
            h1 = h0 * 1e-3 if h0 * 1e-3 > 1e-6 else 1e-6
        else:
            h1 = (0.01 / dm) ** 0.2
        h = min(100.0 * h0, h1, duration)
        if not (h > 0.0):
            h = duration * 1e-6
        # a first step under the step floor (a tiny nonzero component's
        # tiny scale at atol = 0) starts at the floor instead, unless the
        # floor exceeds the whole duration
        h_floor = 16.0 * _EPS * (abs(t) if abs(t) > abs(t_bound) else abs(t_bound))
        if h < h_floor < duration:
            h = h_floor
        k1x, k1z, k1vx, k1vz = k1
    else:
        # take up a turn-mode run at the start of its turn step; the rows
        # up to that step's start are the turn run's
        c = memoryview(resume).cast("B")
        if len(c) != 8 * (15 + 6 * n):
            raise ValueError("continuation does not fit this run")
        t, x, z, vx, vz, k1vx, k1vz, h = c[:64].cast("d").tolist()
        k1x, k1z = vx, vz
        apex, drift, min_step, peri_dist, peri_state, _ = _unstate(c[64:], n)
        ts, states = [], []
    cont = None  # this run's continuation

    while True:
        if t >= t_bound:
            break
        if n_steps + n_rejected >= max_steps:
            status = STATUS_MAXSTEPS
            break
        h_floor = 16.0 * _EPS * (abs(t) if abs(t) > abs(t_bound) else abs(t_bound))
        if h < h_floor:
            status = STATUS_UNDERFLOW
            break
        h_try = h  # before the cut to the end of the run
        last = False
        if t + h >= t_bound:
            h = t_bound - t
            last = True

        # stages 2..6
        xs2 = x + h * (_A21 * k1x)
        zs2 = z + h * (_A21 * k1z)
        k2x = vx + h * (_A21 * k1vx)
        k2z = vz + h * (_A21 * k1vz)
        k2vx, k2vz = accel(xs2, zs2)

        xs3 = x + h * (_A31 * k1x + _A32 * k2x)
        zs3 = z + h * (_A31 * k1z + _A32 * k2z)
        k3x = vx + h * (_A31 * k1vx + _A32 * k2vx)
        k3z = vz + h * (_A31 * k1vz + _A32 * k2vz)
        k3vx, k3vz = accel(xs3, zs3)

        xs4 = x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
        zs4 = z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z)
        k4x = vx + h * (_A41 * k1vx + _A42 * k2vx + _A43 * k3vx)
        k4z = vz + h * (_A41 * k1vz + _A42 * k2vz + _A43 * k3vz)
        k4vx, k4vz = accel(xs4, zs4)

        xs5 = x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
        zs5 = z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z)
        k5x = vx + h * (_A51 * k1vx + _A52 * k2vx + _A53 * k3vx + _A54 * k4vx)
        k5z = vz + h * (_A51 * k1vz + _A52 * k2vz + _A53 * k3vz + _A54 * k4vz)
        k5vx, k5vz = accel(xs5, zs5)

        xs6 = x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x)
        zs6 = z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z)
        k6x = vx + h * (_A61 * k1vx + _A62 * k2vx + _A63 * k3vx + _A64 * k4vx + _A65 * k5vx)
        k6z = vz + h * (_A61 * k1vz + _A62 * k2vz + _A63 * k3vz + _A64 * k4vz + _A65 * k5vz)
        k6vx, k6vz = accel(xs6, zs6)

        n_rhs += 6

        # 5th-order solution; its derivative is the FSAL stage k7
        x_new = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
        z_new = z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        vx_new = vx + h * (_B1 * k1vx + _B3 * k3vx + _B4 * k4vx + _B5 * k5vx + _B6 * k6vx)
        vz_new = vz + h * (_B1 * k1vz + _B3 * k3vz + _B4 * k4vz + _B5 * k5vz + _B6 * k6vz)
        k7x = vx_new
        k7z = vz_new
        k7vx, k7vz = accel(x_new, z_new)

        err_x = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        err_z = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
        err_vx = h * (_E1 * k1vx + _E3 * k3vx + _E4 * k4vx + _E5 * k5vx + _E6 * k6vx + _E7 * k7vx)
        err_vz = h * (_E1 * k1vz + _E3 * k3vz + _E4 * k4vz + _E5 * k5vz + _E6 * k6vz + _E7 * k7vz)

        sc_x = atol + rtol * (abs(x) if abs(x) > abs(x_new) else abs(x_new))
        sc_z = atol + rtol * (abs(z) if abs(z) > abs(z_new) else abs(z_new))
        sc_vx = atol + rtol * (abs(vx) if abs(vx) > abs(vx_new) else abs(vx_new))
        sc_vz = atol + rtol * (abs(vz) if abs(vz) > abs(vz_new) else abs(vz_new))
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

        def dense(theta):
            om = 1.0 - theta
            h00 = (1.0 + 2.0 * theta) * om * om
            h10 = theta * om * om
            h01 = theta * theta * (3.0 - 2.0 * theta)
            h11 = theta * theta * (theta - 1.0)
            return (
                h00 * x + h10 * h * k1x + h01 * x_new + h11 * h * k7x,
                h00 * z + h10 * h * k1z + h01 * z_new + h11 * h * k7z,
                h00 * vx + h10 * h * k1vx + h01 * vx_new + h11 * h * k7vx,
                h00 * vz + h10 * h * k1vz + h01 * vz_new + h11 * h * k7vz,
            )

        theta_end = 1.0
        x_end = x_new
        z_end = z_new
        vx_end = vx_new
        vz_end = vz_new
        t_end = t_new
        truncated = False

        # turn: the first vz sign change from > 0 to < 0 ends a turn-mode
        # run, and its step's events are found up to the turn
        if stop_mode == STOP_TURN and vz > 0.0 and vz_end < 0.0:
            if closure is None:  # else a closure-mode run ended before
                cont = (array("d", (t, x, z, vx, vz, k1vx, k1vz, h_try)).tobytes()
                        + _state(apex, drift, min_step, peri_dist, peri_state))
            lo, hi = _bisect(dense, lambda s: s[3], True, 1.0, h)
            theta_end = hi
            t_end = t + hi * h
            x_end, z_end, vx_end, vz_end = dense(hi)
            truncated = True

        # closure: first crossing of the launch plane x = x0 moving in -x
        if closure is None and x - x0 > 0.0 and x_end - x0 <= 0.0:
            lo, hi = _bisect(dense, lambda s: s[0] - x0, True, theta_end, h)
            xc, zc, vxc, vzc = dense(hi)
            if vxc < 0.0:
                closure = (t + hi * h, xc, zc, vxc, vzc)
                if stop_mode == STOP_CLOSURE:
                    theta_end = hi
                    t_end, x_end, z_end, vx_end, vz_end = closure
                    truncated = True

        # apex: interior extremum of z (vz sign change)
        if vz * vz_end < 0.0:
            lo, hi = _bisect(dense, lambda s: s[3], vz > 0.0, theta_end, h)
            th = 0.5 * (lo + hi)
            xa, za, vxa, vza = dense(th)
            if abs(za) > abs(apex[2]):
                apex = (t + th * h, xa, za, vxa, vza)

        # per-wire periapsis: radial speed changes sign - -> +; the end row's
        # distance to each wire also gives its potential u
        u = 0.0
        for i in range(n):
            dx0 = x - wx[i]
            dz0 = z - wz[i]
            g0 = dx0 * vx + dz0 * vz
            dx1 = x_end - wx[i]
            dz1 = z_end - wz[i]
            g1 = dx1 * vx_end + dz1 * vz_end
            if g0 < 0.0 and g1 >= 0.0:
                lo, hi = _bisect(dense, lambda s: -((s[0] - wx[i]) * s[2] + (s[1] - wz[i]) * s[3]),
                                 True, theta_end, h)
                th = 0.5 * (lo + hi)
                xp, zp, vxp, vzp = dense(th)
                dxp = xp - wx[i]
                dzp = zp - wz[i]
                dist = sqrt(dxp * dxp + dzp * dzp)
                if dist < peri_dist[i]:
                    peri_dist[i] = dist
                    peri_state[i] = (t + th * h, xp, zp, vxp, vzp)
                if wi[i] != 0.0 and dist * dist <= guard2:
                    status = STATUS_SINGULARITY
                    fail_wire = i
            r2 = dx1 * dx1 + dz1 * dz1
            d_end = sqrt(r2)
            if d_end < peri_dist[i]:
                peri_dist[i] = d_end
                peri_state[i] = (t_end, x_end, z_end, vx_end, vz_end)
            if wi[i] != 0.0:
                c = 0.5 * alpha * wi[i] * wi[i]
                u += c / r2 if r2 != 0.0 else c * _INF
                if d_end * d_end <= guard2:
                    status = STATUS_SINGULARITY
                    fail_wire = i

        ts.append(t_end)
        states += (x_end, z_end, vx_end, vz_end)
        d = abs(0.5 * (vx_end * vx_end + vz_end * vz_end) + u - e0)
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
        if truncated:
            break
        k1x = k7x
        k1z = k7z
        k1vx = k7vx
        k1vz = k7vz

        if err_norm == 0.0:
            fac = _MAX_FACTOR
        else:
            fac = _SAFETY * err_norm**-0.2
            if fac > _MAX_FACTOR:
                fac = _MAX_FACTOR
        h = h * fac

    # trajectory endpoints compete for the apex
    if abs(z) > abs(apex[2]):
        apex = (t, x, z, vx, vz)

    return {
        "status": status,
        "fail_wire": fail_wire,
        "t": array("d", ts).tobytes(),
        "states": array("d", states).tobytes(),
        "events": _state(apex, drift / (abs(e0) if e0 != 0.0 else 1.0),
                         min_step, peri_dist, peri_state, closure or ()),
        "n_steps": n_steps,
        "n_rejected": n_rejected,
        "n_rhs": n_rhs,
        "resume": cont,
    }
