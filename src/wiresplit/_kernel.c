/* Compiled integration kernel (fast backend): the CPython module
 * ``wiresplit._kernel``.
 *
 * Same algorithm as ``wiresplit._kernel_py``, its executable spec:
 * Dormand-Prince 5(4) over the superposed single-wire repulsions, with the
 * positions in Runge-Kutta-Nystrom form (stage i at x + h (c_i v + h
 * sum_l (A^2)_il a_l), the new position x + h (v + h sum_l (b A)_l a_l),
 * its error h (h sum_l (e A)_l a_l)), so no stage velocity is formed; cubic
 * Hermite dense output, one bisect() for every event with the twin's event
 * functions and sides and every event at its bracket's upper end, the
 * twin's stop modes (none, closure, turn: a turn run ends after its whole
 * turn step), the twin's first step from the launch geometry, and a zero
 * error scale (atol = 0) counting 0/0 as 0 and err/0 as inf in the step
 * error norm.
 * The boundary carries the twin's packed native doubles both ways: the
 * "wires" buffer in; out, the samples ("t", n times, and "states", n rows
 * x, z, vx, vz), the "events" state and the "resume" snapshot of a turn
 * run's continuation, the stepping state at the end of the turn step.
 * Their layouts are in the twin's integrate() docstring, and one
 * put_state() writes the event state of both.
 * Every floating-point operation is in the twin's order, comparisons and
 * min() treat NaN as Python does, and the file must be built without FMA
 * contraction (-ffp-contract=off), so both backends return equal doubles.
 *
 * Every division is IEEE and none is trapped: a launch at rest makes the
 * first step's 0.1 d_min / |v| inf or NaN, and the step is then the whole
 * duration, as in the twin. deriv() divides by r2 * r2 only for
 * r2 > guard_radius^2 * 1e-6, which never rounds to 0 for a guard_radius of
 * at least 1.3e-78 m; a direct caller must pass at least that, and simulate()
 * passes field.GUARD_RADIUS (1 nm).
 *
 * The events carry the twin's energy drift: max |E - E0| over the sample
 * rows over |E0| (over 1 when E0 = 0), E = 0.5 (vx^2 + vz^2) + u, with each
 * row's potential u summed, as in the twin, in the wire loop that measures
 * the row (the launch loop, then the end-of-step periapsis loop).
 *
 * The state y = (x, z, vx, vz) is an array of 4 and each stage's
 * acceleration acc = (ax, az) one of 2, so the twin's per-component formulas
 * become loops.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

enum { STATUS_OK, STATUS_SINGULARITY, STATUS_UNDERFLOW, STATUS_MAXSTEPS };
enum { STOP_NONE, STOP_CLOSURE, STOP_TURN };

/* Dormand-Prince 5(4) for x'' = a(x) in Runge-Kutta-Nystrom form, with the
 * constants the twin's integrate writes in place. Row s = 0..4 is stage
 * s + 2 and row 5 the 5th-order solution: its time C[s] and its s position
 * weights P[s], (A^2)_i and then b A, on the accelerations. The solution's velocity weights are B, and the
 * error weights E on the 7 accelerations for the velocities and EA on the
 * first 6 for the positions. Zero weights are skipped, not added, as the
 * twin leaves those terms out. */
static const double C[6] = {1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0};
static const double B[6] = {35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                            -2187.0 / 6784.0, 11.0 / 84.0};
static const double P[6][5] = {
    {0.0},
    {9.0 / 200.0},
    {-12.0 / 25.0, 4.0 / 5.0},
    {-12248.0 / 6561.0, 7208.0 / 2187.0, -6784.0 / 6561.0},
    {-533.0 / 264.0, 91.0 / 22.0, -56.0 / 33.0, 7.0 / 88.0},
    {35.0 / 384.0, 0.0, 50.0 / 159.0, 25.0 / 192.0, -243.0 / 6784.0},
};
static const double E[7] = {71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
                            -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0};
static const double EA[6] = {611.0 / 230400.0, 0.0, -514.0 / 83475.0,
                             391.0 / 38400.0, -4617.0 / 1356800.0, -11.0 / 3360.0};

#define SAFETY 0.9
#define MIN_FACTOR 0.2
#define MAX_FACTOR 5.0
#define EPS 2.220446049250313e-16
#define EVENT_DT 1e-12 /* event bisection resolution, s */

typedef struct {
    Py_ssize_t n;
    /* (x, z, alpha I^2) of each wire with I != 0 */
    const double *powered;
    double tiny_r2;
    long n_rhs;
} Field;

/* acc = a(x, z): the superposed repulsion at the position y[0..2) */
static void deriv(Field *f, const double *y, double *acc)
{
    double ax = 0.0, az = 0.0;
    f->n_rhs++;
    for (Py_ssize_t i = 0; i < f->n; i++) {
        const double *w = f->powered + 3 * i;
        double dx = y[0] - w[0], dz = y[1] - w[1];
        double r2 = dx * dx + dz * dz;
        if (r2 <= f->tiny_r2) {
            acc[0] = acc[1] = NAN;
            return;
        }
        double c = w[2] / (r2 * r2);
        ax += c * dx;
        az += c * dz;
    }
    acc[0] = ax;
    acc[1] = az;
}

/* sum_j w_j acc_j[c], left to right over w_0 and the nonzero w_j, j < m */
static double wsum(const double *w, int m, double acc[][2], int c)
{
    double s = w[0] * acc[0][c];
    for (int j = 1; j < m; j++)
        if (w[j] != 0.0)
            s += w[j] * acc[j][c];
    return s;
}

/* the position of row s from y: x + h (C[s] v + h sum_j P[s][j] acc_j), or
 * x + h C[s] v for stage 2, which has no position weight */
static void position(double *out, const double *y, double h, int s,
                     double acc[][2])
{
    for (int c = 0; c < 2; c++) {
        double p = C[s] * y[c + 2];
        out[c] = y[c] + h * (s ? p + h * wsum(P[s], s, acc, c) : p);
    }
}

/* one accepted step of size h from y (acceleration a1) to yn (a7) */
typedef struct { double h; const double *y, *yn, *a1, *a7; } Step;

/* cubic Hermite interpolant at the step fraction theta; a position's
 * derivative is its velocity, a velocity's the acceleration */
static void dense(double *out, double theta, const Step *s)
{
    double om = 1.0 - theta;
    double h00 = (1.0 + 2.0 * theta) * om * om;
    double h10 = theta * om * om;
    double h01 = theta * theta * (3.0 - 2.0 * theta);
    double h11 = theta * theta * (theta - 1.0);
    for (int c = 0; c < 4; c++) {
        double d1 = c < 2 ? s->y[c + 2] : s->a1[c - 2];
        double d7 = c < 2 ? s->yn[c + 2] : s->a7[c - 2];
        out[c] = h00 * s->y[c] + h10 * s->h * d1 + h01 * s->yn[c]
                 + h11 * s->h * d7;
    }
}

/* event functions g(y; p) of a dense state y for bisect(): the closure
 * (p = the launch x0), the apex, and a periapsis (p = the wire's x, z, current) */
typedef double (*EventFn)(const double *y, const double *p);
static double g_closure(const double *y, const double *p) { return y[0] - p[0]; }
static double g_apex(const double *y, const double *p) { (void)p; return y[3]; }
static double g_periapsis(const double *y, const double *p)
{
    return -((y[0] - p[0]) * y[2] + (y[1] - p[1]) * y[3]);
}

/* The event's step fraction: at most 80 halvings of [lo, hi] = [0, hi] down
 * to EVENT_DT seconds, lo = mid exactly when (g(dense(mid)) > 0) == side,
 * and the event at the bracket's upper end hi */
static double bisect(EventFn g, const double *p, int side, const Step *s,
                     double hi)
{
    double yd[4], lo = 0.0;
    for (int it = 0; it < 80 && (hi - lo) * s->h > EVENT_DT; it++) {
        double mid = 0.5 * (lo + hi);
        dense(yd, mid, s);
        if ((g(yd, p) > 0.0) == side)
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

static void set5(double *dst, double t, const double *y)
{
    dst[0] = t;
    memcpy(dst + 1, y, 4 * sizeof(double));
}

/* a growable array of doubles */
typedef struct {
    double *v;
    size_t len, cap;
} Buf;

static int push(Buf *b, const double *v, size_t m)
{
    if (b->len + m > b->cap) {
        size_t cap = b->cap ? 2 * b->cap : 1024;
        while (cap < b->len + m)
            cap *= 2;
        double *nv = PyMem_Realloc(b->v, cap * sizeof(double));
        if (nv == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        b->v = nv;
        b->cap = cap;
    }
    memcpy(b->v + b->len, v, m * sizeof(double));
    b->len += m;
    return 0;
}

/* b's doubles for "y#", which makes None of a NULL pointer: a run that
 * accepts no step, such as a continuation without budget, grows no Buf */
static const char *bytes_of(const Buf *b) { return b->v ? (const char *)b->v : ""; }

/* the twin's _state(): at dst, the apex, drift and min_step, then the n
 * periapsis distances and states of peri; returns the end of what it wrote */
static double *put_state(double *dst, const double *apex, double drift,
                         double min_step, const double *peri, Py_ssize_t n)
{
    memcpy(dst, apex, 5 * sizeof(double));
    dst[5] = drift;
    dst[6] = min_step;
    memcpy(dst + 7, peri, 6 * n * sizeof(double));
    return dst + 7 + 6 * n;
}

static PyObject *integrate(PyObject *self, PyObject *args, PyObject *kwargs)
{
    (void)self;
    static char *kwlist[] = {
        "x0", "z0", "vx0", "vz0", "t0", "duration", "wires", "alpha", "rtol",
        "atol", "guard_radius", "max_steps", "stop_mode", "resume", NULL};
    double x0, z0, vx0, vz0, t0, duration, alpha, rtol, atol, guard_radius;
    double max_steps;
    int stop_mode;
    Py_buffer wb;  /* the wires: (x, z, current) per wire */
    PyObject *resume = Py_None;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "ddddddy*dddddi|O:integrate", kwlist,
            &x0, &z0, &vx0, &vz0, &t0, &duration, &wb,
            &alpha, &rtol, &atol, &guard_radius, &max_steps, &stop_mode,
            &resume))
        return NULL;

    Py_buffer rb = {0};  /* the snapshot to take up */
    PyObject *result = NULL, *events = NULL;
    PyObject *cont = NULL;  /* this run's continuation */
    double *peri = NULL, *powered = NULL;
    Buf t_buf = {NULL, 0, 0}, y_buf = {NULL, 0, 0};  /* the samples */
    const double *wires = wb.buf;
    Py_ssize_t n = wb.len / (Py_ssize_t)(3 * sizeof(double));
    if (wb.len % (Py_ssize_t)(3 * sizeof(double)) != 0) {
        PyErr_SetString(PyExc_ValueError, "wires must be (x, z, current) triples");
        goto done;
    }
    if (resume != Py_None && PyObject_GetBuffer(resume, &rb, PyBUF_SIMPLE) < 0)
        goto done;
    /* per wire: periapsis distance, then its state (t, x, z, vx, vz) */
    peri = PyMem_Malloc(6 * n * sizeof(double));
    powered = PyMem_Malloc(3 * n * sizeof(double));
    if (peri == NULL || powered == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *peri_st = peri + n;
    Py_ssize_t n_powered = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        const double *w = wires + 3 * i;
        if (w[2] != 0.0) {
            double *p = powered + 3 * n_powered++;
            p[0] = w[0];
            p[1] = w[1];
            p[2] = alpha * w[2] * w[2];
        }
    }

    double guard2 = guard_radius * guard_radius;
    Field f = {n_powered, powered, guard2 * 1e-6, 0};
    double t = t0, t_bound = t0 + duration;
    double y[4] = {x0, z0, vx0, vz0};

    /* event accumulators, the launch row's potential u and the distance
     * d_min to the nearest powered wire */
    double apex[5], closure[5] = {0}, u = 0.0, d_min = HUGE_VAL;
    int have_closure = 0;
    set5(apex, t, y);
    for (Py_ssize_t i = 0; i < n; i++) {
        const double *w = wires + 3 * i;
        double dx = y[0] - w[0], dz = y[1] - w[1], r2 = dx * dx + dz * dz;
        peri[i] = sqrt(r2);
        set5(peri_st + 5 * i, t, y);
        if (w[2] == 0.0)
            continue;
        u += 0.5 * alpha * w[2] * w[2] / r2;
        if (peri[i] < d_min)
            d_min = peri[i];
    }
    /* the launch row's energy, and the largest |E - E0| over the rows so far
     * (NaN once any is NaN) */
    double e0 = 0.5 * (y[2] * y[2] + y[3] * y[3]) + u;
    double drift = fabs(e0 - e0);

    int status = STATUS_OK;
    Py_ssize_t fail_wire = -1;
    long n_steps = 0, n_rejected = 0;
    double acc[7][2], ys[2], yn[4], ye[4], yd[4], sc[4], q[4], err[4];

    double h, h_floor, min_step = duration;
    if (resume == Py_None) {
        if (push(&t_buf, &t, 1) < 0 || push(&y_buf, y, 4) < 0)
            goto done;
        /* the first step carries the packet a tenth of the way to the
         * nearest powered wire at its launch speed, and at most the whole
         * duration: at rest 0.1 d_min / 0 is inf or NaN, the twin's inf */
        deriv(&f, y, acc[0]);
        h = 0.1 * d_min / sqrt(y[2] * y[2] + y[3] * y[3]);
        if (!(h < duration))
            h = duration;
        /* a first step under the step floor starts at the floor, unless the
         * floor exceeds the whole duration, as in the twin */
        h_floor = 16.0 * EPS * (fabs(t) > fabs(t_bound) ? fabs(t) : fabs(t_bound));
        if (h < h_floor && h_floor < duration)
            h = h_floor;
    } else {
        /* take up a turn-mode run after its turn step, whose rows are the
         * turn run's */
        const double *c = rb.buf;
        if (rb.len != (Py_ssize_t)((15 + 6 * n) * sizeof(double))) {
            PyErr_SetString(PyExc_ValueError, "continuation does not fit this run");
            goto done;
        }
        t = c[0];
        memcpy(y, c + 1, sizeof y);
        memcpy(acc[0], c + 5, sizeof acc[0]);
        h = c[7];
        memcpy(apex, c + 8, sizeof apex);
        drift = c[13];
        min_step = c[14];
        memcpy(peri, c + 15, 6 * n * sizeof(double));
    }

    while (!(t >= t_bound)) {
        if (n_steps + n_rejected >= max_steps) {
            status = STATUS_MAXSTEPS;
            break;
        }
        h_floor = 16.0 * EPS * (fabs(t) > fabs(t_bound) ? fabs(t) : fabs(t_bound));
        if (h < h_floor) {
            status = STATUS_UNDERFLOW;
            break;
        }
        int last = 0;
        if (t + h >= t_bound) {
            h = t_bound - t;
            last = 1;
        }

        /* stages 2..6, the 5th-order solution, its acceleration a7 (FSAL)
         * and the error estimate */
        for (int s = 0; s < 5; s++) {
            position(ys, y, h, s, acc);
            deriv(&f, ys, acc[s + 1]);
        }
        position(yn, y, h, 5, acc);
        for (int c = 0; c < 2; c++)
            yn[c + 2] = y[c + 2] + h * wsum(B, 6, acc, c);
        deriv(&f, yn, acc[6]);
        for (int c = 0; c < 2; c++) {
            err[c] = h * (h * wsum(EA, 6, acc, c));
            err[c + 2] = h * wsum(E, 7, acc, c);
        }

        /* over a zero scale: 0/0 counts 0, any other error is err/0.0 under
         * IEEE rules (+-inf, or NaN for NaN), so the step is rejected */
        for (int c = 0; c < 4; c++) {
            sc[c] = atol + rtol * (fabs(y[c]) > fabs(yn[c]) ? fabs(y[c]) : fabs(yn[c]));
            q[c] = sc[c] != 0.0 ? err[c] / sc[c]
                                : (err[c] == 0.0 ? 0.0 : err[c] * HUGE_VAL);
        }
        double fac, err_norm = sqrt(0.25 * (q[0] * q[0] + q[1] * q[1]
                                            + q[2] * q[2] + q[3] * q[3]));

        if (!(err_norm <= 1.0)) {
            n_rejected++;
            if (err_norm != err_norm) {  /* NaN: a stage hit a pole */
                fac = 0.1;
            } else {
                fac = SAFETY * pow(err_norm, -0.2);
                if (fac < MIN_FACTOR)
                    fac = MIN_FACTOR;
            }
            h = h * fac;
            continue;
        }

        /* --- accepted --- */
        double theta_end = 1.0, t_end = last ? t_bound : t + h, hi;
        Step st = {h, y, yn, acc[0], acc[6]};
        memcpy(ye, yn, sizeof ye);
        /* the turn, the first step along which vz goes from > 0 to < 0,
         * ends a turn-mode run after the whole step */
        int ends = stop_mode == STOP_TURN && y[3] > 0.0 && ye[3] < 0.0;

        /* closure: first crossing of the launch plane x = x0 moving in -x;
         * a closure-mode run ends there, cut */
        if (!have_closure && y[0] - x0 > 0.0 && ye[0] - x0 <= 0.0) {
            hi = bisect(g_closure, &x0, 1, &st, theta_end);
            dense(yd, hi, &st);
            if (yd[2] < 0.0) {
                have_closure = 1;
                set5(closure, t + hi * h, yd);
                if (stop_mode == STOP_CLOSURE) {
                    theta_end = hi;
                    memcpy(ye, yd, sizeof ye);
                    t_end = closure[0];
                    ends = 1;
                }
            }
        }

        /* apex: interior extremum of z (vz sign change) */
        if (y[3] * ye[3] < 0.0) {
            hi = bisect(g_apex, NULL, y[3] > 0.0, &st, theta_end);
            dense(yd, hi, &st);
            if (fabs(yd[1]) > fabs(apex[2]))
                set5(apex, t + hi * h, yd);
        }

        /* per-wire periapsis: radial speed changes sign - -> +; the end
         * row's distance to each wire also gives its potential u */
        u = 0.0;
        for (Py_ssize_t i = 0; i < n; i++) {
            const double *w = wires + 3 * i;
            double dx0 = y[0] - w[0], dz0 = y[1] - w[1];
            double g0 = dx0 * y[2] + dz0 * y[3];
            double dx1 = ye[0] - w[0], dz1 = ye[1] - w[1];
            double g1 = dx1 * ye[2] + dz1 * ye[3];
            if (g0 < 0.0 && g1 >= 0.0) {
                hi = bisect(g_periapsis, w, 1, &st, theta_end);
                dense(yd, hi, &st);
                double dxp = yd[0] - w[0], dzp = yd[1] - w[1];
                double dist = sqrt(dxp * dxp + dzp * dzp);
                if (dist < peri[i]) {
                    peri[i] = dist;
                    set5(peri_st + 5 * i, t + hi * h, yd);
                }
                if (w[2] != 0.0 && dist * dist <= guard2) {
                    status = STATUS_SINGULARITY;
                    fail_wire = i;
                }
            }
            double r2 = dx1 * dx1 + dz1 * dz1, d_end = sqrt(r2);
            if (d_end < peri[i]) {
                peri[i] = d_end;
                set5(peri_st + 5 * i, t_end, ye);
            }
            if (w[2] == 0.0)
                continue;
            u += 0.5 * alpha * w[2] * w[2] / r2;
            if (d_end * d_end <= guard2) {
                status = STATUS_SINGULARITY;
                fail_wire = i;
            }
        }

        if (push(&t_buf, &t_end, 1) < 0 || push(&y_buf, ye, 4) < 0)
            goto done;
        double d = fabs(0.5 * (ye[2] * ye[2] + ye[3] * ye[3]) + u - e0);
        if (d > drift || d != d)
            drift = d;
        n_steps++;
        if (h < min_step)
            min_step = h;

        if (status == STATUS_SINGULARITY)
            break;

        t = t_end;
        memcpy(y, ye, sizeof y);
        memcpy(acc[0], acc[6], sizeof acc[0]);

        if (err_norm == 0.0) {
            fac = MAX_FACTOR;
        } else {
            fac = SAFETY * pow(err_norm, -0.2);
            if (fac > MAX_FACTOR)
                fac = MAX_FACTOR;
        }
        h = h * fac;
        if (ends) {
            if (!have_closure) {  /* a turn-mode run that has not closed */
                double head[8] = {t, y[0], y[1], y[2], y[3], acc[0][0], acc[0][1], h};
                cont = PyBytes_FromStringAndSize(
                    NULL, sizeof head + (7 + 6 * n) * sizeof(double));
                if (cont == NULL)
                    goto done;
                double *c = (double *)PyBytes_AS_STRING(cont);
                memcpy(c, head, sizeof head);
                put_state(c + 8, apex, drift, min_step, peri, n);
            }
            break;
        }
    }
    /* trajectory endpoints compete for the apex */
    if (fabs(y[1]) > fabs(apex[2]))
        set5(apex, t, y);

    /* the event state, then the closure only when there is one */
    events = PyBytes_FromStringAndSize(
        NULL, (7 + 6 * n + 5 * have_closure) * sizeof(double));
    if (events == NULL)
        goto done;
    double *end = put_state((double *)PyBytes_AS_STRING(events), apex,
                            drift / (e0 != 0.0 ? fabs(e0) : 1.0), min_step,
                            peri, n);
    if (have_closure)
        memcpy(end, closure, sizeof closure);
    result = Py_BuildValue(
        "{s:i,s:n,s:y#,s:y#,s:N,s:l,s:l,s:l,s:N}",
        "status", status, "fail_wire", fail_wire,
        "t", bytes_of(&t_buf), (Py_ssize_t)(t_buf.len * sizeof(double)),
        "states", bytes_of(&y_buf), (Py_ssize_t)(y_buf.len * sizeof(double)),
        "events", events,
        "n_steps", n_steps, "n_rejected", n_rejected, "n_rhs", f.n_rhs,
        "resume", cont ? cont : Py_NewRef(Py_None));
    events = cont = NULL;  /* stolen */

done:
    PyMem_Free(peri);
    PyMem_Free(powered);
    PyMem_Free(t_buf.v);
    PyMem_Free(y_buf.v);
    Py_XDECREF(events);
    Py_XDECREF(cont);
    PyBuffer_Release(&rb);  /* a no-op without a snapshot */
    PyBuffer_Release(&wb);
    return result;
}

static PyMethodDef methods[] = {
    {"integrate", (PyCFunction)(void (*)(void))integrate,
     METH_VARARGS | METH_KEYWORDS,
     "Compiled twin of ``wiresplit._kernel_py.integrate``."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_kernel", .m_size = -1,
    .m_doc = "Compiled integration kernel; see ``wiresplit._kernel_py``.",
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
