/* Compiled integration kernel (fast backend): the CPython module
 * ``wiresplit._kernel``.
 *
 * Same algorithm as ``wiresplit._kernel_py``, its executable spec:
 * Dormand-Prince 5(4) over the superposed single-wire repulsions, cubic
 * Hermite dense output, one bisect() for every event with the twin's event
 * functions and sides, the twin's stop modes (none, closure, turn) and its
 * "resume" layout of a turn run's continuation, the samples as two bytes of
 * native doubles ("t", n times, and "states", n rows x, z, vx, vz), and a
 * zero error scale (atol = 0) counting 0 in the initial-step norms, 0/0 as
 * 0 and err/0 as inf in the step error norm.
 * Every floating-point operation is in the twin's order, comparisons and
 * min() treat NaN as Python does, and the file must be built without FMA
 * contraction (-ffp-contract=off), so both backends return equal doubles.
 *
 * Every division is IEEE and none is trapped. A zero h0 in the initial-step
 * heuristic (atol = 0 at a launch coordinate near 1e-300) makes d2 inf, or
 * NaN for a zero numerator, and the first step falls back to
 * duration * 1e-6, as in the twin. deriv() divides by r2 * r2 only for
 * r2 > guard_radius^2 * 1e-6, which never rounds to 0 for a guard_radius of
 * at least 1.3e-78 m; a direct caller must pass at least that, and simulate()
 * passes field.GUARD_RADIUS (1 nm).
 *
 * The kernel returns "energy_drift", the twin's: max |E - E0| over the sample
 * rows over |E0| (over 1 when E0 = 0), E = 0.5 (vx^2 + vz^2) + u, with each
 * row's potential u summed, as in the twin, in the wire loop that measures
 * the row (the launch loop, then the end-of-step periapsis loop).
 *
 * The state y = (x, z, vx, vz) and each stage derivative k = (vx, vz, ax, az)
 * are arrays of 4, so the twin's per-component formulas become loops.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

enum { STATUS_OK, STATUS_SINGULARITY, STATUS_UNDERFLOW, STATUS_MAXSTEPS };
enum { STOP_NONE, STOP_CLOSURE, STOP_TURN };

/* Dormand-Prince 5(4) tableau: rows a_2..a_6, then the 5th-order weights b,
 * then the error weights e (5th-order minus embedded 4th-order). Zero
 * entries are skipped, not added, as the twin leaves those terms out. */
static const double TAB[7][7] = {
    {0.2},
    {3.0 / 40.0, 9.0 / 40.0},
    {44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0},
    {19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0},
    {9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0},
    {35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0},
    {71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
     -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0},
};

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

/* k = f(y): velocity, then the superposed repulsion at (x, z) */
static void deriv(Field *f, const double *y, double *k)
{
    double ax = 0.0, az = 0.0;
    f->n_rhs++;
    k[0] = y[2];
    k[1] = y[3];
    for (Py_ssize_t i = 0; i < f->n; i++) {
        const double *w = f->powered + 3 * i;
        double dx = y[0] - w[0], dz = y[1] - w[1];
        double r2 = dx * dx + dz * dz;
        if (r2 <= f->tiny_r2) {
            k[2] = k[3] = NAN;
            return;
        }
        double c = w[2] / (r2 * r2);
        ax += c * dx;
        az += c * dz;
    }
    k[2] = ax;
    k[3] = az;
}

/* out = y + h * (sum_j a_j k_j), the sum left to right over nonzero a_j;
 * out = h * (...) when y is NULL */
static void combine(double *out, const double *y, double h, const double *a,
                    int m, double k[][4])
{
    for (int c = 0; c < 4; c++) {
        double s = a[0] * k[0][c];
        for (int j = 1; j < m; j++)
            if (a[j] != 0.0)
                s += a[j] * k[j][c];
        out[c] = y ? y[c] + h * s : h * s;
    }
}

static double rms4(const double *q)
{
    return sqrt(0.25 * (q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]));
}

/* one accepted step of size h from y (derivative k1) to yn (k7) */
typedef struct { double h; const double *y, *yn, *k1, *k7; } Step;

/* cubic Hermite interpolant at the step fraction theta */
static void dense(double *out, double theta, const Step *s)
{
    double om = 1.0 - theta;
    double h00 = (1.0 + 2.0 * theta) * om * om;
    double h10 = theta * om * om;
    double h01 = theta * theta * (3.0 - 2.0 * theta);
    double h11 = theta * theta * (theta - 1.0);
    for (int c = 0; c < 4; c++)
        out[c] = h00 * s->y[c] + h10 * s->h * s->k1[c] + h01 * s->yn[c]
                 + h11 * s->h * s->k7[c];
}

/* event functions g(y; p) of a dense state y for bisect(): the closure
 * (p = the launch x0), the apex, and a periapsis (p = the wire's x, z) */
typedef double (*EventFn)(const double *y, const double *p);
static double g_closure(const double *y, const double *p) { return y[0] - p[0]; }
static double g_apex(const double *y, const double *p) { (void)p; return y[3]; }
static double g_periapsis(const double *y, const double *p)
{
    return -((y[0] - p[0]) * y[2] + (y[1] - p[1]) * y[3]);
}

/* At most 80 halvings of [*lo, *hi] = [0, *hi] down to EVENT_DT seconds,
 * *lo = mid exactly when (g(dense(mid)) > 0) == side */
static void bisect(EventFn g, const double *p, int side, const Step *s,
                   double *lo, double *hi)
{
    double yd[4];
    *lo = 0.0;
    for (int it = 0; it < 80 && (*hi - *lo) * s->h > EVENT_DT; it++) {
        double mid = 0.5 * (*lo + *hi);
        dense(yd, mid, s);
        if ((g(yd, p) > 0.0) == side)
            *lo = mid;
        else
            *hi = mid;
    }
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

/* dst[0..len) = the twin's [float(v) for v in seq]; -1 on error */
static int as_doubles(PyObject *seq, double **dst, Py_ssize_t *len)
{
    PyObject *fast = PySequence_Fast(seq, "wire coordinates must be a sequence");
    if (fast == NULL)
        return -1;
    *len = PySequence_Fast_GET_SIZE(fast);
    *dst = PyMem_Malloc(*len * sizeof(double));
    int rc = *dst ? 0 : (PyErr_NoMemory(), -1);
    for (Py_ssize_t i = 0; rc == 0 && i < *len; i++) {
        (*dst)[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, i));
        if ((*dst)[i] == -1.0 && PyErr_Occurred())
            rc = -1;
    }
    Py_DECREF(fast);
    return rc;
}

static PyObject *tuple5(const double *v)
{
    return Py_BuildValue("(ddddd)", v[0], v[1], v[2], v[3], v[4]);
}

/* a list of the m doubles at v */
static PyObject *float_list(const double *v, Py_ssize_t m)
{
    PyObject *list = PyList_New(m);
    for (Py_ssize_t i = 0; list != NULL && i < m; i++) {
        PyObject *item = PyFloat_FromDouble(v[i]);
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static PyObject *integrate(PyObject *self, PyObject *args, PyObject *kwargs)
{
    (void)self;
    static char *kwlist[] = {
        "x0", "z0", "vx0", "vz0", "t0", "duration",
        "wires_x", "wires_z", "wires_current", "alpha",
        "rtol", "atol", "guard_radius", "max_steps",
        "stop_mode", "resume", NULL};
    double x0, z0, vx0, vz0, t0, duration, alpha, rtol, atol, guard_radius;
    double max_steps;
    int stop_mode;
    PyObject *seq_x, *seq_z, *seq_i, *resume = Py_None;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "ddddddOOOdddddi|O:integrate", kwlist,
            &x0, &z0, &vx0, &vz0, &t0, &duration, &seq_x, &seq_z, &seq_i,
            &alpha, &rtol, &atol, &guard_radius, &max_steps, &stop_mode,
            &resume))
        return NULL;

    /* the continuation to take up, and the turn run's t and states */
    Py_buffer rb[3] = {{0}};
    if (resume != Py_None
        && !PyArg_ParseTuple(resume, "y*y*y*", &rb[0], &rb[1], &rb[2]))
        return NULL;
    PyObject *result = NULL, *cont = NULL;  /* this run's continuation */
    double *wx = NULL, *wz = NULL, *wi = NULL, *peri = NULL, *powered = NULL;
    Buf t_buf = {NULL, 0, 0}, y_buf = {NULL, 0, 0};  /* the samples */
    Py_ssize_t n, nz, ni;
    if (as_doubles(seq_x, &wx, &n) < 0 || as_doubles(seq_z, &wz, &nz) < 0
        || as_doubles(seq_i, &wi, &ni) < 0)
        goto done;
    if (nz < n || ni < n) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        goto done;
    }
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
        if (wi[i] != 0.0) {
            double *w = powered + 3 * n_powered++;
            w[0] = wx[i];
            w[1] = wz[i];
            w[2] = alpha * wi[i] * wi[i];
        }
    }

    double guard2 = guard_radius * guard_radius;
    Field f = {n_powered, powered, guard2 * 1e-6, 0};
    double t = t0, t_bound = t0 + duration;
    double y[4] = {x0, z0, vx0, vz0};

    /* event accumulators, and the launch row's potential u */
    double best_apex_absz = fabs(y[1]), apex[5], closure[5] = {0}, u = 0.0;
    int have_closure = 0;
    set5(apex, t, y);
    for (Py_ssize_t i = 0; i < n; i++) {
        double dx = y[0] - wx[i], dz = y[1] - wz[i], r2 = dx * dx + dz * dz;
        peri[i] = sqrt(r2);
        set5(peri_st + 5 * i, t, y);
        if (wi[i] != 0.0)
            u += 0.5 * alpha * wi[i] * wi[i] / r2;
    }
    /* the launch row's energy, and the largest |E - E0| over the rows so far
     * (NaN once any is NaN) */
    double e0 = 0.5 * (y[2] * y[2] + y[3] * y[3]) + u;
    double drift = fabs(e0 - e0);

    int status = STATUS_OK;
    Py_ssize_t fail_wire = -1;
    double t_fail = 0.0, min_step = duration;
    long n_steps = 0, n_rejected = 0;
    double k[7][4], ys[4], yn[4], ye[4], yd[4], sc[4], q[4], err[4];

    double h, h_floor;
    long base[3] = {0, 0, 0};  /* the counters taken up, as in the twin */
    if (resume == Py_None) {
        if (push(&t_buf, &t, 1) < 0 || push(&y_buf, y, 4) < 0)
            goto done;
        /* initial step size (Hairer-style heuristic); a component whose scale
         * is exactly 0 contributes 0 to the norms d0, d1 and d2 */
        deriv(&f, y, k[0]);
        for (int c = 0; c < 4; c++) {
            sc[c] = atol + rtol * fabs(y[c]);
            q[c] = sc[c] != 0.0 ? y[c] / sc[c] : 0.0;
        }
        double d0 = rms4(q);
        for (int c = 0; c < 4; c++)
            q[c] = sc[c] != 0.0 ? k[0][c] / sc[c] : 0.0;
        double d1 = rms4(q);
        double h0 = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
        if (h0 > duration)
            h0 = duration;
        for (int c = 0; c < 4; c++)
            ys[c] = y[c] + h0 * k[0][c];
        deriv(&f, ys, k[1]);
        for (int c = 0; c < 4; c++)
            q[c] = sc[c] != 0.0 ? (k[1][c] - k[0][c]) / sc[c] : 0.0;
        double d2 = rms4(q) / h0;
        double dm = d1 > d2 ? d1 : d2;
        double h1;
        if (dm <= 1e-15)
            h1 = h0 * 1e-3 > 1e-6 ? h0 * 1e-3 : 1e-6;
        else
            h1 = pow(0.01 / dm, 0.2);
        h = 100.0 * h0;  /* min(100 h0, h1, duration), as Python's min */
        if (h1 < h)
            h = h1;
        if (duration < h)
            h = duration;
        if (!(h > 0.0) || h != h)
            h = duration * 1e-6;
        /* a first step under the step floor starts at the floor, unless the
         * floor exceeds the whole duration, as in the twin */
        h_floor = 16.0 * EPS * (fabs(t) > fabs(t_bound) ? fabs(t) : fabs(t_bound));
        if (h < h_floor && h_floor < duration)
            h = h_floor;
    } else {
        /* take up a turn-mode run at the start of its turn step, the last
         * row it keeps of that run's samples */
        const double *c = rb[0].buf;
        if (rb[0].len != (Py_ssize_t)((13 + 6 * n) * sizeof(double))
            || !(c[10] >= 0.0 && c[10] < (double)(rb[1].len / 8)
                 && c[10] < (double)(rb[2].len / 32))) {
            PyErr_SetString(PyExc_ValueError, "continuation does not fit this run");
            goto done;
        }
        base[0] = n_steps = (long)c[10];
        base[1] = n_rejected = (long)c[11];
        base[2] = f.n_rhs = (long)c[12];
        if (push(&t_buf, rb[1].buf, n_steps + 1) < 0
            || push(&y_buf, rb[2].buf, 4 * (n_steps + 1)) < 0)
            goto done;
        t = t_buf.v[n_steps];
        memcpy(y, y_buf.v + 4 * n_steps, sizeof y);
        double k1[4] = {y[2], y[3], c[0], c[1]};
        memcpy(k[0], k1, sizeof k1);
        h = c[2];
        memcpy(apex, c + 3, sizeof apex);
        best_apex_absz = fabs(apex[2]);
        drift = c[8];
        min_step = c[9];
        memcpy(peri, c + 13, 6 * n * sizeof(double));
    }

    while (!(t >= t_bound)) {
        if (n_steps + n_rejected >= max_steps) {
            status = STATUS_MAXSTEPS;
            t_fail = t;
            break;
        }
        h_floor = 16.0 * EPS * (fabs(t) > fabs(t_bound) ? fabs(t) : fabs(t_bound));
        if (h < h_floor) {
            status = STATUS_UNDERFLOW;
            t_fail = t;
            break;
        }
        double h_try = h;  /* before the cut to the end of the run */
        int last = 0;
        if (t + h >= t_bound) {
            h = t_bound - t;
            last = 1;
        }

        /* stages 2..6, the 5th-order solution, its derivative k7 (FSAL) and
         * the error estimate */
        for (int s = 1; s < 6; s++) {
            combine(ys, y, h, TAB[s - 1], s, k);
            deriv(&f, ys, k[s]);
        }
        combine(yn, y, h, TAB[5], 6, k);
        deriv(&f, yn, k[6]);
        combine(err, NULL, h, TAB[6], 7, k);

        /* over a zero scale: 0/0 counts 0, any other error is err/0.0 under
         * IEEE rules (+-inf, or NaN for NaN), so the step is rejected */
        for (int c = 0; c < 4; c++) {
            sc[c] = atol + rtol * (fabs(y[c]) > fabs(yn[c]) ? fabs(y[c]) : fabs(yn[c]));
            q[c] = sc[c] != 0.0 ? err[c] / sc[c]
                                : (err[c] == 0.0 ? 0.0 : err[c] * INFINITY);
        }
        double err_norm = rms4(q), fac;

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
        double theta_end = 1.0, t_end = last ? t_bound : t + h;
        double lo, hi, th;
        int truncated = 0;
        Step st = {h, y, yn, k[0], k[6]};
        memcpy(ye, yn, sizeof ye);

        /* turn: the first vz sign change from > 0 to < 0 ends a turn-mode
         * run, and its step's events are found up to the turn */
        if (stop_mode == STOP_TURN && y[3] > 0.0 && ye[3] < 0.0) {
            if (!have_closure) {  /* else a closure-mode run ended before */
                double head[13] = {
                    k[0][2], k[0][3], h_try, apex[0], apex[1], apex[2],
                    apex[3], apex[4], drift, min_step, n_steps, n_rejected,
                    f.n_rhs - 6};
                cont = PyBytes_FromStringAndSize(
                    NULL, sizeof head + 6 * n * sizeof(double));
                if (cont == NULL)
                    goto done;
                memcpy(PyBytes_AS_STRING(cont), head, sizeof head);
                memcpy(PyBytes_AS_STRING(cont) + sizeof head, peri,
                       6 * n * sizeof(double));
            }
            hi = 1.0;
            bisect(g_apex, NULL, 1, &st, &lo, &hi);
            theta_end = hi;
            t_end = t + hi * h;
            dense(ye, hi, &st);
            truncated = 1;
        }

        /* closure: first crossing of the launch plane x = x0 moving in -x */
        if (!have_closure && y[0] - x0 > 0.0 && ye[0] - x0 <= 0.0) {
            hi = theta_end;
            bisect(g_closure, &x0, 1, &st, &lo, &hi);
            dense(yd, hi, &st);
            if (yd[2] < 0.0) {
                have_closure = 1;
                set5(closure, t + hi * h, yd);
                if (stop_mode == STOP_CLOSURE) {
                    theta_end = hi;
                    memcpy(ye, yd, sizeof ye);
                    t_end = closure[0];
                    truncated = 1;
                }
            }
        }

        /* apex: interior extremum of z (vz sign change) */
        if (y[3] * ye[3] < 0.0) {
            hi = theta_end;
            bisect(g_apex, NULL, y[3] > 0.0, &st, &lo, &hi);
            th = 0.5 * (lo + hi);
            dense(yd, th, &st);
            if (fabs(yd[1]) > best_apex_absz) {
                best_apex_absz = fabs(yd[1]);
                set5(apex, t + th * h, yd);
            }
        }

        /* per-wire periapsis: radial speed changes sign - -> +; the end
         * row's distance to each wire also gives its potential u */
        u = 0.0;
        for (Py_ssize_t i = 0; i < n; i++) {
            double dx0 = y[0] - wx[i], dz0 = y[1] - wz[i];
            double g0 = dx0 * y[2] + dz0 * y[3];
            double dx1 = ye[0] - wx[i], dz1 = ye[1] - wz[i];
            double g1 = dx1 * ye[2] + dz1 * ye[3];
            if (g0 < 0.0 && g1 >= 0.0) {
                double wire[2] = {wx[i], wz[i]};
                hi = theta_end;
                bisect(g_periapsis, wire, 1, &st, &lo, &hi);
                th = 0.5 * (lo + hi);
                dense(yd, th, &st);
                double dxp = yd[0] - wx[i], dzp = yd[1] - wz[i];
                double dist = sqrt(dxp * dxp + dzp * dzp);
                if (dist < peri[i]) {
                    peri[i] = dist;
                    set5(peri_st + 5 * i, t + th * h, yd);
                }
                if (wi[i] != 0.0 && dist * dist <= guard2) {
                    status = STATUS_SINGULARITY;
                    fail_wire = i;
                    t_fail = t + th * h;
                }
            }
            double r2 = dx1 * dx1 + dz1 * dz1, d_end = sqrt(r2);
            if (d_end < peri[i]) {
                peri[i] = d_end;
                set5(peri_st + 5 * i, t_end, ye);
            }
            if (wi[i] == 0.0)
                continue;
            u += 0.5 * alpha * wi[i] * wi[i] / r2;
            if (d_end * d_end <= guard2) {
                status = STATUS_SINGULARITY;
                fail_wire = i;
                t_fail = t_end;
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
        if (truncated)
            break;
        memcpy(k[0], k[6], sizeof k[0]);

        if (err_norm == 0.0) {
            fac = MAX_FACTOR;
        } else {
            fac = SAFETY * pow(err_norm, -0.2);
            if (fac > MAX_FACTOR)
                fac = MAX_FACTOR;
            else if (fac < MIN_FACTOR)
                fac = MIN_FACTOR;
        }
        h = h * fac;
    }
    /* trajectory endpoints compete for the apex */
    if (fabs(y[1]) > best_apex_absz)
        set5(apex, t, y);

    PyObject *peri_state = PyList_New(n);
    for (Py_ssize_t i = 0; peri_state && i < n; i++) {
        PyObject *st = tuple5(peri_st + 5 * i);
        if (st == NULL)
            Py_CLEAR(peri_state);
        else
            PyList_SET_ITEM(peri_state, i, st);
    }
    PyObject *clo = have_closure ? tuple5(closure) : Py_NewRef(Py_None);
    result = Py_BuildValue(
        "{s:i,s:n,s:d,s:y#,s:y#,s:N,s:N,s:N,s:N,s:l,s:l,s:l,s:d,s:d,s:N}",
        "status", status, "fail_wire", fail_wire, "t_fail", t_fail,
        "t", (const char *)t_buf.v, (Py_ssize_t)(t_buf.len * sizeof(double)),
        "states", (const char *)y_buf.v, (Py_ssize_t)(y_buf.len * sizeof(double)),
        "apex", tuple5(apex), "periapsis_distance", float_list(peri, n),
        "periapsis_state", peri_state,
        "closure", clo, "n_steps", n_steps - base[0],
        "n_rejected", n_rejected - base[1], "n_rhs", f.n_rhs - base[2],
        "min_step", min_step, "energy_drift", drift / (e0 != 0.0 ? fabs(e0) : 1.0),
        "resume", cont ? cont : Py_NewRef(Py_None));
    cont = NULL;  /* stolen */

done:
    PyMem_Free(wx);
    PyMem_Free(wz);
    PyMem_Free(wi);
    PyMem_Free(peri);
    PyMem_Free(powered);
    PyMem_Free(t_buf.v);
    PyMem_Free(y_buf.v);
    Py_XDECREF(cont);
    for (int i = 0; i < 3; i++)
        PyBuffer_Release(&rb[i]);  /* a no-op without a continuation */
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
    PyObject *m = PyModule_Create(&module);
    if (m == NULL
        || PyModule_AddIntConstant(m, "STATUS_OK", STATUS_OK) < 0
        || PyModule_AddIntConstant(m, "STATUS_SINGULARITY", STATUS_SINGULARITY) < 0
        || PyModule_AddIntConstant(m, "STATUS_UNDERFLOW", STATUS_UNDERFLOW) < 0
        || PyModule_AddIntConstant(m, "STATUS_MAXSTEPS", STATUS_MAXSTEPS) < 0) {
        Py_XDECREF(m);
        return NULL;
    }
    return m;
}
