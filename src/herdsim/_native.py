"""The compensated loops, the Philox stream fill and the Monte Carlo kernels in C, compiled on first use.

One compensated step, ``asymptotics._python_steps``' body in the same order
of operations, serves every exact-path loop, which ``path_loop`` picks by
the model's exact type: ``gaussian_steps`` fused with the Gaussian
closed-form increment (``log_ndtr_scalar`` on the same libm functions),
``table_steps`` reading a rate-target model's table of D+ per integer cell
(``belief._RateTable``, whose slices are built as they are first read),
``polytail_steps`` (below 40 the lockstep engine's PolyTail increment at one
point, and in its tail branch ``_signed_increment``'s tail form, from 40 up ``_scalar_increment``'s closed form on libm in its order
of operations, checked against it bit for bit once per k by
``checked_far_steps``) and ``call_steps`` over a Python increment (a
subclass's, a custom model's, ``iterate_recurrence``'s).  Where a
fused loop's increment leaves a step to Python (PolyTail's tail branch
below 1, a NaN belief, a PolyTail |a| past 60 where the series of log T
does not serve, a rate-target cell whose slice is not built yet or a
belief that is not finite) it calls the Python increment, as
``call_steps`` does.  A loop hands back the first step it cannot add (an
invalid one, or a return that is not an exact float) with its index, for
the Python loop to raise at or go on from, so the bytes, errors and types
are that loop's.  ``cohort_steps`` runs every step of a Gaussian or PolyTail
lockstep pass (each cohort's bound test, increment and compensated update)
through the stepper that ``cohort_stepper`` builds once per pass, the
model's family, constants, splines and raw-to-LLR map resolved; any
other model's pass takes the Python step.  Given the pass's run book and a
chunk's draws (``Runs``) it settles the flagged steps as the Python step
does: it reads only the flagged cohorts' rows, maps them (a Gaussian's
``raw * tau + mean``, PolyTail's ``polytail_map`` on a gathered array), ends
the runs of the rows that switch, forks one cohort per source into spare
columns, and at a step with no switch rebounds the flagged cohorts by their
own rows; it writes the actions and ends every run at the horizon.  It
stops early only before a step whose forks outgrow the spare columns.
The kernels call scipy's ``ndtr`` and numpy's ``log``, ``exp``, ``log1p``
and ``power`` (``_UFUNCS``) at one site, ``ufunc_apply``, on a pointer and a
count: through the ufunc's float64 inner loop, the first entry of its loop
table whose types are all float64, which is the loop a call of the ufunc
on float64 arrays runs (numpy's SIMD-dispatched ones, NEP 38), so the
bits are the ufunc's.  ``checked_loops`` checks each loop once per process,
as ``normals_checked`` checks the inline normals: ``loop_checked`` compares
it with a call of its ufunc at every length 1..70 and 255..257, at offsets
0, 1 and 3, in place, on inputs with +-0, +-inf, NaN and subnormals, power
with a stride-0 exponent; a loop that fails, or a ufunc with no float64
loop, is called as the ufunc itself.  Around a loop call the
floating-point status is cleared (only where a flag is set) and any flag
raised is reported through numpy's ``PyUFunc_GiveFloatingpointErrors``, so
warnings and ``np.errstate`` act as on a call of the ufunc.  This needs
numpy's headers (``np.get_include()``).
The Gaussian increment takes ``ndtr`` and ``log``.  The PolyTail increment
takes each cohort's branch as ``belief._signed_increment`` does: the log-T
spline on [1, 60], evaluated as the spline's numpy ``reference`` does
(``spline_values``, checked against it once per spline by
``checked_spline``; the spline's own call then runs it, ``spline_call``; the
interval comes from a guess as if the knots were even, else from the
spline's table of knot indices, ``_spline_table``), ``_log_T``'s asymptotic
series past 60 (past ``_PolyTailTables.series_floor``: at 60 < |a| <= floor,
where ``_log_T`` takes the continued fraction, the step goes to Python) and
the closed forms below 1; each branch's values are
gathered for ``power``, ``exp``, ``log`` and ``log1p``.  The Gaussian tail
and deep branches, and PolyTail's tail branch and a NaN belief, call the
engine's Python ``_increment`` from C.
``polytail_llr`` (``polytail_map`` on an array) is PolyTail's quantile
transform (``llr_from_uniform``) the same way: numpy's ``power`` and
``log``, and the quantile spline on its uneven knots by the same
evaluation; ``checked_transform`` compares it with the Python transform bit
for bit once per model, and ``llr_transform`` hands a pass the checked map,
else None.  These two builders make every
choice of kernel of a Monte Carlo pass, and ``path_loop`` the choice of an
exact path's loop, by the model's exact type, since a subclass may change
the law.  The observed-signals baseline has no kernel: its mean is exact
(``SignalModel.llr_mean``), and one trial's sums run in numpy.
``philox_fill`` fills each row of a draws array from one Monte Carlo
stream, held as a row of numpy's ``philox_state`` words (``STATE_WORDS``): it steps Philox4x64-10 as numpy's ``philox_next`` does (the counter is
bumped before each block of four words) and draws as numpy does, so every
draw equals ``Generator(Philox)``'s bit for bit.  A uniform is a word's top
53 bits scaled by 2**-53, computed inline.  A normal runs numpy's ziggurat
(Marsaglia & Tsang 2000) fast path inline, on numpy's tables read once per
process through its public ``random_standard_normal``
(``ziggurat_tables``); the rare word that misses the fast path (about 1.5%)
goes back to its stream for that numpy sampler to draw from, so the wedge
and tail paths are numpy's code, linked from the ``libnpyrandom.a`` that
numpy ships.  At first use a fixed set of streams is filled both inline and
by numpy's ``random_standard_normal_fill``; if a bit differs, every normal
is drawn by the latter (``normals_checked``).  ``philox_fill_extremes``
fills the same rows, whose streams are sorted by lockstep cohort, and folds
each row, while it is in cache, into its cohort's per-column min or max
(``montecarlo._extremes`` is its reference); the fold is a compare and
select, which gives each element's bits whether or not it is vectorised.
It is the one call that runs on more than one thread: it cuts the rows
into contiguous parts, which the calling thread and helper threads that it
starts and joins claim one at a time until none is left (``fill_split``:
a thread per CPU the process may run on and per ``_THREAD_DRAWS`` draws,
parts of ``_PART_DRAWS`` draws), so a helper that gets less of a CPU fills
fewer parts and the caller fills every part if none starts.  That is safe
and keeps every bit: each row's stream is its own and each part is written
by the one thread that claimed it, a cohort that spans parts is folded in
part order after the join, the ziggurat tables are read-only once
``normals_checked`` has run, the helpers block every signal, and the
caller holds the GIL until all are joined.
Where that archive is missing the library holds the loops and kernels
only.  The library includes ``Python.h`` and is loaded with
``ctypes.PyDLL``, so a call holds the GIL and an increment's exception
propagates.  Only ``gaussian_steps``, ``table_steps`` and ``polytail_steps``
past 40 release the GIL, around their loops: a loop reads and writes
nothing but the values buffer it took a view of (which keeps the array
alive) and, for ``table_steps``, the model's table and its ready bytes
(it takes the GIL back to have a slice built), and calls only libm,
so no Python object is touched while other threads run;
``belief.first_mistake_distribution`` turns the final part of a path into
the law meanwhile.  ``call_steps``, and ``polytail_steps`` below 40, may
call Python at any step and keep the GIL.  It is built once per source, flags,
interpreter ABI and numpy version with the interpreter's C compiler into
``$XDG_CACHE_HOME/herdsim`` (else ``~/.cache/herdsim``) as
``compensated_steps-<SOABI>-<key>.so``; a build removes the libraries it
replaces there (``_remove_stale``).  Where it cannot be built (no C
compiler, ``Python.h`` or numpy's headers) or loaded, ``library()`` is None
and the Python loops and fill run.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import re
import shlex
import subprocess
import sysconfig
import tempfile
import time
import weakref

import numpy as np
from scipy import special

from .signal_models import (
    _LOG_SQRT_2PI,
    _SQRT2,
    GaussianSignalModel,
    PolyTailSignalModel,
    RateTargetSignalModel,
    StateOfWorld,
)

_SOURCE = r"""
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_2_0_API_VERSION
#define NPY_TARGET_VERSION NPY_2_0_API_VERSION
#include <numpy/ndarrayobject.h>
#include <numpy/ufuncobject.h>
#include <fenv.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's array and ufunc C APIs, for ufunc_apply: 0, or -1 with an error set */
int numpy_api(void)
{
    return _import_array() < 0 || _import_umath() < 0 ? -1 : 0;
}

/* The ufuncs whose float64 loops the kernels call, in the order of their table (_UFUNCS) */
enum { NDTR, LOG, EXP, LOG1P, POWER };

/* A ufunc with the float64 inner loop that a call of it runs, and the loop's data; with loop NULL
   the ufunc itself is called */
typedef struct {
    PyObject *ufunc;
    PyUFuncGenericFunction loop;
    void *data;
} ufunc_t;

/* 1 with the first loop of ufunc whose types are all float64, and its data, in *loop and *data (the
   loop a call of the ufunc on float64 arrays runs), else 0 */
int float64_loop(PyObject *ufunc, void **loop, void **data)
{
    if (!PyObject_TypeCheck(ufunc, &PyUFunc_Type))
        return 0;
    PyUFuncObject *u = (PyUFuncObject *)ufunc;
    for (int i = 0; i < u->ntypes; i++) {
        int all = 1;
        for (int j = 0; j < u->nargs; j++)
            all &= u->types[i * u->nargs + j] == NPY_DOUBLE;
        if (all) {
            *loop = (void *)u->functions[i], *data = u->data[i];
            return 1;
        }
    }
    return 0;
}

/* The floating-point exceptions raised since the last feclearexcept, as numpy's NPY_FPE_ flags */
static int fp_flags(void)
{
    int raised = fetestexcept(FE_DIVBYZERO | FE_OVERFLOW | FE_UNDERFLOW | FE_INVALID);
    return (raised & FE_DIVBYZERO ? NPY_FPE_DIVIDEBYZERO : 0) | (raised & FE_OVERFLOW ? NPY_FPE_OVERFLOW : 0)
           | (raised & FE_UNDERFLOW ? NPY_FPE_UNDERFLOW : 0) | (raised & FE_INVALID ? NPY_FPE_INVALID : 0);
}

/* The one site at which the kernels call a ufunc: f on v[0..n) in place, f(v) or, given arg, f(v, *arg)
   with arg a stride-0 operand.  By f's float64 loop where it has one: the floating-point status is
   cleared before and any flag raised is reported after, as a call of the ufunc reports it (warnings,
   np.errstate); else by a call of the ufunc on an array over v.  0, or -1 with an error set. */
int ufunc_apply(const ufunc_t *f, double *v, int64_t n, const double *arg)
{
    if (n <= 0)
        return 0;
    npy_intp dims = (npy_intp)n;
    if (f->loop) {
        char *args[3] = {(char *)v, arg ? (char *)arg : (char *)v, (char *)v};
        npy_intp steps[3] = {sizeof *v, arg ? 0 : sizeof *v, sizeof *v};
        if (fp_flags())  /* feclearexcept costs more than the test */
            feclearexcept(FE_DIVBYZERO | FE_OVERFLOW | FE_UNDERFLOW | FE_INVALID);
        f->loop(args, &dims, steps, f->data);
        int flags = fp_flags();
        return flags ? PyUFunc_GiveFloatingpointErrors(((PyUFuncObject *)f->ufunc)->name, flags) : 0;
    }
    PyObject *on = PyArray_SimpleNewFromData(1, &dims, NPY_DOUBLE, v), *x = NULL, *done = NULL;
    if (on && arg)
        x = PyFloat_FromDouble(*arg);
    if (on && (!arg || x))
        done = x ? PyObject_CallFunctionObjArgs(f->ufunc, on, x, on, NULL)
                 : PyObject_CallFunctionObjArgs(f->ufunc, on, on, NULL);
    Py_XDECREF(on), Py_XDECREF(x), Py_XDECREF(done);
    return done ? 0 : -1;
}

/* 1 if f's loop gives the bytes of a call of f on the m inputs, each of the nargs args in turn
   (none: f is unary), in place at every length 1..70 and 255..257 and at offsets 0, 1 and 3 in a
   buffer, the inputs taken in turn from a place that moves with the length; else 0, and f's loop
   becomes NULL.  The caller ignores floating-point errors (np.errstate).  -1 with an error set. */
int loop_checked(ufunc_t *f, const double *inputs, int64_t m, const double *args, int64_t nargs)
{
    enum { CAP = 260 };
    static const int offsets[3] = {0, 1, 3};
    double got[CAP], want[CAP];
    ufunc_t call = *f;
    call.loop = NULL;
    for (int64_t a = 0; f->loop && a < (nargs ? nargs : 1); a++)
        for (int64_t len = 1; f->loop && len <= 257; len = len == 70 ? 255 : len + 1)
            for (int o = 0; o < 3 && f->loop; o++) {
                double *x = got + offsets[o], *y = want + offsets[o];
                for (int64_t j = 0; j < len; j++)
                    x[j] = y[j] = inputs[(len * 7 + j) % m];
                const double *arg = nargs ? args + a : NULL;
                if (ufunc_apply(f, x, len, arg) < 0 || ufunc_apply(&call, y, len, arg) < 0)
                    return -1;
                if (memcmp(x, y, len * sizeof *x))
                    f->loop = NULL;
            }
    return f->loop != NULL;
}

/* One step of asymptotics._python_steps: stores values[i] and returns 1, or
   returns 0 for a step that is negative or not finite. */
static inline int add_step(double step, double *a, double *carry, double *value)
{
    double y = step - *carry;
    if (!(0.0 < step && step < INFINITY)) {
        if (step != 0.0)
            return 0;  /* a zero step holds a: applying the carry could move it down */
    } else if (y < 0.0) {
        *carry = -y;  /* a overshoots the exact sum by more than the step: hold it there */
    } else {
        double s = *a + y;
        *carry = (s - *a) - y;
        *a = s;
    }
    *value = *a;
    return 1;
}

/* The data of a writable C-contiguous float64 array of size bytes (any if size < 0), or NULL
   with an error set */
static double *float64s(PyObject *array, Py_buffer *view, Py_ssize_t size)
{
    if (PyObject_GetBuffer(array, view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return NULL;
    if (strcmp(view->format, "d") == 0 && (size < 0 || view->len == size))
        return view->buf;
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_TypeError, "a C-contiguous float64 array of the right length is required");
    return NULL;
}

/* Each loop fills values[start:stop] from state = {a, carry} and returns None with {a, carry, stop}
   in state, the step at i it cannot add with {a, carry, i}, or NULL with an error set. */
static PyObject *hand_back(double *state, double a, double carry, int64_t i, int64_t stop,
                           Py_buffer *out, PyObject *step)
{
    state[0] = a, state[1] = carry, state[2] = (double)i;
    PyBuffer_Release(out);
    return i < stop ? step : Py_NewRef(Py_None);
}

/* signal_models.log_ndtr_scalar, operation for operation */
static double log_ndtr(double a, double sqrt2, double log_sqrt_2pi)
{
    if (a > 6.0)
        return log1p(-0.5 * erfc(a / sqrt2));
    if (a > -37.0)
        return log(0.5 * erfc(-a / sqrt2));
    double inv2 = 1.0 / (a * a);
    double series = 1.0 + inv2 * (-1.0 + inv2 * (3.0 + inv2 * (-15.0 + inv2 * (105.0 - 945.0 * inv2))));
    return -0.5 * a * a - log_sqrt_2pi - log(-a) + log(series);
}

PyObject *gaussian_steps(PyObject *array, int64_t start, int64_t stop, double *state,
                         double mean_p, double inv_tau, double sqrt2, double log_sqrt_2pi)
{
    Py_buffer out;
    double *values = float64s(array, &out, -1);
    if (values == NULL)
        return NULL;
    double a = state[0], carry = state[1], step = 0.0;
    int64_t i = start;
    /* the loop reads and writes only values and calls only libm: other threads may run Python */
    Py_BEGIN_ALLOW_THREADS
    for (; i < stop; i++) {
        step = log_ndtr((a + mean_p) * inv_tau, sqrt2, log_sqrt_2pi)
               - log_ndtr((a - mean_p) * inv_tau, sqrt2, log_sqrt_2pi);
        if (!add_step(step, &a, &carry, values + i))
            break;
    }
    Py_END_ALLOW_THREADS
    return hand_back(state, a, carry, i, stop, &out, i < stop ? PyFloat_FromDouble(step) : NULL);
}

/* increment(a), a new reference, or NULL with an error set */
static PyObject *call_at(PyObject *increment, double a)
{
    PyObject *arg = PyFloat_FromDouble(a), *step = arg ? PyObject_CallOneArg(increment, arg) : NULL;
    Py_XDECREF(arg);
    return step;
}

/* The step at index i is increment(a); a return that is not an exact float is handed back */
PyObject *call_steps(PyObject *array, int64_t start, int64_t stop, double *state,
                     PyObject *increment)
{
    Py_buffer out;
    double *values = float64s(array, &out, -1);
    if (values == NULL)
        return NULL;
    double a = state[0], carry = state[1];
    PyObject *handed = NULL;
    int64_t i = start;
    for (; i < stop; i++) {
        handed = call_at(increment, a);
        if (handed == NULL || !PyFloat_CheckExact(handed)
            || !add_step(PyFloat_AS_DOUBLE(handed), &a, &carry, values + i))
            break;
        Py_DECREF(handed);
    }
    return hand_back(state, a, carry, i, stop, &out, handed);
}

/* The Gaussian increments sgn * (b+ - b-) of belief._signed_increment at x = sgn * ell, in z
   (2 x n): z = (x + means) / tau, then scipy's ndtr and numpy's log in place give (b-, b+).
   Returns 1 with the increments in z[0..n), 0 at the deep branch (any p < 1e-300) or the tail
   branch (b- > -1e-8), or -1 with an error set. */
static int gaussian_increments(double *z, const double *ell, const double *sgn, Py_ssize_t n,
                               const ufunc_t *loops, const double *means, double tau)
{
    for (Py_ssize_t c = 0; c < n; c++) {
        double x = sgn[c] * ell[c];
        z[c] = (x + means[0]) / tau, z[n + c] = (x + means[1]) / tau;
    }
    if (ufunc_apply(loops + NDTR, z, 2 * n, NULL) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < 2 * n; i++)
        if (z[i] < 1e-300)
            return 0;
    if (ufunc_apply(loops + LOG, z, 2 * n, NULL) < 0)
        return -1;
    for (Py_ssize_t c = 0; c < n; c++)
        if (z[c] > -1e-8)
            return 0;
    for (Py_ssize_t c = 0; c < n; c++)
        z[c] = sgn[c] * (z[n + c] - z[c]);
    return 1;
}

/* A cubic spline on increasing knots x[0..n-1], coefs (4, n - 1) in C order, and its table of knot
   indices tab[0..n-1] (spline_table): a value v inside the knots is in bucket b = bucket(x, n, v),
   and its interval lies in [tab[b], tab[b + 1]] */
typedef struct {
    const double *x, *coefs;
    const int32_t *tab;
    int64_t n;
} spline_t;

/* The bucket of v in (x[0], x[n-1]): the n - 1 buckets split the knots' span evenly, as a guess as
   if the knots were even splits it into intervals */
static inline int64_t bucket(const double *x, int64_t n, double v)
{
    double guess = (v - x[0]) / (x[n - 1] - x[0]) * (double)(n - 1);
    return guess < (double)(n - 2) ? (int64_t)guess : n - 2;
}

/* spline_t's table of the n increasing knots x: tab[b] is the last interval that starts in a bucket
   before b, else 0.  The buckets of the knots never decrease, so a value in bucket b lies in an
   interval from tab[b] to tab[b + 1]. */
void spline_table(const double *x, int64_t n, int32_t *tab)
{
    int64_t b = 0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t bi = bucket(x, n, x[i]); b <= bi; b++)
            tab[b] = (int32_t)(i > 0 ? i - 1 : 0);
    for (; b < n; b++)
        tab[b] = (int32_t)(n - 2);
}

/* The spline sp at v, in the order of operations of signal_models._CubicSpline.reference (which is
   scipy's PPoly's).  The interval is the i with x[i] <= v < x[i+1], 0 below the knots and n - 2 from
   the last knot up: guessed as if the knots were even; where that misses, bisected between the
   bounds that the table gives v's bucket (or beyond them, should v fall outside).  NaN gives NaN. */
static inline double spline_at(const spline_t *sp, double v)
{
    if (v != v)
        return NAN;
    const double *x = sp->x;
    int64_t i = 0, n = sp->n;
    if (v >= x[n - 1]) {
        i = n - 2;
    } else if (v > x[0]) {
        int64_t b = bucket(x, n, v), lo = b, hi = b;
        if (v < x[b] || v >= x[b + 1]) {  /* not interval b, as on even knots: the table's bounds */
            lo = sp->tab[b], hi = sp->tab[b + 1];
            if (v < x[lo])
                hi = lo - 1, lo = 0;
            else if (hi < n - 2 && v >= x[hi + 1])
                lo = hi + 1, hi = n - 2;
        }
        while (lo < hi) {  /* the last i in [lo, hi] with x[i] <= v */
            int64_t mid = lo + (hi - lo + 1) / 2;
            if (v >= x[mid])
                lo = mid;
            else
                hi = mid - 1;
        }
        i = lo;
    }
    double s = v - x[i], res = 0.0, z = 1.0;
    for (int kp = 0; kp < 4; kp++) {
        res = res + sp->coefs[(3 - kp) * (n - 1) + i] * z;
        if (kp < 3)
            z *= s;
    }
    return res;
}

/* spline_at at each of the m values a, into out */
void spline_values(const spline_t *sp, const double *a, double *out, int64_t m)
{
    for (int64_t j = 0; j < m; j++)
        out[j] = spline_at(sp, a[j]);
}

/* The sums 1 - (k+1)/x + (k+1)(k+2)/x**2 - ... of _log_exp_poly_tail_asymptotic's series at the m
   values x at once, into total (term is scratch): as there, the loop stops once every term is
   below 1e-17 */
static void tail_series(const double *x, double *total, double *term, Py_ssize_t m, double k)
{
    for (Py_ssize_t i = 0; i < m; i++)
        total[i] = term[i] = 1.0;
    for (int j = 1; j < 40 && m > 0; j++) {
        int small = 1;
        for (Py_ssize_t i = 0; i < m; i++) {
            term[i] = term[i] * (-(k + j) / x[i]);
            total[i] += term[i];
            small &= fabs(term[i]) < 1e-17;
        }
        if (small)
            break;
    }
}

/* log T(x) past 60 from numpy's log of x and of its series sum */
static inline double series_log_t(double x, double log_x, double log_total, double k)
{
    return -x - (k + 1.0) * log_x + log_total;
}

/* polytail_increments' branches other than 1 <= a <= 60, given its counts of a >= 1, a > 60,
   a <= -1 and a < -60: log T(a) past 60 into w[p + i] for the i-th a >= 1, and the increments
   where a < 1 into inc = w + 4n.  From l = w + 2n, for numpy's log: |a| where a > 60, where
   a < -60 and where -60 <= a <= -1, then the series sums where a > 60 and where a < -60; inc
   holds the series' scratch until the increments.  Returns 1, 0 in the tail branch, or -1 with
   an error set. */
static int polytail_far(double *w, const double *ell, const double *sgn, Py_ssize_t n, Py_ssize_t p,
                        Py_ssize_t p60, Py_ssize_t nn, Py_ssize_t n60, const ufunc_t *loops,
                        const double *consts, const spline_t *sp)
{
    double k = consts[2], *l = w + 2 * n, *sums = l + p60 + nn, *inc = w + 4 * n;
    Py_ssize_t ip = 0, jp = 0, jn = 0, jm = 0;
    for (Py_ssize_t c = 0; c < n; c++) {
        double a = sgn[c] * ell[c];
        if (a > 60.0)
            l[jp++] = a;
        else if (a < -60.0)
            l[p60 + jn++] = -a;
        else if (a <= -1.0)
            l[p60 + n60 + jm++] = -a;
    }
    for (Py_ssize_t i = 0; i < p60 + n60; i++)
        if (l[i] <= consts[7])  /* where the series does not serve, _log_T's continued fraction: Python */
            return 0;
    tail_series(l, sums, inc, p60, k);
    tail_series(l + p60, sums + p60, inc, n60, k);
    if (ufunc_apply(loops + LOG, l, 2 * p60 + nn + n60, NULL) < 0)
        return -1;
    jp = jn = jm = 0;
    for (Py_ssize_t c = 0; c < n; c++) {
        double a = sgn[c] * ell[c], b_minus = consts[3], b_plus = consts[4];
        if (a >= 1.0) {
            if (a > 60.0)
                w[p + ip] = series_log_t(a, l[jp], sums[jp], k), jp++;
            ip++;
            continue;
        }
        if (a < -60.0) {
            b_minus = consts[5] + series_log_t(-a, l[p60 + jn], sums[p60 + jn], k);
            b_plus = consts[4] - k * l[p60 + jn++];
        } else if (a <= -1.0) {
            b_minus = consts[5] + spline_at(sp, -a);
            b_plus = consts[4] - k * l[p60 + n60 + jm++];
        }
        if (b_minus > -1e-8)
            return 0;
        inc[c] = sgn[c] * (b_plus - b_minus);
    }
    return 1;
}

/* PolyTail's increments sgn * (b+ - b-) at a = sgn * ell, into w[4n..5n) (w holds 5n values), each
   (b-, b+) as belief._signed_increment(model, a, +1) takes it on a's branch:
   a >= 1: log1p(-c/k * a**-k) and log1p(-c * T(a)); -1 < a < 1: log1p(-c/k) and log(c/k);
   a <= -1: log c + log T(-a) and log(c/k) - k * log(-a).  log T is the spline on [1, 60] and
   _log_exp_poly_tail_asymptotic's series past 60, which _log_T runs over all a > 60 at once and
   over all a < -60 at once.  Each branch's values are gathered in w for numpy's power, exp, log1p
   and log; consts = (-c/k, -c, k, log1p(-c/k), log(c/k), log c, -k, floor) with the logs taken by
   Python's math and floor the series' _PolyTailTables.series_floor (60 for k up to 5).  Returns 1,
   0 at a NaN a, in the tail branch (b- > -1e-8) or at 60 < |a| <= floor, where _log_T takes the
   continued fraction, or -1 with an error set. */
static int polytail_increments(double *w, const double *ell, const double *sgn, Py_ssize_t n,
                               const ufunc_t *loops, const double *consts, const spline_t *sp)
{
    Py_ssize_t p = 0, p60 = 0, nn = 0, n60 = 0;
    for (Py_ssize_t c = 0; c < n; c++) {  /* w[0:p]: a >= 1; w[n:n+p]: log T(a) where a <= 60 */
        double a = sgn[c] * ell[c];
        if (a != a)
            return 0;
        if (a >= 1.0) {
            if (a <= 60.0)
                w[n + p] = spline_at(sp, a);
            p60 += a > 60.0;
            w[p++] = a;
        } else if (a <= -1.0) {
            nn++, n60 += a < -60.0;
        }
    }
    if (p < n)  /* log T(a) next to a, for one log1p over both */
        memmove(w + p, w + n, p * sizeof *w);
    int done = p < n || p60 ? polytail_far(w, ell, sgn, n, p, p60, nn, n60, loops, consts, sp) : 1;
    if (done < 1)
        return done;
    if (ufunc_apply(loops + POWER, w, p, consts + 6) < 0 || ufunc_apply(loops + EXP, w + p, p, NULL) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < 2 * p; i++)
        w[i] *= consts[i >= p];
    if (ufunc_apply(loops + LOG1P, w, 2 * p, NULL) < 0)
        return -1;
    double *inc = w + 4 * n;
    for (Py_ssize_t c = 0, ip = 0; c < n; c++) {
        if (!(sgn[c] * ell[c] >= 1.0))
            continue;
        if (w[ip] > -1e-8)
            return 0;
        inc[c] = sgn[c] * (w[p + ip] - w[ip]);
        ip++;
    }
    return 1;
}

/* _scalar_increment's PolyTail form past 40 on libm, in its order of operations (a = c / k) */
static inline double polytail_far_step(double x, double a, double c, double k)
{
    return -log1p(-a * pow(x, -k)) - c * exp(-x) * pow(x, -k - 1.0);
}

/* polytail_far_step at each of the m values x, into out */
void polytail_far_steps(const double *x, double *out, int64_t m, double a, double c, double k)
{
    for (int64_t j = 0; j < m; j++)
        out[j] = polytail_far_step(x[j], a, c, k);
}

/* belief._signed_increment's tail form of PolyTail's D+ at 1 <= a <= 60, in its order of operations:
   exp(near + log1p(-exp(far - near))) with near = log(c/k) - k * log(a) and far = log c + log T(a),
   log T by the spline (consts and sp as in polytail_increments).  There far < near, so log1p's
   argument stays above -1 and the divide error that the Python form ignores cannot arise.  0 with
   the step in *step, or -1 with an error set. */
static int polytail_tail_step(double a, double *step, const ufunc_t *loops, const double *consts,
                              const spline_t *sp)
{
    double v = a;
    if (ufunc_apply(loops + LOG, &v, 1, NULL) < 0)
        return -1;
    double near = consts[4] - consts[2] * v, far = consts[5] + spline_at(sp, a);
    v = far - near;
    if (ufunc_apply(loops + EXP, &v, 1, NULL) < 0)
        return -1;
    v = -v;
    if (ufunc_apply(loops + LOG1P, &v, 1, NULL) < 0)
        return -1;
    *step = near + v;
    return ufunc_apply(loops + EXP, step, 1, NULL);
}

/* The PolyTail ell* loop: below 40 the step at a is polytail_increments' at the one point a with
   sgn = +1 (loops, consts and spline as there), or in its tail branch polytail_tail_step; where it
   leaves the step to Python (a tail branch below 1, a NaN) increment(a) as in call_steps.  From 40
   up it is polytail_far_step.  The path never falls, so the second stretch, which calls only libm,
   runs without the GIL. */
PyObject *polytail_steps(PyObject *array, int64_t start, int64_t stop, double *state, PyObject *increment,
                         const ufunc_t *loops, const double *consts, const spline_t *sp)
{
    Py_buffer out;
    double *values = float64s(array, &out, -1);
    if (values == NULL)
        return NULL;
    double a = state[0], carry = state[1], step = 0.0, w[5], plus = 1.0;
    PyObject *handed = NULL;
    int64_t i = start;
    for (; i < stop && !(a >= 40.0); i++) {
        int fused = polytail_increments(w, &a, &plus, 1, loops, consts, sp);
        if (fused == 0 && a >= 1.0)
            fused = polytail_tail_step(a, w + 4, loops, consts, sp) < 0 ? -1 : 1;
        if (fused < 0)
            break;
        if (fused) {
            step = w[4];
        } else {
            handed = call_at(increment, a);
            if (handed == NULL || !PyFloat_CheckExact(handed))
                break;
            step = PyFloat_AS_DOUBLE(handed);
            Py_CLEAR(handed);
        }
        if (!add_step(step, &a, &carry, values + i))
            return hand_back(state, a, carry, i, stop, &out, PyFloat_FromDouble(step));
    }
    if (i < stop && a >= 40.0) {
        double ck = -consts[0], c = -consts[1], k = consts[2];
        /* the loop reads and writes only values and calls only libm: other threads may run Python */
        Py_BEGIN_ALLOW_THREADS
        for (; i < stop; i++) {
            step = polytail_far_step(a, ck, c, k);
            if (!add_step(step, &a, &carry, values + i))
                break;
        }
        Py_END_ALLOW_THREADS
        if (i < stop)
            handed = PyFloat_FromDouble(step);
    }
    return hand_back(state, a, carry, i, stop, &out, handed);
}

/* The rate-target ell* loop: the step at a is table[j], j = clamp(ceil(a) + cut, 0, top), as
   _scalar_increment reads the table, where cell j is ready (its slice is built).  At a cell that is
   not, the step is increment(a), as in call_steps, which builds the cell's slice, and the loop goes
   on; at a NaN or infinite a increment(a) is handed back. */
PyObject *table_steps(PyObject *array, int64_t start, int64_t stop, double *state, PyObject *increment,
                      const double *table, int64_t cut, int64_t top, const uint8_t *ready)
{
    Py_buffer out;
    double *values = float64s(array, &out, -1);
    if (values == NULL)
        return NULL;
    double a = state[0], carry = state[1], step = 0.0;
    int64_t i = start;
    for (;;) {
        int added = 1;
        /* the loop reads only table and ready and writes only values: other threads may run Python */
        Py_BEGIN_ALLOW_THREADS
        for (; i < stop && fabs(a) < INFINITY; i++) {
            double cell = ceil(a) + (double)cut;
            int64_t j = cell < 0.0 ? 0 : cell > (double)top ? top : (int64_t)cell;
            if (!ready[j])
                break;
            step = table[j];
            if (!(added = add_step(step, &a, &carry, values + i)))
                break;
        }
        Py_END_ALLOW_THREADS
        if (i == stop || !added)
            break;
        PyObject *handed = call_at(increment, a);
        if (!(fabs(a) < INFINITY) || handed == NULL || !PyFloat_CheckExact(handed)
            || !add_step(PyFloat_AS_DOUBLE(handed), &a, &carry, values + i))
            return hand_back(state, a, carry, i, stop, &out, handed);
        Py_DECREF(handed);
        i++;
    }
    return hand_back(state, a, carry, i, stop, &out, i < stop ? PyFloat_FromDouble(step) : NULL);
}

/* PolyTailSignalModel.llr_from_uniform(theta, u) in place on the m uniforms u: sign * x for theta's
   sign, with x = _ppf_minus(u) in its order of operations.  Where u <= c/k,
   x = -power(k * max(u, 2**-53) / c, -1/k); elsewhere x is the quantile spline sp at
   log(1 - u) clipped to its knots as numpy's clip does.  Each branch's values are gathered in w
   (m values) for numpy's power (to the power inv_k = -1/k) and log, ck = c/k.  Returns 0, or -1
   with an error set. */
static int polytail_map(double *u, Py_ssize_t m, double *w, const ufunc_t *loops, double inv_k,
                        double ck, double k, double c, double sign, const spline_t *sp)
{
    double lo = sp->x[0], hi = sp->x[sp->n - 1];
    Py_ssize_t below = 0;
    for (Py_ssize_t j = 0; j < m; j++)
        below += u[j] <= ck;
    for (Py_ssize_t j = 0, jlo = 0, jhi = below; j < m; j++) {
        if (u[j] <= ck)
            w[jlo++] = k * (u[j] >= 0x1p-53 ? u[j] : 0x1p-53) / c;
        else
            w[jhi++] = 1.0 - u[j];
    }
    int done = ufunc_apply(loops + POWER, w, below, &inv_k);
    if (done == 0)
        done = ufunc_apply(loops + LOG, w + below, m - below, NULL);
    for (Py_ssize_t j = 0, jlo = 0, jhi = below; done == 0 && j < m; j++) {
        double x, v;
        if (u[j] <= ck) {
            x = -w[jlo++];
        } else {
            v = w[jhi++];
            v = v != v || v > lo ? v : lo;
            v = v != v || v < hi ? v : hi;
            x = spline_at(sp, v);
        }
        u[j] = sign > 0.0 ? -x : x;
    }
    return done;
}

/* polytail_map on the uniforms of the array u_a */
int polytail_llr(PyObject *u_a, const ufunc_t *loops, double inv_k, double ck, double k, double c,
                 double sign, const spline_t *sp)
{
    Py_buffer view;
    double *u = float64s(u_a, &view, -1);
    if (u == NULL)
        return -1;
    Py_ssize_t m = view.len / (Py_ssize_t)sizeof(double);
    double *w = PyMem_Malloc((m + 1) * sizeof *w);
    int done = w ? polytail_map(u, m, w, loops, inv_k, ck, k, c, sign, sp) : (PyErr_NoMemory(), -1);
    PyMem_Free(w);
    PyBuffer_Release(&view);
    return done;
}

/* e[j] = row[j] < e[j] ? row[j] : e[j] where low, else the same with >; the two rows do not
   overlap.  Vectorised at -O2 too: a vector compare and select gives each element's bits. */
__attribute__((optimize("tree-vectorize", "vect-cost-model=dynamic")))
static void fold_row(double *restrict e, const double *restrict row, int64_t cols, int low)
{
    if (low)
        for (int64_t j = 0; j < cols; j++)
            e[j] = row[j] < e[j] ? row[j] : e[j];
    else
        for (int64_t j = 0; j < cols; j++)
            e[j] = row[j] > e[j] ? row[j] : e[j];
}

/* What cohort_steps reads and writes to settle a lockstep pass's flagged steps (_native.Runs):
   - the family, whose raw-to-LLR map C runs: 1 (Gaussian) is raw * tau + mean, 2 (PolyTail)
     polytail_map with inv_k, ck, k, c and llr_sign;
   - the ufuncs' table (ufunc_t, in _UFUNCS' order) through which the increments and the map call
     numpy's and scipy's loops;
   - theta's sign, the bounds' margin, and whether the map falls (a cohort playing +1 then errs
     on its raw maximum);
   - the run book (the rows T_FIRST.. of trials int64 values each) and the actions (trials x
     horizon int8, or NULL);
   - the chunk's raw draws (rows x cols), each row's cohort and trial, and the time of its step 0;
   - the live cohorts, which settling updates, and the cohorts that a step handed back for want
     of spare ones needs room for, else 0. */
typedef struct {
    int64_t family;
    double tau, mean;
    const ufunc_t *loops;
    double inv_k, ck, k, c, llr_sign;
    const spline_t *spline;
    double sign, margin;
    int64_t decreasing;
    int64_t *book;
    int64_t trials, horizon;
    int8_t *actions;
    const double *draws;
    int64_t rows, cols;
    int64_t *coh;
    const int64_t *trial;
    int64_t t0, n, room;
} runs_t;

/* The rows of a run book, montecarlo._BOOK's order */
enum { T_FIRST, T_LAST, RUNS, MAX_GOOD, MAX_BAD, RUN_START };

/* montecarlo._close_runs for trial j, whose run ends at step t, good or bad */
static void close_run(runs_t *p, int64_t j, int good, int64_t t)
{
    int64_t *b = p->book + j, stride = p->trials, length = t - b[RUN_START * stride];
    b[RUNS * stride] += length > 0;
    if (good) {
        if (length > b[MAX_GOOD * stride])
            b[MAX_GOOD * stride] = length;
    } else {
        if (length > b[MAX_BAD * stride])
            b[MAX_BAD * stride] = length;
        b[T_LAST * stride] = t - 1;
    }
    b[RUN_START * stride] = t;
}

/* Each row's actions at the chunk's steps from..to-1, its cohort's sgn */
static void write_actions(runs_t *p, const double *sgn, int64_t from, int64_t to)
{
    if (p->actions == NULL || from >= to)
        return;
    for (int64_t r = 0; r < p->rows; r++)
        memset(p->actions + p->trial[r] * p->horizon + p->t0 + from - 1,
               sgn[p->coh[r]] > 0.0 ? 1 : -1, (size_t)(to - from));
}

/* The pass's raw-to-LLR map in place on v[0..m) (w: scratch of m values): 0, or -1 with an error set */
static int map_llr(runs_t *p, double *w, double *v, Py_ssize_t m)
{
    if (p->family == 1) {
        for (Py_ssize_t i = 0; i < m; i++)
            v[i] = v[i] * p->tau + p->mean;
        return 0;
    }
    return polytail_map(v, m, w, p->loops, p->inv_k, p->ck, p->k, p->c, p->llr_sign, p->spline);
}

/* montecarlo._bounds' widening of an LLR x on the erring side of sgn */
static inline double widen(double x, double sgn, double margin)
{
    return x - sgn * margin * (1.0 + fabs(x));
}

/* Scratch of a pass's cohort_steps: each cohort's flag and fork (cap each), the rows read and
   their values (rows each), one cohort's extremes (cols), the map's values (max(rows, cols)) and
   the increments' (2 cap for a Gaussian, 5 cap for PolyTail) */
typedef struct {
    uint8_t *flag;
    int64_t *fork, *idx;
    double *u, *e, *w, *z;
} scratch_t;

/* Rebounds each flagged cohort c by its own read rows idx[0..m) over the steps after s, as
   montecarlo._bounds takes _extremes: the extreme of each step on its erring side, mapped and
   widened, unless the widened extreme over all those steps keeps its action, which then bounds
   every step; a cohort with no rows gets sgn[c] * inf.  Returns 0, or -1 with an error set. */
static int rebound(runs_t *p, scratch_t *x, Py_ssize_t m, const double *ell,
                   const double *sgn, Py_ssize_t n, double *bounds, int64_t width, int64_t s)
{
    int64_t left = p->cols - s - 1;
    double *e = x->e;
    for (Py_ssize_t c = 0; c < n; c++) {
        if (!x->flag[c])
            continue;
        int low = (sgn[c] > 0.0) != (p->decreasing != 0), some = 0;
        for (int64_t j = 0; j < left; j++)
            e[j] = low ? INFINITY : -INFINITY;
        for (Py_ssize_t i = 0; i < m; i++)
            if (p->coh[x->idx[i]] == c)
                fold_row(e, p->draws + x->idx[i] * p->cols + s + 1, left, low), some = 1;
        double whole = sgn[c] * INFINITY, raw = e[0];
        for (int64_t j = 1; j < left; j++)
            raw = low ? (e[j] < raw ? e[j] : raw) : (e[j] > raw ? e[j] : raw);
        if (some) {
            if (map_llr(p, x->w, &raw, 1) < 0)
                return -1;
            whole = widen(raw, sgn[c], p->margin);
        }
        double *col = bounds + (s + 1) * width + c;
        int stepped = some && (ell[c] + whole > 0.0) != (sgn[c] > 0.0);
        if (stepped && map_llr(p, x->w, e, left) < 0)
            return -1;
        for (int64_t j = 0; j < left; j++)
            col[j * width] = stepped ? widen(e[j], sgn[c], p->margin) : whole;
    }
    return 0;
}

/* Settles the flagged step s of a pass as montecarlo._lockstep's Python step does, bit for bit:
   the flagged cohorts' rows are read and mapped; rows that flip end their runs (and set t_first),
   and move to one new cohort per source cohort, in increasing source order, with the source's ell
   and carry, the other action and the bound -sgn * inf for the chunk's other steps.  Where no row
   flips, rebound.  The actions up to s are written first (from *seg, which moves to s).  Where
   fewer than the new cohorts are spare of cap, it changes nothing and sets p->room to the cohorts
   the step needs.  Returns 1, or -1 with an error set. */
static int settle(runs_t *p, scratch_t *x, double *ell, double *carry, double *sgn,
                  Py_ssize_t cap, double *bounds, int64_t width, int64_t s, int64_t *seg)
{
    Py_ssize_t n = p->n, m = 0, flips = 0, forks = 0;
    for (Py_ssize_t c = 0; c < n; c++)
        x->flag[c] = (ell[c] + bounds[s * width + c] > 0.0) != (sgn[c] > 0.0);
    for (int64_t r = 0; r < p->rows; r++)
        if (x->flag[p->coh[r]])
            x->idx[m] = r, x->u[m++] = p->draws[r * p->cols + s];
    if (map_llr(p, x->w, x->u, m) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t c = p->coh[x->idx[i]];
        if ((ell[c] + x->u[i] > 0.0) != (sgn[c] > 0.0))
            x->idx[flips++] = x->idx[i];
    }
    if (flips == 0)  /* an idle step: the flagged cohorts are rebounded for the rest of the chunk */
        return s + 1 < p->cols && rebound(p, x, m, ell, sgn, n, bounds, width, s) < 0 ? -1 : 1;
    memset(x->fork, 0, n * sizeof *x->fork);
    for (Py_ssize_t i = 0; i < flips; i++) {
        int64_t c = p->coh[x->idx[i]];
        forks += !x->fork[c], x->fork[c] = 1;
    }
    if (n + forks > cap) {
        p->room = n + forks;
        return 1;
    }
    write_actions(p, sgn, *seg, s);
    *seg = s;
    int64_t t = p->t0 + s, *t_first = p->book + T_FIRST * p->trials;
    for (Py_ssize_t i = 0; i < flips; i++) {
        int64_t r = x->idx[i], j = p->trial[r];
        close_run(p, j, sgn[p->coh[r]] == p->sign, t);
        if (t_first[j] == 0)  /* a trial's first switch is its first mistake */
            t_first[j] = t;
    }
    for (Py_ssize_t c = 0, next = n; c < n; c++)
        if (x->fork[c]) {
            ell[next] = ell[c], carry[next] = carry[c], sgn[next] = -sgn[c];
            x->fork[c] = next++;
        }
    for (Py_ssize_t i = 0; i < flips; i++)
        p->coh[x->idx[i]] = x->fork[p->coh[x->idx[i]]];
    for (int64_t j = s + 1; j < p->cols; j++)
        for (Py_ssize_t c = n; c < n + forks; c++)
            bounds[j * width + c] = -sgn[c] * INFINITY;  /* flagged until a step with no switch */
    p->n = n + forks;
    return 1;
}

/* The Python increment(model, ell[:n], sgn[:n]) of n live cohorts: a new reference, or NULL with an
   error set */
static PyObject *call_increment(PyObject *increment, PyObject *model, PyObject *ell_a, PyObject *sgn_a,
                                Py_ssize_t n)
{
    PyObject *ell = PySequence_GetSlice(ell_a, 0, n), *sgn = ell ? PySequence_GetSlice(sgn_a, 0, n) : NULL;
    PyObject *called = sgn ? PyObject_CallFunctionObjArgs(increment, model, ell, sgn, NULL) : NULL;
    Py_XDECREF(ell), Py_XDECREF(sgn);
    return called;
}

/* montecarlo's Python step over steps s..stop-1 of a chunk, in place on the cohorts' ell, carry and
   sgn, whose first runs->n values are live.  A step adds increment(model, ell, sgn) by the engine's
   compensated update.  For family 1 (consts = the two state means and tau) or 2 (the PolyTail
   consts and spline) the increment is computed in C through runs->loops, unless the model's branch
   leaves it to Python.  A step at which cohort c's bound bounds[step * width + c] could flip its
   action sgn[c] is settled first.  Returns the step it stopped at (stop, or a flagged step whose
   forks need runs->room columns, which it leaves unchanged), with runs->n the live cohorts, or -1
   with an error set.  A pass's last step closes every run. */
int64_t cohort_steps(PyObject *ell_a, PyObject *carry_a, PyObject *sgn_a, double *bounds, int64_t width,
                     int64_t s, int64_t stop, PyObject *increment, PyObject *model,
                     const double *consts, const spline_t *spline, runs_t *runs)
{
    PyObject *arrays[3] = {ell_a, carry_a, sgn_a};
    Py_buffer views[3], view;
    double *data[3] = {NULL};
    int64_t family = runs->family;
    int got = 0;
    while (got < 3 && (data[got] = float64s(arrays[got], views + got, got ? views[0].len : -1)))
        got++;
    Py_ssize_t cap = got ? views[0].len / (Py_ssize_t)sizeof(double) : 0, n = runs->n;
    double *ell = data[0], *carry = data[1], *sgn = data[2];
    int64_t seg = s, most = runs->rows > runs->cols ? runs->rows : runs->cols;
    scratch_t x = {NULL, NULL, NULL, NULL, NULL, NULL, NULL};
    int ready = got == 3;
    runs->room = 0;
    if (ready) {
        x.flag = PyMem_Malloc(cap + 1), x.fork = PyMem_Malloc((cap + 1) * sizeof *x.fork);
        x.idx = PyMem_Malloc((runs->rows + 1) * sizeof *x.idx);
        x.u = PyMem_Malloc((runs->rows + 1) * sizeof *x.u);
        x.e = PyMem_Malloc((runs->cols + 1) * sizeof *x.e);
        x.w = PyMem_Malloc((most + 1) * sizeof *x.w);
        x.z = PyMem_Malloc(((family == 2 ? 5 : 2) * cap + 1) * sizeof *x.z);
        if (!(x.flag && x.fork && x.idx && x.u && x.e && x.w && x.z))
            ready = 0, PyErr_NoMemory();
    }
    for (; ready && s < stop; s++) {
        int flagged = 0;
        for (Py_ssize_t c = 0; c < n && !flagged; c++)
            flagged = (ell[c] + bounds[s * width + c] > 0.0) != (sgn[c] > 0.0);
        if (flagged) {
            if (settle(runs, &x, ell, carry, sgn, cap, bounds, width, s, &seg) < 0 || runs->room)
                break;
            n = runs->n;
        }
        int fused = family == 1 ? gaussian_increments(x.z, ell, sgn, n, runs->loops, consts, consts[2])
                                : polytail_increments(x.z, ell, sgn, n, runs->loops, consts, spline);
        PyObject *called = NULL;
        double *inc = fused > 0 ? x.z + (family == 2 ? 4 * n : 0) : NULL;
        if (!fused && (called = call_increment(increment, model, ell_a, sgn_a, n)))
            inc = float64s(called, &view, n * (Py_ssize_t)sizeof(double));
        if (fused < 0 || inc == NULL) {
            Py_XDECREF(called);
            break;
        }
        for (Py_ssize_t c = 0; c < n; c++) {
            double y = inc[c] - carry[c], s2 = ell[c] + y;
            carry[c] = (s2 - ell[c]) - y, ell[c] = s2;
        }
        if (called) {
            PyBuffer_Release(&view);
            Py_DECREF(called);
        }
    }
    if (ready && !PyErr_Occurred()) {
        write_actions(runs, sgn, seg, s);
        if (runs->t0 + s == runs->horizon + 1)  /* the pass's last step: the horizon ends every run */
            for (int64_t r = 0; r < runs->rows; r++)
                close_run(runs, runs->trial[r], sgn[runs->coh[r]] == runs->sign, runs->horizon + 1);
    }
    PyMem_Free(x.flag), PyMem_Free(x.fork), PyMem_Free(x.idx), PyMem_Free(x.u), PyMem_Free(x.e);
    PyMem_Free(x.w), PyMem_Free(x.z);
    while (got-- > 0)
        PyBuffer_Release(views + got);
    return PyErr_Occurred() ? -1 : s;
}
"""

# Appended to _SOURCE where numpy ships its sampler library (see _sampler).
_FILL_SOURCE = r"""
#include <numpy/random/distributions.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>

/* A stream's row of uint64 words: numpy's philox_state */
enum { COUNTER = 0, KEY = 4, BUFFER = 6, BUFFER_POS = 10, HAS_UINT32 = 11, UINTEGER = 12, ROW = 13 };

/* Bump the counter and buffer the block of four words that Philox4x64-10 makes of it,
   all marked as drawn (numpy's philox_next does this when its buffer is spent) */
static inline void philox_block(uint64_t *s)
{
    uint64_t *c = s + COUNTER;
    if (++c[0] == 0 && ++c[1] == 0 && ++c[2] == 0)
        ++c[3];
    uint64_t x0 = c[0], x1 = c[1], x2 = c[2], x3 = c[3], k0 = s[KEY], k1 = s[KEY + 1];
#pragma GCC unroll 10
    for (int round = 0; round < 10; round++) {
        __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * x0;
        __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * x2;
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0, x1 = (uint64_t)p1;
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1, x3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15ULL, k1 += 0xBB67AE8584CAA73BULL;  /* the next round's key */
    }
    s[BUFFER] = x0, s[BUFFER + 1] = x1, s[BUFFER + 2] = x2, s[BUFFER + 3] = x3;
    s[BUFFER_POS] = 4;
}

/* numpy's philox_next: the buffered words, then a new block */
static uint64_t philox_next(void *st)
{
    uint64_t *s = st;
    if (s[BUFFER_POS] >= 4) {
        philox_block(s);
        s[BUFFER_POS] = 0;
    }
    return s[BUFFER + s[BUFFER_POS]++];
}

/* numpy's philox_next32: the high half of a word waits for the next call */
static uint32_t philox_next32(void *st)
{
    uint64_t *s = st;
    if (s[HAS_UINT32]) {
        s[HAS_UINT32] = 0;
        return (uint32_t)s[UINTEGER];
    }
    uint64_t next = philox_next(st);
    s[HAS_UINT32] = 1, s[UINTEGER] = next >> 32;
    return (uint32_t)next;
}

/* numpy's next_double: a word's top 53 bits times 2**-53 */
static inline double to_double(uint64_t word)
{
    return (word >> 11) * (1.0 / 9007199254740992.0);
}

static double philox_next_double(void *st)
{
    return to_double(philox_next(st));
}

/* numpy's ziggurat tables for the standard normal, read by ziggurat_tables: a word
   r = idx | sign << 8 | rabs << 9 (low to high) gives (-1)^sign * rabs * wi[idx] at
   once if rabs < ki[idx]; every other word takes numpy's wedge or tail path */
static double wi[256];
static uint64_t ki[256];
static int inline_normals = -1;  /* unknown until normals_checked() runs */

/* A bitgen_t that gives one word, then words 2 (idx 2, rabs 0: a draw of 0 at
   once) and doubles 0.5, counting what it hands out */
typedef struct { uint64_t first; int used; } probe_t;

static uint64_t probe_next(void *st)
{
    probe_t *p = st;
    return p->used++ ? 2 : p->first;
}

static double probe_next_double(void *st)
{
    ((probe_t *)st)->used++;
    return 0.5;
}

/* 1 if numpy's random_standard_normal draws from word alone (its fast path), with the
   draw in *draw */
static int one_word(uint64_t word, double *draw)
{
    probe_t p = {word, 0};
    bitgen_t gen = {&p, probe_next, NULL, probe_next_double, probe_next};
    *draw = random_standard_normal(&gen);
    return p.used == 1;
}

/* wi[idx] is the draw of rabs 1; ki[idx] is the least rabs whose draw takes more than
   one word, found by bisection (in a layer, the fast path takes the words below ki) */
static void ziggurat_tables(void)
{
    for (uint64_t idx = 0; idx < 256; idx++) {
        if (!one_word(idx | 1ULL << 9, &wi[idx]))
            wi[idx] = 0.0;  /* at most rabs 0 takes the fast path, and draws 0.0 */
        uint64_t lo = 0, hi = 1ULL << 52;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            double draw;
            if (one_word(idx | mid << 9, &draw))
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo;
    }
}

/* The fast path's draw of word r in *x, or 0 where r misses it */
static inline int fast_normal(uint64_t r, double *x)
{
    uint64_t idx = r & 0xff, rabs = r >> 9 & 0x000fffffffffffffULL;
    if (rabs >= ki[idx])
        return 0;
    double draw = (double)rabs * wi[idx];
    uint64_t bits;
    memcpy(&bits, &draw, sizeof bits);
    bits ^= (r & 0x100) << 55;  /* the sign bit, r >> 8 & 1 */
    memcpy(x, &bits, sizeof bits);
    return 1;
}

/* The rows below draw what numpy's fills draw.  Once the buffer is spent they take
   whole blocks straight from the counter, which saves a branch and a store per word. */

/* numpy's random_standard_uniform_fill */
static void uniform_row(uint64_t *s, double *out, int64_t cols)
{
    int64_t j = 0;
    for (; j < cols && s[BUFFER_POS] < 4; j++)
        out[j] = to_double(philox_next(s));
    for (; j + 4 <= cols; j += 4) {
        philox_block(s);
        for (int k = 0; k < 4; k++)
            out[j + k] = to_double(s[BUFFER + k]);
    }
    for (; j < cols; j++)
        out[j] = to_double(philox_next(s));
}

/* numpy's random_standard_normal_fill with its fast path inline: a word that misses it
   goes back to the stream for numpy's own sampler (gen, on the same stream) to draw from */
static void normal_row(uint64_t *s, double *out, int64_t cols, bitgen_t *gen)
{
    int64_t j = 0;
    while (j < cols) {
        if (s[BUFFER_POS] < 4 || cols - j < 4) {
            if (!fast_normal(philox_next(s), out + j)) {
                s[BUFFER_POS]--;  /* philox_next left it in 1..4: the word is still buffered */
                out[j] = random_standard_normal(gen);
            }
            j++;
            continue;
        }
        philox_block(s);
        int k = 0;
        while (k < 4 && fast_normal(s[BUFFER + k], out + j))
            k++, j++;
        if (k < 4) {
            s[BUFFER_POS] = k;  /* word k is the next to draw */
            out[j++] = random_standard_normal(gen);
        }
    }
}

/* Row i of out from stream i: uniforms, normals inline, or normals by numpy's fill */
static void fill_rows(uint64_t *states, double *out, int64_t rows, int64_t cols, int normal,
                      int inline_normal)
{
    bitgen_t gen = {NULL, philox_next, philox_next32, philox_next_double, philox_next};
    for (int64_t i = 0; i < rows; i++) {
        uint64_t *s = states + i * ROW;
        double *row = out + i * cols;
        gen.state = s;
        if (!normal)
            uniform_row(s, row, cols);
        else if (inline_normal)
            normal_row(s, row, cols, &gen);
        else
            random_standard_normal_fill(&gen, cols, row);
    }
}

/* 1 if the inline normals equal numpy's fill bit for bit on a fixed set of streams (which
   start at every buffer position and cross a counter wrap), else 0; checked once */
int normals_checked(void)
{
    enum { ROWS = 5, COLS = 1031 };
    if (inline_normals >= 0)
        return inline_normals;
    ziggurat_tables();
    static uint64_t states[2][ROWS * ROW];
    static double out[2][ROWS * COLS];
    for (int i = 0; i < ROWS; i++) {
        uint64_t *s = states[0] + i * ROW;
        memset(s, 0, ROW * sizeof *s);
        s[COUNTER] = UINT64_MAX - (uint64_t)i * 60;  /* each row wraps into word 1 */
        s[KEY] = 0x9E3779B97F4A7C15ULL * (i + 1), s[KEY + 1] = 0xD1B54A32D192ED03ULL * (i + 1);
        for (int w = 0; w < 4; w++)
            s[BUFFER + w] = 0xBF58476D1CE4E5B9ULL * (uint64_t)(4 * i + w + 1);
        s[BUFFER_POS] = i;  /* 0..3 start inside the buffer, 4 in a new block */
    }
    memcpy(states[1], states[0], sizeof states[0]);
    fill_rows(states[0], out[0], ROWS, COLS, 1, 0);
    fill_rows(states[1], out[1], ROWS, COLS, 1, 1);
    inline_normals = !memcmp(out[0], out[1], sizeof out[0])
                     && !memcmp(states[0], states[1], sizeof states[0]);
    return inline_normals;
}

/* Row i of out (rows x cols, C order) from stream i of states (rows x ROW): numpy's
   standard uniforms (normal == 0) or standard normals (normal != 0), bit for bit */
void philox_fill(uint64_t *states, double *out, int64_t rows, int64_t cols, int normal)
{
    fill_rows(states, out, rows, cols, normal, normal && normals_checked());
}

/* One part of philox_fill_extremes: its rows lo..hi-1 and the cohorts c0..c1-1 that hold them.
   Cohort c0 straddles where it begins before lo: its rows here fold into the part's own row. */
typedef struct {
    int64_t lo, hi, c0, c1;
    double *own;
} part_t;

/* A fill's rows and its parts, which its threads claim one at a time: next is the first part
   not yet claimed */
typedef struct {
    uint64_t *states;
    double *out, *ext;
    const int64_t *start;
    const uint8_t *low;
    int64_t cols, parts;
    int normal, inline_normal;
    const part_t *part;
    atomic_int_fast64_t next;
} fill_t;

/* Fills a part's rows, each folded into its cohort's row of ext, or of own for a straddling
   cohort, which starts at +-inf as a cohort's row of ext does.  It writes only its own rows of
   out, states and ext, and own, and reads the ziggurat tables, which normals_checked has set. */
static void fill_part(const fill_t *f, const part_t *p)
{
    for (int64_t c = p->c0; c < p->c1; c++) {
        double *e = f->start[c] < p->lo ? p->own : f->ext + c * f->cols;
        for (int64_t j = 0; j < f->cols; j++)
            e[j] = f->low[c] ? INFINITY : -INFINITY;
        int64_t i = f->start[c] < p->lo ? p->lo : f->start[c];
        for (int64_t end = f->start[c + 1] < p->hi ? f->start[c + 1] : p->hi; i < end; i++) {
            fill_rows(f->states + i * ROW, f->out + i * f->cols, 1, f->cols, f->normal, f->inline_normal);
            fold_row(e, f->out + i * f->cols, f->cols, f->low[c]);
        }
    }
}

/* Fills the next part not yet claimed until none is left, so a thread that starts later or
   runs slower fills fewer */
static void *claim_parts(void *arg)
{
    fill_t *f = arg;
    for (int64_t p; (p = atomic_fetch_add_explicit(&f->next, 1, memory_order_relaxed)) < f->parts;)
        fill_part(f, f->part + p);
    return NULL;
}

/* philox_fill, and each row folded into its cohort's row of ext (cohorts x cols, C order) while
   it is in cache: cohort c holds rows start[c]..start[c + 1] - 1, and ext[c] is their per-column
   min where low[c], else their max; +inf or -inf for a cohort with no rows.

   The rows are cut into parts (at most one per row) of near-equal, contiguous ranges, which
   the calling thread and threads - 1 helper threads claim one at a time until none is left; a
   helper that starts late, or gets less of a CPU, fills fewer, and the caller fills every part
   if none starts.  The caller joins every helper before it returns, so no thread outlives the
   call.  Each stream is its own, so a row's draws do not depend on the thread or the order.  A
   part owns the cohorts that begin in it (the last part also those that begin at the end), and
   folds a cohort that began in an earlier part into a private row; after the join the private
   rows are folded into ext in part order by fold_row.  A fold keeps the first of equal values,
   so that gives the bits of one fold over the rows in order.  The threads share nothing they
   write but the claim counter: each part's rows of out, states and ext, and its private row,
   are written by the one thread that claimed it.  They read the static ziggurat tables only
   after normals_checked has written them, and block every signal, so a handler runs on the
   calling thread.  The caller holds the GIL throughout (the library is a PyDLL), so no Python
   code runs, and none can fork, while a helper runs. */
void philox_fill_extremes(uint64_t *states, double *out, int64_t cols, int normal,
                          const int64_t *start, const uint8_t *low, double *ext, int64_t cohorts,
                          int64_t parts, int64_t threads)
{
    enum { MOST_PARTS = 256 };
    int64_t rows = start[cohorts];
    parts = parts < rows ? parts : rows;
    parts = parts < MOST_PARTS ? parts : MOST_PARTS;
    part_t whole = {.hi = rows, .c1 = cohorts};
    fill_t f = {.states = states, .out = out, .ext = ext, .start = start, .low = low, .cols = cols,
                .parts = 1, .normal = normal, .inline_normal = normal && normals_checked(),
                .part = &whole};
    atomic_init(&f.next, 0);
    /* the parts, then their own rows */
    part_t *part = parts > 1 ? PyMem_Malloc(parts * (sizeof *part + cols * sizeof *ext)) : NULL;
    if (part == NULL) {  /* one part, or no memory for more */
        claim_parts(&f);
        return;
    }
    for (int64_t p = 0, c = 0; p < parts; p++) {
        part[p].own = (double *)(part + parts) + p * cols;
        part[p].lo = rows * p / parts, part[p].hi = rows * (p + 1) / parts;
        while (c < cohorts && start[c] < part[p].lo && start[c + 1] <= part[p].lo)
            c++;  /* c: the first cohort with rows from lo on, or that begins at lo or later */
        part[p].c0 = c, part[p].c1 = cohorts;
        if (p > 0)  /* the part before owns the cohorts that begin before lo */
            part[p - 1].c1 = c + (start[c] < part[p].lo);
    }
    f.part = part, f.parts = parts;
    pthread_t helper[MOST_PARTS];
    int64_t helpers = 0;
    sigset_t all, mask;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &mask);  /* the helpers start with every signal blocked */
    for (int64_t t = 1; t < threads && t < parts; t++)
        helpers += pthread_create(helper + helpers, NULL, claim_parts, &f) == 0;
    pthread_sigmask(SIG_SETMASK, &mask, NULL);
    claim_parts(&f);
    for (int64_t t = 0; t < helpers; t++)
        pthread_join(helper[t], NULL);
    for (int64_t p = 1; p < parts; p++)
        if (start[part[p].c0] < part[p].lo)
            fold_row(ext + part[p].c0 * cols, part[p].own, cols, low[part[p].c0]);
    PyMem_Free(part);
}
"""

STATE_WORDS = 13  # ROW: the words of a stream's state in philox_fill

# No -ffast-math or -march=native: either may reorder, contract or
# vectorise the arithmetic and move the path's bits.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
_LIBS = ("-lm",)


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "herdsim")


def _sampler():
    """numpy's include directory and ``libnpyrandom.a``, or None where either is missing."""
    include = np.get_include()
    archive = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
    header = os.path.join(include, "numpy", "random", "distributions.h")
    return (include, archive) if os.path.exists(header) and os.path.exists(archive) else None


def _source() -> str:
    return _SOURCE + _FILL_SOURCE if _sampler() else _SOURCE


def _library_path(cache_dir: str) -> str:
    # The library links the C API, so the interpreter's ABI is part of its key
    # and name; it holds numpy's sampler code, so numpy's version is in its key.
    abi = sysconfig.get_config_var("SOABI") or ""
    parts = (_source(), *_FLAGS, *_LIBS, abi, np.__version__)
    key = hashlib.sha256("\0".join(parts).encode()).hexdigest()
    return os.path.join(cache_dir, f"compensated_steps-{abi}-{key[:16]}.so")


_LIBRARY_NAME = re.compile(r"compensated_steps-(.*)-[0-9a-f]{16}\.so")  # group 1: the ABI
_STALE_AFTER_S = 7 * 24 * 3600


def _remove_stale(path: str) -> None:
    """Delete the libraries that the one at ``path`` replaces in its directory.

    They are this ABI's library under any other key once it was built more
    than ``_STALE_AFTER_S`` ago: a newer one may belong to another checkout
    that shares the directory, which would otherwise rebuild it whenever the
    two take turns.  Other ABIs' libraries and other files stay.
    """
    cache_dir, own = os.path.split(path)
    abi = sysconfig.get_config_var("SOABI") or ""
    built_before = time.time() - _STALE_AFTER_S
    for name in os.listdir(cache_dir):
        match = _LIBRARY_NAME.fullmatch(name)
        file = os.path.join(cache_dir, name)
        with contextlib.suppress(OSError):  # another process may have removed it
            if match and match[1] == abi and name != own and os.stat(file).st_mtime < built_before:
                os.remove(file)


def _build(path: str) -> None:
    """Compile ``_source()`` to ``path`` through a temporary file in its directory."""
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise FileNotFoundError("the interpreter names no C compiler")
    paths = sysconfig.get_paths()  # Python.h, and pyconfig.h where a distribution splits them
    includes = ["-I", paths["include"], "-I", paths["platinclude"], "-I", np.get_include()]
    sampler, archive = _sampler(), []
    if sampler:  # -x none: the archive after the source read as C is linked, not parsed
        archive = ["-x", "none", sampler[1]]
    fd, built = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        subprocess.run(
            [*shlex.split(cc), *_FLAGS, *includes, "-x", "c", "-", *archive, "-o", built, *_LIBS],
            input=_source(), text=True, check=True, capture_output=True, timeout=120,
        )
        os.replace(built, path)
    finally:
        if os.path.exists(built):
            os.remove(built)


def _load(cache_dir: str):
    """The ctypes library from ``cache_dir``, built there if missing; None on failure."""
    path = _library_path(cache_dir)
    try:
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        st = os.stat(cache_dir)
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None  # a library others could replace is not loaded
        if not os.path.exists(path):
            _build(path)
            _remove_stale(path)
        lib = ctypes.PyDLL(path)
        lib.numpy_api.argtypes, lib.numpy_api.restype = [], ctypes.c_int
        lib.numpy_api()  # raises where numpy's C APIs cannot be imported
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError):
        return None
    obj, ptr, i64, f64 = ctypes.py_object, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    head = [obj, i64, i64, ctypes.POINTER(f64)]
    spline, loops = ctypes.POINTER(Spline), ctypes.POINTER(Ufunc)
    lib.gaussian_steps.argtypes = head + [f64] * 4
    lib.call_steps.argtypes = head + [obj]
    lib.polytail_steps.argtypes = head + [obj, loops, ptr, spline]
    lib.table_steps.argtypes = head + [obj, ptr, i64, i64, ptr]
    for loop in (lib.gaussian_steps, lib.call_steps, lib.polytail_steps, lib.table_steps):
        loop.restype = obj
    lib.float64_loop.argtypes, lib.float64_loop.restype = [obj, ptr, ptr], ctypes.c_int
    lib.ufunc_apply.argtypes, lib.ufunc_apply.restype = [loops, ptr, i64, ptr], ctypes.c_int
    lib.loop_checked.argtypes, lib.loop_checked.restype = [loops, ptr, i64, ptr, i64], ctypes.c_int
    lib.polytail_far_steps.argtypes, lib.polytail_far_steps.restype = [ptr, ptr, i64] + [f64] * 3, None
    lib.cohort_steps.argtypes = [obj] * 3 + [ptr, i64, i64, i64, obj, obj, ptr, spline, ctypes.POINTER(Runs)]
    lib.cohort_steps.restype = i64
    lib.spline_values.argtypes = [spline, ptr, ptr, i64]
    lib.spline_values.restype = None
    lib.spline_table.argtypes, lib.spline_table.restype = [ptr, i64, ptr], None
    lib.polytail_llr.argtypes = [obj, loops] + [f64] * 5 + [spline]
    lib.polytail_llr.restype = ctypes.c_int
    if has_fill(lib):
        lib.philox_fill.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                                    ctypes.c_int64, ctypes.c_int]
        lib.philox_fill.restype = None
        lib.philox_fill_extremes.argtypes = [ptr, ptr, i64, ctypes.c_int, ptr, ptr, ptr, i64, i64, i64]
        lib.philox_fill_extremes.restype = None
        lib.normals_checked.argtypes, lib.normals_checked.restype = [], ctypes.c_int
    return lib


@functools.cache
def library():
    """The compiled loops, or None where they cannot be built or loaded; the first call builds."""
    return _load(_cache_dir())


def _check_fill(states: np.ndarray, out: np.ndarray) -> None:
    if not (states.dtype == np.uint64 and states.ndim == 2 and states.shape[1] == STATE_WORDS
            and states.flags.c_contiguous and states.flags.writeable):
        raise ValueError(f"states must be a writable C-contiguous (n, {STATE_WORDS}) uint64 array")
    if not (out.dtype == np.float64 and out.ndim == 2 and len(out) == len(states)
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be a writable C-contiguous float64 array with a row per stream")


def fill(lib, states: np.ndarray, out: np.ndarray, normal: bool) -> None:
    """Fill row i of ``out`` from stream ``states[i]`` by ``philox_fill``, advancing the streams.

    The rows are standard normals if ``normal``, else standard uniforms.
    """
    _check_fill(states, out)
    lib.philox_fill(states.ctypes.data, out.ctypes.data, out.shape[0], out.shape[1], int(normal))


def has_fill(lib) -> bool:
    """Whether ``lib``, the library or None, holds the C fill (``_FILL_SOURCE``)."""
    return lib is not None and hasattr(lib, "philox_fill")


# How a lockstep fill is split (fill_split).  A helper thread's start and
# join cost about 30-40 us of CPU on a 2-CPU x86-64 virtual machine, and
# 2**16 normals about 0.4 ms, so a thread gets at least that many draws.
# The threads claim parts of about 2**14 draws in turn, so one that starts
# late or runs slower fills fewer parts and the others do not wait on it.
_THREAD_DRAWS = 2**16
_PART_DRAWS = 2**14


@functools.cache
def fill_cpus() -> int:
    """The CPUs this process may run on, read once: the most threads a fill runs on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fill_threads() -> int:
    """The most threads a lockstep fill runs on: ``fill_cpus()`` with the C fill, else 1."""
    return fill_cpus() if has_fill(library()) else 1


def fill_split(rows: int, cols: int) -> tuple[int, int]:
    """The parts and threads ``fill_extremes`` cuts a rows x cols fill into.

    A thread per CPU that the process may run on, at most one per row and
    per ``_THREAD_DRAWS`` draws; parts of ``_PART_DRAWS`` draws or more, at
    most one per row.  A fill on one thread is one part.
    """
    draws = rows * cols
    threads = max(1, min(fill_cpus(), rows, draws // _THREAD_DRAWS))
    return (1, 1) if threads == 1 else (min(rows, draws // _PART_DRAWS), threads)


def fill_extremes(lib, states: np.ndarray, out: np.ndarray, normal: bool, start: np.ndarray,
                  low: np.ndarray, ext: np.ndarray) -> None:
    """``fill`` by ``philox_fill_extremes``, with each cohort's per-column extreme in ``ext``.

    Cohort c holds the rows ``start[c]:start[c + 1]`` of ``out``; row c of
    ``ext`` gets their min where ``low[c]``, else their max, as
    ``montecarlo._extremes`` takes it.  The rows are cut into the parts of
    ``fill_split``, which its threads claim in turn, with the bits of one
    thread.
    """
    _check_fill(states, out)
    if not (start.dtype == np.int64 and start.ndim == 1 and start.flags.c_contiguous
            and len(start) and start[0] == 0 and start[-1] == len(out)
            and np.all(start[1:] >= start[:-1])):
        raise ValueError("start must be C-contiguous int64 from 0 to the rows, never decreasing")
    if not (low.dtype == np.bool_ and low.shape == (len(start) - 1,) and low.flags.c_contiguous):
        raise ValueError("low must be a C-contiguous bool array with a flag per cohort")
    if not (ext.dtype == np.float64 and ext.shape == (len(low), out.shape[1])
            and ext.flags.c_contiguous and ext.flags.writeable):
        raise ValueError("ext must be a writable C-contiguous float64 array with a row per cohort")
    lib.philox_fill_extremes(states.ctypes.data, out.ctypes.data, out.shape[1], int(normal),
                             start.ctypes.data, low.ctypes.data, ext.ctypes.data, len(low),
                             *fill_split(*out.shape))


class Ufunc(ctypes.Structure):
    """C's ``ufunc_t``: a ufunc and the float64 loop that a call of it runs, with the loop's data.

    With ``loop`` None, C calls the ufunc itself.
    """

    _fields_ = [("ufunc", ctypes.py_object), ("loop", ctypes.c_void_p), ("data", ctypes.c_void_p)]


_UFUNCS = (special.ndtr, np.log, np.exp, np.log1p, np.power)  # C's NDTR, LOG, EXP, LOG1P, POWER


def ufunc_loops(lib):
    """C's table of ``_UFUNCS``, each with its float64 loop (``float64_loop``) where it has one."""
    table = (Ufunc * len(_UFUNCS))()
    for entry, ufunc in zip(table, _UFUNCS):
        loop, data = ctypes.c_void_p(), ctypes.c_void_p()
        entry.ufunc = ufunc
        if lib.float64_loop(ufunc, ctypes.byref(loop), ctypes.byref(data)):
            entry.loop, entry.data = loop, data
    return table


def _loop_inputs():
    """``checked_loops``' inputs of each ufunc, and the exponents of power (numpy's power to -k and -1/k)."""
    rng = np.random.Generator(np.random.Philox(34))
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 2.0**-1022, 1.0, -1.0, 0.5]
    spread = {  # each ufunc's working range and beyond
        "ndtr": rng.normal(0.0, 20.0, 300),
        "log": 10.0 ** rng.uniform(-320.0, 308.0, 300),
        "exp": rng.uniform(-750.0, 710.0, 300),
        "log1p": np.concatenate([rng.uniform(-1.0, 2.0, 150), 10.0 ** rng.uniform(-20.0, 5.0, 150)]),
        "power": 10.0 ** rng.uniform(-5.0, 5.0, 300),
    }
    inputs = [np.concatenate([edges, spread[ufunc.__name__]]) for ufunc in _UFUNCS]
    return inputs, np.array([-0.5, -2.0, -3.0, -1.0 / 3.0, -20.0])


@functools.cache
def checked_loops(lib):
    """``ufunc_loops``, each loop kept only if it passed ``loop_checked``, once per library.

    A loop is checked as ``normals_checked`` checks the inline normals: it
    must give the bytes of a call of its ufunc at every length 1..70 and
    255..257, at offsets 0, 1 and 3 in a buffer, in place, on ``_loop_inputs``
    (+-0, +-inf, NaN and subnormals among them), power with a stride-0
    exponent.  Where one fails, C calls that ufunc itself.
    """
    table = ufunc_loops(lib)
    inputs, exponents = _loop_inputs()
    with np.errstate(all="ignore"):
        for entry, values in zip(table, inputs):
            args, nargs = (exponents.ctypes.data, len(exponents)) if entry.ufunc.nin == 2 else (None, 0)
            lib.loop_checked(ctypes.byref(entry), values.ctypes.data, len(values), args, nargs)
    return table


def _polytail_consts(model):
    """``polytail_increments``' consts: -c/k, -c, k, log1p(-c/k), log(c/k), log c, -k and the x past
    which the series of log T serves (``_PolyTailTables.series_floor``)."""
    k, c = model.k, model.c
    ck = c / k
    return (ctypes.c_double * 8)(-ck, -c, k, math.log1p(-ck), math.log(ck), math.log(c), -k,
                                 model._tables.series_floor)


_checked_far_steps = weakref.WeakKeyDictionary()  # PolyTail tables of a k -> checked_far_steps' return


def checked_far_steps(lib, model) -> bool:
    """Whether C's ``polytail_far_steps`` equals the Python form of ``_scalar_increment`` past 40 bit for bit.

    Checked once per k (the models of a k share their tables), at 40, its
    neighbour above, a few points out to the largest float and 2000
    log-uniform points in [40, 1e8].
    """
    tables = model._tables
    if tables not in _checked_far_steps:
        from .belief import _scalar_increment  # imported here: belief imports this module's users

        far = _scalar_increment(model)
        spread = 10.0 ** np.random.Generator(np.random.Philox(35)).uniform(math.log10(40.0), 8.0, 2000)
        x = np.concatenate([[40.0, np.nextafter(40.0, np.inf), 41.0, 60.0, 1e3, 1e6, 1e15, 1e300,
                             np.finfo(float).max], spread])
        out = np.empty_like(x)
        lib.polytail_far_steps(x.ctypes.data, out.ctypes.data, len(x), model.c / model.k, model.c, model.k)
        _checked_far_steps[tables] = out.tobytes() == np.array([far(v) for v in x]).tobytes()
    return _checked_far_steps[tables]


def path_loop(lib, model, increment=None):
    """The C loop of ``model``'s ell* and its arguments after the state, by exact type, or None.

    ``gaussian_steps`` fuses a ``GaussianSignalModel``'s closed form,
    ``table_steps`` reads a ``RateTargetSignalModel``'s table
    (``belief._rate_table``, which the model keeps alive), calling
    ``increment`` at a cell whose slice is not built, which builds it, and
    at a belief that is not finite, and ``polytail_steps``
    steps a ``PolyTailSignalModel`` whose log-T spline passes
    ``checked_spline`` and whose form past 40 passes ``checked_far_steps``,
    calling ``increment`` only where its kernel leaves a step to Python (a
    tail branch below 1, a NaN belief, an |a| past 60 that the series of
    log T does not serve).  Any other model's path takes
    ``call_steps`` over ``increment``.
    """
    if type(model) is GaussianSignalModel:  # increment, the model's D+, fused into the loop
        return lib.gaussian_steps, (model._state_means[1, 0], 1.0 / model.tau, _SQRT2, _LOG_SQRT_2PI)
    if type(model) is RateTargetSignalModel:
        from .belief import _rate_table  # imported here: belief's path loop imports this module

        table = _rate_table(model)
        return lib.table_steps, (increment, table.cells.ctypes.data, len(model.support) // 2,
                                 len(model.support), table.ready.ctypes.data)
    if (type(model) is PolyTailSignalModel and (spline := checked_spline(lib, model._log_tail_spline))
            and checked_far_steps(lib, model)):
        return lib.polytail_steps, (increment, checked_loops(lib), _polytail_consts(model),
                                    ctypes.pointer(spline))
    return None


def path_steps(lib, model, increment, values: np.ndarray, start: int, stop: int, a: float, carry: float):
    """Fill ``values[start:i]`` from ``a``, ``carry`` at start - 1 by ``model``'s loop over ``increment``.

    Returns (i, a, carry, step); unless i == stop, the loop handed back the step at i.
    """
    if not 0 <= start <= stop <= len(values):
        raise ValueError(f"range [{start}, {stop}) outside values of length {len(values)}")
    state = (ctypes.c_double * 3)(a, carry, start)
    loop, args = path_loop(lib, model, increment) or (lib.call_steps, (increment,))
    step = loop(values, start, stop, state, *args)
    return int(state[2]), state[0], state[1], step


class Spline(ctypes.Structure):
    """C's ``spline_t``: a spline's knots, coefficients, table of knot indices and knot count."""

    _fields_ = [("x", ctypes.c_void_p), ("coefs", ctypes.c_void_p), ("tab", ctypes.c_void_p),
                ("n", ctypes.c_int64)]


def _spline_table(lib, knots: np.ndarray) -> np.ndarray:
    """C's ``spline_table`` of a spline's C-contiguous float64 ``knots``, increasing, fewer than 2**31."""
    tab = np.empty(len(knots), np.int32)
    lib.spline_table(knots.ctypes.data, len(knots), tab.ctypes.data)
    return tab


def _spline_args(lib, spline) -> Spline:
    """``spline``'s C ``Spline``; its ``arrays`` hold the knots, coefficients and table it points into."""
    knots, coefs = (np.ascontiguousarray(v, dtype=np.float64) for v in (spline.x, spline.c))
    tab = _spline_table(lib, knots)
    args = Spline(knots.ctypes.data, coefs.ctypes.data, tab.ctypes.data, len(knots))
    args.arrays = knots, coefs, tab
    return args


def spline_values(lib, spline, x: np.ndarray) -> np.ndarray:
    """The cubic ``spline`` at each x by ``spline_at``, the C evaluation that ``cohort_steps`` runs.

    Past the end knots it extrapolates, and NaN gives NaN, as ``spline.reference`` does.
    """
    args = _spline_args(lib, spline)
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    lib.spline_values(args, x.ctypes.data, out.ctypes.data, x.size)
    return out


_checked_splines = weakref.WeakKeyDictionary()  # a spline -> checked_spline's return


def checked_spline(lib, spline):
    """``spline``'s ``_spline_args`` if ``spline_values`` equals ``spline.reference`` bit for bit, else None.

    Checked once per spline, as ``normals_checked`` is, at every knot, both
    neighbours of every 64th, both ends, 10**4 uniform points between them,
    a point below and a point above the knots and NaN.  The PolyTail models
    of one k share their splines, so each of theirs is checked once per k.
    """
    if spline not in _checked_splines:
        args = _spline_args(lib, spline)
        knots = args.arrays[0]
        lo, hi = knots[0], knots[-1]
        x = np.concatenate([knots, np.nextafter(knots[::64], -np.inf), np.nextafter(knots[::64], np.inf),
                            [lo - 1.0, hi + 1.0, np.nan],
                            np.random.Generator(np.random.Philox(20)).uniform(lo, hi, 10**4)])
        x.sort()  # in order, both interval searches are quicker
        same = spline_values(lib, spline, x).tobytes() == spline.reference(x).tobytes()
        _checked_splines[spline] = args if same else None
    return _checked_splines[spline]


def spline_call(spline):
    """``spline``'s evaluation by ``spline_values`` on its checked arguments, or None.

    None where the library cannot be built or loaded, or ``spline`` fails
    ``checked_spline``.  The knots and coefficients are converted once.
    """
    lib = library()
    args = None if lib is None else checked_spline(lib, spline)
    if args is None:
        return None
    call, head = lib.spline_values, ctypes.pointer(args)

    def values(x):
        x = np.asarray(x, dtype=np.float64)
        if not x.flags.c_contiguous:
            x = x.copy()
        out = np.empty_like(x)
        call(head, x.ctypes.data, out.ctypes.data, x.size)
        return out

    return values


def polytail_transform(lib, model, sign: float):
    """C's ``polytail_llr`` as a map of uniforms to LLRs in place, its arguments built once.

    The map writes the LLRs of a C-contiguous float64 array's uniforms over
    them and returns it.  A lockstep pass maps many small arrays with one.
    The model's quantile spline must have passed ``checked_spline``.
    """
    spline = model._pos_branch_ppf
    args = checked_spline(lib, spline)
    head = (checked_loops(lib), -1.0 / model.k, model.c / model.k, model.k, model.c, sign,
            ctypes.pointer(args))
    call = lib.polytail_llr

    def transform(u: np.ndarray) -> np.ndarray:
        call(u, *head)
        return u

    transform.head = head  # C's polytail_map takes these arguments too (cohort_stepper)
    return transform


_checked_transforms = weakref.WeakKeyDictionary()  # a quantile spline -> checked_transform's return


def checked_transform(lib, model) -> bool:
    """Whether ``polytail_transform`` equals ``model.llr_from_uniform`` bit for bit.

    Checked once per quantile spline ``_pos_branch_ppf``, which the models
    of one k share, so once per k, as ``normals_checked`` is: the spline
    must pass ``checked_spline``, and the transforms must agree under both
    states at u = 0, 2**-53, c/k and its neighbours, 1 - 2**-53, the u below
    1 at which log(1 - u) is every 64th knot of the spline and their
    neighbours, and 10**4 uniform points.
    """
    spline = model._pos_branch_ppf
    if spline not in _checked_transforms:
        ck = model.c / model.k
        at = -np.expm1(spline.x[::64])
        fixed = [0.0, 2.0**-53, ck, np.nextafter(ck, 0.0), np.nextafter(ck, 1.0), 1.0 - 2.0**-53]
        u = np.concatenate([fixed, at, np.nextafter(at, 0.0), np.nextafter(at, 1.0),
                            np.random.Generator(np.random.Philox(23)).random(10**4)])
        u = u[u < 1.0]
        x = model._ppf_minus(u)
        _checked_transforms[spline] = checked_spline(lib, spline) is not None and all(
            polytail_transform(lib, model, sign)(u.copy()).tobytes()
            == (-x if sign > 0 else x).tobytes() for sign in (-1.0, 1.0))
    return _checked_transforms[spline]


def llr_transform(lib, model, sign: float):
    """A pass's in-place map of ``model``'s uniforms to LLRs under the state of ``sign``, or None.

    The map is ``polytail_transform`` for a ``PolyTailSignalModel`` (the
    exact type) that passed ``checked_transform``, where ``lib`` is not
    None.  C refuses an array that is not writable, C-contiguous float64.
    """
    if lib is not None and type(model) is PolyTailSignalModel and checked_transform(lib, model):
        return polytail_transform(lib, model, sign)
    return None


class Runs(ctypes.Structure):
    """C's ``runs_t``: what ``cohort_steps`` reads and writes to settle a pass's flagged steps."""

    _fields_ = [
        ("family", ctypes.c_int64), ("tau", ctypes.c_double), ("mean", ctypes.c_double),
        ("loops", ctypes.POINTER(Ufunc)),
        *((name, ctypes.c_double) for name in ("inv_k", "ck", "k", "c", "llr_sign")),
        ("spline", ctypes.POINTER(Spline)),
        ("sign", ctypes.c_double), ("margin", ctypes.c_double), ("decreasing", ctypes.c_int64),
        ("book", ctypes.c_void_p), ("trials", ctypes.c_int64), ("horizon", ctypes.c_int64),
        ("actions", ctypes.c_void_p), ("draws", ctypes.c_void_p),
        ("rows", ctypes.c_int64), ("cols", ctypes.c_int64),
        ("coh", ctypes.c_void_p), ("trial", ctypes.c_void_p),
        ("t0", ctypes.c_int64), ("n", ctypes.c_int64), ("room", ctypes.c_int64),
    ]


def cohort_stepper(lib, model, increment, llr, book: np.ndarray, actions, horizon: int, sign: float,
                   decreasing: bool, margin: float):
    """A pass's ``steps(cohorts, bounds, s, stop, chunk)`` by C's ``cohort_steps``, or None.

    C takes every step of a pass whose model it can map and step, by exact
    type: a ``GaussianSignalModel``, or a ``PolyTailSignalModel`` whose
    log-T spline passes ``checked_spline`` and whose map ``llr`` is
    ``polytail_transform``'s, which ``llr_transform`` hands a pass only
    once ``checked_transform`` passes.  For any other model this returns
    None, and the pass takes ``montecarlo._python_stepper``, whose steps
    these equal bit for bit and whose interface they share.

    A step adds ``increment(model, ell, sgn)``, computed in C but in a
    Gaussian's tail and deep branches and in PolyTail's tail branch, at an
    |a| past 60 that its series of log T does not serve and at a NaN
    belief, where C calls it.  A flagged step is settled first: C
    reads the flagged cohorts' rows, maps them, ends the runs of the rows
    that switch in ``book`` (``montecarlo._BOOK``'s rows), forks their
    cohorts into the spare columns and rebounds a step at which none
    switches by theta's ``sign``, the map's direction (``decreasing``) and
    the bounds' ``margin``.  It writes ``actions`` unless None, and at
    ``horizon`` ends every run.
    """
    runs = Runs(sign=sign, margin=margin, decreasing=decreasing, horizon=horizon, loops=checked_loops(lib))
    if type(model) is GaussianSignalModel:  # its map is montecarlo._llr's z * tau + mean
        runs.family, runs.tau, runs.mean = 1, model.tau, model.llr_mean(StateOfWorld(int(sign)))
        consts, spline = (ctypes.c_double * 3)(*model._state_means[:, 0], model.tau), None
    elif (type(model) is PolyTailSignalModel and (head := getattr(llr, "head", None))
          and (args := checked_spline(lib, model._log_tail_spline))):
        runs.family = 2  # polytail_map on llr's arguments
        runs.inv_k, runs.ck, runs.k, runs.c, runs.llr_sign, runs.spline = head[1:]
        consts, spline = _polytail_consts(model), ctypes.pointer(args)
    else:
        return None
    if not (book.dtype == np.int64 and book.ndim == 2 and len(book) == 6 and book.flags.c_contiguous):
        raise ValueError("book must be a C-contiguous (6, trials) int64 array")
    runs.book, runs.trials = book.ctypes.data, book.shape[1]
    if actions is not None:
        if not (actions.dtype == np.int8 and actions.ndim == 2 and len(actions) == book.shape[1]
                and actions.flags.c_contiguous):
            raise ValueError("actions must be a C-contiguous int8 array with a row per trial")
        if actions.shape[1] != horizon:
            raise ValueError("actions must have a column per step of the horizon")
        runs.actions = actions.ctypes.data
    call = lib.cohort_steps

    def steps(cohorts, bounds: np.ndarray, s: int, stop: int, chunk):
        cap = len(cohorts[0])
        draws, coh, trial, runs.t0, runs.n = chunk
        if not (draws.dtype == np.float64 and draws.ndim == 2 and draws.flags.c_contiguous
                and coh.dtype == trial.dtype == np.int64 and coh.flags.c_contiguous
                and trial.flags.c_contiguous and len(coh) == len(trial) == len(draws) > 0
                and len(bounds) == draws.shape[1] and 0 <= runs.n <= cap
                and 0 <= coh.min() and coh.max() < runs.n
                and 0 <= trial.min() and trial.max() < runs.trials):
            raise ValueError("chunk must hold C-contiguous draws, and a live cohort and a trial "
                             "of the book per row")
        runs.draws, runs.coh, runs.trial = draws.ctypes.data, coh.ctypes.data, trial.ctypes.data
        runs.rows, runs.cols = draws.shape
        if not (bounds.dtype == np.float64 and bounds.ndim == 2 and bounds.flags.c_contiguous
                and cap <= bounds.shape[1] and 0 <= s <= stop <= len(bounds)):
            raise ValueError("bounds must be C-contiguous float64, a column per cohort, a row per step")
        got = call(*cohorts, bounds.ctypes.data, bounds.shape[1], s, stop, increment, model, consts, spline,
                   ctypes.byref(runs))
        return got, runs.n, runs.room

    return steps
