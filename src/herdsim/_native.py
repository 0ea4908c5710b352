"""The compensated recurrence loop and the Philox stream fill in C, compiled on first use.

One compensated step, ``asymptotics._python_steps``' body in the same order
of operations, serves three loops: ``gaussian_steps`` fused with the Gaussian
closed-form increment (``log_ndtr_scalar`` on the same libm functions),
``array_steps`` over a block-solve steps array and ``call_steps`` over a
Python increment.  A loop hands back the first step it cannot add (an invalid
one, or a return that is not an exact float) with its index, for the Python
loop to raise at or go on from, so the bytes, errors and types are that
loop's.  ``philox_fill`` fills each row of a draws array from one Monte Carlo
stream, held as a row of numpy's ``philox_state`` words (``STATE_WORDS``):
it steps Philox4x64-10 as numpy's ``philox_next`` does (the counter is
bumped before each block of four words) and draws through numpy's own
uniform and ziggurat normal samplers, linked from the ``libnpyrandom.a``
that numpy ships, so every draw equals ``Generator(Philox)``'s bit for bit.
Where that archive or its headers are missing the library holds the loops
only.  The library includes ``Python.h`` and is loaded with ``ctypes.PyDLL``
(the GIL is held; an increment's exception propagates).  It is built once per
source, flags, interpreter ABI and numpy version with the interpreter's C
compiler into ``$XDG_CACHE_HOME/herdsim`` (else ``~/.cache/herdsim``) as
``compensated_steps-<SOABI>-<key>.so``; a build removes the libraries it
replaces there (``_remove_stale``).  Where it cannot be built or loaded,
``library()`` is None and the Python loops and fill run.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import re
import shlex
import subprocess
import sysconfig
import tempfile

import numpy as np

_SOURCE = r"""
#include <Python.h>
#include <math.h>
#include <stdint.h>

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

/* The data of a C-contiguous float64 array, or NULL with an error set */
static double *float64s(PyObject *array, Py_buffer *view, int flags)
{
    if (PyObject_GetBuffer(array, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return NULL;
    if (strcmp(view->format, "d") == 0)
        return view->buf;
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_TypeError, "a float64 array is required");
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
    double *values = float64s(array, &out, PyBUF_WRITABLE);
    if (values == NULL)
        return NULL;
    double a = state[0], carry = state[1], step = 0.0;
    int64_t i = start;
    for (; i < stop; i++) {
        step = log_ndtr((a + mean_p) * inv_tau, sqrt2, log_sqrt_2pi)
               - log_ndtr((a - mean_p) * inv_tau, sqrt2, log_sqrt_2pi);
        if (!add_step(step, &a, &carry, values + i))
            break;
    }
    return hand_back(state, a, carry, i, stop, &out, i < stop ? PyFloat_FromDouble(step) : NULL);
}

/* The step at index i is given[i - start]; past its end it is a, as next(it, a)
   returns once the Python replay's iterator is exhausted */
PyObject *array_steps(PyObject *array, int64_t start, int64_t stop, double *state, PyObject *given)
{
    Py_buffer out, in;
    double *values = float64s(array, &out, PyBUF_WRITABLE);
    if (values == NULL)
        return NULL;
    const double *steps = float64s(given, &in, PyBUF_SIMPLE);
    if (steps == NULL) {
        PyBuffer_Release(&out);
        return NULL;
    }
    double a = state[0], carry = state[1], step = 0.0;
    int64_t n = in.len / (Py_ssize_t)sizeof(double), i = start;
    for (; i < stop; i++) {
        step = i - start < n ? steps[i - start] : a;
        if (!add_step(step, &a, &carry, values + i))
            break;
    }
    PyBuffer_Release(&in);
    return hand_back(state, a, carry, i, stop, &out, i < stop ? PyFloat_FromDouble(step) : NULL);
}

/* The step at index i is increment(a); a return that is not an exact float is handed back */
PyObject *call_steps(PyObject *array, int64_t start, int64_t stop, double *state,
                     PyObject *increment)
{
    Py_buffer out;
    double *values = float64s(array, &out, PyBUF_WRITABLE);
    if (values == NULL)
        return NULL;
    double a = state[0], carry = state[1];
    PyObject *handed = NULL;
    int64_t i = start;
    for (; i < stop; i++) {
        PyObject *arg = PyFloat_FromDouble(a);
        handed = arg == NULL ? NULL : PyObject_CallOneArg(increment, arg);
        Py_XDECREF(arg);
        if (handed == NULL || !PyFloat_CheckExact(handed)
            || !add_step(PyFloat_AS_DOUBLE(handed), &a, &carry, values + i))
            break;
        Py_DECREF(handed);
    }
    return hand_back(state, a, carry, i, stop, &out, handed);
}
"""

# Appended to _SOURCE where numpy ships its sampler library (see _sampler).
_FILL_SOURCE = r"""
#include <numpy/random/distributions.h>

/* A stream's row of uint64 words: numpy's philox_state */
enum { COUNTER = 0, KEY = 4, BUFFER = 6, BUFFER_POS = 10, HAS_UINT32 = 11, UINTEGER = 12, ROW = 13 };

/* numpy's philox_next: the buffered words, then the counter bumped and a
   block of four words from Philox4x64-10 */
static uint64_t philox_next(void *st)
{
    uint64_t *s = st;
    if (s[BUFFER_POS] < 4)
        return s[BUFFER + s[BUFFER_POS]++];
    uint64_t *c = s + COUNTER;
    if (++c[0] == 0 && ++c[1] == 0 && ++c[2] == 0)
        ++c[3];
    uint64_t x0 = c[0], x1 = c[1], x2 = c[2], x3 = c[3], k0 = s[KEY], k1 = s[KEY + 1];
    for (int round = 0; round < 10; round++) {
        if (round > 0)
            k0 += 0x9E3779B97F4A7C15ULL, k1 += 0xBB67AE8584CAA73BULL;
        __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * x0;
        __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * x2;
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0, x1 = (uint64_t)p1;
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1, x3 = (uint64_t)p0;
    }
    s[BUFFER] = x0, s[BUFFER + 1] = x1, s[BUFFER + 2] = x2, s[BUFFER + 3] = x3;
    s[BUFFER_POS] = 1;
    return x0;
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

static double philox_next_double(void *st)
{
    return (philox_next(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* Row i of out (rows x cols, C order) from stream i of states (rows x ROW) by numpy's
   standard uniform (normal == 0) or standard normal (normal != 0) fill */
void philox_fill(uint64_t *states, double *out, int64_t rows, int64_t cols, int normal)
{
    bitgen_t gen = {NULL, philox_next, philox_next32, philox_next_double, philox_next};
    for (int64_t i = 0; i < rows; i++) {
        gen.state = states + i * ROW;
        if (normal)
            random_standard_normal_fill(&gen, cols, out + i * cols);
        else
            random_standard_uniform_fill(&gen, cols, out + i * cols);
    }
}
"""

STATE_WORDS = 13  # ROW: the words of a stream's state in philox_fill

# No -ffast-math or -march=native: either may reorder, contract or
# vectorise the arithmetic and move the path's bits.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
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


# A compensated-loop library; the ABI group is None in the retired names without one.
_LIBRARY_NAME = re.compile(r"compensated_steps-(?:(.*)-)?[0-9a-f]{16}\.so")


def _remove_stale(path: str) -> None:
    """Delete the libraries that the one at ``path`` replaces in its directory.

    They are this ABI's library under any other key and the retired names,
    ``gaussian_steps-*.so`` and ``compensated_steps-<key>.so`` without an
    ABI.  Other ABIs' libraries and other files stay.
    """
    cache_dir, own = os.path.split(path)
    abi = sysconfig.get_config_var("SOABI") or ""
    for name in os.listdir(cache_dir):
        match = _LIBRARY_NAME.fullmatch(name)
        retired = name.startswith("gaussian_steps-") and name.endswith(".so")
        if name != own and (retired or match and match[1] in (None, abi)):
            with contextlib.suppress(OSError):  # another process may have removed it
                os.remove(os.path.join(cache_dir, name))


def _build(path: str) -> None:
    """Compile ``_source()`` to ``path`` through a temporary file in its directory."""
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise FileNotFoundError("the interpreter names no C compiler")
    paths = sysconfig.get_paths()  # Python.h, and pyconfig.h where a distribution splits them
    includes, archive = ["-I", paths["include"], "-I", paths["platinclude"]], []
    sampler = _sampler()
    if sampler:
        # -x none: the archive after the source read as C is linked, not parsed
        includes += ["-I", sampler[0]]
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
    except (OSError, subprocess.SubprocessError):
        return None
    head = [ctypes.py_object, ctypes.c_int64, ctypes.c_int64, ctypes.POINTER(ctypes.c_double)]
    lib.gaussian_steps.argtypes = head + [ctypes.c_double] * 4
    lib.array_steps.argtypes = lib.call_steps.argtypes = head + [ctypes.py_object]
    lib.gaussian_steps.restype = lib.array_steps.restype = lib.call_steps.restype = ctypes.py_object
    if hasattr(lib, "philox_fill"):
        lib.philox_fill.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                                    ctypes.c_int64, ctypes.c_int]
        lib.philox_fill.restype = None
    return lib


@functools.cache
def library():
    """The compiled loops, or None where they cannot be built or loaded; the first call builds."""
    return _load(_cache_dir())


def fill(lib, states: np.ndarray, out: np.ndarray, normal: bool) -> None:
    """Fill row i of ``out`` from stream ``states[i]`` by ``philox_fill``, advancing the streams.

    The rows are standard normals if ``normal``, else standard uniforms.
    """
    if not (states.dtype == np.uint64 and states.ndim == 2 and states.shape[1] == STATE_WORDS
            and states.flags.c_contiguous and states.flags.writeable):
        raise ValueError(f"states must be a writable C-contiguous (n, {STATE_WORDS}) uint64 array")
    if not (out.dtype == np.float64 and out.ndim == 2 and len(out) == len(states)
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be a writable C-contiguous float64 array with a row per stream")
    lib.philox_fill(states.ctypes.data, out.ctypes.data, out.shape[0], out.shape[1], int(normal))


def run(lib, name: str, values: np.ndarray, start: int, stop: int, a: float, carry: float, *extra):
    """Fill ``values[start:i]`` by the C loop ``name`` from the pair ``a``, ``carry`` at start - 1.

    Returns (i, a, carry, step); unless i == stop, the loop handed back the step at i.
    """
    if not 0 <= start <= stop <= len(values):
        raise ValueError(f"range [{start}, {stop}) outside values of length {len(values)}")
    state = (ctypes.c_double * 3)(a, carry, start)
    step = getattr(lib, name)(values, start, stop, state, *extra)
    return int(state[2]), state[0], state[1], step
