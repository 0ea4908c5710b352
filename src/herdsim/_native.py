"""The Gaussian all-correct path loop in C, compiled on first use.

``belief.ell_star_path`` runs the Gaussian path through ``gaussian_steps()``:
``asymptotics._compensated_steps`` fused with the closed-form increment
``log_ndtr_scalar((x + m) / tau) - log_ndtr_scalar((x - m) / tau)``, in the
same operation order on the same libm functions (``math.erfc``, ``log`` and
``log1p`` are those), so its bytes are the Python loop's.  The library is
built once per source and flags with the interpreter's C compiler into a
per-user cache directory (``$XDG_CACHE_HOME/herdsim``, else
``~/.cache/herdsim``) and loaded with ctypes.  Where no compiler runs, the
directory cannot be written or the library does not load, ``gaussian_steps()``
is None and the caller runs the Python loop, which stays the reference.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from typing import Callable

import numpy as np

from .asymptotics import _invalid_step
from .signal_models import _LOG_SQRT_2PI, _SQRT2

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

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

/* asymptotics._compensated_steps over the Gaussian increment.  Fills
   values[start:stop] from state = {a, carry} and leaves the pair at stop - 1
   there.  Returns stop, or the index of an increment that is negative or not
   finite, with {a, carry, increment} in state as they were at that index. */
int64_t gaussian_steps(double *values, int64_t start, int64_t stop, double *state,
                       double mean_p, double inv_tau, double sqrt2, double log_sqrt_2pi)
{
    double a = state[0], carry = state[1];
    for (int64_t i = start; i < stop; i++) {
        double step = log_ndtr((a + mean_p) * inv_tau, sqrt2, log_sqrt_2pi)
                      - log_ndtr((a - mean_p) * inv_tau, sqrt2, log_sqrt_2pi);
        if (!(0.0 < step && step < INFINITY)) {
            if (step != 0.0) {
                state[0] = a;
                state[1] = carry;
                state[2] = step;
                return i;
            }
            values[i] = a;
            continue;
        }
        double y = step - carry;
        if (y < 0.0) {
            carry = -y;
            values[i] = a;
            continue;
        }
        double s = a + y;
        carry = (s - a) - y;
        a = s;
        values[i] = a;
    }
    state[0] = a;
    state[1] = carry;
    return stop;
}
"""

# No -ffast-math or -march=native: either may reorder, contract or
# vectorise the arithmetic and move the path's bits.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LIBS = ("-lm",)


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "herdsim")


def _library_path(cache_dir: str) -> str:
    key = hashlib.sha256("\0".join((_SOURCE, *_FLAGS, *_LIBS)).encode()).hexdigest()
    return os.path.join(cache_dir, f"gaussian_steps-{key[:16]}.so")


def _build(path: str) -> None:
    """Compile ``_SOURCE`` to ``path`` through a temporary file in its directory."""
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise FileNotFoundError("the interpreter names no C compiler")
    fd, built = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        subprocess.run(
            [*shlex.split(cc), *_FLAGS, "-x", "c", "-", "-o", built, *_LIBS],
            input=_SOURCE, text=True, check=True, capture_output=True, timeout=120,
        )
        os.replace(built, path)
    finally:
        if os.path.exists(built):
            os.remove(built)


def _load(cache_dir: str):
    """The ctypes ``gaussian_steps`` from ``cache_dir``, built there if missing; None on failure."""
    path = _library_path(cache_dir)
    try:
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        st = os.stat(cache_dir)
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None  # a library others could replace is not loaded
        if not os.path.exists(path):
            _build(path)
        fn = ctypes.CDLL(path).gaussian_steps
    except (OSError, subprocess.SubprocessError):
        return None
    c_double = ctypes.c_double
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.POINTER(c_double),
                   c_double, c_double, c_double, c_double]
    fn.restype = ctypes.c_int64
    return fn


@functools.cache
def gaussian_steps() -> Callable | None:
    """``(values, start, stop, a, carry, mean_p, inv_tau) -> (a, carry)``, or None.

    Fills ``values[start:stop]`` as ``asymptotics._compensated_steps`` does
    with the Gaussian increment of mean ``mean_p`` and scale ``1 / inv_tau``,
    raising the same NumericalFailure at the same step.  None where the
    library cannot be built or loaded; the first call pays the build.
    """
    fn = _load(_cache_dir())
    if fn is None:
        return None

    def steps(values: np.ndarray, start: int, stop: int, a: float, carry: float,
              mean_p: float, inv_tau: float) -> tuple[float, float]:
        if values.dtype != np.float64 or not values.flags.c_contiguous or not values.flags.writeable:
            raise ValueError("values must be a writeable contiguous float64 array")
        if not 0 <= start <= stop <= len(values):
            raise ValueError(f"range [{start}, {stop}) outside values of length {len(values)}")
        state = (ctypes.c_double * 3)(a, carry, 0.0)
        i = fn(values.ctypes.data, start, stop, state, mean_p, inv_tau, _SQRT2, _LOG_SQRT_2PI)
        if i < stop:
            raise _invalid_step(state[2], state[0])
        return state[0], state[1]

    return steps
