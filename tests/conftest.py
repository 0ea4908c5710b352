"""Fixtures for the tests of the compiled compensated loops (``herdsim._native``)."""

import os
import shlex
import shutil
import sysconfig

import pytest

from herdsim import _native


@pytest.fixture
def native_loop():
    """The compiled library; it must load wherever a C compiler and ``Python.h`` exist."""
    lib = _native.library()
    cc = sysconfig.get_config_var("CC")
    header = os.path.join(sysconfig.get_paths()["include"], "Python.h")
    if lib is None and not (cc and shutil.which(shlex.split(cc)[0]) and os.path.exists(header)):
        pytest.skip("no C compiler or no Python.h to build the compiled loops with")
    assert lib is not None
    return lib


@pytest.fixture
def python_loop():
    """``python_loop(fn, *args)`` calls fn with the library unavailable: every loop runs in Python."""

    def run(fn, *args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "library", lambda: None)
            return fn(*args)

    return run
