import ctypes
import os
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from ddirac import lattice
from ddirac.lattice import BoundaryPolicy, LatticeBox


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def box4():
    return LatticeBox((4, 4, 4, 4))


@pytest.fixture
def zbox2():
    return LatticeBox((2, 2, 2, 2), BoundaryPolicy.ZERO_EXTEND)


@pytest.fixture
def peak_over_input():
    """`peak(route, omega)`: the peak traced allocation of `route(omega)`, in
    units of `omega.data.nbytes`."""
    def peak(route, omega):
        route(omega)  # first call outside the trace: nothing lazy is counted
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            route(omega)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        return peak / omega.data.nbytes
    return peak


@pytest.fixture
def glibc_env():
    """The environment for a fresh interpreter that imports ddirac from this
    checkout, without glibc's own malloc variables; skips off glibc."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        pytest.skip("ddirac tunes malloc only on glibc")
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class _MalloptSpy:
    """Stands in for ctypes.CDLL: records each mallopt call."""

    def __init__(self):
        self.calls = []

    def __call__(self, name):
        assert name is None

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1
        return types.SimpleNamespace(mallopt=mallopt)


@pytest.fixture
def mallopt_spy(monkeypatch, glibc_env):
    """A `ctypes.CDLL` stand-in that records `mallopt` calls, with glibc's
    malloc variables cleared from this process's environment."""
    for name in lattice._MALLOC_ENV + ("GLIBC_TUNABLES",):
        monkeypatch.delenv(name, raising=False)
    spy = _MalloptSpy()
    monkeypatch.setattr(ctypes, "CDLL", spy)
    return spy
