import tracemalloc

import numpy as np
import pytest

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
