"""The contiguous-run stencil engine against the per-axis slice engine it
replaced, bit for bit, warning for warning; and the one-array rule of the
routes built on it."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddirac.calculus import (
    CODIFF_STENCIL,
    DC_STENCIL,
    accumulate,
    apply_stencil,
    dirac_operator,
)
from ddirac.clifford import DIRAC_STENCIL, mul_basis_right
from ddirac.equations import (
    _HESTENES_E0_STENCIL,
    DK_STENCIL,
    dk_residual_operator,
    dk_residual_stencil,
    hestenes_residual_operator,
    hestenes_residual_stencil,
)
from ddirac.lattice import Cochain, LatticeBox, random_cochain
from ddirac.multiindex import EVEN_SLOTS, NSLOTS, ODD_SLOTS, SLOT_OF

#: Per direction mu: the lattice slices of the points k whose forward
#: neighbour k + e_mu is inside the box, and of those neighbours.
_HEAD = tuple(tuple(slice(0, -1) if a == mu else slice(None) for a in range(4))
              for mu in range(4))
_TAIL = tuple(tuple(slice(1, None) if a == mu else slice(None) for a in range(4))
              for mu in range(4))


def reference_apply_stencil(data, stencil):
    """The slice-based engine: per term, the shifted source slice is added
    into the target's head slice, then the source is subtracted."""
    out = np.zeros_like(data)
    for target, terms in stencil.items():
        acc = out[SLOT_OF[target]]
        for sign, mu, src in terms:
            arr = data[SLOT_OF[src]]
            if sign > 0:
                acc[_HEAD[mu]] += arr[_TAIL[mu]]
                acc -= arr
            else:
                acc[_HEAD[mu]] -= arr[_TAIL[mu]]
                acc += arr
    return out


STENCILS = {"d_c": DC_STENCIL, "codifferential": CODIFF_STENCIL, "dk": DK_STENCIL,
            "hestenes_e0": _HESTENES_E0_STENCIL, "dirac_clifford": DIRAC_STENCIL,
            **{f"delta_{mu}": {mi: [(+1, mu, mi)] for mi in SLOT_OF}
               for mu in range(4)}}
SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf]


def _data(extents, kind, seed):
    rng = np.random.default_rng(seed)
    shape = (NSLOTS,) + extents
    data = rng.uniform(-1.0, 1.0, shape)
    if kind == "complex":
        data = data + 1j * rng.uniform(-1.0, 1.0, shape)
    return data


@given(extents=st.tuples(*[st.sampled_from([1, 2, 3])] * 4),
       kind=st.sampled_from(["real", "complex"]),
       name=st.sampled_from(sorted(STENCILS)),
       seed=st.integers(0, 2**32 - 1),
       planted=st.lists(st.tuples(st.integers(0, 2**31), st.sampled_from(SPECIALS),
                                  st.booleans()), max_size=40))
@settings(max_examples=300, deadline=None)
def test_engine_equals_slice_reference_bit_for_bit(extents, kind, name, seed, planted):
    data = _data(extents, kind, seed)
    flat = data.reshape(-1)
    for index, value, imag in planted:
        i = index % flat.size
        if kind == "complex" and imag:
            flat[i] = complex(flat[i].real, value)
        else:
            flat[i] = value
    with np.errstate(all="ignore"):
        got = apply_stencil(data, STENCILS[name])
        want = reference_apply_stencil(data, STENCILS[name])
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_accumulate_rejects_a_non_contiguous_slot():
    """Flattening such a slot would copy it, and the adds would be lost."""
    data = _data((3, 3, 3, 3), "real", 0)
    acc = np.zeros((3, 3, 3, 3)).transpose()
    with pytest.raises(ValueError, match="C-contiguous"):
        accumulate(acc, data, DC_STENCIL[(0, 1)])


def _assert_same_bits_but_nan_payloads(got, want):
    """Byte-equal except inside NaNs, which must sit at the same points.
    Which operand's NaN a sum of two NaNs keeps (so its sign bit) depends on
    the numpy loop that runs: an in-place add over one slot and over the
    whole array can keep different ones."""
    nan = np.isnan(want)
    assert got.dtype == want.dtype
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@given(extents=st.tuples(*[st.sampled_from([1, 2, 3])] * 4),
       seed=st.integers(0, 2**32 - 1),
       m=st.floats(0.1, 10.0),
       density=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_hestenes_operator_route_equals_composed_definition_bit_for_bit(
        extents, seed, m, density):
    """The operator route runs only the d_c and codifferential terms that
    read even slots.  With -0.0 in every odd slot, and +-0.0, NaN and +-inf
    at a random share `density` of the even points, it still equals, byte
    for byte outside NaNs, the residual composed from whole arrays:
    -(D w) e12 - m w e0, with D w summed by the slice engine."""
    rng = np.random.default_rng(seed)
    data = _data(extents, "real", seed)
    data[list(ODD_SLOTS)] = -0.0
    even = data[list(EVEN_SLOTS)]
    planted = rng.random(even.shape) < density
    even[planted] = rng.choice(SPECIALS, size=int(planted.sum()))
    data[list(EVEN_SLOTS)] = even
    w = Cochain(LatticeBox(extents), data, scalar_kind="real")
    with np.errstate(all="ignore"):
        dirac = reference_apply_stencil(data, DC_STENCIL)
        dirac += reference_apply_stencil(data, CODIFF_STENCIL)
        _assert_same_bits_but_nan_payloads(dirac_operator(w).data, dirac)
        composed = mul_basis_right(w.like(dirac), (1, 2)).data
        mass = mul_basis_right(w, (0,)).data
        mass *= m
        composed += mass
        np.negative(composed, out=composed)
        got = hestenes_residual_operator(w, m).residual.data
    _assert_same_bits_but_nan_payloads(got, composed)


def _edge_points(extents, rng):
    """A sparse random choice of the far-face points (k_mu = N_mu - 1) and
    next-row points (k_mu = 0 past the first row along mu - 1), for mu >= 1:
    the points the contiguous run pairs across a row boundary.  Sparse, so
    the slice engine stays quiet on most draws and a warning from a
    discarded sum would show."""
    k = np.indices(extents)
    mask = np.zeros(extents, bool)
    for mu in range(1, 4):
        mask |= k[mu] == extents[mu] - 1
        mask |= (k[mu] == 0) & (k[mu - 1] > 0)
    shape = (NSLOTS,) + extents
    return np.broadcast_to(mask, shape) & (rng.random(shape) < 0.02)


def _warnings_raised(fn, *args):
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        fn(*args)
    return {(w.category, str(w.message)) for w in caught}


@pytest.mark.parametrize("name", sorted(STENCILS))
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("big", [1e308, np.inf])
def test_engine_warns_as_slice_reference(name, kind, big):
    """Huge values where a row ends and where the next begins: the sums the
    run forms across that boundary are thrown away, and must neither
    overflow nor turn invalid, so the engine raises exactly the warnings
    the slice engine raises."""
    extents = (3, 3, 4, 3)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        data = _data(extents, kind, seed)
        mask = _edge_points(extents, rng)
        data[mask] = big * rng.choice([-1.0, 1.0], size=int(mask.sum()))
        stencil = STENCILS[name]
        got = _warnings_raised(apply_stencil, data, stencil)
        assert got == _warnings_raised(reference_apply_stencil, data, stencil), seed
        assert all(category is RuntimeWarning for category, _ in got)


def _peak_over_input(route, omega):
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


@pytest.mark.parametrize("route, kind", [
    (dirac_operator, "complex"),
    (lambda w: dk_residual_operator(w, 1.3), "complex"),
    (lambda w: dk_residual_stencil(w, 1.3), "complex"),
    (lambda w: hestenes_residual_operator(w, 0.8), "even"),
    (lambda w: hestenes_residual_stencil(w, 0.8), "even"),
], ids=["dirac_operator", "dk_operator", "dk_stencil", "hestenes_operator",
        "hestenes_stencil"])
def test_route_allocates_one_full_size_array(rng, route, kind):
    """At 8^4 the result is the one full-size array: scratch, the residual
    summary's temporaries and face copies stay under 0.6 of a cochain."""
    box = LatticeBox((8, 8, 8, 8))
    if kind == "even":
        omega = random_cochain(box, rng, scalar_kind="real", degrees={0, 2, 4})
    else:
        omega = random_cochain(box, rng)
    assert _peak_over_input(route, omega) < 1.6
