"""The contiguous-run stencil engine against the per-axis slice engine it
replaced, bit for bit, warning for warning; the one-array rule of the routes
built on it; and its two-thread split against its inline run."""

import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddirac import calculus
from ddirac.calculus import (
    CODIFF_STENCIL,
    DC_STENCIL,
    accumulate,
    apply_stencil,
    codifferential,
    d_c,
    dirac_operator,
)
from ddirac.clifford import DIRAC_STENCIL, dirac_clifford, mul_basis_right
from ddirac.equations import (
    _HESTENES_E0_STENCIL,
    DK_STENCIL,
    EquationResidual,
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


def _assert_hestenes_values(got, want):
    """A Hestenes residual against its composed form: NaN and zero at the
    same points, every other entry byte-identical, and every even slot
    +0.0.  A route with the Clifford signs folded into its terms rounds
    each value exactly as the composed form does, but may give an exact
    zero the other sign, which no summary reads."""
    nan, zero = np.isnan(want), want == 0
    assert got.dtype == want.dtype
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got == 0, zero)
    assert got[~nan & ~zero].tobytes() == want[~nan & ~zero].tobytes()
    even = got[list(EVEN_SLOTS)]
    assert even.tobytes() == np.zeros_like(even).tobytes()


@given(extents=st.tuples(*[st.sampled_from([1, 2, 3])] * 4),
       seed=st.integers(0, 2**32 - 1),
       m=st.floats(0.1, 10.0),
       density=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_hestenes_operator_route_equals_composed_definition_value_for_value(
        extents, seed, m, density):
    """The operator route runs only the d_c and codifferential terms that
    read even slots, with the Clifford signs folded into them.  With -0.0
    in every odd slot, and +-0.0, NaN and +-inf at a random share `density`
    of the even points, it still equals, value for value, the residual
    composed from whole arrays: -(D w) e12 - m w e0, with D w summed by the
    slice engine (see `_assert_hestenes_values`)."""
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
    _assert_hestenes_values(got, composed)


@pytest.mark.parametrize("extents", [(3, 1, 4, 2), (5, 5, 5, 5), (16, 16, 16, 8)])
@pytest.mark.parametrize("odd", ["+0.0", "mixed"])
def test_hestenes_operator_route_runs_only_its_odd_lines(monkeypatch, extents, odd):
    """On an even form the operator route sums the d_c and codifferential
    terms of its 8 odd output slots only, one `accumulate` call for each
    group: 16 calls, where running all 16 lines took 24.  Its values are
    the composed form's, and its even slots, like the stencil route's, are
    +0.0, with +0.0, or +-0.0 at random, in the odd input slots; the test
    above plants only -0.0.  The (16, 16, 16, 8) box has 256 KiB slots, so
    its lines are split."""
    rng = np.random.default_rng(11)
    data = _data(extents, "real", 11)
    odd_shape = (len(ODD_SLOTS),) + extents
    data[list(ODD_SLOTS)] = (0.0 if odd == "+0.0"
                             else np.where(rng.random(odd_shape) < 0.5, 0.0, -0.0))
    w = Cochain(LatticeBox(extents), data, scalar_kind="real")
    calls = []

    def counted(*args):
        calls.append(args[2])
        return accumulate(*args)

    monkeypatch.setattr(calculus, "accumulate", counted)
    monkeypatch.setattr(calculus, "_workers", lambda: 2)
    m = 0.7
    got = hestenes_residual_operator(w, m).residual.data
    assert len(calls) == 16 and all(calls)
    dirac = reference_apply_stencil(data, DC_STENCIL)
    dirac += reference_apply_stencil(data, CODIFF_STENCIL)
    composed = mul_basis_right(w.like(dirac), (1, 2)).data
    mass = mul_basis_right(w, (0,)).data
    mass *= m
    composed += mass
    np.negative(composed, out=composed)
    _assert_hestenes_values(got, composed)
    stencil = hestenes_residual_stencil(w, m).residual.data
    even = stencil[list(EVEN_SLOTS)]
    assert even.tobytes() == np.zeros_like(even).tobytes()


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


@pytest.mark.parametrize("route, kind", [
    (dirac_operator, "complex"),
    (lambda w: dk_residual_operator(w, 1.3), "complex"),
    (lambda w: dk_residual_stencil(w, 1.3), "complex"),
    (lambda w: hestenes_residual_operator(w, 0.8), "even"),
    (lambda w: hestenes_residual_stencil(w, 0.8), "even"),
], ids=["dirac_operator", "dk_operator", "dk_stencil", "hestenes_operator",
        "hestenes_stencil"])
def test_route_allocates_one_full_size_array(rng, peak_over_input, route, kind):
    """At 8^4 the result is the one full-size array: scratch, the residual
    summary's temporaries and face copies stay under 0.6 of a cochain."""
    box = LatticeBox((8, 8, 8, 8))
    if kind == "even":
        omega = random_cochain(box, rng, scalar_kind="real", degrees={0, 2, 4})
    else:
        omega = random_cochain(box, rng)
    assert peak_over_input(route, omega) < 1.6


@pytest.mark.parametrize("route", [dk_residual_operator, dk_residual_stencil],
                         ids=["dk_operator", "dk_stencil"])
def test_dk_route_on_real_input_allocates_only_the_complex_result(
        rng, peak_over_input, route):
    """A real input's DK residual is complex, twice the input's size; the
    sums are cast into it slot by slot, never through a full-size real copy
    (which made the peak 3.0 input cochains)."""
    omega = random_cochain(LatticeBox((8, 8, 8, 8)), rng, scalar_kind="real")
    assert peak_over_input(lambda w: route(w, 1.3), omega) < 2.5


# --- the two-thread split ---------------------------------------------------

#: Every route on the slot engine: (function of a form and a mass, whether it
#: takes a real even form).
ENGINE_ROUTES = {
    "dk_operator": (dk_residual_operator, False),
    "dk_stencil": (dk_residual_stencil, False),
    "hestenes_operator": (hestenes_residual_operator, True),
    "hestenes_stencil": (hestenes_residual_stencil, True),
    "dirac_operator": (lambda w, _m: dirac_operator(w), False),
    "d_c": (lambda w, _m: d_c(w), False),
    "codifferential": (lambda w, _m: codifferential(w), False),
    "dirac_clifford": (lambda w, _m: dirac_clifford(w), False),
}


def _outcomes(form, even, m):
    """Per route: the result's bytes, and for a residual its summary."""
    got = {}
    for name, (route, wants_even) in ENGINE_ROUTES.items():
        result = route(even if wants_even else form, m)
        if isinstance(result, EquationResidual):
            got[name] = (result.residual.data.tobytes(),
                         repr((result.max_abs, result.region, result.slots)))
        else:
            got[name] = (result.data.tobytes(),)
    return got


def _forms(extents, kind, seed):
    """A random form of `kind` and a real even form on the same box."""
    box = LatticeBox(extents)
    data = _data(extents, kind, seed)
    even = _data(extents, "real", seed + 1)
    even[list(ODD_SLOTS)] = 0.0
    return Cochain(box, data, scalar_kind=kind), Cochain(box, even, scalar_kind="real")


def _force_split(mp):
    mp.setattr(calculus, "SPLIT_BYTES", 0)
    mp.setattr(calculus, "_workers", lambda: 2)


@given(extents=st.tuples(*[st.integers(1, 5)] * 4),
       unit_axis=st.sampled_from([None, 0, 1, 2, 3]),
       kind=st.sampled_from(["real", "complex"]),
       seed=st.integers(0, 2**31),
       m=st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_split_equals_inline(extents, unit_axis, kind, seed, m):
    """Every route gives the same bytes and summary with its lines shared
    between two threads as inline; a unit extent leaves the interior empty,
    and the summary NaN, either way."""
    if unit_axis is not None:
        extents = extents[:unit_axis] + (1,) + extents[unit_axis + 1:]
    form, even = _forms(extents, kind, seed)
    inline = _outcomes(form, even, m)
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp)
        assert _outcomes(form, even, m) == inline
    if unit_axis is not None:
        assert "nan" in inline["dk_operator"][1]


def test_split_equals_inline_at_16_4(monkeypatch):
    """A 16^4 complex result slot (1 MiB) splits at the default split size;
    every route gives the bytes and summary of a one-thread run."""
    assert 16**4 * np.dtype(np.complex128).itemsize >= calculus.SPLIT_BYTES
    form, even = _forms((16, 16, 16, 16), "complex", 7)
    split = _outcomes(form, even, 1.3)
    monkeypatch.setattr(calculus, "_workers", lambda: 1)
    assert _outcomes(form, even, 1.3) == split


@pytest.fixture
def split(monkeypatch):
    """Every stencil call shares its lines with a second thread."""
    _force_split(monkeypatch)


def _on_worker(action):
    """A `finish` that runs `action` on the second thread only, after a
    pause long enough for a caller that did not wait for it to return."""
    caller = threading.get_ident()

    def finish(slot, acc, scratch):
        if threading.get_ident() != caller:
            time.sleep(0.05)
            action()
    return finish


def test_split_follows_the_callers_numpy_error_state(split):
    """numpy keeps its error state in a context variable, which a new thread
    does not inherit: a worker outside the caller's context overflows with a
    warning where the caller's state says raise."""
    omega = Cochain(LatticeBox((3, 3, 3, 3)), np.full((NSLOTS, 3, 3, 3, 3), 1e308),
                    scalar_kind="real")
    for route in (dk_residual_operator, dk_residual_stencil):
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over="raise"):
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError, match="overflow"):
                route(omega, 1.0)
        assert not caught, [str(w.message) for w in caught]
    with np.errstate(over="raise"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "_workers", lambda: 1)
        with pytest.raises(FloatingPointError, match="overflow"):
            dk_residual_stencil(omega, 1.0)


def test_worker_exception_reaches_the_caller(split):
    def fail():
        raise LookupError("raised on the worker")
    before = threading.active_count()
    with pytest.raises(LookupError, match="raised on the worker"):
        apply_stencil(_data((3, 3, 3, 3), "real", 0), DC_STENCIL,
                      finish=_on_worker(fail))
    assert threading.active_count() == before


def test_split_call_leaves_no_thread_running(split):
    before = threading.active_count()
    out = apply_stencil(_data((3, 3, 3, 3), "real", 0), DC_STENCIL,
                        finish=_on_worker(lambda: None))
    assert threading.active_count() == before
    assert out.shape == (NSLOTS, 3, 3, 3, 3)
