import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddirac.calculus import codifferential, d_c, star
from ddirac.clifford import clifford_mul, mul_basis_right
from ddirac.lattice import (
    BoundaryPolicy,
    Cochain,
    LatticeBox,
    interior_slices,
    random_cochain,
)
from ddirac.multiindex import ALL_INDEXES


def test_box_validation():
    with pytest.raises(ValueError):
        LatticeBox((4, 4, 4))
    with pytest.raises(ValueError):
        LatticeBox((0, 4, 4, 4))
    box = LatticeBox((2, 3, 4, 5))
    assert box.npoints == 120
    assert box.policy is BoundaryPolicy.INTERIOR


@pytest.mark.parametrize("extents", [(2.7, 2, 2, 2), (2.0, 2, 2, 2), (True, 2, 2, 2),
                                     (np.bool_(True), 2, 2, 2), ("2", 2, 2, 2),
                                     (np.float64(3), 2, 2, 2)])
def test_box_rejects_non_integer_extents(extents):
    """int() would truncate 2.7 to 2, and True would count as 1."""
    with pytest.raises(ValueError, match="extents must be integers"):
        LatticeBox(extents)


def test_box_accepts_numpy_integers():
    box = LatticeBox(tuple(np.arange(2, 6)))
    assert box.extents == (2, 3, 4, 5)
    assert all(type(n) is int for n in box.extents)


def test_box_interior_and_membership():
    box = LatticeBox((3, 3, 3, 3))
    assert box.interior_extents(1) == (2, 2, 2, 2)
    assert box.interior_extents(4) == (0, 0, 0, 0)
    assert box.contains((2, 2, 2, 2))
    assert not box.contains((3, 0, 0, 0))
    assert not box.contains((-1, 0, 0, 0))


def test_negative_interior_depth_rejected(rng):
    """A depth of -1 read the k_mu = 0 slab, or a box one larger."""
    w = random_cochain(LatticeBox((3, 3, 3, 3)), rng)
    for depth_of in (w.max_abs, interior_slices, w.box.interior_extents):
        with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
            depth_of(-1)


@pytest.mark.parametrize("degrees", [{5}, {-1}, {"2"}, {0, 5}])
def test_random_cochain_rejects_degrees_outside_0_to_4(rng, degrees):
    """Such a degree selected no slot, and the form came back all zero."""
    with pytest.raises(ValueError, match="degrees must be integers 0..4"):
        random_cochain(LatticeBox((2, 2, 2, 2)), rng, degrees=degrees)


def test_interior_slices_select_forward_region(rng):
    box = LatticeBox((4, 4, 4, 4))
    w = random_cochain(box, rng)
    view = w.data[interior_slices(1)]
    assert view.shape == (16, 3, 3, 3, 3)
    assert np.array_equal(view, w.data[:, :3, :3, :3, :3])


def test_cochain_shape_and_kind_checks():
    box = LatticeBox((2, 2, 2, 2))
    with pytest.raises(ValueError):
        Cochain(box, np.zeros((15,) + box.extents))
    with pytest.raises(ValueError):
        Cochain(box, scalar_kind="rational")
    with pytest.raises(ValueError):
        Cochain(box, np.full((16,) + box.extents, 1j), scalar_kind="real")


@pytest.mark.parametrize("imag", [float("nan"), float("inf")])
def test_real_kind_rejects_non_finite_imaginary_parts(imag):
    box = LatticeBox((1, 1, 1, 2))
    data = np.zeros((16,) + box.extents, dtype=np.complex128)
    data[0, 0, 0, 0, 1] = complex(1.0, imag)
    with pytest.raises(ValueError, match="imaginary"):
        Cochain(box, data, scalar_kind="real")


def test_real_kind_tolerates_rounding_dust():
    box = LatticeBox((1, 1, 1, 1))
    data = np.full((16, 1, 1, 1, 1), 1.0 + 1e-16j)
    w = Cochain(box, data, scalar_kind="real")
    assert np.abs(w.data.imag).max() == 0.0  # dust is stripped


def test_arithmetic_and_kind_propagation(rng):
    box = LatticeBox((2, 2, 2, 2))
    a = random_cochain(box, rng, scalar_kind="real")
    b = random_cochain(box, rng, scalar_kind="real")
    assert (a + b).scalar_kind == "real"
    assert (a - b).scalar_kind == "real"
    assert (2.0 * a).scalar_kind == "real"
    assert (1j * a).scalar_kind == "complex"
    assert (a + random_cochain(box, rng)).scalar_kind == "complex"
    assert ((-a) + a).max_abs() == 0.0
    # the kind is read off the dtype, so the two cannot disagree
    assert Cochain.__slots__ == ("box", "data", "tilde")
    assert a.like(a.data.astype(np.complex128)).scalar_kind == "complex"
    assert a.like(a.data, tilde=True).scalar_kind == "real"
    with pytest.raises(AttributeError):
        a.scalar_kind = "complex"


def test_mismatched_operands_raise(rng):
    a = random_cochain(LatticeBox((2, 2, 2, 2)), rng)
    with pytest.raises(ValueError):
        a + random_cochain(LatticeBox((3, 2, 2, 2)), rng)
    c = random_cochain(a.box, rng)
    with pytest.raises(ValueError):
        a + c.like(c.data, tilde=True)


def test_from_components_broadcasts_scalars():
    box = LatticeBox((2, 2, 2, 2))
    w = Cochain.from_components(box, {(1, 2): 3.0, (): -1.0}, scalar_kind="real")
    assert np.all(w.component((1, 2)) == 3.0)
    assert np.all(w.component(()) == -1.0)
    assert w.max_abs() == 3.0


@given(st.integers(0, 4), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_max_abs_interior_never_exceeds_full(degree, seed):
    rng = np.random.default_rng(seed)
    w = random_cochain(LatticeBox((3, 3, 3, 3)), rng, degrees={degree})
    assert w.max_abs(1) <= w.max_abs(0)


@pytest.mark.parametrize("depth", [0, 1])
def test_real_max_abs_keeps_nan_and_negative_extremes(rng, depth):
    w = random_cochain(LatticeBox((3, 3, 3, 3)), rng, scalar_kind="real")
    w.data[5, 0, 1, 0, 1] = -7.5  # inside the depth-1 interior
    assert w.max_abs(depth) == 7.5
    w.data[0, 1, 0, 1, 0] = np.nan
    assert np.isnan(w.max_abs(depth))


def test_real_max_abs_of_zeros_is_positive_zero():
    w = Cochain.zeros(LatticeBox((2, 2, 2, 2)), "real")
    w.data[3] = -0.0
    assert str(w.max_abs()) == "0.0"


@given(st.tuples(*[st.integers(1, 3)] * 4), st.integers(0, 2),
       st.sampled_from(["real", "complex"]), st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.tuples(st.integers(0, 2**20),
                          st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
                          st.booleans()), max_size=6))
@settings(max_examples=150, deadline=None)
def test_max_abs_equals_whole_array_abs_max(extents, depth, kind, seed, zeros, planted):
    """The per-slot maxima give the float of np.abs(view).max(), bit for bit:
    a NaN wins, an infinity counts and -0.0 reads as 0.0.  An empty interior
    gives NaN."""
    w = random_cochain(LatticeBox(extents), np.random.default_rng(seed), scalar_kind=kind)
    if zeros:
        w.data[...] = -0.0
    flat = w.data.reshape(-1)
    for pos, value, imag in planted:
        part = flat.imag if imag and kind == "complex" else flat.real
        part[pos % flat.size] = value
    view = w.data[interior_slices(depth)]
    want = float(np.abs(view).max()) if view.size else float("nan")
    got = w.max_abs(depth)
    assert (np.isnan(got) and np.isnan(want)) or got.hex() == want.hex()


@given(st.integers(0, 1000), st.sampled_from(ALL_INDEXES))
@settings(max_examples=25, deadline=None)
def test_component_view_is_live(seed, mi):
    rng = np.random.default_rng(seed)
    w = random_cochain(LatticeBox((2, 2, 2, 2)), rng)
    assert np.shares_memory(w.component(mi), w.data)


def test_storage_dtype_follows_scalar_kind(rng):
    box = LatticeBox((2, 1, 3, 2))
    for kind, dtype in (("real", np.float64), ("complex", np.complex128)):
        assert Cochain.zeros(box, kind).data.dtype == dtype
        assert random_cochain(box, rng, scalar_kind=kind).data.dtype == dtype
        assert Cochain.from_components(box, {(0, 1): 2.0}, kind).data.dtype == dtype
        assert Cochain(box, np.ones((16,) + box.extents), kind).data.dtype == dtype


def test_real_kind_float_data_is_kept_as_given():
    box = LatticeBox((2, 2, 2, 2))
    data = np.ones((16,) + box.extents)
    assert Cochain(box, data, scalar_kind="real").data is data


def _draws_in_slot_order(box, seed, kind, degrees):
    """The reference draw stream: per slot in slot order, one uniform draw
    for the real parts, then for the complex kind one for the imaginary
    parts."""
    rng = np.random.default_rng(seed)
    out = Cochain.zeros(box, kind)
    for slot, mi in enumerate(ALL_INDEXES):
        if len(mi) in degrees:
            out.data[slot] = rng.uniform(-1.0, 1.0, box.extents)
            if kind == "complex":
                out.data[slot] += 1j * rng.uniform(-1.0, 1.0, box.extents)
    return out


def test_real_random_cochain_keeps_draw_order():
    """Seeded real inputs are the same numbers, bit for bit, as the complex
    kind's real parts were."""
    box = LatticeBox((2, 3, 1, 2))
    w = random_cochain(box, np.random.default_rng(3), scalar_kind="real", degrees={1, 3})
    expect = _draws_in_slot_order(box, 3, "real", {1, 3})
    assert w.data.dtype == np.float64
    assert w.data.tobytes() == expect.data.tobytes()


def test_complex_random_cochain_keeps_draw_order():
    """The imaginary draw is written in place, and gives the same numbers,
    bit for bit, as adding 1j times it."""
    box = LatticeBox((3, 4, 5, 6))
    w = random_cochain(box, np.random.default_rng(5), degrees={0, 2, 3})
    expect = _draws_in_slot_order(box, 5, "complex", {0, 2, 3})
    assert w.data.dtype == np.complex128
    assert w.data.tobytes() == expect.data.tobytes()


def _as_complex(w):
    return Cochain(w.box, w.data.astype(np.complex128), "complex", w.tilde)


@given(st.tuples(*[st.sampled_from([1, 2, 3])] * 4), st.integers(0, 2**32 - 1),
       st.sampled_from(ALL_INDEXES))
@settings(max_examples=40, deadline=None)
def test_real_kind_operations_stay_float64_and_match_complex(extents, seed, dirs):
    """Real-kind results are float64 and equal, bit for bit, the real part of
    the same operation on complex-kind copies, whose imaginary part is zero."""
    rng = np.random.default_rng(seed)
    box = LatticeBox(extents)
    a = random_cochain(box, rng, scalar_kind="real")
    b = random_cochain(box, rng, scalar_kind="real")
    ca, cb = _as_complex(a), _as_complex(b)
    ops = {
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "scale": lambda x, y: 2.0 * x,
        "neg": lambda x, y: -x,
        "star": lambda x, y: star(x),
        "d_c": lambda x, y: d_c(x),
        "codifferential": lambda x, y: codifferential(x),
        "clifford_mul": clifford_mul,
        "mul_basis_right": lambda x, y: mul_basis_right(x, dirs),
    }
    for name, op in ops.items():
        real, cplx = op(a, b), op(ca, cb)
        assert real.scalar_kind == "real" and real.data.dtype == np.float64, name
        assert cplx.data.dtype == np.complex128, name
        assert np.array_equal(real.data, cplx.data.real), name
        assert not np.any(cplx.data.imag), name
