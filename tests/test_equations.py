import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddirac.calculus import apply_stencil, dirac_operator
from ddirac.clifford import build_table, mul_basis_right
from ddirac.equations import (
    DK_STENCIL,
    HESTENES_STENCIL,
    dk_residual_operator,
    dk_residual_stencil,
    hestenes_residual_operator,
    hestenes_residual_stencil,
)
from ddirac.lattice import LatticeBox, random_cochain
from ddirac.multiindex import ALL_INDEXES, EVEN_SLOTS, ODD_SLOTS, SLOT_OF

#: The four residual routes, each with the random_cochain arguments of a
#: valid input.
ROUTES = [
    (dk_residual_operator, {}),
    (dk_residual_stencil, {}),
    (hestenes_residual_operator, {"scalar_kind": "real", "degrees": {0, 2, 4}}),
    (hestenes_residual_stencil, {"scalar_kind": "real", "degrees": {0, 2, 4}}),
]


def _rel_diff(a, b, scale):
    return (a.residual - b.residual).max_abs(1) / scale


def test_dk_stencil_covers_all_components():
    assert set(DK_STENCIL) == set(ALL_INDEXES)
    # the 0-form line has 4 terms, every other line has exactly 4 as well
    assert all(len(terms) == 4 for terms in DK_STENCIL.values())


def test_dk_stencil_matches_operator(rng, box4):
    for _ in range(10):
        w = random_cochain(box4, rng)
        a = dk_residual_operator(w, 1.0)
        b = dk_residual_stencil(w, 1.0)
        assert _rel_diff(a, b, w.max_abs()) <= 1e-13


def test_dk_residual_linearity(rng, box4):
    m = 0.7
    u = random_cochain(box4, rng)
    v = random_cochain(box4, rng)
    combo = dk_residual_operator(u + 2 * v, m).residual
    parts = dk_residual_operator(u, m).residual + 2 * dk_residual_operator(v, m).residual
    assert (combo - parts).max_abs() <= 1e-13 * max(u.max_abs(), v.max_abs())


def test_dk_operator_flips_parity(rng, box4):
    """i(d_c + delta) maps even to odd and vice versa, so the residual of an
    even form has even part exactly -m * omega."""
    m = 1.3
    w = random_cochain(box4, rng, degrees={0, 2, 4})
    res = dk_residual_operator(w, m).residual
    assert np.allclose(res.data[list(EVEN_SLOTS)], -m * w.data[list(EVEN_SLOTS)],
                       atol=1e-14)


def test_dk_rejects_nonpositive_mass(rng, box4):
    w = random_cochain(box4, rng)
    with pytest.raises(ValueError):
        dk_residual_operator(w, 0.0)
    with pytest.raises(ValueError):
        dk_residual_stencil(w, -1.0)


@pytest.mark.parametrize("m", [np.inf, np.nan])
@pytest.mark.parametrize("route, kwargs", ROUTES)
def test_routes_reject_non_finite_mass(rng, box4, route, kwargs, m):
    with pytest.raises(ValueError, match="finite and positive"):
        route(random_cochain(box4, rng, **kwargs), m)


@pytest.mark.parametrize("route, kwargs", ROUTES)
def test_summary_carries_the_input_scale(rng, box4, route, kwargs):
    w = random_cochain(box4, rng, **kwargs)
    res = route(w, 1.3)
    assert res.scale == w.max_abs()
    assert res.rel == res.max_abs / res.scale
    assert "scale" not in res.to_dict()


def test_hestenes_stencil_covers_even_components():
    assert {SLOT_OF[mi] for mi in HESTENES_STENCIL} == set(EVEN_SLOTS)
    assert all(len(terms) == 4 for terms in HESTENES_STENCIL.values())


@pytest.mark.parametrize("extents", [(1, 4, 4, 4), (4, 4, 1, 4)])
def test_dk_stencil_matches_operator_with_unit_extent(rng, extents):
    w = random_cochain(LatticeBox(extents), rng)
    a = dk_residual_operator(w, 1.3)
    b = dk_residual_stencil(w, 1.3)
    assert a.region == b.region == tuple(n - 1 for n in extents)
    assert (a.residual - b.residual).max_abs() <= 1e-13 * w.max_abs()


@pytest.mark.parametrize("extents", [(1, 3, 3, 3), (3, 3, 3, 1)])
@pytest.mark.parametrize("route, kwargs", ROUTES)
def test_empty_interior_gives_nan_summary(rng, extents, route, kwargs):
    """A unit extent leaves the depth-1 interior empty: a residual over no
    points is NaN, never a perfect 0.0."""
    res = route(random_cochain(LatticeBox(extents), rng, **kwargs), 1.3)
    assert 0 in res.region
    assert np.isnan(res.max_abs) and np.isnan(res.rel)


def test_hestenes_stencil_matches_operator(rng, box4):
    for _ in range(10):
        w = random_cochain(box4, rng, scalar_kind="real", degrees={0, 2, 4})
        a = hestenes_residual_operator(w, 1.0)
        b = hestenes_residual_stencil(w, 1.0)
        assert _rel_diff(a, b, w.max_abs()) <= 1e-13


def test_hestenes_residual_is_odd(rng, box4):
    """-(D omega_ev) e1 e2 - m omega_ev e0 lands in odd degrees only."""
    w = random_cochain(box4, rng, scalar_kind="real", degrees={0, 2, 4})
    res = hestenes_residual_operator(w, 1.0).residual
    assert np.abs(res.data[list(EVEN_SLOTS)]).max() == 0.0


def test_hestenes_input_validation(rng, box4):
    with pytest.raises(ValueError):  # complex input
        hestenes_residual_operator(random_cochain(box4, rng), 1.0)
    with pytest.raises(ValueError):  # odd components present
        hestenes_residual_operator(
            random_cochain(box4, rng, scalar_kind="real"), 1.0)
    with pytest.raises(ValueError):  # bad mass
        hestenes_residual_operator(
            random_cochain(box4, rng, scalar_kind="real", degrees={0, 2, 4}), 0.0)


@pytest.mark.parametrize("route", [hestenes_residual_operator,
                                   hestenes_residual_stencil])
def test_hestenes_rejects_nan_odd_slot(rng, box4, route):
    """NaN > 0 is False: a NaN odd slot must still count as odd content."""
    w = random_cochain(box4, rng, scalar_kind="real", degrees={0, 2, 4})
    w.data[ODD_SLOTS[2]] = np.nan
    with pytest.raises(ValueError, match="even-degree"):
        route(w, 1.0)


def test_summary_region_shrinks_under_interior_policy(rng):
    w = random_cochain(LatticeBox((5, 5, 5, 5)), rng)
    res = dk_residual_operator(w, 1.0)
    assert res.region == (4, 4, 4, 4)
    assert res.max_abs == res.residual.max_abs(1)
    assert set(res.to_dict()) == {"max_abs", "rel", "region"}


def test_dk_equation_relates_to_first_order_operator(rng, box4):
    """Sanity anchor: the residual really is i*D(omega) - m*omega."""
    w = random_cochain(box4, rng)
    res = dk_residual_operator(w, 2.0).residual
    direct = 1j * dirac_operator(w) - 2.0 * w
    assert (res - direct).max_abs() == 0.0


def test_dk_stencil_accepts_real_input(rng, box4):
    w = random_cochain(box4, rng, scalar_kind="real")
    a = dk_residual_operator(w, 1.2)
    b = dk_residual_stencil(w, 1.2)
    assert a.residual.scalar_kind == b.residual.scalar_kind == "complex"
    assert b.residual.data.dtype == np.complex128
    assert _rel_diff(a, b, w.max_abs()) <= 1e-13


def test_hestenes_residuals_are_real_kind(rng, box4):
    w = random_cochain(box4, rng, scalar_kind="real", degrees={0, 2, 4})
    for route in (hestenes_residual_operator, hestenes_residual_stencil):
        res = route(w, 0.8).residual
        assert res.scalar_kind == "real" and res.data.dtype == np.float64


def _stencil_lines_then_moved(omega, m):
    """Reference: evaluate the 8 lines in their right-hand-side slots, then
    move each to its e0-image slot with the table sign."""
    table = build_table()
    lines = apply_stencil(omega.data, HESTENES_STENCIL)
    lines -= m * omega.data
    out = np.zeros_like(lines)
    for rhs_mi in HESTENES_STENCIL:
        sign_c, slot_mi = table.product(rhs_mi, (0,))
        out[SLOT_OF[slot_mi]] = sign_c * lines[SLOT_OF[rhs_mi]]
    return out


@given(st.tuples(*[st.sampled_from([1, 2, 3])] * 4), st.integers(0, 2**32 - 1),
       st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_hestenes_residuals_equal_their_composed_definitions(extents, seed, m):
    """The in-place residual routes equal, under np.array_equal, the
    residuals composed from whole-array operations."""
    rng = np.random.default_rng(seed)
    w = random_cochain(LatticeBox(extents), rng, scalar_kind="real",
                       degrees={0, 2, 4})
    composed = (-1 * mul_basis_right(dirac_operator(w), (1, 2))
                - m * mul_basis_right(w, (0,)))
    assert np.array_equal(hestenes_residual_operator(w, m).residual.data,
                          composed.data)
    assert np.array_equal(hestenes_residual_stencil(w, m).residual.data,
                          _stencil_lines_then_moved(w, m))
