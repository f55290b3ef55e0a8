import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddirac.calculus import apply_stencil, dirac_operator
from ddirac.clifford import build_table, mul_basis_right
from ddirac.equations import (
    DK_STENCIL,
    HESTENES_STENCIL,
    ODD_RUNS,
    TINY,
    check_even_real,
    dk_residual_operator,
    dk_residual_stencil,
    hestenes_residual_operator,
    hestenes_residual_stencil,
    input_scale,
)
from ddirac.lattice import Cochain, LatticeBox, random_cochain
from ddirac.multiindex import ALL_INDEXES, ALL_SLOTS, EVEN_SLOTS, ODD_SLOTS, SLOT_OF

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


#: The slots each route writes, which its summary reduces.
ROUTE_SLOTS = {dk_residual_operator: ALL_SLOTS, dk_residual_stencil: ALL_SLOTS,
               hestenes_residual_operator: ODD_SLOTS, hestenes_residual_stencil: ODD_SLOTS}


@pytest.mark.parametrize("route, kwargs", ROUTES)
def test_summary_carries_the_input_scale(rng, box4, route, kwargs):
    """The record holds the field and its route's slots, no scale: `rel`
    and `to_dict` divide by the scale the caller takes of the input."""
    w = random_cochain(box4, rng, **kwargs)
    res = route(w, 1.3)
    assert [f.name for f in dataclasses.fields(res)] == ["residual", "slots"]
    assert res.slots == ROUTE_SLOTS[route]
    scale = input_scale(w)
    assert scale == w.max_abs()
    assert res.rel(scale) == res.max_abs / scale
    assert res.to_dict(scale) == {"max_abs": res.max_abs, "rel": res.max_abs / scale,
                                  "region": list(res.region)}


@pytest.mark.parametrize("route, kwargs", ROUTES)
def test_input_scale_over_the_slots_a_route_reads(rng, box4, route, kwargs):
    """An input's scale over the slots its route reads, and a residual's
    maximum over the slots its route writes, equal those over all 16: the
    slots left out hold only zeros."""
    w = random_cochain(box4, rng, **kwargs)
    res = route(w, 1.3)
    reads = EVEN_SLOTS if res.slots == ODD_SLOTS else ALL_SLOTS
    assert input_scale(w, reads) == input_scale(w) == max(w.max_abs(), TINY)
    assert res.max_abs == res.residual.max_abs(1)


def test_input_scale_is_at_least_tiny_and_keeps_nan(box4):
    w = Cochain.zeros(box4, "real")
    assert input_scale(w) == input_scale(w, EVEN_SLOTS) == TINY
    w.data[SLOT_OF[(0, 1)], 1, 2, 3, 0] = np.nan
    assert np.isnan(input_scale(w, EVEN_SLOTS))


#: The reads of a residual's summary, each of which takes `max_abs`.
SUMMARY_READS = {
    "max_abs": lambda res: res.max_abs,
    "rel": lambda res: res.rel(2.0),
    "to_dict": lambda res: res.to_dict(2.0),
}


@pytest.mark.parametrize("read", SUMMARY_READS)
@pytest.mark.parametrize("route, kwargs", ROUTES)
def test_summary_is_reduced_once_on_first_read(rng, box4, monkeypatch, route, kwargs,
                                               read):
    """A route reduces nothing; the residual's interior maximum is taken on
    the first read of the summary, once, over the route's slots."""
    w = random_cochain(box4, rng, **kwargs)
    calls = []
    max_abs = Cochain.max_abs

    def counted(self, depth=0, slots=ALL_SLOTS):
        calls.append((depth, slots))
        return max_abs(self, depth, slots)

    monkeypatch.setattr(Cochain, "max_abs", counted)
    res = route(w, 1.3)
    assert calls == []
    SUMMARY_READS[read](res)
    assert calls == [(1, ROUTE_SLOTS[route])]
    for again in SUMMARY_READS.values():
        again(res)
    assert calls == [(1, ROUTE_SLOTS[route])]
    monkeypatch.undo()
    assert res.max_abs == res.residual.max_abs(1)


@pytest.mark.parametrize("route, kwargs", ROUTES)
def test_residual_keeps_no_reference_to_its_input(rng, box4, route, kwargs):
    """The scale is taken when the route runs, so the input is freed as soon
    as its caller drops it, and the summary can still be read."""
    w = random_cochain(box4, rng, **kwargs)
    data = weakref.ref(w.data)
    res = route(w, 1.3)
    del w
    assert data() is None
    assert np.isfinite(res.max_abs)


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
    assert np.isnan(res.max_abs) and np.isnan(res.rel(1.0))


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


def test_odd_runs_cover_exactly_the_odd_slots():
    assert [s for run in ODD_RUNS for s in range(len(ALL_SLOTS))[run]] == list(ODD_SLOTS)
    assert [(run.start, run.stop) for run in ODD_RUNS] == [(1, 5), (11, 15)]


@given(slot=st.sampled_from(ODD_SLOTS), point=st.tuples(*[st.integers(0, 2)] * 4),
       value=st.floats().filter(lambda v: v != 0))
@example(slot=1, point=(0, 0, 0, 0), value=np.nan)
@example(slot=4, point=(2, 2, 2, 2), value=5e-324)
@example(slot=11, point=(0, 0, 0, 0), value=-np.inf)
@example(slot=14, point=(2, 2, 2, 2), value=-1.0)
@settings(max_examples=60, deadline=None)
def test_check_even_real_sees_every_odd_point(slot, point, value):
    """The check reduces ODD_RUNS, not each odd slot: one nonzero value or
    NaN anywhere in an odd slot, a run's first and last slots included, is
    rejected, while -0.0 there is accepted."""
    w = Cochain.zeros(LatticeBox((3, 3, 3, 3)), "real")
    w.data[list(EVEN_SLOTS)] = 1.0
    w.data[slot] = -0.0
    check_even_real(w)
    w.data[(slot,) + point] = value
    with pytest.raises(ValueError, match="even-degree"):
        check_even_real(w)


def test_summary_region_shrinks_under_interior_policy(rng):
    w = random_cochain(LatticeBox((5, 5, 5, 5)), rng)
    res = dk_residual_operator(w, 1.0)
    assert res.region == (4, 4, 4, 4)
    assert res.max_abs == res.residual.max_abs(1)
    assert set(res.to_dict(1.0)) == {"max_abs", "rel", "region"}


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
