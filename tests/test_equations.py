import numpy as np
import pytest

from ddirac.calculus import dirac_operator
from ddirac.equations import (
    DK_STENCIL,
    HESTENES_STENCIL,
    dk_residual_operator,
    dk_residual_stencil,
    even_odd_split,
    hestenes_residual_operator,
    hestenes_residual_stencil,
)
from ddirac.lattice import BoundaryPolicy, LatticeBox, random_cochain
from ddirac.multiindex import ALL_INDEXES, EVEN_SLOTS, ODD_SLOTS, SLOT_OF


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


def test_even_odd_split_partitions(rng, box4):
    w = random_cochain(box4, rng)
    ev, od = even_odd_split(w)
    assert (ev + od - w).max_abs() == 0.0
    assert np.abs(ev.data[list(ODD_SLOTS)]).max() == 0.0
    assert np.abs(od.data[list(EVEN_SLOTS)]).max() == 0.0


def test_hestenes_stencil_covers_even_components():
    assert {SLOT_OF[mi] for mi in HESTENES_STENCIL} == set(EVEN_SLOTS)
    assert all(len(terms) == 4 for terms in HESTENES_STENCIL.values())


@pytest.mark.parametrize("extents", [(1, 4, 4, 4), (4, 4, 1, 4)])
def test_dk_stencil_matches_operator_with_unit_extent(rng, extents):
    w = random_cochain(LatticeBox(extents, BoundaryPolicy.ZERO_EXTEND), rng)
    a = dk_residual_operator(w, 1.3)
    b = dk_residual_stencil(w, 1.3)
    assert a.region == b.region == extents
    assert (a.residual - b.residual).max_abs() <= 1e-13 * w.max_abs()


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


def test_summary_region_shrinks_under_interior_policy(rng):
    w = random_cochain(LatticeBox((5, 5, 5, 5)), rng)
    res = dk_residual_operator(w, 1.0)
    assert res.region == (4, 4, 4, 4)
    assert res.max_abs == res.residual.max_abs(1)


def test_summary_uses_full_box_under_zero_extension(rng):
    box = LatticeBox((5, 5, 5, 5), BoundaryPolicy.ZERO_EXTEND)
    w = random_cochain(box, rng)
    res = dk_residual_operator(w, 1.0)
    assert res.region == (5, 5, 5, 5)
    doc = res.to_dict()
    assert set(doc) == {"max_abs", "rel", "region"}


def test_dk_equation_relates_to_first_order_operator(rng, box4):
    """Sanity anchor: the residual really is i*D(omega) - m*omega."""
    w = random_cochain(box4, rng)
    res = dk_residual_operator(w, 2.0).residual
    direct = 1j * dirac_operator(w) - 2.0 * w
    assert (res - direct).max_abs() == 0.0
