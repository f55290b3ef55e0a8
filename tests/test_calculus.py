import numpy as np
import pytest

from ddirac import oracle
from ddirac.calculus import (
    CODIFF_STENCIL,
    codifferential,
    d_c,
    delta_mu,
    dirac_operator,
    green_defect,
    inner_product,
    inner_sign,
    star,
    star_sign,
)
from ddirac.chains import basis_chain, boundary, pair
from ddirac.lattice import BoundaryPolicy, Cochain, LatticeBox, random_cochain
from ddirac.multiindex import ALL_INDEXES


def test_delta_mu_on_linear_ramp():
    """A field linear in coordinate mu has constant forward difference 1
    inside the box and -k_mu on the last slice (zero extension)."""
    box = LatticeBox((3, 3, 3, 3))
    ramp = np.arange(3).reshape(3, 1, 1, 1) * np.ones((3, 3, 3, 3))
    w = Cochain.from_components(box, {(): ramp}, scalar_kind="real")
    d = delta_mu(w, 0).component(())
    assert np.all(d[:2] == 1.0)
    assert np.all(d[2] == -2.0)  # out-of-box reads as zero


def test_delta_mu_validates_arguments(rng):
    w = random_cochain(LatticeBox((3, 3, 3, 3)), rng)
    with pytest.raises(ValueError):
        delta_mu(w, 4)
    with pytest.raises(ValueError):
        delta_mu(random_cochain(LatticeBox((1, 3, 3, 3)), rng), 0)


def test_coboundary_is_dual_to_chain_boundary(rng):
    """<boundary(c), w> = <c, d_c w> for every basis cell, the defining
    property of the coboundary."""
    box = LatticeBox((2, 2, 2, 2), BoundaryPolicy.ZERO_EXTEND)
    w = random_cochain(box, rng)
    dw = d_c(w)
    for dirs in ALL_INDEXES:
        if not dirs:
            continue
        for k in np.ndindex(box.extents):
            c = basis_chain(k, dirs)
            assert pair(boundary(c), w) == pytest.approx(pair(c, dw), abs=1e-12)


def test_coboundary_nilpotent(rng, box4):
    for r in range(5):
        w = random_cochain(box4, rng, degrees={r})
        assert d_c(d_c(w)).max_abs() <= 1e-13 * w.max_abs()


def test_codifferential_nilpotent(rng, box4):
    w = random_cochain(box4, rng)
    assert codifferential(codifferential(w)).max_abs() <= 1e-13 * w.max_abs()


def test_star_sign_table_entries():
    # metric factor -1 whenever direction 0 is in the index
    assert star_sign(()) == 1            # *x = +e0123~
    assert star_sign((0,)) == -1         # *e0 = -e123~
    assert star_sign((1,)) == -1
    assert star_sign((0, 2)) == 1        # *e02 = +e13~
    assert star_sign((1, 2)) == 1        # *e12 = +e03~
    assert star_sign((0, 1, 2, 3)) == -1  # *e0123 = -x~


def test_star_moves_components_and_flips_tilde():
    box = LatticeBox((2, 2, 2, 2))
    w = Cochain.from_components(box, {(0, 2): 1.0}, scalar_kind="real")
    s = star(w)
    assert s.tilde
    assert np.all(s.component((1, 3)) == 1.0)
    assert s.max_abs() == 1.0  # nothing else is populated


def test_star_involution_law(rng, box4):
    for r in range(5):
        w = random_cochain(box4, rng, degrees={r})
        assert (star(star(w)) - ((-1) ** (r + 1)) * w).max_abs() == 0.0


def test_star_inverse_formula(rng, box4):
    """star^(-1) = (-1)^(r+1) star on degree-r forms."""
    for r in range(5):
        w = random_cochain(box4, rng, degrees={r})
        inv = ((-1) ** (r + 1)) * star(w)
        assert (star(inv) - w).max_abs() == 0.0


def test_codifferential_stencil_matches_composite(rng, box4):
    for r in range(5):
        w = random_cochain(box4, rng, degrees={r})
        diff = (codifferential(w) - codifferential(w, "composite")).max_abs()
        assert diff <= 1e-13 * max(w.max_abs(), 1.0)


def test_codifferential_stencil_inhomogeneous(rng, box4):
    w = random_cochain(box4, rng)
    diff = (codifferential(w) - codifferential(w, "composite")).max_abs()
    assert diff <= 1e-13 * w.max_abs()


def test_codifferential_rejects_unknown_method(rng, box4):
    with pytest.raises(ValueError):
        codifferential(random_cochain(box4, rng), "midpoint")


def test_codifferential_stencil_term_counts():
    # degree r feeds C(4-... ) term lists: 4 from 1-forms, 3 each into 1-forms, ...
    assert len(CODIFF_STENCIL[()]) == 4
    for mu in range(4):
        assert len(CODIFF_STENCIL[(mu,)]) == 3
    assert all(len(CODIFF_STENCIL[mi]) == 2 for mi in ALL_INDEXES if len(mi) == 2)
    assert all(len(CODIFF_STENCIL[mi]) == 1 for mi in ALL_INDEXES if len(mi) == 3)


def test_inner_sign_is_metric_factor():
    for mi in ALL_INDEXES:
        expected = -1 if 0 in mi else 1
        assert inner_sign(mi) == expected


def test_inner_product_signature(rng):
    box = LatticeBox((2, 2, 2, 2))
    # a pure e0 component contributes negatively, pure e1 positively
    w0 = Cochain.from_components(box, {(0,): 1.0}, scalar_kind="real")
    w1 = Cochain.from_components(box, {(1,): 1.0}, scalar_kind="real")
    assert inner_product(w0, w0) == -box.npoints
    assert inner_product(w1, w1) == box.npoints
    # degree mixing never contributes
    assert inner_product(w0, random_cochain(box, rng, degrees={2})) == 0.0


def test_inner_product_conjugates_second_argument():
    box = LatticeBox((1, 1, 1, 1))
    a = Cochain.from_components(box, {(): 2.0 + 1.0j})
    b = Cochain.from_components(box, {(): 1.0 + 1.0j})
    assert inner_product(a, b) == (2 + 1j) * (1 - 1j)


def test_inner_product_validates(rng):
    a = random_cochain(LatticeBox((2, 2, 2, 2)), rng)
    b = random_cochain(LatticeBox((3, 2, 2, 2)), rng)
    with pytest.raises(ValueError):
        inner_product(a, b)
    c = random_cochain(a.box, rng)
    with pytest.raises(ValueError):
        inner_product(a, c.like(c.data, tilde=True))


def test_green_formula_matches_chain_oracle(rng, zbox2):
    for _ in range(5):
        phi = random_cochain(zbox2, rng)
        omega = random_cochain(zbox2, rng)
        lhs = green_defect(phi, omega)
        rhs = oracle.green_boundary_term(phi, omega)
        assert abs(lhs - rhs) <= 1e-12


def test_green_formula_homogeneous_pairs(rng, zbox2):
    for r in range(1, 5):
        phi = random_cochain(zbox2, rng, degrees={r - 1})
        omega = random_cochain(zbox2, rng, degrees={r})
        assert abs(green_defect(phi, omega)
                   - oracle.green_boundary_term(phi, omega)) <= 1e-12


def test_forward_difference_boundary_term_has_interior_support():
    """The boundary term of the Green formula is NOT supported only on the
    box faces: with one-sided differences in both operators the pairing
    defect survives for fields vanishing near the boundary.  Pinned here so
    the behaviour is explicit rather than accidental."""
    box = LatticeBox((6, 6, 6, 6), BoundaryPolicy.ZERO_EXTEND)
    bump = np.zeros(box.extents)
    bump[2:4, 2:4, 2:4, 2:4] = 1.0  # two layers away from every face
    phi = Cochain.from_components(box, {(): bump}, scalar_kind="real")
    omega = Cochain.from_components(box, {(0,): bump}, scalar_kind="real")
    defect = green_defect(phi, omega)
    assert abs(defect) > 1.0  # genuinely nonzero, not a rounding artifact
    # ... and the chain-level boundary term accounts for it exactly
    assert abs(defect - oracle.green_boundary_term(phi, omega)) <= 1e-12


def test_laplacian_equals_minus_dirac_squared(rng, box4):
    """(d_c + delta)^2 = d_c delta + delta d_c by nilpotency, so the
    Laplacian -(d_c delta + delta d_c) is minus the operator applied twice."""
    w = random_cochain(box4, rng)
    squared = dirac_operator(dirac_operator(w))
    second_order = d_c(codifferential(w)) + codifferential(d_c(w))
    assert (squared - second_order).max_abs() <= 1e-13 * w.max_abs()
