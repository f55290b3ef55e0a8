import pytest

from ddirac.chains import Chain, add_term, basis_chain, boundary, chain_star, pair, shift
from ddirac.lattice import BoundaryPolicy, LatticeBox, random_cochain
from ddirac.multiindex import ALL_INDEXES, levi_civita


def test_boundary_of_edge_is_endpoint_difference():
    b = boundary(basis_chain((0, 0, 0, 0), (2,)))
    assert b.terms == {
        ((0, 0, 1, 0), ()): 1,
        ((0, 0, 0, 0), ()): -1,
    }


def test_boundary_of_square_alternates_signs():
    b = boundary(basis_chain((0, 0, 0, 0), (0, 1)))
    # direction 0 edge carries +, direction 1 edge carries - (one e-factor to its left)
    assert b.terms == {
        ((1, 0, 0, 0), (1,)): 1,
        ((0, 0, 0, 0), (1,)): -1,
        ((0, 1, 0, 0), (0,)): -1,
        ((0, 0, 0, 0), (0,)): 1,
    }


def test_boundary_squared_vanishes():
    for dirs in ALL_INDEXES:
        c = basis_chain((1, 2, 0, 3), dirs)
        assert not boundary(boundary(c)).terms


def test_boundary_squared_on_combinations():
    c = Chain({((0, 0, 0, 0), (0, 1, 2)): 3,
               ((1, 0, 0, 0), (1, 2, 3)): -2,
               ((0, 1, 1, 0), (0, 1, 2, 3)): 1})
    assert len(c.terms) == 3
    assert not boundary(boundary(c)).terms


def test_interior_policy_rejects_boundary_leaving_box():
    box = LatticeBox((2, 2, 2, 2))
    with pytest.raises(ValueError):
        boundary(basis_chain((1, 0, 0, 0), (0,)), box)
    # fine when the shift stays inside
    boundary(basis_chain((0, 0, 0, 0), (0,)), box)


def test_pairing_is_perfect_on_basis(rng):
    box = LatticeBox((3, 3, 3, 3))
    w = random_cochain(box, rng)
    for dirs in [(), (0,), (1, 3), (0, 1, 2, 3)]:
        k = (2, 1, 0, 2)
        assert pair(basis_chain(k, dirs), w) == pytest.approx(w.component(dirs)[k])


def test_pairing_tilde_mismatch_raises(rng):
    box = LatticeBox((2, 2, 2, 2))
    w = random_cochain(box, rng)
    w = w.like(w.data, tilde=True)
    with pytest.raises(ValueError):
        pair(basis_chain((0, 0, 0, 0), ()), w)
    assert pair(basis_chain((0, 0, 0, 0), (), tilde=True), w) == w.component(())[0, 0, 0, 0]


def test_pairing_outside_box_policies(rng):
    outside = basis_chain((5, 0, 0, 0), ())
    w_zero = random_cochain(LatticeBox((2, 2, 2, 2), BoundaryPolicy.ZERO_EXTEND), rng)
    assert pair(outside, w_zero) == 0.0
    w_int = random_cochain(LatticeBox((2, 2, 2, 2)), rng)
    with pytest.raises(ValueError):
        pair(outside, w_int)


def test_add_term_drops_cancelled_terms_and_appends_readded_ones():
    """The Green term sums the product-chain boundary in this key order."""
    terms = {}
    for key, coeff in [("a", 1), ("b", 2), ("a", -1), ("c", 1), ("a", 3), ("b", 0)]:
        add_term(terms, key, coeff)
    assert list(terms.items()) == [("b", 2), ("c", 1), ("a", 3)]


def test_shift_helper():
    assert shift((0, 1, 2, 3), 2) == (0, 1, 3, 3)


def test_chain_star_signs_and_involution():
    for dirs in ALL_INDEXES:
        c = basis_chain((1, 1, 1, 1), dirs)
        s = chain_star(c)
        assert s.tilde
        ((k, comp),) = s.terms.keys()
        assert k == (1, 1, 1, 1)
        assert s.terms[(k, comp)] == levi_civita(dirs)
        # applying the duality twice returns the cell up to the complement sign
        ss = chain_star(s)
        r = len(dirs)
        assert ss.terms == {((1, 1, 1, 1), dirs): (-1) ** (r * (4 - r))}
