import numpy as np
import pytest

from ddirac import oracle
from ddirac.calculus import dirac_operator
from ddirac.clifford import (
    build_table,
    clifford_mul,
    dirac_clifford,
    mul_basis_left,
    mul_basis_right,
    reduce_word,
    unit_form,
)
from ddirac.lattice import BoundaryPolicy, LatticeBox, random_cochain
from ddirac.multiindex import ALL_INDEXES, EVEN_SLOTS, ODD_SLOTS


def test_reduce_word_examples():
    assert reduce_word(()) == (1, ())
    assert reduce_word((0, 0)) == (1, ())
    assert reduce_word((1, 1)) == (-1, ())
    assert reduce_word((1, 0)) == (-1, (0, 1))
    assert reduce_word((1, 2, 1, 2)) == (-1, ())
    assert reduce_word((0, 1, 0, 1)) == (1, ())
    assert reduce_word((3, 2, 1, 0)) == (1, (0, 1, 2, 3))


def test_table_known_products():
    table = build_table()
    assert table.product((0,), (0,)) == (1, ())
    assert table.product((1,), (1,)) == (-1, ())
    assert table.product((1,), (2,)) == (1, (1, 2))
    assert table.product((2,), (1,)) == (-1, (1, 2))
    assert table.product((1, 2), (1, 2)) == (-1, ())
    assert table.product((0, 1), (0, 1)) == (1, ())
    assert table.product((0, 1, 2, 3), (0, 1, 2, 3)) == (-1, ())


def test_table_matches_gamma_matrix_model():
    report = oracle.gamma_model_check()
    assert report["all_match"]
    assert report["entries_checked"] == 256
    assert report["mismatches"] == []


def test_generator_anticommutation():
    """e_mu e_nu + e_nu e_mu = 2 g_{mu nu} x for the four generators."""
    table = build_table()
    metric = (1, -1, -1, -1)
    for a in range(4):
        for b in range(4):
            sab, rab = table.product((a,), (b,))
            sba, rba = table.product((b,), (a,))
            if a == b:
                assert rab == rba == ()
                assert sab + sba == 2 * metric[a]
            else:
                assert rab == rba and sab + sba == 0


def test_unit_form_is_two_sided_identity(rng, box4):
    w = random_cochain(box4, rng)
    x = unit_form((), box4)
    assert (clifford_mul(x, w) - w).max_abs() == 0.0
    assert (clifford_mul(w, x) - w).max_abs() == 0.0


def test_product_is_pointwise(rng):
    """A product never mixes values from different lattice points."""
    box = LatticeBox((2, 2, 2, 2))
    a = random_cochain(box, rng)
    b = random_cochain(box, rng)
    prod = clifford_mul(a, b)
    k = (1, 0, 1, 0)
    # zeroing every other point leaves the product at k unchanged
    mask = np.zeros(box.extents)
    mask[k] = 1.0
    a_masked = a.like(a.data * mask)
    b_masked = b.like(b.data * mask)
    masked_prod = clifford_mul(a_masked, b_masked)
    point = (slice(None),) + k
    assert np.allclose(masked_prod.data[point], prod.data[point], atol=1e-14)


def test_associativity_on_random_forms(rng):
    box = LatticeBox((2, 2, 2, 2))
    a, b, c = (random_cochain(box, rng) for _ in range(3))
    left = clifford_mul(clifford_mul(a, b), c)
    right = clifford_mul(a, clifford_mul(b, c))
    assert (left - right).max_abs() <= 1e-13 * max(left.max_abs(), 1.0)


def test_table_associativity_exhaustive():
    """Associativity at the table level over all 16^3 basis triples."""
    table = build_table()
    for mi_a in ALL_INDEXES:
        for mi_b in ALL_INDEXES:
            s_ab, r_ab = table.product(mi_a, mi_b)
            for mi_c in ALL_INDEXES:
                s1, r1 = table.product(r_ab, mi_c)
                s_bc, r_bc = table.product(mi_b, mi_c)
                s2, r2 = table.product(mi_a, r_bc)
                assert (s_ab * s1, r1) == (s_bc * s2, r2)


def test_product_grading_by_parity(rng, box4):
    even = random_cochain(box4, rng, degrees={0, 2, 4})
    odd = random_cochain(box4, rng, degrees={1, 3})
    assert np.abs(clifford_mul(even, even).data[list(ODD_SLOTS)]).max() == 0.0
    assert np.abs(clifford_mul(odd, odd).data[list(ODD_SLOTS)]).max() == 0.0
    assert np.abs(clifford_mul(even, odd).data[list(EVEN_SLOTS)]).max() == 0.0


def test_basis_shuffles_match_full_product(rng, box4):
    w = random_cochain(box4, rng)
    for dirs in ALL_INDEXES:
        u = unit_form(dirs, box4)
        assert (mul_basis_left(dirs, w) - clifford_mul(u, w)).max_abs() == 0.0
        assert (mul_basis_right(w, dirs) - clifford_mul(w, u)).max_abs() == 0.0


def test_left_multiplication_matches_dense_oracle(rng):
    box = LatticeBox((2, 2, 2, 2))
    w = random_cochain(box, rng)
    for dirs in [(1,), (0, 3)]:
        mat = oracle.assemble_left_mult(dirs, box)
        fast = oracle.flatten(mul_basis_left(dirs, w))
        assert np.abs(mat @ oracle.flatten(w) - fast).max() <= 1e-13


@pytest.mark.parametrize("kinds", [("complex", "complex"), ("real", "complex"),
                                   ("complex", "real")])
def test_product_matches_gamma_matrix_oracle(rng, kinds):
    box = LatticeBox((3, 3, 3, 3))
    for _ in range(3):
        a = random_cochain(box, rng, scalar_kind=kinds[0])
        b = random_cochain(box, rng, scalar_kind=kinds[1])
        fast = clifford_mul(a, b)
        diff = (fast - oracle.gamma_product(a, b)).max_abs()
        assert diff <= 1e-13 * fast.max_abs()


@pytest.mark.parametrize("extents", [(1, 4, 4, 4), (4, 4, 1, 4)])
def test_first_order_operator_equivalence_with_unit_extent(rng, extents):
    """A direction with one point has no forward neighbour: its difference
    reads zero beyond the box, like every other out-of-box read."""
    w = random_cochain(LatticeBox(extents, BoundaryPolicy.ZERO_EXTEND), rng)
    diff = (dirac_clifford(w) - dirac_operator(w)).max_abs()
    assert diff <= 1e-13 * w.max_abs()


def test_first_order_operator_equivalence(rng, box4):
    """sum_mu e_mu Delta_mu equals d_c + codifferential on every component."""
    for _ in range(10):
        w = random_cochain(box4, rng)
        diff = (dirac_clifford(w) - dirac_operator(w)).max_abs()
        assert diff <= 1e-12 * w.max_abs()


def test_scalar_kind_propagation(rng, box4):
    a = random_cochain(box4, rng, scalar_kind="real")
    b = random_cochain(box4, rng, scalar_kind="real")
    assert clifford_mul(a, b).scalar_kind == "real"
    assert clifford_mul(a, random_cochain(box4, rng)).scalar_kind == "complex"


def test_incompatible_operands_raise(rng, box4):
    a = random_cochain(box4, rng)
    with pytest.raises(ValueError):
        clifford_mul(a, random_cochain(LatticeBox((3, 4, 4, 4)), rng))
    with pytest.raises(ValueError):
        clifford_mul(a, random_cochain(box4, rng, tilde=True))
