import numpy as np
import pytest

from ddirac import oracle
from ddirac.calculus import codifferential, d_c, star
from ddirac.lattice import BoundaryPolicy, Cochain, LatticeBox, random_cochain


BOX3 = LatticeBox((3, 3, 3, 3), BoundaryPolicy.ZERO_EXTEND)


def test_flatten_round_trip(rng):
    w = random_cochain(BOX3, rng)
    back = oracle.unflatten(BOX3, oracle.flatten(w))
    assert (back - w).max_abs() == 0.0


def test_flat_index_matches_layout(rng):
    w = random_cochain(BOX3, rng)
    vec = oracle.flatten(w)
    idx = oracle.flat_index(BOX3, (0, 2), (1, 0, 2, 1))
    assert vec[idx] == w.component((0, 2))[1, 0, 2, 1]


def test_size_guard():
    for extents in [(8, 8, 8, 8), (4, 4, 4, 5)]:
        with pytest.raises(ValueError):
            oracle.assemble_dc(LatticeBox(extents))


def test_size_guard_admits_the_4x4x4x4_box():
    oracle._check_size(LatticeBox((4, 4, 4, 4)))


def test_dense_coboundary_matches_fast_path(rng):
    mat = oracle.assemble_dc(BOX3)
    for _ in range(3):
        w = random_cochain(BOX3, rng)
        dense = mat @ oracle.flatten(w)
        assert np.abs(dense - oracle.flatten(d_c(w))).max() <= 1e-13 * w.max_abs()


def test_dense_coboundary_nilpotent():
    mat = oracle.assemble_dc(BOX3)
    assert np.abs(mat @ mat).max() == 0.0


def test_dense_star_is_signed_involution(rng):
    s = oracle.assemble_star(BOX3)
    # entries are only 0 or +/-1 and each row has exactly one nonzero
    assert set(np.unique(s)) <= {-1.0, 0.0, 1.0}
    assert np.all(np.abs(s).sum(axis=1) == 1.0)
    w = random_cochain(BOX3, rng)
    assert np.abs(s @ oracle.flatten(w) - oracle.flatten(star(w))).max() == 0.0


def test_dense_codifferential_equals_star_products():
    s = oracle.assemble_star(BOX3)
    assert np.array_equal(oracle.assemble_codifferential(BOX3),
                          s @ oracle.assemble_dc(BOX3) @ s)


def test_dense_codifferential_matches_both_routes(rng):
    mat = oracle.assemble_codifferential(BOX3)
    for _ in range(3):
        w = random_cochain(BOX3, rng)
        dense = mat @ oracle.flatten(w)
        for method in ("stencil", "composite"):
            fast = oracle.flatten(codifferential(w, method))
            assert np.abs(dense - fast).max() <= 1e-13 * w.max_abs()


def test_gamma_model_is_a_faithful_representation():
    report = oracle.gamma_model_check()
    assert report["all_match"]
    # the representation itself is irreducible on 4x4 matrices: the 16 images
    # must be linearly independent
    from ddirac.multiindex import ALL_INDEXES
    gammas = oracle.dirac_gammas()
    stack = np.stack([oracle.gamma_of(mi, gammas).ravel() for mi in ALL_INDEXES])
    assert np.linalg.matrix_rank(stack) == 16


def test_boundary_term_single_cell():
    """One hand-checkable case: phi a delta 0-form and omega a delta e0
    1-form at the same point.  (d phi, omega) picks up the Lorentz sign of
    the e0 slot times the backward difference, giving +1; (phi, delta omega)
    gives -1; the boundary term must equal the difference, exactly 2."""
    box = LatticeBox((2, 2, 2, 2), BoundaryPolicy.ZERO_EXTEND)
    data = np.zeros(box.extents)
    data[0, 0, 0, 0] = 1.0
    phi = Cochain.from_components(box, {(): data}, scalar_kind="real")
    omega = Cochain.from_components(box, {(0,): data}, scalar_kind="real")
    term = oracle.green_boundary_term(phi, omega)
    from ddirac.calculus import green_defect
    assert term == pytest.approx(green_defect(phi, omega), abs=1e-14)
    assert term == pytest.approx(2.0)


def _green_term_per_cell(phi, omega):
    """Reference: the boundary term summed one product-chain term at a time."""
    box = LatticeBox(phi.box.extents, BoundaryPolicy.ZERO_EXTEND)

    def read(cochain, mi, k):
        return cochain.component(mi)[tuple(k)] if box.contains(k) else 0.0

    total = 0.0 + 0.0j
    for r in range(1, 5):
        phi_r = oracle._degree_part(phi, r - 1)
        omega_r = oracle._degree_part(omega, r)
        if not (np.any(phi_r.data) and np.any(omega_r.data)):
            continue
        star_conj = star(omega_r.like(np.conj(omega_r.data)))
        for vol_degree in (r - 1, r):
            volume = oracle._volume_chain(box, vol_degree)
            for ((k, mi), (kt, mit)), coeff in oracle._product_boundary(volume).terms.items():
                left = read(phi_r, mi, k)
                if left == 0.0:
                    continue
                total += coeff * left * read(star_conj, mit, kt)
    return complex(total)


@pytest.mark.parametrize("extents", [(2, 2, 2, 2), (2, 2, 3, 2)])
def test_green_boundary_term_matches_per_cell_sum(rng, extents):
    box = LatticeBox(extents, BoundaryPolicy.ZERO_EXTEND)
    for _ in range(3):
        phi = random_cochain(box, rng)
        omega = random_cochain(box, rng)
        ref = _green_term_per_cell(phi, omega)
        assert abs(oracle.green_boundary_term(phi, omega) - ref) <= 1e-13 * abs(ref)
    zero = Cochain.zeros(box)
    assert oracle.green_boundary_term(zero, zero) == 0.0
    assert oracle.green_boundary_term(phi, zero) == 0.0
    assert oracle.green_boundary_term(zero, omega) == 0.0
