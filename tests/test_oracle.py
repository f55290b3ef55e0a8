import numpy as np
import pytest

from ddirac import oracle
from ddirac.calculus import codifferential, d_c, star
from ddirac.chains import basis_chain, chain_star
from ddirac.lattice import BoundaryPolicy, Cochain, LatticeBox, random_cochain
from ddirac.multiindex import ALL_INDEXES, SLOT_OF


BOX3 = LatticeBox((3, 3, 3, 3), BoundaryPolicy.ZERO_EXTEND)


def test_flat_index_matches_layout(rng):
    w = random_cochain(BOX3, rng)
    vec = w.data.reshape(-1)
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
        dense = mat @ w.data.reshape(-1)
        assert np.abs(dense - d_c(w).data.reshape(-1)).max() <= 1e-13 * w.max_abs()


def test_dense_coboundary_nilpotent():
    mat = oracle.assemble_dc(BOX3)
    assert np.abs(mat @ mat).max() == 0.0


def test_dense_star_is_signed_involution(rng):
    s = oracle.assemble_star(BOX3)
    # entries are only 0 or +/-1 and each row has exactly one nonzero
    assert set(np.unique(s)) <= {-1.0, 0.0, 1.0}
    assert np.all(np.abs(s).sum(axis=1) == 1.0)
    w = random_cochain(BOX3, rng)
    assert np.abs(s @ w.data.reshape(-1) - star(w).data.reshape(-1)).max() == 0.0


def test_dense_codifferential_equals_star_products():
    s = oracle.assemble_star(BOX3)
    assert np.array_equal(oracle.assemble_codifferential(BOX3),
                          s @ oracle.assemble_dc(BOX3) @ s)


def test_dense_codifferential_matches_both_routes(rng):
    mat = oracle.assemble_codifferential(BOX3)
    for _ in range(3):
        w = random_cochain(BOX3, rng)
        dense = mat @ w.data.reshape(-1)
        for method in ("stencil", "composite"):
            fast = codifferential(w, method).data.reshape(-1)
            assert np.abs(dense - fast).max() <= 1e-13 * w.max_abs()


def test_gamma_model_is_a_faithful_representation():
    report = oracle.gamma_model_check()
    assert report["all_match"]
    # the representation itself is irreducible on 4x4 matrices: the 16 images
    # must be linearly independent
    gammas = oracle.dirac_gammas()
    stack = np.stack([oracle.gamma_of(mi, gammas).ravel() for mi in ALL_INDEXES])
    assert np.linalg.matrix_rank(stack) == 16


def test_boundary_term_single_cell():
    """One hand-checkable case: phi a delta 0-form and omega a delta e0
    1-form at the same point.  (d phi, omega) picks up the Lorentz sign of
    the e0 slot times the backward difference, giving +1; (phi, delta omega)
    gives -1; the boundary term must equal the difference, exactly 2."""
    box = LatticeBox((2, 2, 2, 2), BoundaryPolicy.ZERO_EXTEND)
    phi = Cochain.zeros(box, "real")
    phi.component(())[0, 0, 0, 0] = 1.0
    omega = Cochain.zeros(box, "real")
    omega.component((0,))[0, 0, 0, 0] = 1.0
    term = oracle.green_boundary_term(phi, omega)
    from ddirac.calculus import green_defect
    assert term == pytest.approx(green_defect(phi, omega), abs=1e-14)
    assert term == pytest.approx(2.0)


def _volume_chain(box, degree):
    """The diagonal volume chain of one degree over the whole box,
    {((k, dirs), (k~, dirs~)): coefficient}: each cell tensor its signed
    dual cell, in (cell, point) order."""
    out = {}
    for mi in ALL_INDEXES:
        if len(mi) != degree:
            continue
        for k in np.ndindex(box.extents):
            ((dual, coeff),) = chain_star(basis_chain(k, mi)).terms.items()
            out[((k, mi), dual)] = coeff
    return out


def _factors(phi, omega, r):
    """Degree r-1 part of phi and star(conj(degree r part of omega)), or None
    when either is zero."""
    phi_r = oracle._degree_part(phi, r - 1)
    omega_r = oracle._degree_part(omega, r)
    if not (np.any(phi_r.data) and np.any(omega_r.data)):
        return None
    return phi_r, star(omega_r.like(np.conj(omega_r.data)))


def _green_term_per_cell(phi, omega):
    """Reference: the boundary term summed one product-chain term at a time."""
    box = LatticeBox(phi.box.extents, BoundaryPolicy.ZERO_EXTEND)

    def read(cochain, mi, k):
        return cochain.component(mi)[tuple(k)] if box.contains(k) else 0.0

    total = 0.0 + 0.0j
    for r in range(1, 5):
        if (factors := _factors(phi, omega, r)) is None:
            continue
        phi_r, star_conj = factors
        for vol_degree in (r - 1, r):
            volume = _volume_chain(box, vol_degree)
            for ((k, mi), (kt, mit)), coeff in oracle._product_boundary(volume).items():
                left = read(phi_r, mi, k)
                if left == 0.0:
                    continue
                total += coeff * left * read(star_conj, mit, kt)
    return complex(total)


def _green_term_box_wide_index(phi, omega):
    """Reference: the boundary term as one np.sum per volume chain over the
    box-wide chain's terms, as (coefficient, slot, flat point) index arrays
    with flat point -1, a zero column, for a point off the box."""
    box = phi.box

    def flat(k):
        return int(np.ravel_multi_index(k, box.extents)) if box.contains(k) else -1

    def with_zero_column(cochain):
        return np.concatenate([cochain.data.reshape(16, -1),
                               np.zeros((16, 1), cochain.data.dtype)], axis=1)

    total = 0.0 + 0.0j
    for r in range(1, 5):
        if (factors := _factors(phi, omega, r)) is None:
            continue
        left, right = map(with_zero_column, factors)
        for vol_degree in (r - 1, r):
            terms = oracle._product_boundary(_volume_chain(box, vol_degree))
            coeff, mi, k, mit, kt = np.array(
                [(c, SLOT_OF[mi], flat(k), SLOT_OF[mit], flat(kt))
                 for ((k, mi), (kt, mit)), c in terms.items()], dtype=np.intp).T
            total += np.sum(coeff * left[mi, k] * right[mit, kt])
    return complex(total)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("extents", [(2, 2, 2, 2), (1, 3, 2, 4), (3, 4, 2, 5), (2, 1, 1, 1)])
def test_green_boundary_term_is_the_box_wide_index_sum_bit_for_bit(rng, extents, kind):
    box = LatticeBox(extents)
    phi = random_cochain(box, rng, kind)
    omega = random_cochain(box, rng, kind)
    cases = [(phi, omega)]
    if extents == (2, 2, 2, 2):
        # phi's 0-form part is zero, so the degree-1 pairing is skipped
        cases.append((random_cochain(box, rng, kind, degrees={1, 2, 3, 4}), omega))
    for a, b in cases:
        term = oracle.green_boundary_term(a, b)
        assert np.array([term]).tobytes() == \
            np.array([_green_term_box_wide_index(a, b)]).tobytes()


@pytest.mark.parametrize("extents", [(2, 2, 2, 2), (2, 2, 3, 2), (1, 3, 2, 4)])
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
