"""Brute-force reference implementations used only by the test suite.

Everything here is assembled from first principles -- dense matrices built by
exhaustive chain enumeration, a gamma-matrix model of the Clifford table, and
an explicit chain-level boundary term for the Green formula.  No code is
shared with the fast paths beyond the type layer.
"""

from __future__ import annotations

import numpy as np

from .chains import basis_chain, boundary, chain_star
from .clifford import build_table
from .lattice import BoundaryPolicy, Cochain, LatticeBox
from .multiindex import ALL_INDEXES, NSLOTS, SLOT_OF, levi_civita
from .calculus import star

MAX_COMPONENTS = 20_000


def _check_size(box: LatticeBox):
    total = NSLOTS * box.npoints
    if total > MAX_COMPONENTS:
        raise ValueError(f"box too large for dense assembly ({total} components)")


def flat_index(box: LatticeBox, mi, k) -> int:
    """Row/column index of component (mi, k) in the flattened layout, matching
    Cochain.data.reshape(-1)."""
    return SLOT_OF[tuple(mi)] * box.npoints + int(np.ravel_multi_index(k, box.extents))


def flatten(cochain: Cochain) -> np.ndarray:
    return cochain.data.reshape(-1)


def unflatten(box: LatticeBox, vec, **kwargs) -> Cochain:
    return Cochain(box, np.asarray(vec).reshape((NSLOTS,) + box.extents), **kwargs)


def assemble_dc(box: LatticeBox) -> np.ndarray:
    """Dense coboundary matrix, entries from the duality with the chain
    boundary: row (J, k') holds the coefficients of boundary(basis chain)."""
    _check_size(box)
    n = NSLOTS * box.npoints
    mat = np.zeros((n, n))
    for target in ALL_INDEXES:
        if not target:
            continue
        for k in np.ndindex(box.extents):
            row = flat_index(box, target, k)
            bnd = boundary(basis_chain(k, target))
            for (kk, src), coeff in bnd.terms.items():
                if all(0 <= c < e for c, e in zip(kk, box.extents)):
                    mat[row, flat_index(box, src, kk)] += coeff
    return mat


def assemble_star(box: LatticeBox) -> np.ndarray:
    """Dense signed permutation matrix of the Hodge star (tilde flag aside)."""
    _check_size(box)
    n = NSLOTS * box.npoints
    mat = np.zeros((n, n))
    eye = np.eye(box.npoints)
    for mi in ALL_INDEXES:
        comp = tuple(d for d in range(4) if d not in mi)
        q = -1 if 0 in mi else 1
        sign = q * levi_civita(mi)
        rows = slice(SLOT_OF[comp] * box.npoints, (SLOT_OF[comp] + 1) * box.npoints)
        cols = slice(SLOT_OF[mi] * box.npoints, (SLOT_OF[mi] + 1) * box.npoints)
        mat[rows, cols] = sign * eye
    return mat


def assemble_codifferential(box: LatticeBox) -> np.ndarray:
    """Dense codifferential as the matrix composition star . d_c . star."""
    s = assemble_star(box)
    return s @ assemble_dc(box) @ s


def assemble_left_mult(dirs, box: LatticeBox) -> np.ndarray:
    """Dense matrix of left Clifford multiplication by a constant unit form."""
    _check_size(box)
    table = build_table()
    n = NSLOTS * box.npoints
    mat = np.zeros((n, n))
    eye = np.eye(box.npoints)
    for mi in ALL_INDEXES:
        sign, res = table.product(dirs, mi)
        rows = slice(SLOT_OF[res] * box.npoints, (SLOT_OF[res] + 1) * box.npoints)
        cols = slice(SLOT_OF[mi] * box.npoints, (SLOT_OF[mi] + 1) * box.npoints)
        mat[rows, cols] += sign * eye
    return mat


# --- gamma-matrix model of the Clifford table --------------------------------

def dirac_gammas() -> list[np.ndarray]:
    """4x4 complex matrices with g_mu g_nu + g_nu g_mu = 2 diag(1,-1,-1,-1)."""
    i2 = np.eye(2)
    z2 = np.zeros((2, 2))
    sigma = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    g0 = np.block([[i2, z2], [z2, -i2]]).astype(complex)
    gs = [np.block([[z2, s], [-s, z2]]) for s in sigma]
    return [g0, *gs]


def gamma_of(mi, gammas=None) -> np.ndarray:
    gammas = gammas or dirac_gammas()
    out = np.eye(4, dtype=complex)
    for d in mi:
        out = out @ gammas[d]
    return out


def gamma_model_check() -> dict:
    """Verify every basis product entry against matrix multiplication."""
    gammas = dirac_gammas()
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    anticommutation_ok = all(
        np.allclose(gammas[a] @ gammas[b] + gammas[b] @ gammas[a],
                    2 * metric[a, b] * np.eye(4))
        for a in range(4) for b in range(4)
    )
    table = build_table()
    mismatches = []
    for mi_a in ALL_INDEXES:
        ga = gamma_of(mi_a, gammas)
        for mi_b in ALL_INDEXES:
            sign, res = table.product(mi_a, mi_b)
            expected = sign * gamma_of(res, gammas)
            if not np.allclose(ga @ gamma_of(mi_b, gammas), expected, atol=1e-14):
                mismatches.append((mi_a, mi_b))
    return {
        "anticommutation_ok": anticommutation_ok,
        "entries_checked": len(ALL_INDEXES) ** 2,
        "mismatches": mismatches,
        "all_match": anticommutation_ok and not mismatches,
    }


def gamma_product(a: Cochain, b: Cochain) -> Cochain:
    """Pointwise Clifford product through the gamma-matrix model: map each
    point's 16 components to a 4x4 matrix, multiply, and solve for the
    components of the product in the 16 basis matrices."""
    a._check_compatible(b)
    basis = np.stack([gamma_of(mi) for mi in ALL_INDEXES])  # (16, 4, 4)
    mat_a = np.einsum("sij,sn->nij", basis, a.data.reshape(NSLOTS, -1))
    mat_b = np.einsum("sij,sn->nij", basis, b.data.reshape(NSLOTS, -1))
    prod = (mat_a @ mat_b).reshape(-1, 16).T  # (16 matrix entries, points)
    coeffs = np.linalg.solve(basis.reshape(NSLOTS, 16).T, prod)
    return Cochain(a.box, coeffs.reshape(a.data.shape), "complex", a.tilde)


# --- chain-level Green boundary term ------------------------------------------

class ProductChain:
    """Formal sum in the tensor product of the complex with its double:
    {((k, dirs), (k~, dirs~)): coefficient}."""

    def __init__(self):
        self.terms: dict[tuple, int] = {}

    def add(self, left, right, coeff):
        key = (left, right)
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)


def _volume_chain(box: LatticeBox, degree: int) -> ProductChain:
    """The diagonal volume chain of one degree: sum over box points and
    multi-indices of (cell) tensor (its dual cell with Levi-Civita sign)."""
    out = ProductChain()
    for mi in ALL_INDEXES:
        if len(mi) != degree:
            continue
        for k in np.ndindex(box.extents):
            dual = chain_star(basis_chain(k, mi))
            ((kk, comp),) = dual.terms.keys()
            out.add((k, mi), (kk, comp), dual.terms[(kk, comp)])
    return out


def _product_boundary(chain: ProductChain) -> ProductChain:
    """Graded boundary of a product chain: boundary of the left factor plus
    (-1)^(left degree) times the boundary of the right factor."""
    out = ProductChain()
    for ((k, mi), (kt, mit)), coeff in chain.terms.items():
        left_b = boundary(basis_chain(k, mi))
        for (kk, sub), c in left_b.terms.items():
            out.add((kk, sub), (kt, mit), coeff * c)
        sign = -1 if len(mi) % 2 else 1
        right_b = boundary(basis_chain(kt, mit, tilde=True))
        for (kk, sub), c in right_b.terms.items():
            out.add((k, mi), (kk, sub), coeff * c * sign)
    return out


def _degree_part(cochain: Cochain, degree: int) -> Cochain:
    out = np.zeros_like(cochain.data)
    for mi in ALL_INDEXES:
        if len(mi) == degree:
            out[SLOT_OF[mi]] = cochain.data[SLOT_OF[mi]]
    return cochain.like(out)


def green_boundary_term(phi: Cochain, omega: Cochain) -> complex:
    """Boundary term of the Green formula evaluated at the chain level:
    for each degree r, pair the boundary of the degree-r volume chain with
    (degree r-1 part of phi) tensor star(conj(degree r part of omega))."""
    box = LatticeBox(phi.box.extents, BoundaryPolicy.ZERO_EXTEND)

    def read(cochain, mi, k):
        if all(0 <= c < e for c, e in zip(k, box.extents)):
            return cochain.component(mi)[tuple(k)]
        return 0.0

    total = 0.0 + 0.0j
    for r in range(1, 5):
        phi_r = _degree_part(phi, r - 1)
        omega_r = _degree_part(omega, r)
        if not (np.any(phi_r.data) and np.any(omega_r.data)):
            continue
        star_conj = star(omega_r.like(np.conj(omega_r.data)))
        # both diagonal volume chains can shed terms of bidegree (r-1, 4-r):
        # the left-factor boundary of the degree-r chain and the right-factor
        # boundary of the degree-(r-1) chain
        for vol_degree in (r - 1, r):
            volume = _volume_chain(box, vol_degree)
            for ((k, mi), (kt, mit)), coeff in _product_boundary(volume).terms.items():
                left = read(phi_r, mi, k)
                if left == 0.0:
                    continue
                total += coeff * left * read(star_conj, mit, kt)
    return complex(total)
