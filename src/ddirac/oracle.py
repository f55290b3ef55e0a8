"""Brute-force reference implementations.

The test suite uses all of them; `green_boundary_term` also backs the Green
row of ``ddirac verify-calculus`` and the benchmark's `dk-random` workload.

Everything here is assembled from first principles -- dense matrices built by
exhaustive chain enumeration, a gamma-matrix model of the Clifford table, and
an explicit chain-level boundary term for the Green formula.  Beyond the
type layer, two pieces are shared with the fast paths: `green_boundary_term`
applies `calculus.star`, so a fault in the star reaches both sides of the
Green comparison, and `assemble_left_mult` reads the product table, which
`gamma_model_check` checks against the gamma matrices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .chains import add_term, basis_chain, boundary, chain_star
from .clifford import build_table
from .lattice import Cochain, LatticeBox
from .multiindex import ALL_INDEXES, NSLOTS, SLOT_OF, levi_civita
from .calculus import star

#: 4^4 box: two 4096x4096 float64 matrices of 128 MB each.
MAX_COMPONENTS = 4_096


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


def _star_permutation(box: LatticeBox) -> tuple[np.ndarray, np.ndarray]:
    """The Hodge star (tilde flag aside) as a signed permutation of flat
    indices: column j of its matrix holds sign[j] in row perm[j]."""
    npts = box.npoints
    perm = np.empty(NSLOTS * npts, dtype=np.intp)
    sign = np.empty(NSLOTS * npts)
    for mi in ALL_INDEXES:
        comp = tuple(d for d in range(4) if d not in mi)
        q = -1 if 0 in mi else 1
        cols = slice(SLOT_OF[mi] * npts, (SLOT_OF[mi] + 1) * npts)
        perm[cols] = SLOT_OF[comp] * npts + np.arange(npts)
        sign[cols] = q * levi_civita(mi)
    return perm, sign


def assemble_star(box: LatticeBox) -> np.ndarray:
    """Dense signed permutation matrix of the Hodge star (tilde flag aside)."""
    _check_size(box)
    perm, sign = _star_permutation(box)
    mat = np.zeros((perm.size, perm.size))
    mat[perm, np.arange(perm.size)] = sign
    return mat


def assemble_codifferential(box: LatticeBox) -> np.ndarray:
    """Dense codifferential as the matrix composition star . d_c . star.

    With S[perm[j], j] = sign[j], (S A S)[i, l] = sign[inv[i]] A[inv[i],
    perm[l]] sign[l] for the inverse permutation inv: the products are
    applied by indexing, not as two O(n^3) matrix products."""
    dc = assemble_dc(box)
    perm, sign = _star_permutation(box)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    mat = dc[np.ix_(inv, perm)]
    mat *= sign[inv][:, None]
    mat *= sign[None, :]
    return mat


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
    return a.like(coeffs.reshape(a.data.shape))


# --- chain-level Green boundary term ------------------------------------------

def _volume_chain(box: LatticeBox, degree: int) -> dict:
    """The diagonal volume chain of one degree, {((k, dirs), (k~, dirs~)):
    coefficient} in the tensor product of the complex with its double: over
    box points and multi-indices, (cell) tensor (its signed dual cell)."""
    out: dict[tuple, int] = {}
    for mi in ALL_INDEXES:
        if len(mi) != degree:
            continue
        for k in np.ndindex(box.extents):
            dual = chain_star(basis_chain(k, mi))
            ((kk, comp),) = dual.terms.keys()
            add_term(out, ((k, mi), (kk, comp)), dual.terms[(kk, comp)])
    return out


def _product_boundary(chain: dict) -> dict:
    """Graded boundary of a product chain: boundary of the left factor plus
    (-1)^(left degree) times the boundary of the right factor."""
    out: dict[tuple, int] = {}
    for ((k, mi), (kt, mit)), coeff in chain.items():
        left_b = boundary(basis_chain(k, mi))
        for (kk, sub), c in left_b.terms.items():
            add_term(out, ((kk, sub), (kt, mit)), coeff * c)
        sign = -1 if len(mi) % 2 else 1
        right_b = boundary(basis_chain(kt, mit, tilde=True))
        for (kk, sub), c in right_b.terms.items():
            add_term(out, ((k, mi), (kk, sub)), coeff * c * sign)
    return out


def _degree_part(cochain: Cochain, degree: int) -> Cochain:
    out = np.zeros_like(cochain.data)
    for mi in ALL_INDEXES:
        if len(mi) == degree:
            out[SLOT_OF[mi]] = cochain.data[SLOT_OF[mi]]
    return cochain.like(out)


@lru_cache(maxsize=16)
def _volume_boundary_index(extents: tuple[int, ...], degree: int) -> tuple[np.ndarray, ...]:
    """The boundary of the degree-d volume chain as index arrays, one entry
    per term: (coefficient, left slot, left flat point, right slot, right
    flat point), with flat point -1 for a point off the box."""
    box = LatticeBox(extents)

    def flat(k):
        return int(np.ravel_multi_index(k, extents)) if box.contains(k) else -1

    rows = [(coeff, SLOT_OF[mi], flat(k), SLOT_OF[mit], flat(kt))
            for ((k, mi), (kt, mit)), coeff
            in _product_boundary(_volume_chain(box, degree)).items()]
    columns = np.array(rows, dtype=np.intp).reshape(-1, 5).T.copy()
    columns.flags.writeable = False
    return tuple(columns)


def _padded(cochain: Cochain) -> np.ndarray:
    """(16, npoints + 1) copy of the data whose last column, the one flat
    point -1 reads, is zero."""
    flat = cochain.data.reshape(NSLOTS, -1)
    out = np.zeros((NSLOTS, flat.shape[1] + 1), dtype=flat.dtype)
    out[:, :-1] = flat
    return out


def green_boundary_term(phi: Cochain, omega: Cochain) -> complex:
    """Boundary term of the Green formula evaluated at the chain level:
    for each degree r, pair the boundary of the degree-r volume chain with
    (degree r-1 part of phi) tensor star(conj(degree r part of omega))."""
    extents = phi.box.extents
    total = 0.0 + 0.0j
    for r in range(1, 5):
        phi_r = _degree_part(phi, r - 1)
        omega_r = _degree_part(omega, r)
        if not (np.any(phi_r.data) and np.any(omega_r.data)):
            continue
        left = _padded(phi_r)
        right = _padded(star(omega_r.like(np.conj(omega_r.data))))
        # both diagonal volume chains can shed terms of bidegree (r-1, 4-r):
        # the left-factor boundary of the degree-r chain and the right-factor
        # boundary of the degree-(r-1) chain
        for vol_degree in (r - 1, r):
            coeff, mi, k, mit, kt = _volume_boundary_index(extents, vol_degree)
            total += np.sum(coeff * left[mi, k] * right[mit, kt])
    return complex(total)
