"""Plane-wave solutions of the lattice Hestenes equation.

The wave factor at lattice point k is the Clifford power product
prod_mu (x +/- p_mu e12)^(k_mu), which lives in the commutative subalgebra
spanned by {x, e12}.  That subalgebra is isomorphic to the complex numbers
(x <-> 1, e12 <-> i, since e12*e12 = -x), giving a fast closed form
psi + i*phi = prod_mu (1 +/- i p_mu)^(k_mu) that doubles as an independent
oracle for the table-driven slow path.

A constant even amplitude A splits into a part commuting with e0 (components
x, e12, e13, e23) and a part anticommuting with it (e01, e02, e03, e0123).
The solvability constraints couple the two parts through the operator
B = p1 e01 + p2 e02 + p3 e03, whose 4x4 coefficient action is derived
mechanically from the Clifford table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .clifford import build_table, mul_basis_left, mul_basis_right
from .equations import check_mass
from .lattice import Cochain, LatticeBox
from .multiindex import EVEN_SLOTS, NSLOTS, ODD_SLOTS, SLOT_OF

#: The relative tolerance of `Momentum.on_shell`, the one shell test: it
#: decides which momenta `solution_basis` accepts, and which get a solution
#: basis or an off-shell control in ``ddirac planewave``.
SOLUTION_SHELL_TOL = 1e-9

#: Coefficient bases of the two halves of a constant even amplitude.
PLUS_BASIS = ((), (1, 2), (1, 3), (2, 3))         # commutes with e0
MINUS_BASIS = ((0, 1), (0, 2), (0, 3), (0, 1, 2, 3))  # anticommutes with e0
#: Where each half's coefficients sit among the 8 even-slot coefficients.
_PLUS_AT = [EVEN_SLOTS.index(SLOT_OF[mi]) for mi in PLUS_BASIS]
_MINUS_AT = [EVEN_SLOTS.index(SLOT_OF[mi]) for mi in MINUS_BASIS]

X_SLOT = SLOT_OF[()]
E12_SLOT = SLOT_OF[(1, 2)]
#: One-point box: a constant form on it holds its 16 coefficients in an
#: array of shape (16, 1, 1, 1, 1), which broadcasts over any box.
_POINT = LatticeBox((1, 1, 1, 1))


@dataclass(frozen=True)
class Momentum:
    """Mass and four-momentum (p0, p1, p2, p3)."""

    m: float
    p: tuple[float, float, float, float]

    def __post_init__(self):
        # an infinite mass would pass on_shell(): inf <= tol * inf
        check_mass(self.m)
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        if len(self.p) != 4:
            raise ValueError("momentum needs four components")
        if not np.isfinite(self.p).all():
            raise ValueError(f"momentum components must be finite, got {list(self.p)}")

    def mass_shell_defect(self) -> float:
        p0, p1, p2, p3 = self.p
        return p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3 - self.m * self.m

    def on_shell(self) -> bool:
        """|p.p - m^2| <= SOLUTION_SHELL_TOL * max(p0^2, m^2): the test is
        relative to the momentum's own size, as the defect's rounding error
        is, so a small momentum is not on shell merely by being small."""
        scale = max(self.p[0] * self.p[0], self.m * self.m)
        return abs(self.mass_shell_defect()) <= SOLUTION_SHELL_TOL * scale

    @classmethod
    def on_shell_from_spatial(cls, m, spatial, sign: int = +1) -> "Momentum":
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        p1, p2, p3 = spatial
        p0 = sign * np.sqrt(m * m + p1 * p1 + p2 * p2 + p3 * p3)
        return cls(m, (p0, p1, p2, p3))


def _kind_sign(kind: str) -> int:
    if kind == "plus":
        return +1
    if kind == "minus":
        return -1
    raise ValueError(f"kind must be 'plus' or 'minus', got {kind!r}")


def _wave(kind: str, momentum: Momentum, box: LatticeBox) -> np.ndarray:
    """psi_k + i phi_k = prod_mu (1 +/- i p_mu)^(k_mu) on the box.

    Built axis by axis from a single 1, so only the last multiply covers the
    whole box; each point still computes ((((1 * f0) * f1) * f2) * f3)."""
    sgn = _kind_sign(kind)
    w = np.ones((1, 1, 1, 1), dtype=np.complex128)
    for mu, (n, p) in enumerate(zip(box.extents, momentum.p)):
        factor = (1.0 + sgn * 1j * p) ** np.arange(n)
        shape = [1, 1, 1, 1]
        shape[mu] = n
        w = w * factor.reshape(shape)
    return w


def psi(kind: str, momentum: Momentum, box: LatticeBox) -> Cochain:
    """The real even wave form: x-component psi_k, e12-component phi_k."""
    w = _wave(kind, momentum, box)
    data = np.zeros((NSLOTS,) + box.extents)
    data[X_SLOT] = w.real
    data[E12_SLOT] = w.imag
    return Cochain(box, data, "real")


def psi_slow(kind: str, momentum: Momentum, box: LatticeBox) -> Cochain:
    """Cross-validation path: the same wave form via repeated Clifford-table
    reduction of the per-axis factor powers."""
    sgn = _kind_sign(kind)
    table = build_table()

    def mul_pair(a, b):
        # a, b: (x-coeff, e12-coeff) constant multivectors in span{x, e12}
        out = {(): 0.0, (1, 2): 0.0}
        for mi_a, ca in zip(((), (1, 2)), a):
            for mi_b, cb in zip(((), (1, 2)), b):
                sign, res = table.product(mi_a, mi_b)
                out[res] += sign * ca * cb
        return (out[()], out[(1, 2)])

    powers = []
    for mu in range(4):
        factor = (1.0, sgn * momentum.p[mu])
        row = [(1.0, 0.0)]
        for _ in range(1, box.extents[mu]):
            row.append(mul_pair(row[-1], factor))
        powers.append(row)

    data = np.zeros((NSLOTS,) + box.extents)
    for k in np.ndindex(box.extents):
        acc = (1.0, 0.0)
        for mu in range(4):
            acc = mul_pair(acc, powers[mu][k[mu]])
        data[(X_SLOT,) + k] = acc[0]
        data[(E12_SLOT,) + k] = acc[1]
    return Cochain(box, data, "real")


@dataclass(frozen=True)
class EvenAmplitude:
    """The 8 real coefficients of a constant even form, in even-slot order
    (x, e01, e02, e03, e12, e13, e23, e0123)."""

    alpha0: float
    alpha01: float
    alpha02: float
    alpha03: float
    alpha12: float
    alpha13: float
    alpha23: float
    alpha4: float

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])

    def plus_part(self) -> np.ndarray:
        return self.as_vector()[_PLUS_AT]

    def minus_part(self) -> np.ndarray:
        return self.as_vector()[_MINUS_AT]

    @classmethod
    def from_parts(cls, plus, minus) -> "EvenAmplitude":
        coeffs = np.empty(len(EVEN_SLOTS))
        coeffs[_PLUS_AT] = plus
        coeffs[_MINUS_AT] = minus
        return cls(*coeffs.tolist())

    def as_cochain(self, box: LatticeBox) -> Cochain:
        data = np.zeros((NSLOTS,) + box.extents)
        for slot, c in zip(EVEN_SLOTS, self.as_vector()):
            data[slot] = c
        return Cochain(box, data, "real")


def _coupling_matrices(p_spatial) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient action of B = p1 e01 + p2 e02 + p3 e03.

    Returns (M_minus_from_plus, M_plus_from_minus): B maps the commuting half
    into the anticommuting half and vice versa; both 4x4 matrices are read off
    the Clifford table.
    """
    table = build_table()
    m_mfp = np.zeros((4, 4))
    m_pfm = np.zeros((4, 4))
    for i, pi in enumerate(p_spatial, start=1):
        for col, src in enumerate(PLUS_BASIS):
            sign, res = table.product((0, i), src)
            m_mfp[MINUS_BASIS.index(res), col] += pi * sign
        for col, src in enumerate(MINUS_BASIS):
            sign, res = table.product((0, i), src)
            m_pfm[PLUS_BASIS.index(res), col] += pi * sign
    return m_mfp, m_pfm


_DENOM_TOL = 1e-12


def _complete(kind: str, momentum: Momentum, half, from_plus: bool) -> EvenAmplitude:
    """The amplitude whose commuting half (`from_plus`) or anticommuting half
    is `half`; the other half is s B half / (m - s p0), with s = -kind sign
    from the commuting half and +kind sign from the anticommuting one."""
    s = -_kind_sign(kind) if from_plus else _kind_sign(kind)
    denom = momentum.m - s * momentum.p[0]
    if abs(denom) <= _DENOM_TOL:
        raise ValueError(f"coupling denominator {denom} is singular for this branch")
    coupling = _coupling_matrices(momentum.p[1:])[0 if from_plus else 1]
    half = np.asarray(half, dtype=float)
    other = s * (coupling @ half) / denom
    return EvenAmplitude.from_parts(*((half, other) if from_plus else (other, half)))


def amplitude_from_plus(kind: str, momentum: Momentum, plus) -> EvenAmplitude:
    """Complete an amplitude from its commuting half: the anticommuting half
    is B A_plus / (m - p0) for the minus wave, -B A_plus / (m + p0) for the
    plus wave."""
    return _complete(kind, momentum, plus, from_plus=True)


def amplitude_from_minus(kind: str, momentum: Momentum, minus) -> EvenAmplitude:
    """Complete an amplitude from its anticommuting half: the commuting half
    is -B A_minus / (m + p0) for the minus wave, B A_minus / (m - p0) for the
    plus wave."""
    return _complete(kind, momentum, minus, from_plus=False)


def solution(kind: str, momentum: Momentum, amplitude: EvenAmplitude,
             box: LatticeBox) -> Cochain:
    """The candidate solution: constant amplitude times the wave form.

    The wave form is psi_k x + phi_k e12, so A * wave = psi_k A + phi_k (A e12):
    two broadcasts of constant coefficient vectors, the same numbers as the
    general ``clifford_mul`` (whose other terms all multiply by zero).  A and
    A e12 are even, so only the 8 even slots are computed, reading the
    wave's real and imaginary parts as contiguous copies held, with the
    scratch, in three odd slots of the result; the complex wave is dropped
    first, so nothing beside the result outlives it.  The odd slots are then
    set to exactly zero, even where the wave overflows.
    """
    coeffs = amplitude.as_cochain(_POINT)
    coeffs_e12 = mul_basis_right(coeffs, (1, 2))
    w = _wave(kind, momentum, box)
    data = np.empty((NSLOTS,) + box.extents)
    re, im, term = (data[s] for s in ODD_SLOTS[:3])
    np.copyto(re, w.real)
    np.copyto(im, w.imag)
    del w
    for s in EVEN_SLOTS:
        np.multiply(coeffs.data[s], re, out=data[s])
        np.multiply(coeffs_e12.data[s], im, out=term)
        data[s] += term
    for s in ODD_SLOTS:
        data[s] = 0.0
    return Cochain(box, data, "real")


def solution_basis(kind: str, momentum: Momentum) -> list[EvenAmplitude]:
    """Four amplitudes spanning the solution space for an on-shell momentum:
    the four canonical unit vectors of the free half, completed."""
    if not momentum.on_shell():
        raise ValueError(f"momentum is off shell (defect {momentum.mass_shell_defect()})")
    # complete from the half whose denominator m - s p0 is the larger, so the
    # coupling is the better conditioned one; a tie goes to m + p0 (s = -1)
    p0 = momentum.p[0]
    s = -1 if abs(momentum.m + p0) >= abs(momentum.m - p0) else 1
    from_plus = s == -_kind_sign(kind)
    return [_complete(kind, momentum, unit, from_plus) for unit in np.eye(4)]


def basis_rank(amplitudes) -> int:
    stack = np.stack([a.as_vector() for a in amplitudes])
    return int(np.linalg.matrix_rank(stack, tol=1e-9))


def commutation_checks(rng=None) -> dict:
    """Structural checks on the two amplitude halves.

    Verifies, for random coefficient vectors: e0 commutes with the plus half
    and anticommutes with the minus half, and multiplication by e0i swaps the
    halves (i = 1, 2, 3).  Returns per-check booleans.
    """
    rng = np.random.default_rng(rng)
    amp = EvenAmplitude.from_parts(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))

    report = {}
    for name in ("plus", "minus"):
        form = EvenAmplitude.from_parts(
            amp.plus_part() if name == "plus" else np.zeros(4),
            amp.minus_part() if name == "minus" else np.zeros(4),
        ).as_cochain(_POINT)
        expect = 1.0 if name == "plus" else -1.0
        left = mul_basis_left((0,), form)
        right = expect * mul_basis_right(form, (0,))
        # signed slot shuffles, so exact
        report[f"e0_{name}_commutation"] = np.array_equal(left.data, right.data)
        for i in (1, 2, 3):
            swapped = mul_basis_left((0, i), form)
            target = MINUS_BASIS if name == "plus" else PLUS_BASIS
            slots = {SLOT_OF[mi] for mi in target}
            others = [s for s in range(NSLOTS) if s not in slots]
            report[f"e0{i}_{name}_swaps_halves"] = bool(
                np.abs(swapped.data[others]).max() == 0.0)
    return report
