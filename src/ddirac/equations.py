"""Residual evaluators for the first-order lattice field equations.

Each equation is implemented twice: an operator form built from the calculus
and Clifford modules, and a literal stencil form driven by per-line term
tables (sign, difference direction, source component).  The two routes are
independent and must agree; that cross-check is the main correctness test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import apply_stencil, dirac_operator
from .clifford import build_table, mul_basis_right
from .lattice import BoundaryPolicy, Cochain
from .multiindex import ODD_SLOTS, SLOT_OF

TINY = 1e-300


@dataclass(frozen=True)
class EquationResidual:
    """Residual field plus scalar summary over the evaluated region."""

    residual: Cochain
    max_abs: float
    rel: float
    region: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"max_abs": self.max_abs, "rel": self.rel, "region": list(self.region)}


def _summarize(residual: Cochain, reference: Cochain, depth: int) -> EquationResidual:
    """Summarize a residual on the interior (or full box under ZERO_EXTEND)."""
    if residual.box.policy is BoundaryPolicy.ZERO_EXTEND:
        depth = 0
    max_abs = residual.max_abs(depth)
    scale = max(reference.max_abs(), TINY)
    region = residual.box.interior_extents(depth)
    return EquationResidual(residual, max_abs, max_abs / scale, region)


def even_odd_split(omega: Cochain) -> tuple[Cochain, Cochain]:
    """Partition by degree parity; the two parts sum back to the input."""
    return omega.even_part(), omega.odd_part()


# --- Dirac-Kahler equation: i * (first-order operator) Omega = m Omega -------

#: The 16 difference equations, keyed by target component: residual in slot
#: `target` is i * sum(sign * Delta_mu source) - m * omega[target].
DK_STENCIL = {
    (): [(+1, 0, (0,)), (-1, 1, (1,)), (-1, 2, (2,)), (-1, 3, (3,))],
    (0,): [(+1, 0, ()), (+1, 1, (0, 1)), (+1, 2, (0, 2)), (+1, 3, (0, 3))],
    (1,): [(+1, 1, ()), (+1, 0, (0, 1)), (+1, 2, (1, 2)), (+1, 3, (1, 3))],
    (2,): [(+1, 2, ()), (+1, 0, (0, 2)), (-1, 1, (1, 2)), (+1, 3, (2, 3))],
    (3,): [(+1, 3, ()), (+1, 0, (0, 3)), (-1, 1, (1, 3)), (-1, 2, (2, 3))],
    (0, 1): [(+1, 0, (1,)), (-1, 1, (0,)), (-1, 2, (0, 1, 2)), (-1, 3, (0, 1, 3))],
    (0, 2): [(+1, 0, (2,)), (-1, 2, (0,)), (+1, 1, (0, 1, 2)), (-1, 3, (0, 2, 3))],
    (0, 3): [(+1, 0, (3,)), (-1, 3, (0,)), (+1, 1, (0, 1, 3)), (+1, 2, (0, 2, 3))],
    (1, 2): [(+1, 1, (2,)), (-1, 2, (1,)), (+1, 0, (0, 1, 2)), (-1, 3, (1, 2, 3))],
    (1, 3): [(+1, 1, (3,)), (-1, 3, (1,)), (+1, 0, (0, 1, 3)), (+1, 2, (1, 2, 3))],
    (2, 3): [(+1, 2, (3,)), (-1, 3, (2,)), (+1, 0, (0, 2, 3)), (-1, 1, (1, 2, 3))],
    (0, 1, 2): [(+1, 0, (1, 2)), (-1, 1, (0, 2)), (+1, 2, (0, 1)), (+1, 3, (0, 1, 2, 3))],
    (0, 1, 3): [(+1, 0, (1, 3)), (-1, 1, (0, 3)), (+1, 3, (0, 1)), (-1, 2, (0, 1, 2, 3))],
    (0, 2, 3): [(+1, 0, (2, 3)), (-1, 2, (0, 3)), (+1, 3, (0, 2)), (+1, 1, (0, 1, 2, 3))],
    (1, 2, 3): [(+1, 1, (2, 3)), (-1, 2, (1, 3)), (+1, 3, (1, 2)), (+1, 0, (0, 1, 2, 3))],
    (0, 1, 2, 3): [(+1, 0, (1, 2, 3)), (-1, 1, (0, 2, 3)), (+1, 2, (0, 1, 3)), (-1, 3, (0, 1, 2))],
}


def _check_mass(m: float):
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")


def dk_residual_operator(omega: Cochain, m: float) -> EquationResidual:
    """Residual of i*(d_c + codifferential)Omega = m*Omega."""
    _check_mass(m)
    residual = 1j * dirac_operator(omega) - m * omega
    return _summarize(residual, omega, depth=1)


def dk_residual_stencil(omega: Cochain, m: float) -> EquationResidual:
    """Same residual evaluated from the 16 literal difference equations."""
    _check_mass(m)
    out = apply_stencil(omega.data, DK_STENCIL)
    # scaled in place: no second full-size array beside the m*omega term
    out *= 1j
    out -= m * omega.data
    return _summarize(omega.like(out), omega, depth=1)


# --- Hestenes equation: -(D Omega_ev) e1 e2 = m Omega_ev e0 ------------------

#: The 8 difference equations, keyed by the even component on the right-hand
#: side: line value is sum(sign * Delta_mu source) - m * omega[rhs].
HESTENES_STENCIL = {
    (): [(+1, 0, (1, 2)), (-1, 1, (0, 2)), (+1, 2, (0, 1)), (+1, 3, (0, 1, 2, 3))],
    (0, 1): [(+1, 2, ()), (+1, 0, (0, 2)), (-1, 1, (1, 2)), (+1, 3, (2, 3))],
    (0, 2): [(-1, 1, ()), (-1, 0, (0, 1)), (-1, 2, (1, 2)), (-1, 3, (1, 3))],
    (0, 3): [(-1, 1, (2, 3)), (+1, 2, (1, 3)), (-1, 3, (1, 2)), (-1, 0, (0, 1, 2, 3))],
    (1, 2): [(-1, 0, ()), (-1, 1, (0, 1)), (-1, 2, (0, 2)), (-1, 3, (0, 3))],
    (1, 3): [(-1, 0, (2, 3)), (+1, 2, (0, 3)), (-1, 3, (0, 2)), (-1, 1, (0, 1, 2, 3))],
    (2, 3): [(+1, 0, (1, 3)), (-1, 1, (0, 3)), (+1, 3, (0, 1)), (-1, 2, (0, 1, 2, 3))],
    (0, 1, 2, 3): [(+1, 3, ()), (+1, 0, (0, 3)), (-1, 1, (1, 3)), (-1, 2, (2, 3))],
}


def _check_even_real(omega: Cochain):
    if omega.scalar_kind != "real":
        raise ValueError("Hestenes input must be a real-kind cochain")
    odd = np.abs(omega.data[list(ODD_SLOTS)]).max()
    if odd > 0:
        raise ValueError("Hestenes input must have even-degree components only")


def hestenes_residual_operator(omega_ev: Cochain, m: float) -> EquationResidual:
    """Residual of -(d_c + codifferential)(Omega_ev) e1 e2 = m Omega_ev e0."""
    _check_mass(m)
    _check_even_real(omega_ev)
    lhs = -1 * mul_basis_right(dirac_operator(omega_ev), (1, 2))
    rhs = m * mul_basis_right(omega_ev, (0,))
    return _summarize(lhs - rhs, omega_ev, depth=1)


def hestenes_residual_stencil(omega_ev: Cochain, m: float) -> EquationResidual:
    """Same residual from the 8 literal difference equations.

    Each line targets the odd slot into which right-multiplication by e0
    sends its right-hand-side component, carrying that map's sign, so the
    stencil residual is slot-for-slot comparable with the operator form.
    """
    _check_mass(m)
    _check_even_real(omega_ev)
    table = build_table()
    lines = apply_stencil(omega_ev.data, HESTENES_STENCIL)
    lines -= m * omega_ev.data
    out = np.zeros_like(lines)
    for rhs_mi in HESTENES_STENCIL:
        sign_c, slot_mi = table.product(rhs_mi, (0,))
        out[SLOT_OF[slot_mi]] = sign_c * lines[SLOT_OF[rhs_mi]]
    return _summarize(omega_ev.like(out, scalar_kind="complex"), omega_ev, depth=1)
