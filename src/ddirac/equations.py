"""Residual evaluators for the first-order lattice field equations.

Each equation is implemented twice: an operator form built from the calculus
and Clifford modules, and a literal stencil form driven by per-line term
tables (sign, difference direction, source component).  The two routes are
independent and must agree; that cross-check is the main correctness test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import CODIFF_STENCIL, DC_STENCIL, accumulate, apply_stencil, dirac_operator
from .clifford import _shuffle_map, build_table
from .lattice import Cochain
from .multiindex import ALL_INDEXES, EVEN_SLOTS, NSLOTS, ODD_SLOTS, SLOT_OF

TINY = 1e-300


@dataclass(frozen=True)
class EquationResidual:
    """Residual field plus scalar summary over the evaluated region.
    `scale` is the input's largest magnitude (at least TINY), the divisor of
    `rel`; it is not part of the report."""

    residual: Cochain
    max_abs: float
    rel: float
    region: tuple[int, ...]
    scale: float

    def to_dict(self) -> dict:
        return {"max_abs": self.max_abs, "rel": self.rel, "region": list(self.region)}


def _summarize(residual: Cochain, reference: Cochain) -> EquationResidual:
    """Summarize a residual on the depth-1 interior, where every forward
    difference stays inside the box."""
    max_abs = residual.max_abs(1)
    scale = max(reference.max_abs(), TINY)
    return EquationResidual(residual, max_abs, max_abs / scale,
                            residual.box.interior_extents(1), scale)


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


def check_mass(m: float):
    """The one rule for a mass, which `Momentum` and the CLI apply too."""
    if not (np.isfinite(m) and m > 0):
        raise ValueError(f"mass must be finite and positive, got {m}")


def _subtract_mass(out: np.ndarray, data: np.ndarray, m: float):
    """out -= m * data, one slot at a time, so m * data is never a full-size
    array."""
    scratch = np.empty_like(data[0])
    for s in range(NSLOTS):
        np.multiply(m, data[s], out=scratch)
        out[s] -= scratch


def dk_residual_operator(omega: Cochain, m: float) -> EquationResidual:
    """Residual of i*(d_c + codifferential)Omega = m*Omega."""
    check_mass(m)
    out = dirac_operator(omega).data.astype(np.complex128, copy=False)
    out *= 1j
    _subtract_mass(out, omega.data, m)
    return _summarize(omega.like(out, scalar_kind="complex"), omega)


def dk_residual_stencil(omega: Cochain, m: float) -> EquationResidual:
    """Same residual evaluated from the 16 literal difference equations."""
    check_mass(m)
    out = apply_stencil(omega.data, DK_STENCIL).astype(np.complex128, copy=False)
    out *= 1j
    _subtract_mass(out, omega.data, m)
    return _summarize(omega.like(out, scalar_kind="complex"), omega)


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


def _moved_to_e0_images(stencil: dict) -> tuple[dict, list]:
    """Each line moved to the odd slot into which right-multiplication by e0
    sends its right-hand-side component, with that map's sign folded into
    the line's term signs.  Returns the moved stencil and, per line, the
    (sign, right-hand-side slot, target slot) of its mass term."""
    table = build_table()
    moved, mass_terms = {}, []
    for rhs_mi, terms in stencil.items():
        sign_c, slot_mi = table.product(rhs_mi, (0,))
        moved[slot_mi] = [(sign_c * sign, mu, src) for sign, mu, src in terms]
        mass_terms.append((sign_c, SLOT_OF[rhs_mi], SLOT_OF[slot_mi]))
    return moved, mass_terms


_HESTENES_E0_STENCIL, _HESTENES_E0_MASS = _moved_to_e0_images(HESTENES_STENCIL)


def check_even_real(omega: Cochain):
    """Raise ValueError unless `omega` is a real-kind even form."""
    if omega.scalar_kind != "real":
        raise ValueError("Hestenes input must be a real-kind cochain")
    # np.any counts NaN as nonzero, so a NaN odd slot is rejected too
    if any(np.any(omega.data[s]) for s in ODD_SLOTS):
        raise ValueError("Hestenes input must have even-degree components only")


def _hestenes_operator_lines() -> tuple:
    """Per output slot s of -(D Omega_ev) e12 - m Omega_ev e0: the d_c and
    codifferential terms of the slot that right-multiplication by e12 sends
    to s, whether that map negates it, and the e0 map's source slot and
    negation.  Terms that read odd slots are dropped: on an even form they
    read only zeros, and adding a zero leaves a sum that started at +0.0
    unchanged, so the result is bit-identical."""
    src12, neg12 = _shuffle_map((1, 2), "right")
    src0, neg0 = _shuffle_map((0,), "right")

    def even_terms(stencil, mi):
        return tuple(t for t in stencil.get(mi, ()) if SLOT_OF[t[2]] in EVEN_SLOTS)

    return tuple(
        (s, even_terms(DC_STENCIL, ALL_INDEXES[src12[s]]),
         even_terms(CODIFF_STENCIL, ALL_INDEXES[src12[s]]),
         s in neg12, int(src0[s]), s in neg0)
        for s in range(NSLOTS))


_HESTENES_OPERATOR_LINES = _hestenes_operator_lines()


def hestenes_residual_operator(omega_ev: Cochain, m: float) -> EquationResidual:
    """Residual of -(d_c + codifferential)(Omega_ev) e1 e2 = m Omega_ev e0.

    Written slot by slot into the one output array, with the arithmetic of
    the composed form: each slot gets the d_c sum, plus the codifferential
    sum, then the e12 sign, plus the e0-signed m * omega; the whole array is
    negated once, since -(a + b) rounds exactly as -a - b."""
    check_mass(m)
    check_even_real(omega_ev)
    data = omega_ev.data
    out = np.zeros_like(data)
    scratch = np.empty_like(data[0])
    for s, dc_terms, codiff_terms, neg12, src0, neg0 in _HESTENES_OPERATOR_LINES:
        acc = out[s]
        accumulate(acc, data, dc_terms)
        if codiff_terms:
            scratch.fill(0)
            accumulate(scratch, data, codiff_terms)
            acc += scratch
        if neg12:
            np.negative(acc, out=acc)
        # -(x * m) rounds exactly as (-x) * m
        np.multiply(data[src0], m, out=scratch)
        if neg0:
            np.negative(scratch, out=scratch)
        acc += scratch
    np.negative(out, out=out)
    return _summarize(omega_ev.like(out), omega_ev)


def hestenes_residual_stencil(omega_ev: Cochain, m: float) -> EquationResidual:
    """Same residual from the 8 literal difference equations.

    Each line targets the odd slot into which right-multiplication by e0
    sends its right-hand-side component, carrying that map's sign, so the
    stencil residual is slot-for-slot comparable with the operator form.
    """
    check_mass(m)
    check_even_real(omega_ev)
    out = apply_stencil(omega_ev.data, _HESTENES_E0_STENCIL)
    mass = np.empty(omega_ev.box.extents)
    for sign_c, rhs, target in _HESTENES_E0_MASS:
        # sign_c * (line - m x) rounds exactly as sign_c * line - (sign_c m) x
        np.multiply(omega_ev.data[rhs], sign_c * m, out=mass)
        out[target] -= mass
    return _summarize(omega_ev.like(out), omega_ev)
