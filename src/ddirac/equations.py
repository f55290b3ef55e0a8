"""Residual evaluators for the first-order lattice field equations.

Each equation is implemented twice: an operator form built from the calculus
and Clifford modules, and a literal stencil form driven by per-line term
tables (sign, difference direction, source component).  The two routes are
independent and must agree; that cross-check is the main correctness test.

All four routes run on the slot engine `calculus.apply_stencil`, the DK
routes on all 16 output slots, the Hestenes routes on the 8 odd ones (their
even slots are known zeros, left at the engine's +0.0).  Each slot is summed
and finished with the route's own arithmetic: the factor i and the mass term
for DK, and for Hestenes the mass term alone, in one finish shared by both
routes, the Clifford signs being folded into their term tables.  At 16^4
complex the slots are shared between two threads (see `calculus`).  The DK
results are bit-identical to whole-array arithmetic in the same order; the
Hestenes results equal it value for value, the sign of an exact zero aside,
which no summary reads (each takes |.|).

A route reduces nothing: it returns an `EquationResidual`, the field and the
slots it writes, and its summary reduces only those slots.  The verdict owns
the scale: it takes its input's `input_scale` once, and passes it to each
residual's `rel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import CODIFF_STENCIL, DC_STENCIL, apply_stencil
from .clifford import _shuffle_map, build_table
from .lattice import Cochain
from .multiindex import ALL_INDEXES, ALL_SLOTS, EVEN_SLOTS, ODD_SLOTS, SLOT_OF

TINY = 1e-300


@dataclass(frozen=True)
class EquationResidual:
    """Residual field plus `slots`, the slots its route writes; every other
    slot holds the engine's +0.0.  `max_abs` is taken over those slots on its
    first read, over the depth-1 interior `region` where every forward
    difference stays inside the box, and is NaN where that interior is empty.
    `rel` and `to_dict` divide it by the caller's `scale`, the input's
    `input_scale`, which the verdict takes once per input.  The record holds
    no reference to the input."""

    residual: Cochain
    slots: tuple[int, ...]

    @cached_property
    def max_abs(self) -> float:
        return self.residual.max_abs(1, self.slots)

    def rel(self, scale: float) -> float:
        return self.max_abs / scale

    @property
    def region(self) -> tuple[int, ...]:
        return self.residual.box.interior_extents(1)

    def to_dict(self, scale: float) -> dict:
        return {"max_abs": self.max_abs, "rel": self.rel(scale),
                "region": list(self.region)}


def input_scale(omega: Cochain, slots=ALL_SLOTS) -> float:
    """The divisor of a residual's `rel`: `omega`'s largest magnitude over
    `slots`, at least TINY.  A Hestenes input's odd slots are ±0.0 once a
    route or `check_even_real` has accepted it, so there its `EVEN_SLOTS`
    give the same number."""
    return max(omega.max_abs(0, slots), TINY)


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


def _dk_residual(omega: Cochain, m: float, stencil, second) -> EquationResidual:
    """The DK residual i * (stencil sums) - m * omega, written straight into a
    complex128 result; a real input's sums have +0.0 imaginary parts there,
    as in a complex copy of a real sum."""
    check_mass(m)
    data = omega.data

    def end_line(slot, acc, scratch):
        acc *= 1j
        np.multiply(m, data[slot], out=scratch)
        acc -= scratch

    out = apply_stencil(data, stencil, second, np.complex128, end_line)
    return EquationResidual(omega.like(out), ALL_SLOTS)


def dk_residual_operator(omega: Cochain, m: float) -> EquationResidual:
    """Residual of i*(d_c + codifferential)Omega = m*Omega."""
    return _dk_residual(omega, m, DC_STENCIL, CODIFF_STENCIL)


def dk_residual_stencil(omega: Cochain, m: float) -> EquationResidual:
    """Same residual evaluated from the 16 literal difference equations."""
    return _dk_residual(omega, m, DK_STENCIL, None)


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


def _moved_to_e0_images(stencil: dict) -> tuple[dict, dict]:
    """Each line moved to the odd slot into which right-multiplication by e0
    sends its right-hand-side component, with that map's sign folded into
    the line's term signs.  Returns the moved stencil and, per target slot,
    the (sign, right-hand-side slot) of its mass term."""
    table = build_table()
    moved, mass_terms = {}, {}
    for rhs_mi, terms in stencil.items():
        sign_c, slot_mi = table.product(rhs_mi, (0,))
        moved[slot_mi] = [(sign_c * sign, mu, src) for sign, mu, src in terms]
        mass_terms[SLOT_OF[slot_mi]] = (sign_c, SLOT_OF[rhs_mi])
    return moved, mass_terms


_HESTENES_E0_STENCIL, _HESTENES_E0_MASS = _moved_to_e0_images(HESTENES_STENCIL)


def _runs(slots) -> tuple[slice, ...]:
    """Ascending `slots` as slices over runs of consecutive slots."""
    runs = []
    for s in slots:
        if runs and runs[-1][1] == s:
            runs[-1][1] = s + 1
        else:
            runs.append([s, s + 1])
    return tuple(slice(start, stop) for start, stop in runs)


#: ODD_SLOTS as two runs of consecutive slots, 1-4 and 11-14.
ODD_RUNS = _runs(ODD_SLOTS)


def check_even_real(omega: Cochain):
    """Raise ValueError unless `omega` is a real-kind even form."""
    if omega.scalar_kind != "real":
        raise ValueError("Hestenes input must be a real-kind cochain")
    # one reduction per run; np.any counts NaN as nonzero and -0.0 as zero,
    # so a NaN odd slot is rejected too
    if any(np.any(omega.data[run]) for run in ODD_RUNS):
        raise ValueError("Hestenes input must have even-degree components only")


def _hestenes_operator_lines() -> tuple[dict, dict, dict]:
    """Per odd output slot s of -(D Omega_ev) e12 - m Omega_ev e0: the d_c
    and codifferential terms of the slot that right-multiplication by e12
    sends to s, with the sign of -e12 folded into each, as two stencils
    keyed by s's multi-index; and s's mass term, the sign of -e0 and its
    source slot.  Terms that read odd slots are dropped: on an even form
    they read only zeros, which leave a sum that started at +0.0 unchanged.
    That leaves no term for an even output slot, which the engine leaves at
    +0.0."""
    src12, neg12 = _shuffle_map((1, 2), "right")
    src0, neg0 = _shuffle_map((0,), "right")

    def even_terms(stencil, s):
        fold = +1 if s in neg12 else -1
        return tuple((fold * sign, mu, src)
                     for sign, mu, src in stencil.get(ALL_INDEXES[src12[s]], ())
                     if SLOT_OF[src] in EVEN_SLOTS)

    dc = {ALL_INDEXES[s]: even_terms(DC_STENCIL, s) for s in ODD_SLOTS}
    codiff = {ALL_INDEXES[s]: even_terms(CODIFF_STENCIL, s) for s in ODD_SLOTS}
    mass = {s: (-1 if s in neg0 else +1, int(src0[s])) for s in ODD_SLOTS}
    return dc, codiff, mass


_HESTENES_DC, _HESTENES_CODIFF, _HESTENES_MASS = _hestenes_operator_lines()


def _hestenes_residual(omega_ev: Cochain, m: float, stencil, second,
                       mass_terms) -> EquationResidual:
    """The residual summed by the 8 odd lines of `stencil` (plus `second`),
    each finished by subtracting (sign * m) * omega[source], where
    `mass_terms` maps the line's slot to (sign, source slot).  The signs of
    a route's Clifford maps are folded into its terms and mass signs: as
    x - y is x + (-y) and (s x) m is x (s m), each value rounds exactly as
    with the sign applied after, but an exact zero may take the other
    sign."""
    check_mass(m)
    check_even_real(omega_ev)
    data = omega_ev.data

    def end_line(slot, acc, scratch):
        sign, src = mass_terms[slot]
        np.multiply(data[src], sign * m, out=scratch)
        acc -= scratch

    out = apply_stencil(data, stencil, second, None, end_line)
    return EquationResidual(omega_ev.like(out), ODD_SLOTS)


def hestenes_residual_operator(omega_ev: Cochain, m: float) -> EquationResidual:
    """Residual of -(d_c + codifferential)(Omega_ev) e1 e2 = m Omega_ev e0."""
    return _hestenes_residual(omega_ev, m, _HESTENES_DC, _HESTENES_CODIFF,
                              _HESTENES_MASS)


def hestenes_residual_stencil(omega_ev: Cochain, m: float) -> EquationResidual:
    """Same residual from the 8 literal difference equations.

    Each line targets the odd slot into which right-multiplication by e0
    sends its right-hand-side component, carrying that map's sign, so the
    stencil residual is slot-for-slot comparable with the operator form.
    """
    return _hestenes_residual(omega_ev, m, _HESTENES_E0_STENCIL, None,
                              _HESTENES_E0_MASS)
