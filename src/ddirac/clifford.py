"""Clifford multiplication on lattice forms, signature (+,-,-,-).

The 16x16 basis product table is generated by word reduction: concatenate the
two direction words, bubble-sort into ascending order picking up a sign for
each transposition, and contract adjacent equal directions with the metric.
Products are strictly pointwise in the lattice index: basis elements at
different points multiply to zero, which is what makes the constant form x a
two-sided unit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .calculus import apply_stencil
from .lattice import Cochain, LatticeBox
from .multiindex import ALL_INDEXES, NSLOTS, SLOT_OF, validate

METRIC = (1, -1, -1, -1)


def reduce_word(word) -> tuple[int, tuple[int, ...]]:
    """Reduce a direction word to (sign, ascending multi-index)."""
    w = list(word)
    sign = 1
    i = 0
    while i < len(w) - 1:
        if w[i] == w[i + 1]:
            sign *= METRIC[w[i]]
            del w[i:i + 2]
            i = max(i - 1, 0)
        elif w[i] > w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
            sign = -sign
            i = max(i - 1, 0)
        else:
            i += 1
    return sign, tuple(w)


class CliffordTable:
    """Immutable 16x16 basis product table:
    {(left multi-index, right multi-index): (sign, product multi-index)}."""

    def __init__(self):
        self.entries: dict[tuple, tuple[int, tuple[int, ...]]] = {
            (mi_a, mi_b): reduce_word(mi_a + mi_b)
            for mi_a in ALL_INDEXES for mi_b in ALL_INDEXES
        }

    def product(self, dirs_a, dirs_b) -> tuple[int, tuple[int, ...]]:
        return self.entries[(validate(dirs_a), validate(dirs_b))]


@lru_cache(maxsize=1)
def build_table() -> CliffordTable:
    return CliffordTable()


def clifford_mul(a: Cochain, b: Cochain) -> Cochain:
    """Pointwise Clifford product of two (possibly inhomogeneous) forms."""
    a._check_compatible(b)
    out = np.zeros(a.data.shape, dtype=np.result_type(a.data, b.data))
    for (mi_a, mi_b), (sign, res) in build_table().entries.items():
        out[SLOT_OF[res]] += sign * a.data[SLOT_OF[mi_a]] * b.data[SLOT_OF[mi_b]]
    return a.like(out)


def unit_form(dirs, box: LatticeBox) -> Cochain:
    """Constant form with the given component identically 1 (x, e_mu, ...)."""
    data = np.zeros((NSLOTS,) + box.extents)
    data[SLOT_OF[validate(dirs)]] = 1.0
    return Cochain(box, data, "real")


@lru_cache(maxsize=None)
def _shuffle_map(dirs: tuple[int, ...], side: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Multiplication by a unit basis form as a slot permutation: output slot
    s reads input slot src[s], negated when s is in neg."""
    table = build_table()
    src = np.empty(NSLOTS, dtype=np.intp)
    neg = []
    for mi in ALL_INDEXES:
        pair = (dirs, mi) if side == "left" else (mi, dirs)
        sign, res = table.entries[pair]
        src[SLOT_OF[res]] = SLOT_OF[mi]
        if sign < 0:
            neg.append(SLOT_OF[res])
    src.flags.writeable = False
    return src, tuple(neg)


def _shuffle(form: Cochain, dirs, side: str) -> Cochain:
    src, neg = _shuffle_map(validate(dirs), side)
    out = form.data[src]
    for s in neg:
        np.negative(out[s], out=out[s])
    return form.like(out)


def mul_basis_left(dirs, form: Cochain) -> Cochain:
    """Left-multiply by a constant unit basis form (component shuffle)."""
    return _shuffle(form, dirs, "left")


def mul_basis_right(form: Cochain, dirs) -> Cochain:
    """Right-multiply by a constant unit basis form (component shuffle)."""
    return _shuffle(form, dirs, "right")


def _dirac_stencil(table: CliffordTable) -> dict:
    """sum_mu e_mu * Delta_mu as a stencil: e_mu times slot mi lands in the
    table's product slot, with the table's sign."""
    stencil: dict[tuple[int, ...], list] = {}
    for mu in range(4):
        for mi in ALL_INDEXES:
            sign, res = table.entries[((mu,), mi)]
            stencil.setdefault(res, []).append((sign, mu, mi))
    return stencil


DIRAC_STENCIL = _dirac_stencil(build_table())


def dirac_clifford(omega: Cochain) -> Cochain:
    """The Clifford-form first-order operator: sum_mu e_mu * (forward
    difference of omega along mu)."""
    return omega.like(apply_stencil(omega.data, DIRAC_STENCIL))
