"""Chains of the cubical complex: formal integer sums of basis cells.

A basis cell is a (lattice point, multi-index) pair; the multi-index records
which tensor factors are 1-dimensional.  The boundary operator follows the
graded product rule factor by factor, and the chain-cochain pairing is the
perfect pairing on matching basis cells.
"""

from __future__ import annotations

from .lattice import BoundaryPolicy, Cochain, LatticeBox
from .multiindex import levi_civita, complement, validate


def add_term(terms: dict, key, coeff):
    """Add `coeff` to the term `key` of a formal sum, dropping the term if it
    cancels; a key added again after cancelling goes to the end."""
    new = terms.get(key, 0) + coeff
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


class Chain:
    """Formal sum of basis cells, stored as {(point, dirs): coefficient}."""

    __slots__ = ("terms", "tilde")

    def __init__(self, terms=None, tilde: bool = False):
        self.terms: dict[tuple, int] = {}
        self.tilde = tilde
        if terms:
            for key, coeff in dict(terms).items():
                self._add(key, coeff)

    def _add(self, key, coeff):
        k, dirs = key
        add_term(self.terms, (tuple(k), validate(dirs)), coeff)

    def __repr__(self):
        prefix = "~" if self.tilde else ""
        body = " + ".join(f"{c}*{prefix}s_{k}^{dirs}" for (k, dirs), c in sorted(self.terms.items()))
        return f"Chain({body or '0'})"


def basis_chain(k, dirs, tilde: bool = False) -> Chain:
    return Chain({(tuple(k), validate(dirs)): 1}, tilde)


def shift(k, mu):
    out = list(k)
    out[mu] += 1
    return tuple(out)


def boundary(chain: Chain, box: LatticeBox | None = None) -> Chain:
    """Boundary of a chain; each e-factor contributes its two endpoints.

    Signs follow the graded tensor rule: the factor in direction mu carries
    (-1)^(number of e-factors left of mu).  Under an INTERIOR-policy box the
    shifted endpoint must stay inside the box.
    """
    out = Chain(tilde=chain.tilde)
    for (k, dirs), coeff in chain.terms.items():
        for pos, mu in enumerate(dirs):
            sub = tuple(d for d in dirs if d != mu)
            sign = -1 if pos % 2 else 1
            up = shift(k, mu)
            if box is not None and box.policy is BoundaryPolicy.INTERIOR and not box.contains(up):
                raise ValueError(f"boundary shift {up} leaves the box under INTERIOR policy")
            out._add((up, sub), sign * coeff)
            out._add((k, sub), -sign * coeff)
    return out


def pair(chain: Chain, cochain: Cochain) -> complex:
    """Bilinear chain-cochain pairing; basis cells pair to 1 iff identical.

    Cells outside the box read 0 under ZERO_EXTEND and are an error under
    INTERIOR.
    """
    if chain.tilde != cochain.tilde:
        raise ValueError("tilde flag mismatch between chain and cochain")
    total = 0.0 + 0.0j
    for (k, dirs), coeff in chain.terms.items():
        if not cochain.box.contains(k):
            if cochain.box.policy is BoundaryPolicy.ZERO_EXTEND:
                continue
            raise ValueError(f"chain cell at {k} lies outside the box under INTERIOR policy")
        total += coeff * cochain.component(dirs)[k]
    return complex(total)


def chain_star(chain: Chain) -> Chain:
    """Duality map to the double complex: cell -> Levi-Civita sign times the
    complementary cell at the same point, with the tilde flag flipped."""
    out = Chain(tilde=not chain.tilde)
    for (k, dirs), coeff in chain.terms.items():
        out._add((k, complement(dirs)), coeff * levi_civita(dirs))
    return out
