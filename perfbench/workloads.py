"""The benchmark workloads: seeded inputs and self-checked verdicts.

A verdict is one workload's unit of checked work.  Each verdict function
receives one input made by ``make_input`` and appends a message to
``failures`` for every check that does not hold.  Every tolerance check is
written as ``not (value <= tol)`` (or ``not (value > tol)`` for a negative
control), so a NaN or infinite value is a failure; the benchmark does not rely
on ddirac's own pass logic.

Only names from ``ddirac.__all__`` are used, plus
``ddirac.oracle.green_boundary_term``.  Calls go through the module objects
(``dd.<name>``, ``oracle.<name>``) at call time, so the traced run sees them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ddirac as dd
from ddirac import oracle

#: Relative residual a plane-wave solution must meet.
SOLUTION_TOL = 1e-10
#: Operator-route vs stencil-route agreement, relative to the input.
CROSS_TOL = 1e-13
#: dirac_clifford vs dirac_operator agreement, relative to the input.
OPERATOR_EQUIV_TOL = 1e-12
#: Green formula: |defect - chain boundary term|.
GREEN_TOL = 1e-12
#: Off-shell control: p0 is scaled by this factor.
OFF_SHELL_SCALE = 1.1
METRIC = (1, -1, -1, -1)

#: Residuals are compared on the depth-1 interior (INTERIOR policy).
INTERIOR = (slice(None),) + (slice(0, -1),) * 4


def _fail_above(failures: list, name: str, value: float, tol: float):
    if not (value <= tol):
        failures.append(f"{name}: {value!r} not <= {tol}")


def _rel(field: np.ndarray, reference: np.ndarray, region=Ellipsis) -> float:
    """max |field| over the region divided by max |reference|; NaN or inf
    anywhere in the field propagates into the result."""
    return float(np.abs(field[region]).max() / np.abs(reference).max())


def _green_inputs(rng):
    box = dd.LatticeBox((2, 2, 2, 2), dd.BoundaryPolicy.ZERO_EXTEND)
    return dd.random_cochain(box, rng), dd.random_cochain(box, rng)


def _check_green(phi, omega, failures: list):
    """Green formula: the defect equals the chain-level boundary term."""
    green = abs(dd.green_defect(phi, omega) - oracle.green_boundary_term(phi, omega))
    _fail_above(failures, "Green formula vs chain oracle", green, GREEN_TOL)


@dataclass(frozen=True)
class Workload:
    name: str
    extents: tuple[int, int, int, int]
    #: (rng, index) -> one verdict's input
    make_input: Callable
    #: (input, failures) -> None
    verdict: Callable

    @property
    def sites(self) -> int:
        return int(np.prod(self.extents))


# --- planewave-scan -----------------------------------------------------------

def _planewave_scan(_workdir: str) -> Workload:
    box = dd.LatticeBox((12, 12, 12, 12))

    def make_input(rng, i):
        m = float(rng.uniform(0.5, 2.0))
        spatial = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 3))
        kind = "plus" if i % 2 == 0 else "minus"
        return kind, dd.Momentum.on_shell_from_spatial(m, spatial)

    def verdict(inp, failures):
        kind, mom = inp
        basis = dd.solution_basis(kind, mom)
        rank = dd.basis_rank(basis)
        if rank != 4:
            failures.append(f"solution basis rank {rank} != 4")
        for j, amp in enumerate(basis):
            sol = dd.solution(kind, mom, amp, box)
            r_op = dd.hestenes_residual_operator(sol, mom.m)
            r_st = dd.hestenes_residual_stencil(sol, mom.m)
            _fail_above(failures, f"solution {j} operator residual",
                        _rel(r_op.residual.data, sol.data, INTERIOR), SOLUTION_TOL)
            _fail_above(failures, f"solution {j} stencil residual",
                        _rel(r_st.residual.data, sol.data, INTERIOR), SOLUTION_TOL)
            _fail_above(failures, f"solution {j} operator vs stencil",
                        _rel(r_op.residual.data - r_st.residual.data, sol.data,
                             INTERIOR), CROSS_TOL)
        off = dd.Momentum(mom.m, (OFF_SHELL_SCALE * mom.p[0],) + mom.p[1:])
        amp = dd.amplitude_from_plus(kind, off, [1.0, 0.0, 0.0, 0.0])
        sol = dd.solution(kind, off, amp, box)
        r_off = dd.hestenes_residual_operator(sol, off.m)
        rel = _rel(r_off.residual.data, sol.data, INTERIOR)
        if not (rel > SOLUTION_TOL):
            failures.append(f"off-shell control residual {rel!r} not > {SOLUTION_TOL}")

    return Workload("planewave-scan", box.extents, make_input, verdict)


# --- dk-random ----------------------------------------------------------------

def _dk_random(_workdir: str) -> Workload:
    box = dd.LatticeBox((16, 16, 16, 16))

    def make_input(rng, _i):
        return (float(rng.uniform(0.5, 2.0)), dd.random_cochain(box, rng)) + _green_inputs(rng)

    def verdict(inp, failures):
        m, omega, phi, eta = inp
        r_op = dd.dk_residual_operator(omega, m)
        r_st = dd.dk_residual_stencil(omega, m)
        for route, res in (("operator", r_op), ("stencil", r_st)):
            if not np.isfinite(res.residual.data).all():
                failures.append(f"{route} residual has non-finite values")
        _fail_above(failures, "operator vs stencil",
                    _rel(r_op.residual.data - r_st.residual.data, omega.data, INTERIOR),
                    CROSS_TOL)
        _check_green(phi, eta, failures)

    return Workload("dk-random", box.extents, make_input, verdict)


# --- identity-sweep -----------------------------------------------------------

def _identity_sweep(_workdir: str) -> Workload:
    box = dd.LatticeBox((5, 5, 5, 5))

    def make_input(rng, _i):
        forms = [dd.random_cochain(box, rng, degrees={r}) for r in range(5)]
        return (forms, dd.random_cochain(box, rng)) + _green_inputs(rng)

    def verdict(inp, failures):
        forms, mixed, phi, omega = inp
        for r, w in enumerate(forms):
            _fail_above(failures, f"degree {r} d_c d_c", _rel(dd.d_c(dd.d_c(w)).data, w.data),
                        CROSS_TOL)
            delta = dd.codifferential(w)
            _fail_above(failures, f"degree {r} delta delta",
                        _rel(dd.codifferential(delta).data, w.data), CROSS_TOL)
            _fail_above(failures, f"degree {r} stencil vs composite codifferential",
                        _rel(delta.data - dd.codifferential(w, "composite").data, w.data),
                        CROSS_TOL)
            star2 = dd.star(dd.star(w)).data - (-1) ** (r + 1) * w.data
            _fail_above(failures, f"degree {r} star law", _rel(star2, w.data), 0.0)
        _fail_above(failures, "dirac_clifford vs dirac_operator",
                    _rel(dd.dirac_clifford(mixed).data - dd.dirac_operator(mixed).data,
                         mixed.data, INTERIOR), OPERATOR_EQUIV_TOL)
        unit = {mu: dd.unit_form((mu,), box) for mu in range(4)}
        x = dd.unit_form((), box).data
        for a in range(4):
            for b in range(4):
                anti = (dd.clifford_mul(unit[a], unit[b]).data
                        + dd.clifford_mul(unit[b], unit[a]).data)
                expect = (2 * METRIC[a] if a == b else 0) * x
                _fail_above(failures, f"anticommutation e{a} e{b}",
                            float(np.abs(anti - expect).max()), 0.0)
        _check_green(phi, omega, failures)

    return Workload("identity-sweep", box.extents, make_input, verdict)


# --- form-io ------------------------------------------------------------------

def _form_io(workdir: str) -> Workload:
    box = dd.LatticeBox((8, 8, 8, 8))
    path = os.path.join(workdir, "form.json")

    def make_input(rng, _i):
        form = dd.random_cochain(box, rng, scalar_kind="real", degrees={0, 2, 4})
        return float(rng.uniform(0.5, 2.0)), form

    def verdict(inp, failures):
        m, form = inp
        form.save(path)
        loaded = dd.Cochain.load(path)
        if (loaded.box.extents != form.box.extents or loaded.scalar_kind != form.scalar_kind
                or loaded.tilde != form.tilde
                or loaded.data.tobytes() != form.data.tobytes()):
            failures.append("loaded form is not bit-identical to the saved form")
        r_op = dd.hestenes_residual_operator(loaded, m)
        r_st = dd.hestenes_residual_stencil(loaded, m)
        for route, res in (("operator", r_op), ("stencil", r_st)):
            if not np.isfinite(res.residual.data).all():
                failures.append(f"{route} residual has non-finite values")
        _fail_above(failures, "operator vs stencil",
                    _rel(r_op.residual.data - r_st.residual.data, loaded.data, INTERIOR),
                    CROSS_TOL)

    return Workload("form-io", box.extents, make_input, verdict)


#: Workload name -> factory(workdir); form-io writes its file in workdir.
WORKLOADS = {"planewave-scan": _planewave_scan, "dk-random": _dk_random,
             "identity-sweep": _identity_sweep, "form-io": _form_io}
