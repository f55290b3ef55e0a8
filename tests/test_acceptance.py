"""Acceptance gate: the twelve headline properties, one test each.

Every test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
asserts at the stated tolerance.  Tolerances and trial counts are fixed here
on purpose -- they are the contract, not tunables.
"""

import time

import numpy as np
import pytest

from ddirac import oracle
from ddirac.calculus import (
    codifferential,
    d_c,
    delta_mu,
    dirac_operator,
    green_defect,
    star,
)
from ddirac.clifford import (
    build_table,
    clifford_mul,
    dirac_clifford,
    mul_basis_right,
    unit_form,
)
from ddirac.equations import (
    dk_residual_operator,
    dk_residual_stencil,
    hestenes_residual_operator,
    hestenes_residual_stencil,
    input_scale,
)
from ddirac.lattice import BoundaryPolicy, Cochain, LatticeBox, random_cochain
from ddirac.multiindex import EVEN_SLOTS
from ddirac.planewave import (
    EvenAmplitude,
    Momentum,
    amplitude_from_minus,
    amplitude_from_plus,
    basis_rank,
    psi,
    solution,
    solution_basis,
)

BOX4 = LatticeBox((4, 4, 4, 4))
BOX5 = LatticeBox((5, 5, 5, 5))


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {name}{suffix}")
    assert ok, f"criterion {num:02d} ({name}) failed{suffix}"


def _hestenes_rel(sol, m):
    """The operator route's residual of the even form `sol`, relative to
    `sol`'s scale."""
    return hestenes_residual_operator(sol, m).rel(input_scale(sol, EVEN_SLOTS))


def _on_shell_momenta(rng, count):
    out = []
    for i in range(count):
        m = rng.uniform(0.5, 2.0)
        spatial = rng.uniform(-1.5, 1.5, 3)
        out.append(Momentum.on_shell_from_spatial(m, spatial, 1 if i % 2 else -1))
    return out


def test_criterion_01_nilpotency():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for r in range(5):
        for _ in range(100):
            w = random_cochain(BOX4, rng, degrees={r})
            scale = max(w.max_abs(), 1e-300)
            worst = max(worst, d_c(d_c(w)).max_abs() / scale)
            worst = max(worst, codifferential(codifferential(w)).max_abs() / scale)
    elapsed = time.perf_counter() - start
    _report(1, "nilpotency of d and codifferential",
            worst <= 1e-13 and elapsed < 5.0,
            f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_star_involution():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for r in range(5):
        w = random_cochain(BOX4, rng, degrees={r})
        worst = max(worst, (star(star(w)) - ((-1) ** (r + 1)) * w).max_abs())
    elapsed = time.perf_counter() - start
    _report(2, "double star sign law, exact",
            worst == 0.0 and elapsed < 1.0, f"worst abs {worst:.1e}")


def test_criterion_03_codifferential_consistency():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        w = random_cochain(BOX4, rng)
        diff = (codifferential(w) - codifferential(w, "composite")).max_abs()
        worst = max(worst, diff / w.max_abs())
    box3 = LatticeBox((3, 3, 3, 3), BoundaryPolicy.ZERO_EXTEND)
    mat = oracle.assemble_codifferential(box3)
    dense_worst = 0.0
    for _ in range(5):
        w = random_cochain(box3, rng)
        dense = mat @ w.data.reshape(-1)
        dense_worst = max(dense_worst,
                          np.abs(dense - codifferential(w).data.reshape(-1)).max()
                          / w.max_abs())
    _report(3, "codifferential stencil = star d star = dense oracle",
            worst <= 1e-13 and dense_worst <= 1e-13,
            f"stencil rel {worst:.2e}, dense rel {dense_worst:.2e}")


def test_criterion_04_clifford_soundness():
    gamma = oracle.gamma_model_check()
    table = build_table()
    metric = (1, -1, -1, -1)
    anti_ok = True
    for a in range(4):
        for b in range(4):
            sab, rab = table.product((a,), (b,))
            sba, rba = table.product((b,), (a,))
            expected = 2 * metric[a] if a == b else 0
            anti_ok = anti_ok and rab == rba and (
                sab + sba == expected if a == b else sab + sba == 0)
    box = LatticeBox((2, 2, 2, 2))
    rng = np.random.default_rng(104)
    w = random_cochain(box, rng)
    x = unit_form((), box)
    unit_ok = (clifford_mul(x, w) - w).max_abs() == 0.0 \
        and (clifford_mul(w, x) - w).max_abs() == 0.0
    e12_ok = table.product((1, 2), (1, 2)) == (-1, ())
    _report(4, "Clifford table vs gamma oracle, anticommutation, unit, e12^2",
            gamma["all_match"] and anti_ok and unit_ok and e12_ok,
            f"{gamma['entries_checked']} entries")


def test_criterion_05_operator_equivalence():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        w = random_cochain(BOX4, rng)
        diff = (dirac_clifford(w) - dirac_operator(w)).max_abs(1)
        worst = max(worst, diff / w.max_abs())
    _report(5, "sum e_mu Delta_mu = d + codifferential",
            worst <= 1e-12, f"worst rel {worst:.2e}")


def test_criterion_06_stencil_operator_cross_checks():
    rng = np.random.default_rng(106)
    worst_dk = worst_h = 0.0
    for _ in range(20):
        w = random_cochain(BOX4, rng)
        a = dk_residual_operator(w, 1.0).residual
        b = dk_residual_stencil(w, 1.0).residual
        worst_dk = max(worst_dk, (a - b).max_abs(1) / w.max_abs())
        ev = random_cochain(BOX4, rng, scalar_kind="real", degrees={0, 2, 4})
        a = hestenes_residual_operator(ev, 1.0).residual
        b = hestenes_residual_stencil(ev, 1.0).residual
        worst_h = max(worst_h, (a - b).max_abs(1) / ev.max_abs())
    _report(6, "16-line and 8-line stencils match operator forms",
            worst_dk <= 1e-13 and worst_h <= 1e-13,
            f"dk {worst_dk:.2e}, hestenes {worst_h:.2e}")


def test_criterion_07_wave_difference_identity():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(20):
        mom = Momentum(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0, 4))
        for kind, sgn in (("plus", 1), ("minus", -1)):
            wave = psi(kind, mom, BOX5)
            scale = wave.max_abs()
            for mu in range(4):
                diff = (delta_mu(wave, mu)
                        - sgn * mom.p[mu] * mul_basis_right(wave, (1, 2))).max_abs(1)
                worst = max(worst, diff / scale)
    _report(7, "Delta_mu Psi = +/- p_mu Psi e12",
            worst <= 1e-12, f"worst rel {worst:.2e}")


def test_criterion_08_completed_amplitudes_solve():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for mom in _on_shell_momenta(rng, 20):
        for kind in ("plus", "minus"):
            free = rng.uniform(-1, 1, 4)
            p0 = mom.p[0]
            # complete through the better-conditioned branch
            if abs(mom.m + p0) >= abs(mom.m - p0):
                amp = amplitude_from_plus(kind, mom, free) if kind == "plus" \
                    else amplitude_from_minus(kind, mom, free)
            else:
                amp = amplitude_from_minus(kind, mom, free) if kind == "plus" \
                    else amplitude_from_plus(kind, mom, free)
            sol = solution(kind, mom, amp, BOX4)
            worst = max(worst, _hestenes_rel(sol, mom.m))
    elapsed = time.perf_counter() - start
    _report(8, "completed amplitudes solve the even equation",
            worst <= 1e-10 and elapsed < 10.0,
            f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_09_off_shell_negative_control():
    rng = np.random.default_rng(109)
    momenta = []
    while len(momenta) < 20:
        mom = Momentum(rng.uniform(0.5, 2.0),
                       (rng.uniform(-2.5, 2.5), *rng.uniform(-1.5, 1.5, 3)))
        if abs(mom.mass_shell_defect()) >= 0.1:
            momenta.append(mom)
    observed_min = np.inf
    for mom in momenta:
        for kind in ("plus", "minus"):
            free = rng.uniform(-1, 1, 4)
            try:
                amp = amplitude_from_plus(kind, mom, free)
            except ValueError:
                amp = amplitude_from_minus(kind, mom, free)
            sol = solution(kind, mom, amp, BOX4)
            observed_min = min(observed_min,
                               _hestenes_rel(sol, mom.m))
    _report(9, "off-shell waves never solve (negative control)",
            observed_min >= 1e-3, f"observed min rel {observed_min:.3e}")


def test_criterion_10_four_dimensional_solution_space():
    rng = np.random.default_rng(110)
    ok = True
    worst = 0.0
    for _ in range(5):
        m = rng.uniform(0.5, 2.0)
        spatial = rng.uniform(-1.5, 1.5, 3)
        for sign in (+1, -1):
            mom = Momentum.on_shell_from_spatial(m, spatial, sign)
            for kind in ("plus", "minus"):
                basis = solution_basis(kind, mom)
                ok = ok and len(basis) == 4 and basis_rank(basis) == 4
                for amp in basis:
                    sol = solution(kind, mom, amp, BOX4)
                    worst = max(worst, _hestenes_rel(sol, mom.m))
    _report(10, "rank-4 solution basis for each energy sign",
            ok and worst <= 1e-10, f"worst rel {worst:.2e}")


def test_criterion_11_rest_frame_structure():
    rng = np.random.default_rng(111)
    rest = Momentum(1.3, (1.3, 0.0, 0.0, 0.0))
    solver_ok = all(np.abs(a.plus_part()).max() == 0.0
                    for a in solution_basis("minus", rest)) \
        and all(np.abs(a.minus_part()).max() == 0.0
                for a in solution_basis("plus", rest))
    scan_ok = True
    for _ in range(10):
        # the forced-zero half alone never solves; the free half always does
        plus_half = EvenAmplitude.from_parts(rng.uniform(-1, 1, 4), np.zeros(4))
        minus_half = EvenAmplitude.from_parts(np.zeros(4), rng.uniform(-1, 1, 4))
        for kind, forced, free in (("minus", plus_half, minus_half),
                                   ("plus", minus_half, plus_half)):
            r_forced = _hestenes_rel(solution(kind, rest, forced, BOX4), rest.m)
            r_free = _hestenes_rel(solution(kind, rest, free, BOX4), rest.m)
            scan_ok = scan_ok and r_forced > 1e-2 and r_free <= 1e-10
    _report(11, "rest frame forces one amplitude half to vanish",
            solver_ok and scan_ok)


def test_criterion_12_green_formula():
    rng = np.random.default_rng(112)
    box = LatticeBox((2, 2, 2, 2), BoundaryPolicy.ZERO_EXTEND)
    worst = 0.0
    for _ in range(10):
        phi = random_cochain(box, rng)
        omega = random_cochain(box, rng)
        worst = max(worst, abs(green_defect(phi, omega)
                               - oracle.green_boundary_term(phi, omega)))
    # compactly supported pairs: on a 2^4 box every point touches a face, so
    # a form vanishing near the boundary is the zero form and both sides of
    # the formula are identically zero
    compact = Cochain.zeros(box)
    compact_ok = green_defect(compact, compact) == 0.0 \
        and oracle.green_boundary_term(compact, compact) == 0.0
    _report(12, "Green formula matches the chain boundary term",
            worst <= 1e-12 and compact_ok, f"worst abs {worst:.2e}")
