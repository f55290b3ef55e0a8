"""Discrete exterior calculus and Clifford algebra on a finite 4D Minkowski
lattice, with residual verification of the lattice Dirac-Kahler and Hestenes
equations and their plane-wave solutions."""

from .calculus import (
    codifferential,
    d_c,
    delta_mu,
    dirac_operator,
    green_defect,
    inner_product,
    star,
)
from .chains import Chain, basis_chain, boundary, chain_star, pair
from .clifford import (
    build_table,
    clifford_mul,
    dirac_clifford,
    mul_basis_left,
    mul_basis_right,
    unit_form,
)
from .equations import (
    EquationResidual,
    dk_residual_operator,
    dk_residual_stencil,
    hestenes_residual_operator,
    hestenes_residual_stencil,
    input_scale,
)
from .lattice import BoundaryPolicy, Cochain, LatticeBox, random_cochain
from .multiindex import enumerate_basis
from .planewave import (
    EvenAmplitude,
    Momentum,
    amplitude_from_minus,
    amplitude_from_plus,
    basis_rank,
    commutation_checks,
    psi,
    psi_slow,
    solution,
    solution_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPolicy",
    "Chain",
    "Cochain",
    "EquationResidual",
    "EvenAmplitude",
    "LatticeBox",
    "Momentum",
    "amplitude_from_minus",
    "amplitude_from_plus",
    "basis_chain",
    "basis_rank",
    "boundary",
    "build_table",
    "chain_star",
    "clifford_mul",
    "codifferential",
    "commutation_checks",
    "d_c",
    "delta_mu",
    "dirac_clifford",
    "dirac_operator",
    "dk_residual_operator",
    "dk_residual_stencil",
    "enumerate_basis",
    "green_defect",
    "hestenes_residual_operator",
    "hestenes_residual_stencil",
    "inner_product",
    "input_scale",
    "mul_basis_left",
    "mul_basis_right",
    "pair",
    "psi",
    "psi_slow",
    "random_cochain",
    "solution",
    "solution_basis",
    "star",
    "unit_form",
]
