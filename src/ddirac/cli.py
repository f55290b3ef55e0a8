"""Command-line verification harness.

Runs the property suites and plane-wave campaigns with seeded random inputs.
Every verdict subcommand emits one `Report`: JSON, or CSV of its rows, on
stdout, [PASS]/[FAIL] lines on stderr, and exit status 0 iff every row
passed.  All randomness is driven by --seed, and only the command line
configures a run, so identical command lines reproduce byte-identical reports
up to the timestamp field.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time

import click
import numpy as np
from click.core import ParameterSource

from . import oracle
from .calculus import (
    codifferential,
    d_c,
    dirac_operator,
    green_defect,
    star,
)
from .clifford import METRIC, clifford_mul, dirac_clifford, unit_form
from .equations import (
    TINY,
    check_even_real,
    check_mass,
    dk_residual_operator,
    dk_residual_stencil,
    hestenes_residual_operator,
    hestenes_residual_stencil,
)
from .lattice import Cochain, LatticeBox, interior_slices, random_cochain
from .planewave import (
    Momentum,
    amplitude_from_minus,
    amplitude_from_plus,
    basis_rank,
    commutation_checks,
    solution,
    solution_basis,
)

SCHEMA_VERSION = 3
#: Agreement of two routes to one quantity, and the defect of an identity
#: that holds exactly, relative to the input.
CROSS_TOL = 1e-13
#: A plane-wave solution's residual on either route, relative to the wave.
SOLUTION_TOL = 1e-10
#: dirac_clifford vs dirac_operator on the depth-1 interior, relative to the input.
OPERATOR_EQUIV_TOL = 1e-12
#: The Green formula's defect vs the chain-level boundary term, absolute.
GREEN_TOL = 1e-12


def _finite_or_null(value):
    """Copy of a report in which every non-finite float becomes None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _dumps(doc: dict) -> str:
    """Strict JSON: NaN and infinities are written as null."""
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _worst(current: float, value: float) -> float:
    """Running maximum in which NaN wins (``max(0.0, nan)`` is 0.0), so a
    non-finite value fails the check it is folded into."""
    return float(np.maximum(current, value))


def _reject_if_set(param: str, message: str):
    """Reject an option the user set where it would have no effect."""
    source = click.get_current_context().get_parameter_source(param)
    if source is ParameterSource.COMMANDLINE:
        raise click.UsageError(message)


def _check_interior(extents):
    """Every residual is judged on the depth-1 interior, which an extent
    below 2 leaves empty: a check there would pass on no points."""
    if min(extents) < 2:
        raise ValueError(f"every extent must be at least 2, got {list(extents)}: "
                         "the depth-1 interior is empty otherwise")


def _load_input(path: str, check) -> Cochain:
    """The --input form.  The file fixes the form and its box, so --seed and
    --extents are rejected; every problem with the file is a usage error
    that names it."""
    for param in ("seed", "extents"):
        _reject_if_set(param, f"--{param} has no effect with --input: the form "
                              "and its box come from the file")
    try:
        omega = Cochain.load(path)
        _check_interior(omega.box.extents)
        if check is not None:
            check(omega)
    except ValueError as exc:
        raise click.BadParameter(f"{path}: {exc}", param_hint="'--input'")
    return omega


def _parse_extents(_ctx, _param, value: str) -> tuple[int, int, int, int]:
    try:
        extents = LatticeBox(tuple(int(v) for v in value.split(","))).extents
        _check_interior(extents)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    return extents


def _parse_mass(_ctx, _param, value: float) -> float:
    """``click.FloatRange(min=0, min_open=True)`` alone lets NaN and inf
    through."""
    try:
        check_mass(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    return value


def _parse_out(_ctx, _param, value: str | None) -> str | None:
    """An --out that cannot be written fails before the run, not after it."""
    if value == "":
        raise click.BadParameter("an empty path names no file")
    folder = os.path.dirname(value or "") or "."
    if value and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise click.BadParameter(f"{value}: {folder} is not a writable directory")
    return value


def _load_scan(path: str) -> list[Momentum]:
    """The --scan momenta.  As with --input, every problem with the file is
    a usage error that names it."""
    try:
        with open(path) as fh:
            entries = json.load(fh)
        if not (isinstance(entries, list) and entries and all(
                isinstance(e, dict) and "mass" in e and isinstance(e.get("p"), list)
                for e in entries)):
            raise ValueError("expected a non-empty list of {mass, p} objects")
        # to Python a JSON true is an int, and float() would parse "1.5"
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for e in entries for v in [e["mass"], *e["p"]]):
            raise ValueError("every mass and momentum component must be a JSON number")
        return [Momentum(float(e["mass"]), tuple(e["p"])) for e in entries]
    except (ValueError, TypeError, OverflowError) as exc:
        raise click.BadParameter(f"{path}: {exc}", param_hint="'--scan'")


#: The options that more than one command reads.
OPTIONS = {
    "extents": click.option("--extents", default="5,5,5,5", callback=_parse_extents,
                            show_default=True, help="Lattice extents N0,N1,N2,N3."),
    "seed": click.option("--seed", default=0, type=click.IntRange(min=0),
                         show_default=True, help="Seed for all random inputs."),
    "out": click.option("--out", type=click.Path(dir_okay=False), default=None,
                        callback=_parse_out, help="Write the report to this file."),
    "format": click.option("--format", type=click.Choice(["json", "csv"]),
                           default="json", show_default=True),
    "mass": click.option("--mass", default=1.0, callback=_parse_mass,
                         show_default=True),
    "input": click.option("--input", type=click.Path(exists=True, dir_okay=False),
                          default=None,
                          help="Cochain JSON file; a random form if omitted."),
    "trials": click.option("--trials", default=20, type=click.IntRange(min=1),
                           show_default=True),
}


def options(*names):
    """Declare the named OPTIONS on a command, in this order: each command
    names exactly the options it reads."""
    def declare(fn):
        for name in reversed(names):
            fn = OPTIONS[name](fn)
        return fn
    return declare


class Report:
    """Accumulates per-test results and renders a stable, sorted report."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.results: list[dict] = []

    def add(self, suite: str, test: str, passed: bool, **values):
        # numpy scalars become Python ones; ints and bools keep their type
        clean = {k: (v.item() if isinstance(v, np.generic) else v)
                 for k, v in values.items()}
        self.results.append({"suite": suite, "test": test, "passed": bool(passed),
                             **clean})

    def to_dict(self) -> dict:
        results = sorted(self.results, key=lambda r: (r["suite"], r["test"]))
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "results": results,
            "summary": {
                "passed": sum(r["passed"] for r in results),
                "failed": sum(not r["passed"] for r in results),
            },
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }

    def emit(self, fmt: str, out: str | None):
        """Write the report (JSON, or CSV of its rows) to `out`, or else to
        stdout, and the [PASS]/[FAIL] lines to stderr; then exit 0 iff every
        row passed."""
        doc = self.to_dict()
        if fmt == "json":
            text = _dumps(doc)
        else:
            buf = io.StringIO()
            keys = sorted({k for r in doc["results"] for k in r})
            writer = csv.DictWriter(buf, fieldnames=keys)
            writer.writeheader()
            # empty cells where the JSON report has null
            writer.writerows(_finite_or_null(doc["results"]))
            text = buf.getvalue()
        if out:
            # first, so that an unwritable --out ends the run with no verdict
            try:
                with open(out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise click.BadParameter(f"{out}: {exc.strerror}", param_hint="'--out'")
        for r in doc["results"]:
            status = "PASS" if r["passed"] else "FAIL"
            click.echo(f"[{status}] {r['suite']}::{r['test']}", err=True)
        if out:
            click.echo(f"report written to {out}", err=True)
        else:
            click.echo(text, nl=False)
        sys.exit(0 if doc["summary"]["failed"] == 0 else 1)


@click.group()
@click.version_option(package_name="ddirac")
def main():
    """Verification harness for the lattice Dirac equation models."""


@main.command("verify-calculus")
@options("extents", "seed", "out", "format", "trials")
def verify_calculus(extents, seed, out, format, trials):
    """Check the calculus identities on seeded random forms."""
    box = LatticeBox(extents)
    rng = np.random.default_rng(seed)
    report = Report("verify-calculus", {"extents": list(extents), "seed": seed,
                                        "trials": trials})

    worst_dd = worst_deldel = worst_cross = 0.0
    for _ in range(trials):
        for r in range(5):
            w = random_cochain(box, rng, degrees={r})
            scale = max(w.max_abs(), TINY)
            delta = codifferential(w)
            worst_dd = _worst(worst_dd, d_c(d_c(w)).max_abs() / scale)
            worst_deldel = _worst(worst_deldel, codifferential(delta).max_abs() / scale)
            worst_cross = _worst(
                worst_cross,
                (delta - codifferential(w, "composite")).max_abs() / scale)
    report.add("calculus", "nilpotency_dc", worst_dd <= CROSS_TOL, rel=worst_dd)
    report.add("calculus", "nilpotency_codifferential", worst_deldel <= CROSS_TOL,
               rel=worst_deldel)
    report.add("calculus", "codifferential_stencil_vs_composite",
               worst_cross <= CROSS_TOL, rel=worst_cross)

    star_ok = True
    for r in range(5):
        w = random_cochain(box, rng, degrees={r})
        diff = (star(star(w)) - ((-1) ** (r + 1)) * w).max_abs()
        star_ok = star_ok and diff == 0.0
    report.add("calculus", "star_involution_law", star_ok)

    gbox = LatticeBox((2, 2, 2, 2))
    worst_green = 0.0
    for _ in range(max(trials // 4, 1)):
        phi = random_cochain(gbox, rng)
        om = random_cochain(gbox, rng)
        worst_green = _worst(worst_green, abs(
            green_defect(phi, om) - oracle.green_boundary_term(phi, om)))
    report.add("calculus", "green_formula_vs_chain_oracle", worst_green <= GREEN_TOL,
               max_abs=worst_green)

    report.emit(format, out)


@main.command("verify-clifford")
@options("extents", "seed", "out", "format", "trials")
def verify_clifford(extents, seed, out, format, trials):
    """Check the Clifford product table and the operator equivalence."""
    box = LatticeBox(extents)
    rng = np.random.default_rng(seed)
    report = Report("verify-clifford", {"extents": list(extents), "seed": seed,
                                        "trials": trials})

    gamma = oracle.gamma_model_check()
    report.add("clifford", "gamma_matrix_oracle", gamma["all_match"],
               entries=gamma["entries_checked"])

    # e_mu e_nu + e_nu e_mu = 2 g_{mu nu} x holds pointwise, so one point shows it
    point = LatticeBox((1, 1, 1, 1))
    e = [unit_form((mu,), point) for mu in range(4)]
    anti_ok = all((clifford_mul(e[a], e[b]) + clifford_mul(e[b], e[a])
                   - (2 * METRIC[a] if a == b else 0) * unit_form((), point)).max_abs() == 0.0
                  for a in range(4) for b in range(4))
    report.add("clifford", "anticommutation", anti_ok)

    w = random_cochain(box, rng)
    x = unit_form((), box)
    unit_ok = (clifford_mul(x, w) - w).max_abs() == 0.0 and \
        (clifford_mul(w, x) - w).max_abs() == 0.0
    report.add("clifford", "unit_form_identity", unit_ok)

    worst = 0.0
    for _ in range(trials):
        w = random_cochain(box, rng)
        diff = (dirac_clifford(w) - dirac_operator(w)).max_abs(1)
        worst = _worst(worst, diff / max(w.max_abs(), TINY))
    report.add("clifford", "first_order_operator_equivalence", worst <= OPERATOR_EQUIV_TOL,
               rel=worst)

    report.emit(format, out)


def _judge(omega, mass, operator_fn, stencil_fn):
    """Both routes' residuals of `omega`, and the largest difference between
    them on the depth-1 interior: absolute, and relative to `omega`."""
    res_op = operator_fn(omega, mass)
    res_st = stencil_fn(omega, mass)
    # one slot-sized difference at a time; np.max keeps a NaN, as max_abs does
    inner = interior_slices(1)[1:]
    cross = float(np.max([np.abs(op[inner] - st[inner]).max() for op, st
                          in zip(res_op.residual.data, res_st.residual.data)]))
    return res_op, res_st, cross, cross / res_op.scale


def _residual_command(name, extents, seed, out, fmt, mass, input_path,
                      operator_fn, stencil_fn, random_kwargs, input_check=None):
    if input_path:
        omega = _load_input(input_path, input_check)
        seed = None
    else:
        omega = random_cochain(LatticeBox(extents), np.random.default_rng(seed),
                               **random_kwargs)
    report = Report(name, {"extents": list(omega.box.extents), "seed": seed,
                           "mass": mass, "input": input_path})
    suite = name.removesuffix("-check")
    res_op, res_st, cross, cross_rel = _judge(omega, mass, operator_fn, stencil_fn)
    for test, res in (("operator_residual", res_op), ("stencil_residual", res_st)):
        report.add(suite, test, math.isfinite(res.max_abs) and math.isfinite(res.rel),
                   **res.to_dict())
    # the exit status rests on this fixed tolerance, so there is no --tol-rel
    report.add(suite, "stencil_cross_check", cross_rel <= CROSS_TOL,
               max_abs=cross, rel=cross_rel)
    report.emit(fmt, out)


@main.command("dk-check")
@options("extents", "seed", "out", "format", "mass", "input")
def dk_check(extents, seed, out, format, mass, input):
    """Evaluate the first-order complex equation residual on a form."""
    _residual_command("dk-check", extents, seed, out, format, mass, input,
                      dk_residual_operator, dk_residual_stencil, {})


@main.command("hestenes-check")
@options("extents", "seed", "out", "format", "mass", "input")
def hestenes_check(extents, seed, out, format, mass, input):
    """Evaluate the real even-form equation residual."""
    _residual_command("hestenes-check", extents, seed, out, format, mass, input,
                      hestenes_residual_operator, hestenes_residual_stencil,
                      {"scalar_kind": "real", "degrees": {0, 2, 4}},
                      input_check=check_even_real)


def _control_amplitude(kind: str, mom: Momentum):
    """The off-shell control's amplitude: completed from the plus half's
    first unit vector, or from the minus half's where m -/+ p0 = 0 makes the
    plus half singular; None where both halves are singular."""
    for complete in (amplitude_from_plus, amplitude_from_minus):
        try:
            return complete(kind, mom, [1.0, 0.0, 0.0, 0.0])
        except ValueError:
            continue
    return None


@main.command("planewave")
@options("extents", "seed", "out", "format", "mass")
@click.option("--p", default="0.3,-0.2,0.5", show_default=True,
              help="Spatial momentum p1,p2,p3.")
@click.option("--p0", default=None, type=float,
              help="Time component; derived from the mass shell if omitted.")
@click.option("--scan", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file with a list of momenta: [{mass, p}, ...].")
def planewave(extents, seed, out, format, mass, p, p0, scan):
    """Construct plane-wave solutions of both kinds and verify their
    residuals; --seed draws the amplitude-half commutation checks."""
    box = LatticeBox(extents)
    if scan:
        for param in ("mass", "p", "p0"):
            _reject_if_set(param, f"--{param} has no effect with --scan: the file "
                                  "fixes every momentum")
        momenta = _load_scan(scan)
    else:
        try:
            sp = tuple(float(v) for v in p.split(","))
            if len(sp) != 3:
                raise ValueError("need exactly three components")
            momenta = [Momentum.on_shell_from_spatial(mass, sp) if p0 is None
                       else Momentum(mass, (p0,) + sp)]
        except ValueError as exc:
            raise click.BadParameter(
                str(exc), param_hint="'--p'" if p0 is None else "'--p' / '--p0'")

    report = Report("planewave", {"extents": list(extents), "seed": seed})
    # zero-padded, so that sorting the rows keeps the input order
    width = len(str(len(momenta) - 1))
    for i, mom in enumerate(momenta):
        for kind in ("minus", "plus"):
            label = f"p{i:0{width}d}/{kind}"
            row = {"mass": mom.m, "p": list(mom.p), "on_shell": mom.on_shell(),
                   "kind": kind}
            if row["on_shell"]:
                basis = solution_basis(kind, mom)
                for j, amp in enumerate(basis):
                    res_op, res_st, _, cross = _judge(
                        solution(kind, mom, amp, box), mom.m,
                        hestenes_residual_operator, hestenes_residual_stencil)
                    passed = (res_op.rel <= SOLUTION_TOL and res_st.rel <= SOLUTION_TOL
                              and cross <= CROSS_TOL)
                    report.add("planewave", f"{label}/amplitude_{j}", passed, **row,
                               amplitude=amp.as_vector().tolist(),
                               operator=res_op.rel, stencil=res_st.rel, cross=cross)
                rank = basis_rank(basis)
                report.add("planewave", f"{label}/basis_rank", rank == 4, **row,
                           rank=rank)
                continue
            # off the mass shell there is no solution: the residual of the
            # completed amplitude is a negative control, expected nonzero
            amp = _control_amplitude(kind, mom)
            if amp is None:
                # a control that cannot run shows nothing, so its row fails
                report.add("planewave", f"{label}/off_shell_control", False, **row,
                           amplitude=None, operator=None,
                           note="both coupling denominators are singular")
                continue
            r_op = hestenes_residual_operator(solution(kind, mom, amp, box),
                                              mom.m).rel
            # NaN fails too: a control that cannot discriminate shows nothing
            report.add("planewave", f"{label}/off_shell_control", r_op > SOLUTION_TOL,
                       **row, amplitude=amp.as_vector().tolist(), operator=r_op,
                       note="expected nonzero residual")
    for test, passed in commutation_checks(seed).items():
        report.add("commutation", test, passed)
    report.emit(format, out)


if __name__ == "__main__":
    main()
