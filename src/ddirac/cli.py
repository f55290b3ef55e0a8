"""Command-line verification harness.

Runs the property suites and plane-wave campaigns with seeded random inputs
and emits machine-readable reports (JSON, or CSV for residual tables).  All
randomness is driven by --seed, so identical configurations reproduce
byte-identical reports up to the timestamp field.  Every option can also be
set through a DDIRAC_* environment variable.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time

import click
import numpy as np

from . import oracle
from .calculus import (
    codifferential,
    d_c,
    green_defect,
    star,
)
from .clifford import build_table, clifford_mul, dirac_clifford, unit_form
from .calculus import dirac_operator
from .equations import (
    dk_residual_operator,
    dk_residual_stencil,
    hestenes_residual_operator,
    hestenes_residual_stencil,
)
from .lattice import BoundaryPolicy, Cochain, LatticeBox, random_cochain
from .multiindex import ALL_INDEXES, as_string
from .planewave import (
    Momentum,
    amplitude_from_minus,
    amplitude_from_plus,
    basis_rank,
    commutation_checks,
    psi,
    solution,
    solution_basis,
)

SCHEMA_VERSION = 2
CONTEXT_SETTINGS = {"auto_envvar_prefix": "DDIRAC"}
#: Operator-route vs stencil-route agreement, relative to the input.
CROSS_TOL = 1e-13


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


def _emit_json(doc: dict, out: str | None):
    text = _dumps(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    click.echo(text, nl=False)


def _parse_extents(_ctx, _param, value: str) -> tuple[int, int, int, int]:
    try:
        parts = tuple(int(v) for v in value.split(","))
        return LatticeBox(parts).extents
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _parse_policy(_ctx, _param, value: str) -> BoundaryPolicy:
    try:
        return BoundaryPolicy(value)
    except ValueError:
        raise click.BadParameter(f"policy must be interior or zeroextend, got {value!r}")


def common_options(fn):
    fn = click.option("--extents", default="5,5,5,5", callback=_parse_extents,
                      show_default=True, help="Lattice extents N0,N1,N2,N3.")(fn)
    fn = click.option("--seed", default=0, show_default=True,
                      help="Seed for all random inputs.")(fn)
    fn = click.option("--policy", default="interior", callback=_parse_policy,
                      show_default=True, help="Boundary policy: interior|zeroextend.")(fn)
    fn = click.option("--tol-rel", default=1e-10, show_default=True,
                      help="Relative pass tolerance for residual checks.")(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="Write the report to this file.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                      default="json", show_default=True)(fn)
    return fn


class Report:
    """Accumulates per-test results and renders a stable, sorted report."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.results: list[dict] = []

    def add(self, suite: str, test: str, passed: bool, **values):
        clean = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                 for k, v in values.items()}
        self.results.append({"suite": suite, "test": test, "passed": bool(passed),
                             **clean})

    @property
    def all_passed(self) -> bool:
        return all(r["passed"] for r in self.results)

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

    def render(self, fmt: str) -> str:
        doc = self.to_dict()
        if fmt == "json":
            return _dumps(doc)
        buf = io.StringIO()
        keys = sorted({k for r in doc["results"] for k in r})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in doc["results"]:
            writer.writerow(r)
        return buf.getvalue()

    def emit(self, fmt: str, out: str | None) -> int:
        for r in sorted(self.results, key=lambda r: (r["suite"], r["test"])):
            status = "PASS" if r["passed"] else "FAIL"
            click.echo(f"[{status}] {r['suite']}::{r['test']}")
        text = self.render(fmt)
        if out:
            with open(out, "w") as fh:
                fh.write(text)
            click.echo(f"report written to {out}")
        else:
            click.echo(text, nl=False)
        return 0 if self.all_passed else 1


@click.group(context_settings=CONTEXT_SETTINGS)
@click.version_option(package_name="ddirac")
def main():
    """Verification harness for the lattice Dirac equation models."""


@main.command("verify-calculus")
@common_options
@click.option("--trials", default=20, show_default=True)
def verify_calculus(extents, seed, policy, tol_rel, out, fmt, trials):
    """Check the calculus identities on seeded random forms."""
    box = LatticeBox(extents, policy)
    rng = np.random.default_rng(seed)
    report = Report("verify-calculus", {
        "extents": list(extents), "seed": seed, "policy": policy.value,
        "tol_rel": tol_rel, "trials": trials})
    cross_tol = 1e-13

    worst_dd = worst_deldel = worst_cross = 0.0
    for _ in range(trials):
        for r in range(5):
            w = random_cochain(box, rng, degrees={r})
            scale = max(w.max_abs(), 1e-300)
            worst_dd = max(worst_dd, d_c(d_c(w)).max_abs() / scale)
            worst_deldel = max(worst_deldel,
                               codifferential(codifferential(w)).max_abs() / scale)
            worst_cross = max(
                worst_cross,
                (codifferential(w) - codifferential(w, "composite")).max_abs() / scale)
    report.add("calculus", "nilpotency_dc", worst_dd <= cross_tol, rel=worst_dd)
    report.add("calculus", "nilpotency_codifferential", worst_deldel <= cross_tol,
               rel=worst_deldel)
    report.add("calculus", "codifferential_stencil_vs_composite",
               worst_cross <= cross_tol, rel=worst_cross)

    star_ok = True
    for r in range(5):
        w = random_cochain(box, rng, degrees={r})
        diff = (star(star(w)) - ((-1) ** (r + 1)) * w).max_abs()
        star_ok = star_ok and diff == 0.0
    report.add("calculus", "star_involution_law", star_ok)

    gbox = LatticeBox((2, 2, 2, 2), BoundaryPolicy.ZERO_EXTEND)
    worst_green = 0.0
    for _ in range(max(trials // 4, 1)):
        phi = random_cochain(gbox, rng)
        om = random_cochain(gbox, rng)
        worst_green = max(worst_green, abs(
            green_defect(phi, om) - oracle.green_boundary_term(phi, om)))
    report.add("calculus", "green_formula_vs_chain_oracle", worst_green <= 1e-12,
               max_abs=worst_green)

    sys.exit(report.emit(fmt, out))


@main.command("verify-clifford")
@common_options
@click.option("--trials", default=20, show_default=True)
def verify_clifford(extents, seed, policy, tol_rel, out, fmt, trials):
    """Check the Clifford product table and the operator equivalence."""
    box = LatticeBox(extents, policy)
    rng = np.random.default_rng(seed)
    report = Report("verify-clifford", {
        "extents": list(extents), "seed": seed, "policy": policy.value,
        "tol_rel": tol_rel, "trials": trials})

    gamma = oracle.gamma_model_check()
    report.add("clifford", "gamma_matrix_oracle", gamma["all_match"],
               entries=gamma["entries_checked"])

    # e_mu e_nu + e_nu e_mu = 2 g_{mu nu} x, checked on the constant unit forms
    anti_ok = True
    metric = (1, -1, -1, -1)
    for a in range(4):
        for b in range(4):
            lhs = clifford_mul(unit_form((a,), box), unit_form((b,), box)) + \
                clifford_mul(unit_form((b,), box), unit_form((a,), box))
            rhs = (2 * metric[a] if a == b else 0) * unit_form((), box)
            anti_ok = anti_ok and (lhs - rhs).max_abs() == 0.0
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
        worst = max(worst, diff / max(w.max_abs(), 1e-300))
    report.add("clifford", "first_order_operator_equivalence", worst <= 1e-12,
               rel=worst)

    sys.exit(report.emit(fmt, out))


def _residual_command(name, extents, seed, policy, tol_rel, out, fmt, mass,
                      input_path, operator_fn, stencil_fn, random_kwargs):
    box = LatticeBox(extents, policy)
    rng = np.random.default_rng(seed)
    if input_path:
        omega = Cochain.load(input_path, policy)
    else:
        omega = random_cochain(box, rng, **random_kwargs)
    res_op = operator_fn(omega, mass)
    res_st = stencil_fn(omega, mass)
    cross = (res_op.residual - res_st.residual).max_abs(1)
    cross_rel = cross / max(omega.max_abs(), 1e-300)
    finite = all(math.isfinite(v)
                 for v in (res_op.max_abs, res_op.rel, res_st.max_abs, res_st.rel))
    cross_failed = not (cross_rel <= CROSS_TOL)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": name,
        "config": {"extents": list(extents), "seed": seed, "policy": policy.value,
                   "mass": mass, "input": input_path, "tol_rel": tol_rel},
        "max_abs": res_op.max_abs,
        "rel": res_op.rel,
        "region": list(res_op.region),
        "finite": finite,
        "stencil_cross_check": {"max_abs": cross, "rel": cross_rel,
                                "passed": not cross_failed},
    }
    _emit_json(doc, out)
    sys.exit(1 if cross_failed or not finite else 0)


@main.command("dk-check")
@common_options
@click.option("--mass", default=1.0, show_default=True)
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Cochain JSON file; random form if omitted.")
def dk_check(extents, seed, policy, tol_rel, out, fmt, mass, input_path):
    """Evaluate the first-order complex equation residual on a form."""
    _residual_command("dk-check", extents, seed, policy, tol_rel, out, fmt, mass,
                      input_path, dk_residual_operator, dk_residual_stencil, {})


@main.command("hestenes-check")
@common_options
@click.option("--mass", default=1.0, show_default=True)
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Cochain JSON file; random even form if omitted.")
def hestenes_check(extents, seed, policy, tol_rel, out, fmt, mass, input_path):
    """Evaluate the real even-form equation residual."""
    _residual_command("hestenes-check", extents, seed, policy, tol_rel, out, fmt,
                      mass, input_path, hestenes_residual_operator,
                      hestenes_residual_stencil,
                      {"scalar_kind": "real", "degrees": {0, 2, 4}})


@main.command("planewave")
@common_options
@click.option("--mass", default=1.0, show_default=True)
@click.option("--p", "spatial", default="0.3,-0.2,0.5", show_default=True,
              help="Spatial momentum p1,p2,p3.")
@click.option("--p0", default=None, type=float,
              help="Time component; derived from the mass shell if omitted.")
@click.option("--kind", type=click.Choice(["plus", "minus"]), default="minus",
              show_default=True)
@click.option("--scan", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file with a list of momenta: [{mass, p}, ...].")
def planewave(extents, seed, policy, tol_rel, out, fmt, mass, spatial, p0, kind,
              scan):
    """Construct plane-wave solutions and verify their residuals."""
    box = LatticeBox(extents, policy)
    momenta = []
    if scan:
        with open(scan) as fh:
            for entry in json.load(fh):
                momenta.append(Momentum(entry["mass"], tuple(entry["p"])))
    else:
        try:
            sp = tuple(float(v) for v in spatial.split(","))
            if len(sp) != 3:
                raise ValueError("need exactly three components")
        except ValueError as exc:
            raise click.BadParameter(f"--p: {exc}")
        if p0 is None:
            momenta.append(Momentum.on_shell_from_spatial(mass, sp))
        else:
            momenta.append(Momentum(mass, (p0,) + sp))

    entries = []
    failures = 0
    for mom in momenta:
        on_shell = mom.on_shell(tol=1e-9)
        entry = {"momentum": {"mass": mom.m, "p": list(mom.p)},
                 "on_shell": on_shell, "kind": kind}
        if on_shell:
            basis = solution_basis(kind, mom)
            residuals = []
            for amp in basis:
                sol = solution(kind, mom, amp, box)
                r_op = hestenes_residual_operator(sol, mom.m)
                r_st = hestenes_residual_stencil(sol, mom.m)
                residuals.append({"operator": r_op.rel, "stencil": r_st.rel})
                if not (r_op.rel <= tol_rel) or not math.isfinite(r_st.rel):
                    failures += 1
            entry["amplitudes"] = [list(a.as_vector()) for a in basis]
            entry["residuals"] = residuals
            entry["basis_rank"] = basis_rank(basis)
            if entry["basis_rank"] != 4:
                failures += 1
        else:
            # off the mass shell there is no solution; report the residual of
            # the completed amplitude as a negative control, expected nonzero
            amp = amplitude_from_plus(kind, mom, [1.0, 0.0, 0.0, 0.0]) \
                if abs(mom.m - (mom.p[0] if kind == "minus" else -mom.p[0])) > 1e-12 \
                else amplitude_from_minus(kind, mom, [1.0, 0.0, 0.0, 0.0])
            sol = solution(kind, mom, amp, box)
            r_op = hestenes_residual_operator(sol, mom.m)
            entry["amplitudes"] = [list(amp.as_vector())]
            entry["residuals"] = [{"operator": r_op.rel,
                                   "note": "expected nonzero residual"}]
            if not math.isfinite(r_op.rel):
                failures += 1
        entries.append(entry)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "planewave",
        "config": {"extents": list(extents), "seed": seed, "policy": policy.value,
                   "tol_rel": tol_rel, "kind": kind},
        "entries": entries,
        "summary": {"momenta": len(momenta), "failures": failures},
    }
    _emit_json(doc, out)
    sys.exit(0 if failures == 0 else 1)


@main.command("table")
@click.option("--dump", is_flag=True, help="Emit the 16x16 product table as CSV.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def table_cmd(dump, out):
    """Inspect the Clifford basis product table."""
    if not dump:
        click.echo("use --dump to emit the table")
        return
    table = build_table()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["left", "right", "sign", "result"])
    for mi_a in ALL_INDEXES:
        for mi_b in ALL_INDEXES:
            sign, res = table.product(mi_a, mi_b)
            writer.writerow([as_string(mi_a) or "x", as_string(mi_b) or "x",
                             sign, as_string(res) or "x"])
    text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(f"table written to {out}")
    else:
        click.echo(text, nl=False)


@main.command("commutation")
@click.option("--seed", default=0, show_default=True)
def commutation(seed):
    """Run the amplitude-half commutation checks."""
    report = commutation_checks(seed)
    click.echo(json.dumps(report, indent=2, sort_keys=True))
    sys.exit(0 if all(report.values()) else 1)


if __name__ == "__main__":
    main()
