import csv
import dataclasses
import io
import json
import math
import re
import types

import numpy as np
import pytest
from click.testing import CliRunner

import ddirac.cli
from ddirac.cli import main
from ddirac.lattice import Cochain, LatticeBox, random_cochain


@pytest.fixture
def runner():
    return CliRunner()


def _report(result):
    """stdout carries exactly the report; the [PASS]/[FAIL] lines go to
    stderr."""
    return json.loads(result.stdout)


def _row(doc, test):
    (entry,) = [r for r in doc["results"] if r["test"] == test]
    return entry


def _amplitude_rows(doc):
    return [r for r in doc["results"] if "/amplitude_" in r["test"]]


def _planewave_rows(doc):
    return [r for r in doc["results"] if r["suite"] == "planewave"]


#: The amplitude-half checks that `planewave --seed` draws.
COMMUTATION_TESTS = {f"e0_{half}_commutation" for half in ("plus", "minus")} | {
    f"e0{i}_{half}_swaps_halves" for i in (1, 2, 3) for half in ("plus", "minus")}


#: One small, passing invocation of each verdict subcommand.
VERDICT_ARGS = {
    "verify-calculus": ["--extents", "3,3,3,3", "--trials", "2", "--seed", "9"],
    "verify-clifford": ["--extents", "2,2,2,2", "--trials", "1", "--seed", "9"],
    "dk-check": ["--extents", "3,3,3,3", "--seed", "9"],
    "hestenes-check": ["--extents", "3,3,3,3", "--seed", "9"],
    "planewave": ["--extents", "3,3,3,3", "--seed", "9"],
}


def test_verify_calculus_passes(runner):
    result = runner.invoke(main, ["verify-calculus", "--extents", "3,3,3,3",
                                  "--trials", "4"])
    assert result.exit_code == 0, result.output
    doc = _report(result)
    assert doc["summary"]["failed"] == 0
    assert "[PASS] calculus::nilpotency_dc" in result.stderr


def test_verify_clifford_passes(runner):
    result = runner.invoke(main, ["verify-clifford", "--extents", "3,3,3,3",
                                  "--trials", "3"])
    assert result.exit_code == 0, result.output
    doc = _report(result)
    suites = {r["test"] for r in doc["results"]}
    assert "gamma_matrix_oracle" in suites
    assert "first_order_operator_equivalence" in suites


@pytest.mark.parametrize("command", VERDICT_ARGS)
def test_reports_are_deterministic_up_to_timestamp(runner, command):
    args = [command] + VERDICT_ARGS[command]
    docs = []
    for _ in range(2):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        doc = _report(result)
        doc.pop("timestamp")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_every_verdict_emits_one_schema(runner):
    docs = {}
    for command, args in VERDICT_ARGS.items():
        result = runner.invoke(main, [command] + args)
        assert result.exit_code == 0, result.output
        docs[command] = doc = _report(result)
        assert doc["schema_version"] == 3 and doc["command"] == command
        assert doc["results"] and doc["summary"]["failed"] == 0
        assert all({"suite", "test", "passed"} <= set(r) for r in doc["results"])
        for r in doc["results"]:
            assert f"[PASS] {r['suite']}::{r['test']}" in result.stderr
    assert {frozenset(doc) for doc in docs.values()} == {frozenset(
        {"schema_version", "command", "config", "results", "summary", "timestamp"})}
    # numpy scalars become Python ones, but ints and bools keep their type
    gamma = _row(docs["verify-clifford"], "gamma_matrix_oracle")
    assert type(gamma["entries"]) is int and gamma["entries"] == 256
    for kind in ("plus", "minus"):
        rank = _row(docs["planewave"], f"p0/{kind}/basis_rank")
        assert type(rank["rank"]) is int and rank["rank"] == 4
        assert rank["on_shell"] is True and rank["kind"] == kind


def test_dk_check_random_form(runner):
    result = runner.invoke(main, ["dk-check", "--extents", "4,4,4,4", "--mass", "1.5"])
    assert result.exit_code == 0, result.output
    doc = _report(result)
    assert _row(doc, "stencil_cross_check")["passed"]
    assert doc["config"]["mass"] == 1.5
    assert _row(doc, "operator_residual")["region"] == [3, 3, 3, 3]


def test_hestenes_check_reads_input_file(runner, tmp_path, rng):
    w = random_cochain(LatticeBox((3, 3, 3, 3)), rng, scalar_kind="real",
                       degrees={0, 2, 4})
    path = tmp_path / "even.json"
    w.save(path)
    result = runner.invoke(main, ["hestenes-check", "--input", str(path)])
    assert result.exit_code == 0, result.output
    doc = _report(result)
    assert doc["config"]["input"] == str(path)
    assert doc["config"]["extents"] == [3, 3, 3, 3]  # the file's box
    assert doc["config"]["seed"] is None
    assert _row(doc, "operator_residual")["region"] == [2, 2, 2, 2]
    assert _row(doc, "stencil_cross_check")["rel"] <= 1e-13


def test_planewave_on_shell(runner):
    result = runner.invoke(main, ["planewave", "--extents", "4,4,4,4",
                                  "--p", "0.3,-0.2,0.5", "--mass", "1.0"])
    assert result.exit_code == 0, result.output
    doc = _report(result)
    for kind in ("plus", "minus"):
        assert _row(doc, f"p0/{kind}/basis_rank")["on_shell"]
        assert _row(doc, f"p0/{kind}/basis_rank")["rank"] == 4
        amplitudes = [r for r in _amplitude_rows(doc) if r["kind"] == kind]
        assert [r["test"] for r in amplitudes] == [
            f"p0/{kind}/amplitude_{j}" for j in range(4)]
        assert all(r["operator"] <= 1e-10 and r["stencil"] <= 1e-10
                   and r["cross"] <= 1e-13 for r in amplitudes)
    assert {r["test"] for r in doc["results"] if r["suite"] == "commutation"} == \
        COMMUTATION_TESTS
    assert doc["summary"] == {"passed": 18, "failed": 0}


def test_planewave_off_shell_is_negative_control(runner):
    result = runner.invoke(main, ["planewave", "--extents", "4,4,4,4",
                                  "--p", "0.3,0.0,0.0", "--p0", "2.0"])
    assert result.exit_code == 0, result.output
    doc = _report(result)
    rows = _planewave_rows(doc)
    assert [r["test"] for r in rows] == ["p0/minus/off_shell_control",
                                         "p0/plus/off_shell_control"]
    for entry, kind in zip(rows, ("minus", "plus")):
        assert entry["kind"] == kind and not entry["on_shell"]
        assert entry["operator"] > 1e-3
        assert entry["note"] == "expected nonzero residual"


@pytest.mark.parametrize("p0, kind", [("1", "minus"), ("-1", "plus")])
def test_off_shell_control_falls_back_to_minus_half(runner, p0, kind):
    """Where m -/+ p0 = 0 the plus half of `kind` cannot be completed, so its
    control completes from the minus half's first unit vector (e01 = 1); the
    other kind completes from its plus half (x = 1)."""
    other = "plus" if kind == "minus" else "minus"
    result = runner.invoke(main, ["planewave", "--extents", "4,4,4,4", "--mass", "1",
                                  "--p", "0.3,0,0", "--p0", p0])
    assert result.exit_code == 0, result.output
    doc = _report(result)
    entry = _row(doc, f"p0/{kind}/off_shell_control")
    assert entry["passed"] and not entry["on_shell"]
    # coefficient order: x, e01, e02, e03, e12, e13, e23, e0123
    assert entry["amplitude"][1] == 1.0
    assert entry["amplitude"][2:4] == [0.0, 0.0] and entry["amplitude"][7] == 0.0
    entry = _row(doc, f"p0/{other}/off_shell_control")
    assert entry["passed"] and entry["amplitude"][0] == 1.0


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_planewave_overflow_fails_with_strict_json(runner):
    """The wave factor (1 + 100i)^199 overflows: the residuals are not
    finite, so the run fails and reports them as null."""
    result = runner.invoke(main, ["planewave", "--extents", "200,2,2,2",
                                  "--p", "100,0,0"])
    assert result.exit_code != 0
    doc = _strict_json(result.stdout)
    assert _row(doc, "p0/plus/basis_rank")["on_shell"]
    assert _row(doc, "p0/minus/basis_rank")["on_shell"]
    assert doc["summary"]["failed"] == 8
    amplitudes = _amplitude_rows(doc)
    assert len(amplitudes) == 8
    assert all(r["operator"] is None for r in amplitudes)
    assert not any(r["passed"] for r in amplitudes)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_dk_check_overflow_fails_with_strict_json(runner, tmp_path):
    box = LatticeBox((3, 3, 3, 3))
    data = np.zeros((16,) + box.extents)
    data[0] = 1e308
    data[0, 1] = -1e308  # forward differences along direction 0 overflow
    path = tmp_path / "huge.json"
    Cochain(box, data).save(path)
    result = runner.invoke(main, ["dk-check", "--input", str(path)])
    assert result.exit_code == 1
    doc = _strict_json(result.stdout)
    assert not (_row(doc, "operator_residual")["passed"]
                and _row(doc, "stencil_residual")["passed"])


def test_planewave_scan_file(runner, tmp_path):
    scan = [{"mass": 1.0, "p": list(np.array([np.sqrt(1.25), 0.5, 0.0, 0.0]))},
            {"mass": 1.0, "p": [-np.sqrt(2.0), 1.0, 0.0, 0.0]}]
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(scan))
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3",
                                  "--scan", str(path)])
    assert result.exit_code == 0, result.output
    doc = _report(result)
    assert {tuple(r["test"].split("/")[:2]) for r in _planewave_rows(doc)} == {
        (p, kind) for p in ("p0", "p1") for kind in ("plus", "minus")}
    assert doc["summary"]["failed"] == 0


@pytest.mark.parametrize("option, value", [("mass", "5"), ("p", "9,9,9"), ("p0", "3")])
def test_momentum_options_rejected_with_scan(runner, tmp_path, option, value):
    """The --scan file fixes every momentum, so an option that would set one
    is a usage error."""
    path = tmp_path / "scan.json"
    path.write_text(json.dumps([{"mass": 1.0, "p": [np.sqrt(1.25), 0.5, 0.0, 0.0]}]))
    args = ["planewave", "--extents", "3,3,3,3", "--scan", str(path)]
    result = runner.invoke(main, [*args, f"--{option}", value])
    assert result.exit_code == 2, result.output
    assert f"--{option} has no effect with --scan" in result.output
    # the file's momenta get rows of both kinds
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert {r["kind"] for r in _planewave_rows(_report(result))} == {"plus", "minus"}


@pytest.mark.parametrize("rel", [0.0, float("nan")])
def test_off_shell_control_fails_when_it_does_not_discriminate(runner, monkeypatch,
                                                               rel):
    def no_scale(omega, slots):
        # rel is max_abs / scale, which an infinite scale makes 0.0 and a NaN
        # scale NaN
        return math.inf if rel == 0.0 else math.nan

    monkeypatch.setattr(ddirac.cli, "input_scale", no_scale)
    result = runner.invoke(main, ["planewave", "--extents", "4,4,4,4",
                                  "--p", "0.3,0,0", "--p0", "2.0"])
    assert result.exit_code == 1, result.output
    doc = _report(result)
    for kind in ("plus", "minus"):
        entry = _row(doc, f"p0/{kind}/off_shell_control")
        # the report writes a NaN as null
        assert not entry["passed"] and entry["operator"] == (0.0 if rel == 0.0 else None)
    assert doc["summary"]["failed"] == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_csv_writes_non_finite_values_as_empty_cells(runner):
    """As the JSON report writes them as null."""
    result = runner.invoke(main, ["planewave", "--extents", "200,2,2,2",
                                  "--p", "100,0,0", "--format", "csv"])
    assert result.exit_code == 1
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert not {"nan", "inf", "-inf"} & {cell.lower() for row in rows for cell in row}
    amplitudes = [r for r in csv.DictReader(io.StringIO(result.stdout))
                  if "/amplitude_" in r["test"]]
    assert len(amplitudes) == 8
    assert all(r["operator"] == "" for r in amplitudes)


@pytest.mark.parametrize("command", VERDICT_ARGS)
@pytest.mark.parametrize("extents", ["1,3,3,3", "3,3,1,3"])
def test_unit_extent_is_usage_error(runner, command, extents):
    """Every residual is judged on the depth-1 interior, which a unit extent
    leaves empty: a check there would pass on no points."""
    result = runner.invoke(main, [command, "--extents", extents])
    assert result.exit_code == 2, result.output
    assert "'--extents'" in result.output and "at least 2" in result.output


def test_malformed_extents_is_usage_error(runner):
    result = runner.invoke(main, ["verify-calculus", "--extents", "0,4,4,4"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify-calculus", "--extents", "4,4,4"])
    assert result.exit_code == 2


def test_malformed_momentum_is_usage_error(runner):
    result = runner.invoke(main, ["planewave", "--p", "1,2"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, option", [
    (["--p0", "nan"], "'--p0'"),
    (["--p0", "inf"], "'--p0'"),
    (["--p", "nan,0,0"], "'--p'"),
    (["--p", "0,inf,0", "--p0", "2"], "'--p'"),
    (["--p", "1e200,0,0"], "'--p'"),  # p0 from the shell overflows
])
def test_non_finite_momentum_is_usage_error(runner, args, option):
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3", *args])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert option in result.output
    assert "momentum components must be finite" in result.output


def test_singular_off_shell_control_is_a_failing_row(runner):
    """With m and p0 both ~0 neither amplitude half can be completed, so the
    control cannot run: its row fails, without a traceback."""
    result = runner.invoke(main, ["planewave", "--extents", "2,2,2,2", "--mass", "1e-13",
                                  "--p", "0,0,0", "--p0", "0"])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    doc = _report(result)
    rows = _planewave_rows(doc)
    assert [r["test"] for r in rows] == ["p0/minus/off_shell_control",
                                         "p0/plus/off_shell_control"]
    for entry in rows:
        assert not entry["on_shell"] and not entry["passed"]
        assert entry["operator"] is None and entry["amplitude"] is None
    assert doc["summary"]["failed"] == 2


def test_singular_scan_entry_keeps_the_other_momenta(runner, tmp_path):
    path = tmp_path / "scan.json"
    path.write_text('[{"mass": 1e-13, "p": [0, 0, 0, 0]},'
                    ' {"mass": 1.0, "p": [1.25, 0.75, 0.0, 0.0]}]')
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3", "--scan",
                                  str(path)])
    assert result.exit_code == 1, result.output
    doc = _report(result)
    for kind in ("plus", "minus"):
        control = _row(doc, f"p0/{kind}/off_shell_control")
        assert not control["passed"] and control["operator"] is None
    others = [r for r in doc["results"] if r["test"].startswith("p1/")]
    assert len(others) == 10 and all(r["passed"] for r in others)
    # 10 rows for p1, and the 8 commutation rows
    assert doc["summary"] == {"passed": 18, "failed": 2}


def test_near_massless_rest_momentum_gets_a_passing_off_shell_control(runner, tmp_path):
    path = tmp_path / "scan.json"
    path.write_text('[{"mass": 1e-6, "p": [0, 0, 0, 0]}]')
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3", "--scan",
                                  str(path)])
    assert result.exit_code == 0, result.output
    rows = _planewave_rows(_report(result))
    assert [r["test"] for r in rows] == ["p0/minus/off_shell_control",
                                         "p0/plus/off_shell_control"]
    assert all(r["passed"] and not r["on_shell"] for r in rows)


def test_report_written_to_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify-clifford", "--extents", "2,2,2,2",
                                  "--trials", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout == ""
    assert f"report written to {out}" in result.stderr
    doc = json.loads(out.read_text())
    assert doc["command"] == "verify-clifford"
    assert doc["schema_version"] == 3


def test_csv_format(runner):
    result = runner.invoke(main, ["verify-clifford", "--extents", "2,2,2,2",
                                  "--trials", "1", "--format", "csv"])
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if "," in l]
    assert lines[0].startswith("passed") or "suite" in lines[0]


def test_planewave_runs_the_commutation_suite(runner):
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3", "--seed", "3"])
    assert result.exit_code == 0
    doc = _report(result)
    rows = [r for r in doc["results"] if r["suite"] == "commutation"]
    assert len(rows) == 8 and {r["test"] for r in rows} == COMMUTATION_TESTS
    assert all(r["passed"] for r in rows)
    assert set(rows[0]) == {"suite", "test", "passed"}


def test_seed_reaches_the_commutation_checks(runner, monkeypatch):
    """--seed has an effect: it seeds the amplitude-half draws, and the rows
    carry what the checks return for that seed."""
    seed = 11
    seeds = []
    checks = ddirac.cli.commutation_checks

    def spy(rng=None):
        seeds.append(rng)
        return checks(rng)

    monkeypatch.setattr(ddirac.cli, "commutation_checks", spy)
    result = runner.invoke(main, ["planewave", "--extents", "2,2,2,2",
                                  "--seed", str(seed)])
    assert result.exit_code == 0, result.output
    assert seeds == [seed]
    doc = _report(result)
    assert doc["config"]["seed"] == seed
    assert {r["test"]: r["passed"] for r in doc["results"]
            if r["suite"] == "commutation"} == checks(seed)


def _nan_form(form):
    return form.like(np.full_like(form.data, np.nan))


def test_verify_calculus_nan_fails(runner, monkeypatch):
    """max(0.0, nan) is 0.0: a NaN worst value must not fold away."""
    monkeypatch.setattr(ddirac.cli, "d_c", _nan_form)
    result = runner.invoke(main, ["verify-calculus", "--extents", "2,2,2,2",
                                  "--trials", "1"])
    assert result.exit_code == 1, result.output
    entry = _row(_report(result), "nilpotency_dc")
    assert not entry["passed"] and entry["rel"] is None


def test_verify_clifford_nan_fails(runner, monkeypatch):
    monkeypatch.setattr(ddirac.cli, "dirac_clifford", _nan_form)
    result = runner.invoke(main, ["verify-clifford", "--extents", "2,2,2,2",
                                  "--trials", "2"])
    assert result.exit_code == 1, result.output
    entry = _row(_report(result), "first_order_operator_equivalence")
    assert not entry["passed"] and entry["rel"] is None


def test_planewave_fails_on_stencil_residual(runner, monkeypatch):
    stencil = ddirac.cli.hestenes_residual_stencil

    def off_by_one(omega, m):
        # a stand-in with the residual's attributes, since rel = max_abs /
        # scale has no finite scale giving 1.0 on a zero max_abs
        res = stencil(omega, m)
        return types.SimpleNamespace(residual=res.residual, slots=res.slots,
                                     max_abs=res.max_abs, rel=lambda scale: 1.0,
                                     region=res.region)

    monkeypatch.setattr(ddirac.cli, "hestenes_residual_stencil", off_by_one)
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3"])
    assert result.exit_code == 1, result.output
    doc = _report(result)
    assert doc["summary"]["failed"] == 8
    amplitudes = _amplitude_rows(doc)
    assert len(amplitudes) == 8
    assert all(r["stencil"] == 1.0 and not r["passed"] for r in amplitudes)


def test_planewave_fails_when_the_routes_disagree(runner, monkeypatch):
    """Each route's residual stays below 1e-10, but the two residual fields
    differ by 1e-12 everywhere: the cross-check fails every amplitude row."""
    stencil = ddirac.cli.hestenes_residual_stencil

    def shifted(omega, m):
        res = stencil(omega, m)
        return dataclasses.replace(
            res, residual=res.residual.like(res.residual.data + 1e-12))

    monkeypatch.setattr(ddirac.cli, "hestenes_residual_stencil", shifted)
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3"])
    assert result.exit_code == 1, result.output
    amplitudes = _amplitude_rows(_report(result))
    assert len(amplitudes) == 8
    for r in amplitudes:
        assert not r["passed"] and r["cross"] > 1e-13
        assert r["operator"] <= 1e-10 and r["stencil"] <= 1e-10


@pytest.mark.parametrize("command", ["dk-check", "hestenes-check", "planewave"])
def test_csv_report_has_header_and_rows(runner, command):
    result = runner.invoke(main, [command, "--extents", "3,3,3,3", "--format", "csv"])
    assert result.exit_code == 0, result.output
    table = list(csv.DictReader(io.StringIO(result.stdout)))
    # planewave: per kind, four amplitudes and the basis rank of one on-shell
    # momentum; and the eight commutation rows
    assert len(table) == (18 if command == "planewave" else 3)
    assert all(r["suite"] and r["test"] and r["passed"] == "True" for r in table)


@pytest.mark.parametrize("command", ["dk-check", "hestenes-check",
                                     "verify-calculus", "verify-clifford", "planewave"])
def test_tol_rel_rejected_where_it_has_no_effect(runner, command):
    """Every pass threshold is a fixed tolerance, which no option loosens."""
    result = runner.invoke(main, [command, "--extents", "3,3,3,3",
                                  "--tol-rel", "1e-3"])
    assert result.exit_code == 2
    assert "--tol-rel" in result.output
    assert runner.invoke(main, [command, "--extents", "3,3,3,3"]).exit_code == 0


def test_kind_rejected_since_planewave_checks_both(runner):
    args = ["planewave", "--extents", "3,3,3,3"]
    result = runner.invoke(main, [*args, "--kind", "plus"])
    assert result.exit_code == 2
    assert "--kind" in result.output
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert {r["kind"] for r in _planewave_rows(_report(result))} == {"plus", "minus"}
    assert "kind" not in _report(result)["config"]


@pytest.mark.parametrize("command", VERDICT_ARGS)
def test_policy_rejected_where_it_has_no_effect(runner, command):
    """Every residual is judged on the depth-1 interior, so no command takes
    a boundary policy, and setting one is a usage error."""
    args = [command, *VERDICT_ARGS[command]]
    result = runner.invoke(main, [*args, "--policy", "zeroextend"])
    assert result.exit_code == 2
    assert "--policy" in result.output
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "policy" not in _report(result)["config"]


#: Every command and the options it takes.  A new option changes this and the
#: options table in the README together.
OPTION_SURFACE = {
    "verify-calculus": ["extents", "format", "out", "seed", "trials"],
    "verify-clifford": ["extents", "format", "out", "seed", "trials"],
    "dk-check": ["extents", "format", "input", "mass", "out", "seed"],
    "hestenes-check": ["extents", "format", "input", "mass", "out", "seed"],
    "planewave": ["extents", "format", "mass", "out", "p", "p0", "scan", "seed"],
}


def test_option_surface(runner):
    assert {name: sorted(p.name for p in command.params)
            for name, command in main.commands.items()} == OPTION_SURFACE
    assert sum(map(len, OPTION_SURFACE.values())) == 30
    result = runner.invoke(main, ["table", "--dump"])
    assert result.exit_code == 2
    assert "No such command 'table'" in result.output
    # its checks are the commutation suite of `planewave`
    result = runner.invoke(main, ["commutation", "--seed", "3"])
    assert result.exit_code == 2
    assert "No such command 'commutation'" in result.output


#: What each `_bad_input` case does wrong, as the usage error says it.
BAD_INPUT_REASONS = {
    "float_count": "payload ends after 880 of 896 bytes (7 slots × 16 floats)",
    "schema_version": "schema_version must be 4, got 2",
    "schema_version_3": "schema_version must be 4, got 3",
    "no_extents": "malformed cochain document: KeyError('extents')",
    "no_components": "malformed cochain document: KeyError('slots')",
    "no_form": "malformed cochain document: KeyError('scalar_kind')",
    "non_finite": "component '': non-finite values",
    "complex_kind": "Hestenes input must be a real-kind cochain",
    "odd_degree": "Hestenes input must have even-degree components only",
    "unit_extent": "every extent must be at least 2, got [2, 2, 1, 2]",
}


def _bad_input(tmp_path, rng, case):
    """Write a cochain file that `case` makes invalid; return its path."""
    kind = "complex" if case == "complex_kind" else "real"
    box = LatticeBox((2, 2, 1, 2) if case == "unit_extent" else (2, 2, 2, 2))
    path = tmp_path / f"{case}.json"
    random_cochain(box, rng, scalar_kind=kind, degrees={0, 2}).save(path)
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    slots = np.frombuffer(payload, "<f8").reshape(len(header["slots"]), -1)
    if case == "float_count":
        payload = payload[:-16]  # two floats short
    elif case in ("schema_version", "schema_version_3"):
        # a file of an earlier version, one line of JSON: version 2 held each
        # slot as a list of decimal floats, version 3 as the hex digits of its bytes
        old = 2 if case == "schema_version" else 3
        components = {}
        for name, values in zip(header["slots"], slots):
            components.setdefault(str(len(name)), {})[name] = \
                values.tolist() if old == 2 else values.tobytes().hex()
        path.write_text(json.dumps({"schema_version": old, "extents": header["extents"],
                                    "scalar_kind": kind, "tilde": False,
                                    "components": components}))
        return path
    elif case == "no_extents":
        del header["extents"]
    elif case == "no_components":
        del header["slots"]
    elif case == "no_form":  # the keys that once had defaults: a zero form
        header = {"schema_version": 4, "extents": [2, 2, 2, 2]}
    elif case == "non_finite":
        # the first float's bytes are those of a NaN
        payload = bytes.fromhex("000000000000f87f") + payload[8:]
    elif case == "odd_degree":
        header["slots"].append("0")
        payload += np.ones(16, "<f8").tobytes()  # 1.0 at every point
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return path


@pytest.mark.parametrize("command, case", [
    (command, case)
    for command in ("dk-check", "hestenes-check")
    for case in ("float_count", "schema_version", "schema_version_3", "no_extents",
                 "no_components", "no_form", "non_finite", "unit_extent")
] + [("hestenes-check", "complex_kind"), ("hestenes-check", "odd_degree")])
def test_bad_input_file_is_usage_error_naming_it(runner, tmp_path, rng, command,
                                                 case):
    path = _bad_input(tmp_path, rng, case)
    result = runner.invoke(main, [command, "--input", str(path)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert str(path) in result.output and "--input" in result.output
    assert BAD_INPUT_REASONS[case] in result.output


@pytest.mark.parametrize("command", ["dk-check", "hestenes-check"])
@pytest.mark.parametrize("option", ["seed", "extents"])
def test_seed_and_extents_rejected_with_input(runner, tmp_path, rng, command, option):
    w = random_cochain(LatticeBox((2, 2, 2, 2)), rng, scalar_kind="real",
                       degrees={0, 2, 4})
    path = tmp_path / "even.json"
    w.save(path)
    value = {"seed": "3", "extents": "2,2,2,2"}[option]
    result = runner.invoke(main, [command, "--input", str(path), f"--{option}", value])
    assert result.exit_code == 2, result.output
    assert f"--{option}" in result.output
    assert runner.invoke(main, [command, "--input", str(path)]).exit_code == 0
    # without --input both options are accepted
    result = runner.invoke(main, [command, f"--{option}", value])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command", ["dk-check", "hestenes-check", "planewave"])
@pytest.mark.parametrize("mass", ["0", "-1", "nan", "inf"])
def test_mass_not_finite_and_positive_is_usage_error(runner, command, mass):
    result = runner.invoke(main, [command, "--extents", "3,3,3,3", "--mass", mass])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "--mass" in result.output


@pytest.mark.parametrize("command, option, value", [
    (command, "trials", value) for command in ("verify-calculus", "verify-clifford")
    for value in ("0", "-3")
] + [(command, "seed", "-1") for command in VERDICT_ARGS])
def test_trials_and_seed_out_of_range_are_usage_errors(runner, command, option, value):
    """No trials would pass rows computed from nothing, and numpy rejects a
    negative seed."""
    result = runner.invoke(main, [command, "--extents", "2,2,2,2", f"--{option}", value])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"'--{option}'" in result.output


def _count_random_cochain(monkeypatch, before=None):
    """Count the CLI's random forms; call `before` ahead of each."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        if before:
            before()
        return random_cochain(*args, **kwargs)

    monkeypatch.setattr(ddirac.cli, "random_cochain", counted)
    return calls


def test_unwritable_out_is_usage_error_naming_it(runner, tmp_path, monkeypatch):
    """An --out that cannot be written fails when the options are parsed,
    before any check runs: in a missing directory, below a file, or empty."""
    calls = _count_random_cochain(monkeypatch)
    (tmp_path / "file").write_text("not a directory")
    for out in (tmp_path / "missing" / "report.json", tmp_path / "file" / "report.json",
                ""):
        result = runner.invoke(main, ["verify-clifford", "--extents", "2,2,2,2",
                                      "--trials", "1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert str(out) in result.output and "'--out'" in result.output
        assert "[PASS]" not in result.stderr
    assert calls == []


def test_out_that_goes_away_during_the_run_is_usage_error(runner, tmp_path,
                                                          monkeypatch):
    """A directory removed after the options were parsed still ends the run
    with a usage error naming --out, and with no verdict."""
    folder = tmp_path / "reports"
    folder.mkdir()
    out = folder / "report.json"
    calls = _count_random_cochain(monkeypatch, before=lambda: folder.exists()
                                  and folder.rmdir())
    result = runner.invoke(main, ["verify-clifford", "--extents", "2,2,2,2",
                                  "--trials", "1", "--out", str(out)])
    assert calls and not folder.exists()
    assert result.exit_code == 2, result.output
    assert str(out) in result.output and "'--out'" in result.output
    assert "[PASS]" not in result.stderr


@pytest.mark.parametrize("command, variable, value", [
    ("planewave", "DDIRAC_PLANEWAVE_SEED", "3"),
    ("dk-check", "DDIRAC_DK_CHECK_FORMAT", "csv"),
    ("planewave", "DDIRAC_PLANEWAVE_KIND", "plus"),
])
def test_environment_does_not_configure_a_run(runner, command, variable, value):
    """Only the command line configures a run."""
    args = [command, "--extents", "3,3,3,3"]
    plain = runner.invoke(main, args)
    with_env = runner.invoke(main, args, env={variable: value})
    assert plain.exit_code == with_env.exit_code == 0, with_env.output
    without_timestamp = re.compile(r'"timestamp": "[^"]*"')
    assert without_timestamp.sub("", with_env.stdout) == \
        without_timestamp.sub("", plain.stdout)


BAD_SCANS = {
    "no_p": '[{"mass": 1.0}]',
    "no_mass": '[{"p": [1.5, 0.5, 0.0, 0.0]}]',
    "not_json": "not json",
    "two_components": '[{"mass": 1.0, "p": [1.0, 0.0]}]',
    "negative_mass": '[{"mass": -1, "p": [1.5, 0.5, 0.0, 0.0]}]',
    "not_a_list": '{"mass": 1.0, "p": [1.5, 0.5, 0.0, 0.0]}',
    "entry_not_object": "[[1.0, 1.5, 0.5, 0.0, 0.0]]",
    "empty": "[]",
    "non_finite_p": '[{"mass": 1.0, "p": [NaN, 0.5, 0.0, 0.0]}]',
    "bool_mass": '[{"mass": true, "p": [1.5, 0.5, 0.0, 0.0]}]',
    "bool_p": '[{"mass": 1.0, "p": [true, 0, 0, 0]}]',
    "string_p": '[{"mass": 1.0, "p": ["1.5", 0.5, 0.0, 0.0]}]',
    "huge_int_p": '[{"mass": 1.0, "p": [1' + "0" * 400 + ', 0, 0, 0]}]',
}


@pytest.mark.parametrize("case", BAD_SCANS)
def test_bad_scan_file_is_usage_error_naming_it(runner, tmp_path, case):
    path = tmp_path / "scan.json"
    path.write_text(BAD_SCANS[case])
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3",
                                  "--scan", str(path)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert str(path) in result.output and "--scan" in result.output
