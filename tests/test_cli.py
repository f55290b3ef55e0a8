import json

import numpy as np
import pytest
from click.testing import CliRunner

from ddirac.cli import main
from ddirac.lattice import Cochain, LatticeBox, random_cochain


@pytest.fixture
def runner():
    return CliRunner()


def _json_tail(output):
    """The report is the JSON object after the [PASS]/[FAIL] lines."""
    start = output.index("{")
    return json.loads(output[start:])


def test_verify_calculus_passes(runner):
    result = runner.invoke(main, ["verify-calculus", "--extents", "3,3,3,3",
                                  "--trials", "4"])
    assert result.exit_code == 0, result.output
    doc = _json_tail(result.output)
    assert doc["summary"]["failed"] == 0
    assert "[PASS] calculus::nilpotency_dc" in result.output


def test_verify_clifford_passes(runner):
    result = runner.invoke(main, ["verify-clifford", "--extents", "3,3,3,3",
                                  "--trials", "3"])
    assert result.exit_code == 0, result.output
    doc = _json_tail(result.output)
    suites = {r["test"] for r in doc["results"]}
    assert "gamma_matrix_oracle" in suites
    assert "first_order_operator_equivalence" in suites


def test_reports_are_deterministic_up_to_timestamp(runner):
    args = ["verify-calculus", "--extents", "3,3,3,3", "--trials", "2", "--seed", "9"]
    docs = []
    for _ in range(2):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        doc = _json_tail(result.output)
        doc.pop("timestamp")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_dk_check_random_form(runner):
    result = runner.invoke(main, ["dk-check", "--extents", "4,4,4,4", "--mass", "1.5"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["stencil_cross_check"]["passed"]
    assert doc["config"]["mass"] == 1.5
    assert doc["region"] == [3, 3, 3, 3]


def test_hestenes_check_reads_input_file(runner, tmp_path, rng):
    w = random_cochain(LatticeBox((3, 3, 3, 3)), rng, scalar_kind="real",
                       degrees={0, 2, 4})
    path = tmp_path / "even.json"
    w.save(path)
    result = runner.invoke(main, ["hestenes-check", "--extents", "3,3,3,3",
                                  "--input", str(path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["config"]["input"] == str(path)
    assert doc["stencil_cross_check"]["rel"] <= 1e-13


def test_planewave_on_shell(runner):
    result = runner.invoke(main, ["planewave", "--extents", "4,4,4,4",
                                  "--p", "0.3,-0.2,0.5", "--mass", "1.0"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    (entry,) = doc["entries"]
    assert entry["on_shell"]
    assert entry["basis_rank"] == 4
    assert all(r["operator"] <= 1e-10 for r in entry["residuals"])


def test_planewave_off_shell_is_negative_control(runner):
    result = runner.invoke(main, ["planewave", "--extents", "4,4,4,4",
                                  "--p", "0.3,0.0,0.0", "--p0", "2.0"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    (entry,) = doc["entries"]
    assert not entry["on_shell"]
    assert entry["residuals"][0]["operator"] > 1e-3
    assert entry["residuals"][0]["note"] == "expected nonzero residual"


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
    (entry,) = doc["entries"]
    assert entry["on_shell"]
    assert doc["summary"]["failures"] == 4
    assert all(r["operator"] is None for r in entry["residuals"])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_dk_check_overflow_fails_with_strict_json(runner, tmp_path):
    box = LatticeBox((3, 3, 3, 3))
    data = np.zeros((16,) + box.extents)
    data[0] = 1e308
    data[0, 1] = -1e308  # forward differences along direction 0 overflow
    path = tmp_path / "huge.json"
    Cochain(box, data).save(path)
    result = runner.invoke(main, ["dk-check", "--extents", "3,3,3,3",
                                  "--input", str(path)])
    assert result.exit_code == 1
    doc = _strict_json(result.stdout)
    assert not doc["finite"]


def test_planewave_scan_file(runner, tmp_path):
    scan = [{"mass": 1.0, "p": list(np.array([np.sqrt(1.25), 0.5, 0.0, 0.0]))},
            {"mass": 1.0, "p": [-np.sqrt(2.0), 1.0, 0.0, 0.0]}]
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(scan))
    result = runner.invoke(main, ["planewave", "--extents", "3,3,3,3",
                                  "--scan", str(path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["summary"]["momenta"] == 2
    assert doc["summary"]["failures"] == 0


def test_malformed_extents_is_usage_error(runner):
    result = runner.invoke(main, ["verify-calculus", "--extents", "0,4,4,4"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify-calculus", "--extents", "4,4,4"])
    assert result.exit_code == 2


def test_malformed_momentum_is_usage_error(runner):
    result = runner.invoke(main, ["planewave", "--p", "1,2"])
    assert result.exit_code == 2


def test_report_written_to_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify-clifford", "--extents", "2,2,2,2",
                                  "--trials", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["command"] == "verify-clifford"
    assert doc["schema_version"] == 2


def test_csv_format(runner):
    result = runner.invoke(main, ["verify-clifford", "--extents", "2,2,2,2",
                                  "--trials", "1", "--format", "csv"])
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if "," in l]
    assert lines[0].startswith("passed") or "suite" in lines[0]


def test_table_dump(runner):
    result = runner.invoke(main, ["table", "--dump"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "left,right,sign,result"
    assert len(lines) == 257  # header + 16*16 entries
    assert "12,12,-1,x" in lines


def test_commutation_command(runner):
    result = runner.invoke(main, ["commutation", "--seed", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert all(doc.values())


def test_env_var_configures_option(runner):
    result = runner.invoke(main, ["verify-clifford", "--trials", "1"],
                           env={"DDIRAC_VERIFY_CLIFFORD_EXTENTS": "2,2,2,2"})
    assert result.exit_code == 0, result.output
    doc = _json_tail(result.output)
    assert doc["config"]["extents"] == [2, 2, 2, 2]
