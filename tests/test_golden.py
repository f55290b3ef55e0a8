"""Golden reports: each command line in ``golden/commands.txt`` must print
the report stored in ``golden/<name>.txt`` and exit with the status stored
there.  The report's ``timestamp`` is the only text left out of the
comparison.

A change that means to alter a report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed rows in CHANGES.md.  The input files (``scan.json``
and two 3^4 cochain files) are written only where they are missing, so a
regeneration leaves them as they are.
"""

import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ddirac.cli import main
from ddirac.lattice import LatticeBox, random_cochain

GOLDEN = Path(__file__).resolve().parent / "golden"

#: The --scan momenta: on shell with either sign of p0, off shell, the two
#: fallbacks where m -/+ p0 = 0 leaves one amplitude half singular, a rest
#: momentum where both halves are singular, and a near-massless one.
SCAN = [
    {"mass": 1.0, "p": [1.25, 0.75, 0.0, 0.0]},
    {"mass": 1.0, "p": [-1.25, 0.0, 0.75, 0.0]},
    {"mass": 1.0, "p": [2.0, 0.3, 0.0, 0.0]},
    {"mass": 1.0, "p": [1.0, 0.3, 0.0, 0.0]},
    {"mass": 1.0, "p": [-1.0, 0.0, 0.0, 0.3]},
    {"mass": 1e-13, "p": [0.0, 0.0, 0.0, 0.0]},
    {"mass": 1e-6, "p": [0.0, 0.0, 0.0, 0.0]},
]


def _write_inputs():
    box = LatticeBox((3, 3, 3, 3))
    forms = {
        "real-3x4.json": dict(scalar_kind="real"),
        "even-3x4.json": dict(scalar_kind="real", degrees={0, 2, 4}),
    }
    for name, kwargs in forms.items():
        if not (GOLDEN / name).exists():
            random_cochain(box, np.random.default_rng(18), **kwargs).save(GOLDEN / name)
    if not (GOLDEN / "scan.json").exists():
        (GOLDEN / "scan.json").write_text(json.dumps(SCAN, indent=1) + "\n")


def _commands() -> dict[str, list[str]]:
    lines = (GOLDEN / "commands.txt").read_text().splitlines()
    cases = [shlex.split(line) for line in lines
             if line.strip() and not line.startswith("#")]
    return {name: args for name, *args in cases}


def _run(args) -> str:
    """The exit status line, then stdout without the report's timestamp."""
    result = CliRunner().invoke(main, args)
    stdout = re.sub(r',\n  "timestamp": "[^"]*"', "", result.stdout)
    return f"exit {result.exit_code}\n{stdout}"


COMMANDS = _commands()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", COMMANDS)
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert _run(COMMANDS[name]) == (GOLDEN / f"{name}.txt").read_text()


def regenerate():
    _write_inputs()
    os.chdir(GOLDEN)
    for name, args in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(_run(args))


if __name__ == "__main__":
    regenerate()
