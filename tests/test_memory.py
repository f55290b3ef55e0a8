"""On glibc, importing ddirac keeps freed cochains in the process heap, so a
verdict reuses their pages instead of faulting fresh ones in."""

import json
import os
import subprocess
import sys

import pytest

from ddirac import lattice

#: 4 plane-wave solutions at 12^4 (2.65 MB each), each through both Hestenes
#: routes; prints the minor page faults of one pass in steady state.
FAULT_LOOP = """
import resource
from ddirac.equations import hestenes_residual_operator, hestenes_residual_stencil
from ddirac.lattice import LatticeBox
from ddirac.planewave import Momentum, solution, solution_basis

box = LatticeBox((12, 12, 12, 12))
mom = Momentum.on_shell_from_spatial(1.0, (0.3, -0.2, 0.5))
basis = solution_basis("minus", mom)

def one_pass():
    for amp in basis:
        omega = solution("minus", mom, amp, box)
        hestenes_residual_operator(omega, mom.m)
        hestenes_residual_stencil(omega, mom.m)

for _ in range(3):
    one_pass()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    one_pass()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""

#: Whether ddirac set the thresholds, then three verdicts' reports without
#: their timestamps, one per line.
REPORTS = """
import json
from click.testing import CliRunner
from ddirac import lattice
from ddirac.cli import main

print(lattice._keep_freed_memory())
for command in ("planewave", "dk-check", "hestenes-check"):
    result = CliRunner().invoke(main, [command, "--extents", "6,6,6,6", "--seed", "3"])
    doc = json.loads(result.stdout)
    del doc["timestamp"]
    print(result.exit_code, json.dumps(doc, sort_keys=True))
"""


def _python(script, env):
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_steady_state_verdict_takes_no_page_faults(glibc_env):
    """Without the thresholds each pass faults in ~1,600 fresh pages."""
    assert float(_python(FAULT_LOOP, glibc_env)) <= 64


def test_reports_do_not_depend_on_the_setting(glibc_env):
    on = _python(REPORTS, glibc_env).splitlines()
    off = _python(REPORTS, {**glibc_env, "GLIBC_TUNABLES": "glibc.malloc.check=0"})
    off = off.splitlines()
    assert (on[0], off[0]) == ("True", "False")
    assert on[1:] == off[1:] and len(on) == 4
    assert all(json.loads(line.split(" ", 1)[1])["summary"]["failed"] == 0
               for line in on[1:])


def test_sets_both_thresholds(mallopt_spy, monkeypatch):
    # a tunable outside glibc.malloc leaves malloc to ddirac
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.pthread.rseq=0")
    assert lattice._keep_freed_memory()
    assert mallopt_spy.calls == [(-3, 32 * 2**20), (-1, 256 * 2**20)]


@pytest.mark.parametrize("name, value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TOP_PAD_", "0"),
    ("MALLOC_MMAP_MAX_", "65536"),
    ("GLIBC_TUNABLES", "glibc.pthread.rseq=0:glibc.malloc.trim_threshold=131072"),
])
def test_glibc_variables_opt_out(mallopt_spy, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert not lattice._keep_freed_memory()
    assert mallopt_spy.calls == []


@pytest.mark.parametrize("confstr", ["raises", "empty", "absent"])
def test_no_call_off_glibc(mallopt_spy, monkeypatch, confstr):
    if confstr == "absent":
        monkeypatch.delattr(os, "confstr")
    else:
        def fake(name):
            if confstr == "raises":
                raise ValueError("unrecognized configuration name")
            return None
        monkeypatch.setattr(os, "confstr", fake)
    assert not lattice._keep_freed_memory()
    assert mallopt_spy.calls == []
