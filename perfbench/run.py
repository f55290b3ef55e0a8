"""End-to-end benchmark of ddirac verdicts.

Usage (from the repository root):

    python3 perfbench/run.py --workload planewave-scan --seed 1 --seconds 30 --trace 0

One single-threaded process drives ddirac's public functions as a closed
loop with one client: it makes a verdict's input from the seed, runs and
checks the verdict, and only then makes the next.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced run
that gives the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``src/`` beside this directory and
nowhere else; without it the benchmark exits with an error and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for setup_s (after one that fills the bytecode cache).
SETUP_RUNS = 7
SETUP_CODE = ("import sys, time\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "t = time.perf_counter()\n"
              "import ddirac.cli\n"
              "ddirac.build_table()\n"
              "print(time.perf_counter() - t)\n")
#: The tail percentile needs at least ten verdicts beyond it.
TAIL_BEYOND = 10
MIN_VERDICTS = TAIL_BEYOND + 1
#: Traced verdicts whose counts are reported (inputs fixed by the seed).
COUNT_VERDICTS = 3
#: ddirac subcommands timed once each, as subprocesses, in the traced run.
CLI_COMMANDS = ("planewave", "dk-check", "hestenes-check", "verify-calculus")
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "verdict_p50_s": "s", "verdict_tail_s": "s",
              "sites_per_s": "1/s", "peak_rss_mb": "MB"}


def import_ddirac():
    if not (SRC / "ddirac" / "__init__.py").is_file():
        sys.exit(f"ddirac sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ddirac
    if Path(ddirac.__file__).resolve().parent != (SRC / "ddirac").resolve():
        sys.exit(f"imported ddirac from {ddirac.__file__}, not from {SRC}")
    return ddirac


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def measure_setup() -> float:
    """Median seconds to import ddirac.cli and build the Clifford table in a
    fresh interpreter."""
    times = []
    for i in range(SETUP_RUNS + 1):
        done = _child(["-c", SETUP_CODE, str(SRC)])
        if done.returncode != 0:
            sys.exit(f"setup interpreter failed:\n{done.stderr}")
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


def time_cli(extents, seed: int) -> tuple[dict, int]:
    """Wall seconds of one subprocess per ddirac subcommand, and failures."""
    box = ",".join(str(n) for n in extents)
    prefix = ["-c", "import sys; sys.path.insert(0, sys.argv.pop(1)); "
                "from ddirac.cli import main; main()", str(SRC)]
    out, failed = {}, 0
    for cmd in CLI_COMMANDS:
        args = [cmd, "--extents", box, "--seed", str(seed)]
        if cmd == "verify-calculus":
            args += ["--trials", "1"]
        start = time.perf_counter()
        done = _child(prefix + args)
        out[f"cli.{cmd}.wall_s"] = time.perf_counter() - start
        if done.returncode != 0:
            failed += 1
            print(f"ddirac {' '.join(args)} exited {done.returncode}:\n{done.stderr}",
                  file=sys.stderr)
    return out, failed


def run_verdict(wl, inp) -> tuple[bool, float]:
    failures: list[str] = []
    start = time.perf_counter()
    try:
        wl.verdict(inp, failures)
    except Exception:  # a verdict that raises is a failed verdict; keep measuring
        failures.append(traceback.format_exc())
    elapsed = time.perf_counter() - start
    for msg in failures:
        print(f"{wl.name}: {msg}", file=sys.stderr)
    return not failures, elapsed


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND verdicts
    beyond it, by nearest rank."""
    ordered = sorted(durations)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND above it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def machine_info(np) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu_model": "unknown", "llc_bytes": None}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown")
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        size = max(levels)[1]
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        info["llc_bytes"] = int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        info["blas"] = "unknown"
    return info


def input_info(dd, wl, args) -> dict:
    cochain_bytes = 16 * 16 * wl.sites  # 16 complex128 components per site
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "extents": list(wl.extents), "sites": wl.sites,
            "cochain_bytes_computed": cochain_bytes}
    if hasattr(dd, "backend_name"):
        info["backend"] = dd.backend_name()
    return info


def run_untraced(wl, rng, seconds: float) -> dict:
    durations, failed = [], 0
    start = time.perf_counter()
    i = 1
    while len(durations) < MIN_VERDICTS or time.perf_counter() - start < seconds:
        ok, elapsed = run_verdict(wl, wl.make_input(rng, i))
        durations.append(elapsed)
        failed += not ok
        i += 1
    wall = time.perf_counter() - start
    value, pct = tail(durations)
    return {"durations": durations, "failed": failed, "tail": value, "tail_pct": pct,
            "sites_per_s": wl.sites * len(durations) / wall}


def run_traced(wl, rng, seconds: float) -> dict:
    """Pairs of verdicts on the same input, one traced and one not, in
    alternating order, until `seconds` have passed."""
    from spans import Tracer

    tracer = Tracer()
    for name in tracer.missing:
        print(f"not traced, not found in ddirac: {name}", file=sys.stderr)
    plain, traced, failed = [], [], 0
    start = time.perf_counter()
    i = 1
    while len(traced) < COUNT_VERDICTS or time.perf_counter() - start < seconds:
        inp = wl.make_input(rng, i)
        for with_trace in ((False, True) if i % 2 else (True, False)):
            if with_trace:
                with tracer.verdict():
                    ok, elapsed = run_verdict(wl, inp)
                traced.append(elapsed)
            else:
                ok, elapsed = run_verdict(wl, inp)
                plain.append(elapsed)
            failed += not ok
        i += 1
    return {"tracer": tracer, "plain": plain, "traced": traced, "failed": failed}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds >= 0:
        parser.error("--seconds must be non-negative")

    # one thread: set before numpy is imported, inherited by child interpreters
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    dd = import_ddirac()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    setup_s = None if args.trace else measure_setup()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = WORKLOADS[args.workload](workdir)
        machine = machine_info(np)
        inputs = input_info(dd, wl, args)
        if machine["llc_bytes"]:
            inputs["cochain_over_llc"] = inputs["cochain_bytes_computed"] / machine["llc_bytes"]
        print("machine " + json.dumps(machine, sort_keys=True))
        print("inputs " + json.dumps(inputs, sort_keys=True))

        rng = np.random.default_rng(args.seed)
        warm_ok, _ = run_verdict(wl, wl.make_input(rng, 0))  # fills caches, not timed
        if args.trace:
            result = run_traced(wl, rng, args.seconds)
        else:
            result = run_untraced(wl, rng, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        durations = result["durations"]
        attempted = len(durations) + 1
        failed = result["failed"] + (not warm_ok)
        metrics = {"setup_s": setup_s, "verdict_p50_s": statistics.median(durations),
                   "verdict_tail_s": result["tail"], "sites_per_s": result["sites_per_s"],
                   "peak_rss_mb": peak_rss_mb()}
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {END_TO_END[name]}")
        print(f"verdict_tail_s is p{result['tail_pct']:.1f} of {len(durations)} verdicts")
        print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} verdicts)")
        emit(failed == 0, attempted, failed, metrics, END_TO_END)
        return 0

    from spans import LAYERS, metric_table

    tracer = result["tracer"]
    metrics = tracer.summary(COUNT_VERDICTS)
    units = {name: unit for name, unit, _better in metric_table()}
    base = statistics.median(result["plain"])
    metrics["trace.untraced_p50_s"] = base
    metrics["trace.overhead_s"] = statistics.median(result["traced"]) - base
    units.update({"trace.untraced_p50_s": "s", "trace.overhead_s": "s"})
    cli, cli_failed = time_cli(wl.extents, args.seed)
    metrics.update(cli)
    units.update(dict.fromkeys(cli, "s"))
    for layer in LAYERS:
        share = metrics[f"{layer}.self_s"] / base
        print(f"layer {layer} self {metrics[f'{layer}.self_s']:.6g} s/verdict "
              f"({100 * share:.1f}% of untraced verdict_p50_s)")
    print(f"spans cover {100 * metrics['trace.span_cover_frac']:.1f}% of traced verdict time")
    print(f"tracing overhead {metrics['trace.overhead_s']:.6g} s per verdict on a base of "
          f"{base:.6g} s ({100 * metrics['trace.overhead_s'] / base:.1f}%), "
          f"{len(result['traced'])} traced and {len(result['plain'])} untraced verdicts")
    attempted = len(result["plain"]) + len(result["traced"]) + 1 + len(CLI_COMMANDS)
    failed = result["failed"] + (not warm_ok) + cli_failed
    emit(failed == 0, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
