#!/usr/bin/env python3
"""Benchmark of the hquat command line, end to end and per layer.

Load model: one process, one thread, one caller in a closed loop.  Each
operation calls ``hquat.cli.main(argv)`` in-process with ``--format
machine`` and the caller starts the next operation only when it returns.
Only that call is timed; its output is judged against the reference oracles
afterwards (see workloads.py).  Inputs come from ``--seed``; hquat sees
only the generated argv.

    python3 perfbench/run.py --workload check-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run it from the root of a checkout: hquat is imported from ``src/``.
``--trace 0`` runs for ``--seconds`` at reference speed (see
calibration.py), for at least MIN_OPS operations and whole periods of the
workload's stream, and reports the end-to-end metrics with every time
rescaled to the reference speed.  ``--trace 1`` runs a fixed number of
operations four times, alternately untraced and traced, checks that the
outputs are byte-identical and the counts repeat exactly, and reports the
per-layer metrics of the last traced pass, its times also at reference
speed; the spans (as measured) go to ``.perfbench_out/``.  It then runs the
workload's known-defect probes (see workloads.py) once, untimed, and
reports how many still fail.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, at_reference_speed, calibration_unit  # noqa: E402
from harness import call_main  # noqa: E402
from workloads import DEFECT_PROBES, PERIODS, WORKLOADS  # noqa: E402

MIN_OPS = 200  # p95 then has at least 10 samples beyond it
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
# operations of a traced run, fixed so that its counts repeat exactly
TRACE_OPS = {"check-grid": 64, "series-spectral": 310, "tree-sweep": 432}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "ref_err_max": "rel",
    "peak_rss_mb": "MB",
}

# Fixed cases whose traced counts follow from the algorithms; a wrapper that
# misses a binding site breaks one of these equalities.
SELF_CHECKS = (
    (["check", "--expr", "sin(p)*cos(p)", "--point", "0.3", "0", "0.2", "-0.1"],
     {"wirtinger.partials.calls": 2, "functions.phi_components.calls": 16}),
    (["series", "--expr", "exp(p)", "--n", "9", "--samples", "64"],
     {"functions.evaluate.calls": 64, "series.fourier_terms": 64 * 10}),
    (["series", "--expr", "1/(1-p)", "--n", "17", "--samples", "200"],
     {"functions.evaluate.calls": 200, "series.fourier_terms": 200 * 18}),
    (["derive", "--expr", "cos(p)", "--point", "0.5", "0.2", "-0.1", "0.3", "--k", "2"],
     {"functions.evaluate.calls": 2**2}),
    (["derive", "--expr", "exp(p)*p", "--point", "0.1", "0", "0.4", "0", "--k", "4"],
     {"functions.evaluate.calls": 2**4}),
)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """Set-up time of a fresh interpreter that imports hquat.cli and
    generates the workload's first operations: the median over the probes
    at reference speed, the same as measured, and the median import time
    at reference speed."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    scaled, walls, imports = [], [], []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        if i > 0:  # the first probe also compiles bytecode
            report = json.loads(proc.stdout.splitlines()[-1])
            before, after = report["calibration_s"]
            walls.append(wall)
            scaled.append(at_reference_speed(wall, before, after))
            imports.append(at_reference_speed(report["import_s"], before, after))
    return statistics.median(scaled), statistics.median(walls), statistics.median(imports)


def tally(verdicts) -> tuple[Counter, list[float]]:
    failures: Counter = Counter()
    errs = []
    for v in verdicts:
        if v.failure is not None:
            failures[v.failure] += 1
        elif v.err is not None:
            errs.append(v.err)
    return failures, errs


def print_failures(failures: Counter) -> None:
    if not failures:
        return
    print("failed operations by kind:")
    for kind, count in sorted(failures.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {count:6d}  {kind}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    })


def run_timed(cli, workload: str, seed: int, seconds: int) -> None:
    setup_s, setup_raw, _ = measure_setup(workload, seed)
    period = PERIODS[workload]
    raw, calibration, verdicts = [], [], []
    start = time.perf_counter()
    elapsed = 0.0  # at reference speed, so that a run attempts about the same ops in any phase
    for op in WORKLOADS[workload](seed):
        begin = time.perf_counter()
        calibration.append(calibration_unit())
        outcome = call_main(cli, op.argv)
        raw.append(outcome.elapsed)
        verdicts.append(op.judge(outcome))
        elapsed += (time.perf_counter() - begin) * REFERENCE_S / calibration[-1]
        n = len(raw)
        if n >= MIN_OPS and n % period == 0 and elapsed >= seconds:
            break
    calibration.append(calibration_unit())
    wall = time.perf_counter() - start
    failures, errs = tally(verdicts)
    failed = sum(failures.values())
    latencies = [at_reference_speed(t, calibration[i], calibration[i + 1]) for i, t in enumerate(raw)]
    p95 = statistics.quantiles(latencies, n=20)[18]
    metrics = {
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": p95 * 1e3,
        "setup_s": setup_s,
        "ref_err_max": max(errs, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for t in latencies if t > p95)
    speed = REFERENCE_S / statistics.median(calibration)
    print(f"workload {workload}  seed {seed}  closed loop, 1 caller: {n} ops in {wall:.2f} s")
    print(f"latency samples {n}, {beyond} beyond p95; ref_err_max over {len(errs)} judged values")
    print(f"interpreter speed {speed:.3f}x reference; as measured: ops_per_s {n / sum(raw):.6g}, "
          f"op_p50_ms {statistics.median(raw) * 1e3:.6g}, op_p95_ms {statistics.quantiles(raw, n=20)[18] * 1e3:.6g}, "
          f"setup_s {setup_raw:.6g}")
    for name, value in metrics.items():
        print(f"  {name:12s} {value:.6g} {END_TO_END_UNITS[name]}")
    print_failures(failures)
    print(result_line(failed == 0, n, failed, metrics, END_TO_END_UNITS.get))


def self_check(cli, tracer_cls) -> list[str]:
    problems = []
    for argv, expected in SELF_CHECKS:
        tracer = tracer_cls()
        tracer.op = 0
        with tracer.installed():
            outcome = call_main(cli, argv + ["--format", "machine"])
        got = tracer.layer_metrics([1.0])
        if outcome.bucket != "0":
            problems.append(f"self-check {' '.join(argv)}: exit {outcome.bucket}")
        for name, want in expected.items():
            if got[name] != want:
                problems.append(f"self-check {' '.join(argv)}: {name} = {got[name]}, expected {want}")
    return problems


def run_pass(cli, ops, tracer=None):
    """One pass over the ops, traced when a tracer is given; returns the
    outcomes and each op's factor to reference speed."""
    outcomes, calibration = [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for i, op in enumerate(ops):
            calibration.append(calibration_unit())
            if tracer:
                tracer.op = i
            outcome = call_main(cli, op.argv)
            if tracer:
                tracer.exits[outcome.bucket] += 1
            outcomes.append(outcome)
    calibration.append(calibration_unit())
    return outcomes, [at_reference_speed(1.0, calibration[i], calibration[i + 1]) for i in range(len(ops))]


def reference_total(outcomes, factors) -> float:
    return sum(o.elapsed * f for o, f in zip(outcomes, factors))


def run_traced(cli, workload: str, seed: int) -> None:
    from tracer import Tracer

    _, _, import_s = measure_setup(workload, seed)
    problems = self_check(cli, Tracer)
    ops = list(itertools.islice(WORKLOADS[workload](seed), TRACE_OPS[workload]))
    # untraced and traced passes alternate, so that the overhead ratio
    # compares two passes that both follow a warm-up pass
    first, repeat = Tracer(), Tracer()
    passes = [run_pass(cli, ops), run_pass(cli, ops, first), run_pass(cli, ops), run_pass(cli, ops, repeat)]
    plain = passes[0][0]
    for i, op in enumerate(ops):
        if any((o[i].stdout, o[i].code, o[i].raised) != (plain[i].stdout, plain[i].code, plain[i].raised)
               for o, _ in passes):
            problems.append(f"op {i} ({' '.join(op.argv)}): output differs between untraced and traced runs")
    metrics = repeat.layer_metrics(passes[3][1])
    counts = first.layer_metrics(passes[1][1])
    for name, value in metrics.items():
        if layer_unit(name) == "count" and counts[name] != value:
            problems.append(f"count {name} not repeated: {counts[name]} then {value}")
    metrics["setup.import_s"] = import_s
    metrics["trace.overhead_ratio"] = reference_total(*passes[3]) / reference_total(*passes[2])
    failures, _ = tally(op.judge(o) for op, o in zip(ops, plain))
    probes = DEFECT_PROBES[workload]()
    probe_outcomes, _ = run_pass(cli, probes)
    still_failing: Counter = Counter()
    for op, outcome in zip(probes, probe_outcomes):
        still_failing[op.defect] += op.judge(outcome).failure is not None
    metrics["known_defects.failing"] = sum(still_failing.values())
    spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.bin"
    repeat.write(spans_file)
    print(f"workload {workload}  seed {seed}  traced: {len(ops)} ops, {len(repeat.span_start)} spans "
          f"written to {spans_file.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g}")
    print_failures(failures)
    print(f"known-defect probes, untimed: {len(probes)} ops, {metrics['known_defects.failing']} fail")
    for defect in sorted(still_failing):
        probed = sum(op.defect == defect for op in probes)
        print(f"  {still_failing[defect]:4d} of {probed:4d} fail  {defect}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    failed = sum(failures.values())
    print(result_line(not problems and failed == 0, len(ops), failed, metrics, layer_unit))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name == "wirtinger.evals_per_check":
        return "evals/check"
    return "count"


def run_all(seed: int, seconds: int) -> None:
    """Every workload in its own process, then one table."""
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=seconds + 170)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            fail(f"{workload} failed:\n{proc.stderr}")
        rows[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(f"\n{'metric':12s} {'unit':6s}" + "".join(f" {w:>16s}" for w in rows))
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name:12s} {unit:6s}" + "".join(f" {r['metrics'][name]['value']:16.6g}" for r in rows.values()))
    print(f"{'samples':12s} {'ops':6s}" + "".join(f" {r['attempted']:16d}" for r in rows.values()))
    metrics = {f"{w}.{name}": m for w, r in rows.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": metrics,
    }))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (SRC / "hquat" / "cli.py").is_file():
        fail(f"no hquat sources under {SRC}; run from the root of a checkout")
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return
    sys.path.insert(0, str(SRC))
    import hquat.cli as cli

    if args.trace:
        run_traced(cli, args.workload, args.seed)
    else:
        run_timed(cli, args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
