"""Run one benchmark workload against the code in this checkout.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` measures every end-to-end metric with tracing off.
``--trace 1`` runs the workload twice, untraced then traced, on half the
time each, and reports every per-layer metric: spans the benchmark
records around its calls into the program, replays of the workload's
inputs through each layer, and counters the servers export through
their ``metrics`` op.  Spans are written to ``.perfbench/`` at exit.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed exactness
or no-silent-drop check ends the run with ``correct: false``, no
metrics and exit code 1.  Without ``src/repro`` in the checkout the
command exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run
    against any other copy of the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declaration_errors(declared: dict) -> list[str]:
    """Disagreements between BENCHMARK.json and perfbench.metrics."""
    from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS

    errors = []
    for section, ours in (("end_to_end", END_TO_END),
                          ("per_layer", {n: u for n, (u, _) in PER_LAYER.items()})):
        theirs = {m["name"]: m["unit"] for m in declared[section]}
        if theirs != ours:
            errors.append(f"{section}: BENCHMARK.json {sorted(theirs.items())} "
                          f"!= perfbench.metrics {sorted(ours.items())}")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        errors.append("workloads differ between BENCHMARK.json and perfbench.metrics")
    for name, (_, moves) in PER_LAYER.items():
        if not moves:
            errors.append(f"{name} names no end-to-end metric it should move")
        for metric, workload in moves:
            if metric not in END_TO_END or workload not in WORKLOADS:
                errors.append(f"{name} should move {metric} on {workload}: undeclared")
    return errors


def _measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
             half: bool) -> dict:
    from perfbench.common import BenchmarkFailure, NullTracer, Tracer
    from perfbench.metrics import END_TO_END, PER_LAYER

    module = importlib.import_module(f"perfbench.{workload}")
    if not trace:
        outcome = module.run(seed, seconds, NullTracer(), smoke=smoke,
                             strict=not (smoke or half))
        outcome.finish()
        print(f"inputs fingerprint: {outcome.fingerprint}")
        return {"attempted": outcome.attempted, "failed": outcome.failed,
                "values": dict(outcome.e2e)}

    # The untraced half runs in a fresh process, exactly as --trace 0
    # does, so process-wide figures such as peak RSS compare fairly.
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds / 2), "--trace", "0", "--half"]
    done = subprocess.run(command + (["--smoke"] if smoke else []), capture_output=True,
                          text=True, timeout=170, cwd=ROOT, check=False)
    lines = done.stdout.strip().splitlines()
    base = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not base.get("correct"):
        raise BenchmarkFailure(f"untraced half failed:\n{done.stderr[-2000:]}")
    tracer = Tracer()
    traced = module.run(seed, seconds / 2, tracer, smoke=smoke, strict=False)
    traced.finish()
    print(f"inputs fingerprint: {traced.fingerprint}")
    if f"inputs fingerprint: {traced.fingerprint}" not in lines:
        raise BenchmarkFailure("traced and untraced halves saw different inputs")
    values = traced.replay() if traced.replay is not None else {}
    values.update(traced.layers)
    for name in END_TO_END:
        untraced = base["metrics"][name]["value"]
        values[f"tracing.overhead_pct.{name}"] = (traced.e2e[name] / untraced - 1) * 100
    absent = [name for name in PER_LAYER if name not in values]
    for name in absent:
        values[name] = 0.0
    print(f"absent on {workload} (reported as 0): {', '.join(absent) or 'none'}")
    out = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return {"attempted": base["attempted"] + traced.attempted,
            "failed": base["failed"] + traced.failed, "values": values}


def _run(args: argparse.Namespace) -> int:
    from perfbench.common import BenchmarkFailure
    from perfbench.metrics import END_TO_END, PER_LAYER

    declared = _declared()
    errors = _declaration_errors(declared)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    units = END_TO_END if not args.trace else {n: u for n, (u, _) in PER_LAYER.items()}
    try:
        result = _measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                          args.half)
    except BenchmarkFailure as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    values = result["values"]
    if set(values) != set(units):
        print(f"perfbench: printed metrics {sorted(values)} != declared {sorted(units)}",
              file=sys.stderr)
        return 1
    for name in sorted(values):
        print(f"  {name:48s} {values[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0


def _self_check() -> int:
    """Every workload at smoke size, both modes: printed metrics must be
    exactly the declared ones, with the declared units."""
    from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS

    errors = _declaration_errors(_declared())
    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, {n: u for n, (u, _) in PER_LAYER.items()})):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", "1", "--seconds", "4", "--trace", str(trace), "--smoke"]
            done = subprocess.run(command, capture_output=True, text=True, timeout=170,
                                  cwd=ROOT, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            if done.returncode != 0 or not result.get("correct") or printed != units:
                errors.append(f"{workload} --trace {trace}: exit {done.returncode}, "
                              f"printed {sorted(printed)}\n{done.stderr[-2000:]}")
            else:
                print(f"self-check {workload} --trace {trace}: ok ({len(printed)} metrics)")
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("offline", "cluster_query"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and no p99 sample floor (self-check only)")
    parser.add_argument("--half", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at smoke size and check the declarations")
    args = parser.parse_args()
    _import_program()
    if args.self_check:
        return _self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
