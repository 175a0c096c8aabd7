"""Benchmark of the yukawa_ed pipeline, measured from outside the package.

    python3 perfbench/run.py --workload ground-w2 --seed 1 --seconds 30 --trace 0

Each iteration of a workload runs ``worker.py`` in a fresh process with the
BLAS/OpenMP pools pinned to one thread through its environment (the CLI's
``--threads 1`` default).  With ``--trace 0`` iterations repeat, each with
its own seed drawn from ``--seed``, while another one fits in ``--seconds``;
the end-to-end metrics are their medians.  With ``--trace 1`` one untraced
and one traced iteration run on the same seed; the per-layer metrics come
from the traced one, and ``trace.overhead_s`` is the difference of their
times to solution.

Every metric is printed by name with its unit.  The run record (environment,
every sample and check, and the spans of a traced run) is written to
``perfbench/out/``.  The last line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count output checks; a ConvergenceError, CapacityError or AssemblyError in
an iteration counts as a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, WORKLOAD_WHY  # noqa: E402
from workloads import SELFTEST  # noqa: E402

OUT = HERE / "out"
PROGRAM = HERE.parent / "src" / "yukawa_ed" / "__init__.py"
MAX_ITERATIONS = 30
RUN_DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def run_worker(
    workload: str, seed: int, iteration: int, trace: bool, deadline: float, setup_only: bool = False
) -> dict:
    env = dict(os.environ, **{name: "1" for name in PINNED})
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--iteration", str(iteration), "--trace", str(int(trace)),
    ] + (["--setup-only"] if setup_only else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left for another iteration")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"worker for {workload} timed out after {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for {workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker for {workload} printed no result")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> List[dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        return [run_worker(workload, seed, 0, t, deadline) for t in (False, True)]
    # Full iterations while another fits in the run; the time left over goes
    # to set-up-only iterations, so set-up is sampled several times even when
    # one solve takes most of the run.
    start = time.monotonic()
    samples: List[dict] = []
    full: List[float] = []
    setup: List[float] = []
    while len(samples) < MAX_ITERATIONS:
        left = seconds - (time.monotonic() - start)
        setup_only = bool(full) and statistics.median(full) > left
        if setup_only:
            solves = [s["solve_s"] for s in samples if "solve_s" in s]
            guess = statistics.median(full) - statistics.median(solves) if solves else left
            if statistics.median(setup or [guess]) >= left:
                break
        began = time.monotonic()
        samples.append(run_worker(workload, seed, len(samples), False, deadline, setup_only))
        (setup if setup_only else full).append(time.monotonic() - began)
    return samples


def summarize(samples: List[dict], trace: bool) -> dict:
    """The summary line: check counts and the metrics of this mode."""
    checks = [check for sample in samples for check in sample["checks"]]
    failed = sum(1 for _, ok, _ in checks if not ok)
    metrics: Dict[str, dict] = {}
    if trace:
        traced = samples[-1]
        layers = dict(traced.get("layers", {}))
        if "time_to_solution_s" in traced and "time_to_solution_s" in samples[0]:
            layers["trace.overhead_s"] = traced["time_to_solution_s"] - samples[0]["time_to_solution_s"]
        for name, (unit, _) in PER_LAYER.items():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
    elif any("time_to_solution_s" in s for s in samples):
        for name, (unit, _) in END_TO_END.items():
            metrics[name] = {"value": statistics.median(s[name] for s in samples if name in s), "unit": unit}
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(workload: str, samples: List[dict], summary: dict, trace: bool) -> List[str]:
    """Human-readable lines: metrics with units, spread, error rate, environment."""
    lines = [f"workload {workload} ({WORKLOAD_WHY.get(workload, 'self-test')})"]
    for name, metric in summary["metrics"].items():
        line = f"  {name:28s} {_fmt(metric['value'])} {metric['unit']}"
        if not trace:
            values = [s[name] for s in samples if name in s]
            line += f"  median of n={len(values)} (min {_fmt(min(values))}, max {_fmt(max(values))})"
        elif name == "hamiltonian.operator_mb":
            line += "  (computed from CSR array sizes)"
        lines.append(line)
    if trace and "layers" in samples[-1]:
        layers = dict(samples[-1]["layers"])
        unattributed = layers.pop("trace.unattributed_s")
        attributed = sum(v for k, v in layers.items() if PER_LAYER[k][0] == "s")
        lines.append(
            f"  layer self times {_fmt(attributed)} s + unattributed {_fmt(unattributed)} s"
            f" = traced wall {_fmt(attributed + unattributed)} s"
        )
        for name in samples[-1].get("absent", []):
            lines.append(f"  absent: {name} (its metrics are left out)")
    rate = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    lines.append(f"  error_rate {rate:.6g} ({summary['failed']} failed of {summary['attempted']} checks)")
    for sample in samples:
        for name, ok, detail in sample["checks"]:
            if not ok:
                lines.append(f"  FAILED {name} (seed {sample['seed']}): {detail}")
    lines.append(f"  environment {json.dumps(samples[0]['env'])}")
    return lines


def write_record(workload: str, seed: int, trace: bool, samples: List[dict], summary: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record = {"workload": workload, "seed": seed, "trace": trace, "summary": summary, "samples": samples}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_WHY, SELFTEST.name])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"run.py: the program is missing ({PROGRAM} not found)", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        samples = collect(args.workload, args.seed, args.seconds, trace)
    except BenchmarkError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    summary = summarize(samples, trace)
    for line in report(args.workload, samples, summary, trace):
        print(line)
    record = write_record(args.workload, args.seed, trace, samples, summary)
    print(f"  record {record.relative_to(HERE.parent)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
