"""Names, units and bounds of every benchmark metric, and the BENCHMARK.json they form.

This module is the single source of the metric list: ``run.py`` emits exactly
these names, ``selftest.py`` checks that it does, and running this file
rewrites ``BENCHMARK.json`` at the repository root from it::

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 30

WORKLOAD_WHY = {
    "ground-w2": "ladder row W2 (dim 81 920): Lanczos solve of the two lowest levels dominates",
    "sector-w3": "ladder row W3 (dim 393 216): CSR assembly and hermiticity check dominate; charge-4 sector solve",
    "kappa-scan-dense": "dim 1 536, kappa grid 0, 0.5, 1 on one assembly: dense route of the solver dominates",
    "verify-w1": "ladder row W1 (dim 4 096): inequality sampling, field operators and ladder operators dominate",
}

# name -> (unit, bound as a share of the parent's median).  On a shared 2-core
# host the quartile spread of the memory-bound workloads (ground-w2, sector-w3)
# over ten seeds is about 0.14, so the time bounds sit near the 0.25 cap;
# set-up time gets the largest bound, peak RSS spreads under 0.01.
END_TO_END = {
    "time_to_solution_s": ("s", 0.24),
    "setup_s": ("s", 0.25),
    "solve_s": ("s", 0.24),
    "peak_rss_mb": ("MB", 0.1),
}

# name -> (unit, better); times are self times of the traced spans
PER_LAYER = {
    "lattice.s": ("s", "lower"),
    "lattice.points": ("count", "higher"),
    "spinor.s": ("s", "lower"),
    "fock.basis_s": ("s", "lower"),
    "fock.dim": ("count", "higher"),
    "fock.free_s": ("s", "lower"),
    "fock.ladder_s": ("s", "lower"),
    "fock.ladder_calls": ("count", "lower"),
    "hamiltonian.build_s": ("s", "lower"),
    "hamiltonian.terms_s": ("s", "lower"),
    "hamiltonian.terms": ("count", "lower"),
    "hamiltonian.assemble_s": ("s", "lower"),
    "hamiltonian.hermiticity_s": ("s", "lower"),
    "hamiltonian.reassemble_s": ("s", "lower"),
    "hamiltonian.field_ops_s": ("s", "lower"),
    "hamiltonian.nnz": ("count", "lower"),
    "hamiltonian.operator_mb": ("MB-computed", "lower"),
    "solver.lanczos_s": ("s", "lower"),
    "solver.dense_s": ("s", "lower"),
    "solver.lanczos_solves": ("count", "lower"),
    "solver.dense_solves": ("count", "lower"),
    "solver.matvecs": ("count", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.matvec_ms": ("ms", "lower"),
    "solver.matvec_share": ("ratio", "higher"),
    "solver.sector_s": ("s", "lower"),
    "solver.sector_dim": ("count", "higher"),
    "bounds.constants_s": ("s", "lower"),
    "bounds.verify_s": ("s", "lower"),
    "bounds.checks": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
