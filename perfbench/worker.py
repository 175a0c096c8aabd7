"""One iteration of one workload, in a fresh process; prints one JSON line.

``run.py`` starts this script with the BLAS/OpenMP pools pinned to one
thread through the environment.  The timed region runs from the call into
``build_model`` to the workload's result; checks, the matrix-vector probe
and the environment record come after it.  With ``--trace 1`` the layers are
wrapped by ``spans.Tracer`` and the per-layer metrics are returned as well.

    python3 perfbench/worker.py --workload verify-w1 --seed 1 --iteration 0 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.util
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBE_MATVECS = 50


def import_program():
    """Import yukawa_ed from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "yukawa_ed" / "__init__.py").is_file():
        raise SystemExit(f"worker: no yukawa_ed package under {SRC}")
    sys.path.insert(0, str(SRC))
    import yukawa_ed

    if Path(yukawa_ed.__file__).resolve().parent != (SRC / "yukawa_ed").resolve():
        raise SystemExit(f"worker: imported yukawa_ed from {yukawa_ed.__file__}, not {SRC}")
    return yukawa_ed


def _call_first(lib, names, restype):
    """Call the first of ``names`` that ``lib`` exports, or return None."""
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def _blas_pools() -> dict:
    """Pool size and build string read back from each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    pools = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        prefixes = ("scipy_openblas", "openblas")
        threads = _call_first(
            lib, [f"{p}_get_num_threads{s}" for p in prefixes for s in ("64_", "")], ctypes.c_int
        )
        config = _call_first(
            lib, [f"{p}_get_config{s}" for p in prefixes for s in ("64_", "")], ctypes.c_char_p
        )
        pools[Path(path).name] = {"threads": threads, "config": config and config.decode()}
    return pools


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pools": _blas_pools(),
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
        "pinned_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "seed": seed,
    }


def iteration_seed(seed: int, iteration: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


def _matvec_ms(matrix, seed: int) -> float:
    """Milliseconds per ``matrix @ x`` over a fixed count of complex vectors."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(matrix.shape[0]) + 1j * rng.standard_normal(matrix.shape[0])
    matrix @ x
    start = time.perf_counter()
    for _ in range(PROBE_MATVECS):
        matrix @ x
    return (time.perf_counter() - start) * 1e3 / PROBE_MATVECS


def _operator_mb(matrix) -> float:
    """Bytes of the CSR arrays, computed from their sizes, in MB."""
    return (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes) / 1e6


def layer_metrics(tracer, matrix, probe_matrix, seed: int) -> dict:
    self_s = tracer.self_times()
    timed = {
        "lattice.s": "lattice",
        "spinor.s": "spinor",
        "fock.basis_s": "fock.basis",
        "fock.free_s": "fock.free",
        "fock.ladder_s": "fock.ladder",
        "hamiltonian.build_s": "hamiltonian.build",
        "hamiltonian.terms_s": "hamiltonian.terms",
        "hamiltonian.assemble_s": "hamiltonian.assemble",
        "hamiltonian.hermiticity_s": "hamiltonian.hermiticity",
        "hamiltonian.reassemble_s": "hamiltonian.reassemble",
        "hamiltonian.field_ops_s": "hamiltonian.field_ops",
        "solver.lanczos_s": "solver.lanczos",
        "solver.dense_s": "solver.dense",
        "solver.sector_s": "solver.sector",
        "bounds.constants_s": "bounds.constants",
        "bounds.verify_s": "bounds.verify",
    }
    calls = {
        "fock.ladder_calls": "fock.ladder",
        "solver.lanczos_solves": "solver.lanczos",
        "solver.dense_solves": "solver.dense",
    }
    hooked = {
        "lattice.points": "lattice",
        "fock.dim": "fock.basis",
        "hamiltonian.terms": "hamiltonian.terms",
        "solver.matvecs": "solver.lanczos",
        "solver.iterations": "solver.lanczos",
        "solver.sector_dim": "solver.sector",
        "bounds.checks": "bounds.verify",
    }
    out = {}
    for metric, span in timed.items():
        if span in tracer.layers:
            out[metric] = self_s.get(span, 0.0)
    for metric, span in calls.items():
        if span in tracer.layers:
            out[metric] = tracer.calls[span]
    for metric, span in hooked.items():
        if span in tracer.layers:
            out[metric] = tracer.counts[metric]
    out["hamiltonian.nnz"] = int(matrix.nnz)
    out["hamiltonian.operator_mb"] = _operator_mb(matrix)
    out["solver.matvec_ms"] = _matvec_ms(probe_matrix, seed)
    if "solver.lanczos_s" in out and "solver.matvecs" in out:
        lanczos_ms = out["solver.lanczos_s"] * 1e3
        share = out["solver.matvecs"] * out["solver.matvec_ms"] / lanczos_ms if lanczos_ms else 0.0
        out["solver.matvec_share"] = share
    out["trace.unattributed_s"] = self_s["workload"]
    return out


def execute(workload, seed: int, trace: bool, reference: dict, solve: bool = True) -> dict:
    """Run one iteration; the reference energies are passed in so they can be altered.

    With ``solve`` false only ``build_model`` runs: a set-up sample with no
    output to check.
    """
    from spans import Tracer
    from yukawa_ed import hamiltonian
    from yukawa_ed.errors import AssemblyError, CapacityError, ConvergenceError

    tracer = Tracer(run_id=f"{workload.name}/{seed}") if trace else None
    installed = tracer.install() if tracer else contextlib.nullcontext()
    root = tracer.span("workload") if tracer else contextlib.nullcontext()
    sample = {"workload": workload.name, "seed": seed, "trace": trace}
    try:
        with installed, root:
            t0 = time.perf_counter()
            model = hamiltonian.build_model(workload.params())
            t1 = time.perf_counter()
            if not solve:
                return dict(sample, setup_s=t1 - t0, checks=[])
            outcome = workload.solve(model, seed)
            t2 = time.perf_counter()
    except (ConvergenceError, CapacityError, AssemblyError) as err:
        sample["checks"] = [(type(err).__name__, False, str(err))]
        return sample
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    sample["setup_s"] = t1 - t0
    sample["solve_s"] = t2 - t1
    sample["time_to_solution_s"] = t2 - t0

    outcome.setdefault("matrix", model.hamiltonian())
    sample["checks"] = workload.checks(workload, outcome, reference)
    if tracer:
        probe = tracer.lanczos_matrix if tracer.lanczos_matrix is not None else outcome["matrix"]
        sample["layers"] = layer_metrics(tracer, outcome["matrix"], probe, seed)
        sample["absent"] = tracer.absent
        sample["spans"] = tracer.records()
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time build_model alone")
    args = parser.parse_args(argv)

    import_program()
    from workloads import lookup, reference

    workload = lookup(args.workload)
    seed = iteration_seed(args.seed, args.iteration)
    sample = execute(workload, seed, bool(args.trace), reference(workload.name), not args.setup_only)
    sample["env"] = environment(seed)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
