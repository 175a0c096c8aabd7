"""Command-line entry points: spectrum, scan-kappa, converge, verify.

Configuration is one YAML file; every field has a default except the two
masses and the coupling.  Outputs are JSON (spectrum, converge, verify) or
CSV with a JSON sidecar (scan-kappa), all embedding the fully resolved
configuration and a schema_version for provenance.  --threads N sets every
loaded OpenBLAS pool to N threads for the run.  With --threads 1 (the
default) outputs are byte-for-byte reproducible for a fixed config and seed;
wall-clock timings, with each solve's route and work counts, are only
recorded when explicitly requested, since they would break that
reproducibility.  The timed block also says whether the BLAS thread pools
were actually at the requested size, as read back from the loaded libraries.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import yaml

from .bounds import verify_inequalities
from .errors import (
    CapacityError, ConfigError, ConvergenceError, EvaluationError, ParameterError, as_integer, check_iteration,
    check_seed,
)
from .hamiltonian import ModelParams, build_model
from .solver import DEFAULT_DENSE_CAP, SOLVE_STATS, check_dense_cap, converge_scan, solve_lowest

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "YUKAWA_ED_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_CONVERGENCE = 4


@dataclass
class SolverConfig:
    """Keyword arguments of ``solve_lowest`` and ``converge_scan``, by name."""

    k: int = 2
    tol: float = 1e-10
    max_iter: int = 400
    seed: int = 1234
    dense_cap: int = DEFAULT_DENSE_CAP


@dataclass
class ScanConfig:
    kappa_grid: List[float] = field(default_factory=lambda: [0.0, 0.5, 1.0])
    axis: str = "n_max"
    values: List[float] = field(default_factory=lambda: [1, 2, 3])


@dataclass
class VerifyConfig:
    samples: int = 1000
    field_points: int = 10


@dataclass
class RunConfig:
    params: ModelParams
    solver: SolverConfig
    scan: ScanConfig
    verify: VerifyConfig
    output_path: Optional[str] = None
    record_timings: bool = False
    threads: int = 1

    def resolved(self) -> Dict:
        """Plain-dict snapshot of everything that influenced the run."""
        snapshot = asdict(self)  # each CutoffProfile becomes {"kind", "scale"}
        snapshot["model"] = snapshot.pop("params")
        return snapshot


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"config is not valid YAML: {err}") from err
    return config_from_dict(raw)


def _instance(*types: type) -> Callable:
    """A cast that passes values of ``types`` through unchanged and rejects the rest."""
    def check(value):
        if not isinstance(value, types):
            raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
        return value
    return check


def _optional(cast: Callable) -> Callable:
    return lambda value: None if value is None else cast(value)


def _list(cast: Callable) -> Callable:
    return lambda value: [cast(item) for item in _instance(list)(value)]


def _real(value) -> float:
    """A finite real number, or a numeric string of one, as float; booleans, NaN and ±inf raise."""
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"expected a finite real number, got {value!r}")
    return number


def _number(value):
    """A finite int or float as the YAML gives it, so the resolved config echoes it; else ``_real``."""
    number = _real(value)
    return value if type(value) in (int, float) else number


def _points(value) -> Tuple[Tuple[int, ...], ...]:
    return tuple(map(tuple, _list(_list(as_integer))(value)))


def _same(**casts: Callable) -> Dict[str, Tuple[str, Callable]]:
    """Keys that are the names of their dataclass fields."""
    return {key: (key, cast) for key, cast in casts.items()}


def _cutoff(name: str) -> Tuple[str, Callable]:
    """(field, cast) of one cutoff section: the keys it gives over the ModelParams default."""
    key = f"chi_{name}"
    default = next(f.default for f in fields(ModelParams) if f.name == key)
    keys = _same(kind=_instance(str), scale=_real)
    return key, lambda section: replace(default, **_read(section, f"model.cutoffs.{name}", keys))


# YAML section -> {key: (dataclass field, cast)}, or a nested section whose
# fields join its parent's.  The sections name disjoint fields, and only keys
# the YAML gives are read, so every default lives in the dataclass that owns it.
SECTIONS = {
    "model": {
        **_same(dirac_mass=_real, boson_mass=_real, coupling=_real),
        "cutoffs": {name: _cutoff(name) for name in ("dirac", "kg", "spatial")},
        "lattice": _same(fermion_V=_real, fermion_L=_real, boson_V=_optional(_real), boson_L=_optional(_real),
                         fermion_points=_optional(_points), boson_points=_optional(_points)),
        "truncation": {"n_max": ("n_max", as_integer), "total": ("total_boson_cap", _optional(as_integer))},
    },
    "limits": _same(basis_cap=as_integer, point_cap=as_integer, chi_hat_floor=_real),
    "solver": _same(k=partial(as_integer, name="k", low=1), tol=_real, max_iter=as_integer, seed=as_integer,
                    dense_cap=as_integer),
    "scan": _same(kappa_grid=_list(_real), axis=_instance(str), values=_list(_number)),
    "verify": _same(samples=partial(as_integer, name="samples", low=1),
                    field_points=partial(as_integer, name="field_points", low=1)),
    "output": {"path": ("output_path", _instance(str, type(None))),
               "record_timings": ("record_timings", _instance(bool))},
}


def _read(section, where: str, keys: Dict) -> Dict:
    """The fields a config section (``where``; "" at top level) gives, each cast.

    Rejects a section that is not a mapping, unknown keys and any value
    its cast rejects, with a ConfigError that names the section or key.
    """
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where or 'config'} must be a mapping, got {section!r}")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in {where or 'top level'}")
    given = {}
    for key, value in section.items():
        entry, inner = keys[key], f"{where}.{key}" if where else key
        if isinstance(entry, dict):
            given.update(_read(value, inner, entry))
            continue
        name, cast = entry
        try:
            given[name] = cast(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"bad value for {inner}: {err}") from err
    return given


def config_from_dict(raw) -> RunConfig:
    """``_read`` of every section of a parsed YAML file, then the checks across fields."""
    given = _read(raw, "", SECTIONS)
    for required in ("dirac_mass", "boson_mass", "coupling"):
        if required not in given:
            raise ConfigError(f"missing required field model.{required}")

    def take(cls):
        return cls(**{f.name: given.pop(f.name) for f in fields(cls) if f.name in given})

    try:
        params = take(ModelParams)
    except ParameterError as err:
        raise ConfigError(f"invalid model parameters: {err}") from err
    config = RunConfig(params, take(SolverConfig), take(ScanConfig), take(VerifyConfig), **given)
    try:
        check_seed(config.solver.seed)
        check_iteration(config.solver.tol, config.solver.max_iter)
        check_dense_cap(config.solver.dense_cap)
    except ParameterError as err:
        raise ConfigError(f"solver.{err}") from err
    if not config.scan.kappa_grid:
        raise ConfigError("scan.kappa_grid must not be empty")
    values = config.scan.values
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("scan.values must be strictly increasing")
    return config


def _resolve_out(config: RunConfig, override: Optional[str], default_name: str) -> str:
    path = override or config.output_path or default_name
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _write_json(path: str, payload: Dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _blas_pools() -> List[Tuple[Callable, Callable]]:
    """(get, set) of the pool size of each loaded OpenBLAS, through its own C API."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    pools = []
    for lib in map(ctypes.CDLL, paths):  # the numpy and scipy wheels each load their own
        for stem, abi in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get, set_size = (getattr(lib, f"{stem}_{verb}_num_threads{abi}", None) for verb in ("get", "set"))
            if get is not None and set_size is not None:
                pools.append((get, set_size))  # ctypes' default int argument and result fit both
                break
    return pools


def _blas_thread_counts() -> List[int]:
    """Pool size of each loaded OpenBLAS, read back through its own C API."""
    return [get() for get, _ in _blas_pools()]


def _timings(config: RunConfig, start: float, stats: Optional[Dict]) -> Optional[Dict]:
    """The opt-in ``timings`` block: wall time since ``start``, then the solver stats.

    ``threads_pinned`` is true only when some BLAS pool could be read and
    every pool read has exactly ``config.threads`` threads.
    """
    if not config.record_timings:
        return None
    wall = time.perf_counter() - start
    counts = _blas_thread_counts()
    pinned = bool(counts) and all(count == config.threads for count in counts)
    return {"wall_seconds": wall, "threads_pinned": pinned, **(stats or {})}


def _per_row(stats: Sequence[Dict]) -> Dict[str, list]:
    """Solver stats of a scan, one list entry per row."""
    return {key: [row[key] for row in stats] for key in SOLVE_STATS}


@contextlib.contextmanager
def _thread_limit(threads: int):
    """Size every loaded OpenBLAS pool to ``threads``; the old sizes come back on exit."""
    restore = [(set_size, get()) for get, set_size in _blas_pools()]
    for set_size, _ in restore:
        set_size(threads)
    try:
        yield
    finally:
        for set_size, size in restore:
            set_size(size)


def run_spectrum(config: RunConfig, out_path: str) -> Tuple[str, Dict, Optional[Dict]]:
    h = build_model(config.params).hamiltonian()
    result = solve_lowest(h, **asdict(config.solver))
    return out_path, {
        "dimension": int(h.shape[0]),
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "ground_energy": result.ground_energy,
        "gap": result.gap,
        "ground_multiplicity": result.ground_multiplicity,
        "residual": result.residual,
        "method": result.method,
        "free_gap": config.params.free_gap,
    }, result.stats()


def run_scan_kappa(config: RunConfig, out_path: str) -> Tuple[str, Dict, Optional[Dict]]:
    model = build_model(config.params)
    gaps = []
    stats = []
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("kappa,E0,gap,residual\n")
        fh.flush()
        for kappa in config.scan.kappa_grid:
            result = solve_lowest(model.hamiltonian(kappa), **asdict(config.solver))
            gaps.append(result.gap)
            stats.append(result.stats())
            fh.write(f"{kappa!r},{result.ground_energy!r},{result.gap!r},{result.residual!r}\n")
            fh.flush()
    own = {"rows": len(gaps), "all_gaps_positive": all(gap > 0 for gap in gaps)}
    return out_path + ".meta.json", own, _per_row(stats)


def run_converge(config: RunConfig, out_path: str) -> Tuple[str, Dict, Optional[Dict]]:
    report = converge_scan(config.params, config.scan.axis, config.scan.values, **asdict(config.solver))
    return out_path, {"report": report.to_dict()}, _per_row(report.solves)


def run_verify(config: RunConfig, out_path: str) -> Tuple[str, Dict, Optional[Dict]]:
    report = verify_inequalities(
        build_model(config.params),
        n_samples=config.verify.samples,
        n_field_points=config.verify.field_points,
        seed=config.solver.seed,
    )
    return out_path, {"report": report.to_dict()}, None


# command -> (runner, default output name).  A runner returns the path of its
# JSON, its own payload fields and its solver stats (or None); main adds the
# rest of the envelope: schema_version, command, config and timings.
COMMANDS = {
    "spectrum": (run_spectrum, "spectrum.json"),
    "scan-kappa": (run_scan_kappa, "scan_kappa.csv"),
    "converge": (run_converge, "converge.json"),
    "verify": (run_verify, "verify.json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yukawa-ed",
        description="Spectral solver for a lattice-truncated Dirac/Klein-Gordon Yukawa model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="YAML run configuration")
        cmd.add_argument("--out", default=None, help="output file path")
        cmd.add_argument("--seed", type=int, default=None, help="override solver seed")
        cmd.add_argument("--threads", type=int, default=1, help="BLAS worker threads")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            config.solver.seed = args.seed
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config.threads = args.threads
        runner, default_name = COMMANDS[args.command]
        out_path = _resolve_out(config, args.out, default_name)
        with _thread_limit(config.threads):
            start = time.perf_counter()
            json_path, own, stats = runner(config, out_path)
            timings = _timings(config, start, stats)
    except (ConfigError, ParameterError, EvaluationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    summary = {"command": args.command, "schema_version": SCHEMA_VERSION}
    _write_json(json_path, {**summary, "config": config.resolved(), **own, "timings": timings})
    if "ground_energy" in own:
        summary["ground_energy"] = own["ground_energy"]
        summary["gap"] = own["gap"]
    if "all_passed" in own.get("report", {}):
        summary["all_passed"] = own["report"]["all_passed"]
    print(json.dumps({"written": out_path, **summary}))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
