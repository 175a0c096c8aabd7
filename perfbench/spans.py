"""Spans around calls into yukawa_ed, recorded from outside the package.

The tracer rebinds the public names each layer exposes (for example
``yukawa_ed.hamiltonian.assemble_interaction``, which ``build_model`` looks up
at call time) to wrappers that open a span.  A module-level function is
rebound in every loaded ``yukawa_ed`` module that holds it, so copies made
by ``from .x import y`` are traced too.  A name that no longer exists is
skipped and reported in ``absent``; its metrics are then left out.

A span's self time is its duration minus the time its child spans cover.
Every span of one run shares that run's identifier.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

# Hook signature: (tracer, call args, result) -> None.  Hooks read counts off
# a result; they run inside the span, which is what they measure.
Hook = Callable[["Tracer", tuple, object], None]


def _count_lattice(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["lattice.points"] += result.n_points


def _count_basis(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["fock.dim"] = result.dim


def _count_terms(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["hamiltonian.terms"] += len(result)


def _count_lanczos(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["solver.matvecs"] += result.matvecs
    tracer.counts["solver.iterations"] += result.iterations
    tracer.lanczos_matrix = args[0]


def _count_sector(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["solver.sector_dim"] += result.dimension


def _count_checks(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["bounds.checks"] += len(result.checks)


# span name -> names wrapped, as (yukawa_ed submodule, attribute path, hook)
LAYERS: Dict[str, List[Tuple[str, str, Optional[Hook]]]] = {
    "lattice": [
        ("hamiltonian", "ModelParams.build_fermion_lattice", _count_lattice),
        ("hamiltonian", "ModelParams.build_boson_lattice", _count_lattice),
        ("lattice", "build_lattice", None),
    ],
    "spinor": [
        ("spinor", "fermion_coefficients", None),
        ("spinor", "boson_coefficients", None),
    ],
    "fock.basis": [("fock", "enumerate_basis", _count_basis)],
    "fock.free": [("fock", "second_quantization", None)],
    "fock.ladder": [("fock", "smeared_boson", None), ("fock", "smeared_fermion", None)],
    "hamiltonian.build": [("hamiltonian", "build_model", None)],
    "hamiltonian.terms": [("hamiltonian", "enumerate_interaction_terms", _count_terms)],
    "hamiltonian.assemble": [("hamiltonian", "assemble_interaction", None)],
    "hamiltonian.hermiticity": [("hamiltonian", "hermiticity_defect", None)],
    "hamiltonian.reassemble": [("hamiltonian", "Model.hamiltonian", None)],
    "hamiltonian.field_ops": [
        ("hamiltonian", "dirac_field_component", None),
        ("hamiltonian", "boson_field", None),
    ],
    "solver.lanczos": [("solver", "lanczos_lowest", _count_lanczos)],
    "solver.dense": [("solver", "dense_lowest", None)],
    "solver.sector": [("solver", "sector_minima", _count_sector)],
    "bounds.constants": [("bounds", "compute_constants", None)],
    "bounds.verify": [("bounds", "verify_inequalities", _count_checks)],
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) of ``yukawa_ed.<module_name>.<path>``; value None if gone."""
    try:
        owner = importlib.import_module(f"yukawa_ed.{module_name}")
    except ImportError:
        return None, path, None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, attr, getattr(owner, attr, None)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float
    run: str


class Tracer:
    """In-memory spans and counts for one run; ``install`` wraps the layers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: List[str] = []
        self.layers: set = set()  # span names with at least one wrapped name
        self.lanczos_matrix = None
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            start=time.perf_counter(),
            end=float("nan"),
            run=self.run_id,
        )
        self.spans.append(span)
        self.calls[name] += 1
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def install(self):
        """Wrap every name in ``LAYERS`` for the duration of the block."""
        restore: List[Tuple[object, str, object]] = []
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "yukawa_ed"]
        try:
            for name, targets in LAYERS.items():
                for module_name, path, hook in targets:
                    owner, attr, fn = _resolve(module_name, path)
                    if fn is None:
                        self.absent.append(f"yukawa_ed.{module_name}.{path}")
                        continue
                    self.layers.add(name)
                    wrapped = self._wrapper(name, fn, hook)
                    holders = [owner] if "." in path else [
                        m for m in modules if m.__dict__.get(attr) is fn
                    ]
                    for holder in holders:
                        restore.append((holder, attr, fn))
                        setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, fn in reversed(restore):
                setattr(holder, attr, fn)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += (span.end - span.start) - covered[span.id]
        return dict(out)

    def records(self) -> List[dict]:
        return [asdict(span) for span in self.spans]
