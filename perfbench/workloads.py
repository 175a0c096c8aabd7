"""The benchmark workloads: model parameters, the calls each makes, and its output checks.

Every workload uses masses 1/1, coupling 0.5, fermion_V = 2 pi and integer
lattice points along z (the ROADMAP workload ladder).  ``solve`` runs
everything after ``build_model``; it looks names up on the ``yukawa_ed``
modules at call time so that the tracer's wrappers are the ones called.
Checks compare against ``references.json``, a regression record of this
repository's own solutions, not external truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_TOL = 1e-8

Points = Tuple[Tuple[int, int, int], ...]
Check = Tuple[str, bool, str]

W1_POINTS: Points = ((0, 0, 0), (0, 0, 1))
W2_POINTS: Points = ((0, 0, 0), (0, 0, 1), (0, 0, -1))
W3_BOSON_POINTS: Points = W2_POINTS + ((0, 1, 0), (0, -1, 0))
KAPPA_GRID = (0.0, 0.5, 1.0)
SECTOR_CHARGE = 4
VERIFY_CHECKS = (
    "annihilator_relative",
    "creator_relative",
    "dirac_field_norm",
    "boson_field_vector",
    "form_bound",
    "interaction_relative",
    "sqrt_interpolation",
    "free_relative",
    "vacuum_interaction",
)


def boson_states(n_modes: int, n_max: int, total: int) -> int:
    """Occupation vectors with every entry <= n_max and sum <= total."""
    ways = [1] + [0] * total  # ways[s]: vectors over the modes so far summing to s
    for _ in range(n_modes):
        ways = [sum(ways[s - n] for n in range(min(n_max, s) + 1)) for s in range(total + 1)]
    return sum(ways)


@dataclass(frozen=True)
class Workload:
    name: str
    fermion_points: Points
    n_max: int
    total: Optional[int]
    solve: Callable[[object, int], dict]
    checks: Callable[["Workload", dict, dict], List[Check]]
    boson_points: Optional[Points] = None
    fermion_L: float = 1.5

    def params(self):
        from yukawa_ed.hamiltonian import ModelParams

        return ModelParams(
            dirac_mass=1.0,
            boson_mass=1.0,
            coupling=0.5,
            fermion_V=2.0 * math.pi,
            fermion_L=self.fermion_L,
            fermion_points=self.fermion_points,
            boson_points=self.boson_points,
            n_max=self.n_max,
            total_boson_cap=self.total,
            basis_cap=10**7,
        )

    @property
    def boson_dim(self) -> int:
        n_boson = len(self.boson_points or self.fermion_points)
        total = self.n_max if self.total is None else self.total
        return boson_states(n_boson, self.n_max, total)

    @property
    def dim(self) -> int:
        """Fock dimension from the parameters: 2^(4 N_f) fermion masks times boson states."""
        return (1 << (4 * len(self.fermion_points))) * self.boson_dim

    def sector_dim(self, charge: int) -> int:
        """States with (particles - antiparticles) = charge; 2 N_f modes of each kind."""
        modes = 2 * len(self.fermion_points)
        masks = sum(math.comb(modes, j + charge) * math.comb(modes, j) for j in range(modes + 1))
        return masks * self.boson_dim


def _close(name: str, got, want) -> Check:
    got = [float(v) for v in got]
    ok = len(got) == len(want) and all(abs(a - b) <= REFERENCE_TOL for a, b in zip(got, want))
    return name, ok, f"got {got!r}, reference {want!r}"


def _dim_check(workload: Workload, outcome: dict) -> Check:
    dim = int(outcome["matrix"].shape[0])
    return "dimension", dim == workload.dim, f"got {dim}, expected {workload.dim}"


# -- solves (everything after build_model) ------------------------------------


def _lowest_two(model, seed: int) -> dict:
    from yukawa_ed import solver

    h = model.hamiltonian()
    result = solver.solve_lowest(h, 2, seed=seed)
    return {"matrix": h, "eigenvalues": result.eigenvalues.tolist()}


def _charge_sector(model, seed: int) -> dict:
    from yukawa_ed import solver

    h = model.hamiltonian()
    result = solver.sector_minima(h, model.basis, SECTOR_CHARGE, label="charge", seed=seed)
    return {"matrix": h, "sector": result}


def _kappa_scan(model, seed: int) -> dict:
    from yukawa_ed import solver

    scan = {}
    for kappa in KAPPA_GRID:
        h = model.hamiltonian(kappa)
        scan[kappa] = solver.solve_lowest(h, 2, seed=seed).eigenvalues.tolist()
    return {"matrix": h, "scan": scan}


def _verify(model, seed: int) -> dict:
    from yukawa_ed import bounds

    report = bounds.compute_constants(model)
    report = bounds.verify_inequalities(model, report=report, n_samples=1000, n_field_points=10, seed=seed)
    return {"report": report}


# -- output checks -------------------------------------------------------------


def _lowest_two_checks(workload: Workload, outcome: dict, ref: dict) -> List[Check]:
    return [_dim_check(workload, outcome), _close("eigenvalues", outcome["eigenvalues"], ref["eigenvalues"])]


def _charge_sector_checks(workload: Workload, outcome: dict, ref: dict) -> List[Check]:
    sector = outcome["sector"]
    want_dim = workload.sector_dim(SECTOR_CHARGE)
    energy = [] if sector.energy is None else [sector.energy]
    return [
        _dim_check(workload, outcome),
        ("sector_dimension", sector.dimension == want_dim, f"got {sector.dimension}, expected {want_dim}"),
        ("sector_invariant", bool(sector.invariant), f"mixing {sector.mixing!r}"),
        _close("sector_energy", energy, [ref["sector_energy"]]),
    ]


def _kappa_scan_checks(workload: Workload, outcome: dict, ref: dict) -> List[Check]:
    scan = outcome["scan"]
    free = [float(v) for v in scan[0.0]]
    checks = [_dim_check(workload, outcome), ("kappa_0_exact", free == [0.0, 1.0], f"got {free!r}")]
    for kappa in KAPPA_GRID[1:]:
        checks.append(_close(f"kappa_{kappa}", scan[kappa], ref["eigenvalues"][repr(kappa)]))
    return checks


def _verify_checks(workload: Workload, outcome: dict, ref: dict) -> List[Check]:
    report = outcome["report"]
    names = sorted(report.checks)
    return [
        _dim_check(workload, outcome),
        ("named_checks", names == sorted(VERIFY_CHECKS), f"got {names}"),
        ("all_passed", bool(report.all_passed), repr(report.worst_ratios())),
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ground-w2", W2_POINTS, 3, 3, _lowest_two, _lowest_two_checks),
        Workload(
            "sector-w3", W2_POINTS, 2, 4, _charge_sector, _charge_sector_checks,
            boson_points=W3_BOSON_POINTS,
        ),
        Workload("kappa-scan-dense", W1_POINTS, 2, None, _kappa_scan, _kappa_scan_checks),
        Workload("verify-w1", W1_POINTS, 3, 6, _verify, _verify_checks),
    )
}

# The 64-dimensional model of configs/minimal.yaml, for the harness self-test only.
SELFTEST = Workload("w0-minimal", ((0, 0, 0),), 3, 3, _lowest_two, _lowest_two_checks, fermion_L=0.5)


def lookup(name: str) -> Workload:
    if name == SELFTEST.name:
        return SELFTEST
    return WORKLOADS[name]


def reference(name: str) -> dict:
    with open(HERE / "references.json", "r", encoding="utf-8") as fh:
        return json.load(fh)[name]
