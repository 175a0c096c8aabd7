"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from yukawa_ed.bounds import verify_inequalities
from yukawa_ed.fock import (
    FermionMode,
    boson_annihilator,
    boson_creator,
    enumerate_basis,
    fermion_annihilator,
    smeared_fermion,
    smeared_mask_ladder,
)
from yukawa_ed.hamiltonian import (
    ModelParams,
    build_model,
    interaction_form_quadrature,
)
from yukawa_ed.lattice import DiscreteCoefficients, MomentumLattice, build_lattice
from yukawa_ed.solver import (
    converge_scan,
    dense_lowest,
    lanczos_lowest,
    operator_norm_dense,
    sector_minima,
)

TWO_PI = 2.0 * math.pi
FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "data", "convergence_fixture.json")


def _pass(num: int, text: str):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def minimal_params(**kwargs):
    defaults = dict(dirac_mass=1.0, boson_mass=1.0, coupling=1.0, n_max=3, total_boson_cap=3)
    defaults.update(kwargs)
    return ModelParams(**defaults)


def two_point_lattice():
    return MomentumLattice.from_integer_points(TWO_PI, 1.5, [[0, 0, 0], [0, 0, 1]])


def test_criterion_1_algebraic_exactness():
    """CAR and truncated-CCR identities hold to 1e-12 as stored matrices."""
    start = time.perf_counter()
    cases = [
        enumerate_basis(build_lattice(TWO_PI, 0.5), n_max=3, total_cap=3),       # dim 64
        enumerate_basis(two_point_lattice(), n_max=3, total_cap=6),              # dim 4096
    ]
    for basis in cases:
        assert basis.dim <= 4096
        modes = [
            FermionMode(species, spin, pt)
            for species in "bd"
            for spin in (0.5, -0.5)
            for pt in range(basis.fermion_lattice.n_points)
        ]
        ann = {m: fermion_annihilator(m, basis) for m in modes}
        cre = {m: ann[m].conj().T.tocsr() for m in modes}
        eye = sp.identity(basis.dim, dtype=complex, format="csr")
        for mi in modes:
            for mj in modes:
                anti = ann[mi] @ cre[mj] + cre[mj] @ ann[mi]
                target = eye if mi == mj else None
                diff = (anti - target) if target is not None else anti
                defect = 0.0 if diff.nnz == 0 else np.max(np.abs(diff.data))
                assert defect <= 1e-12
                both = ann[mi] @ ann[mj] + ann[mj] @ ann[mi]
                assert both.nnz == 0 or np.max(np.abs(both.data)) <= 1e-12

        for i in range(basis.n_boson_modes):
            for j in range(basis.n_boson_modes):
                comm = (
                    boson_annihilator(i, basis) @ boson_creator(j, basis)
                    - boson_creator(j, basis) @ boson_annihilator(i, basis)
                ).tocsc()
                # truncated commutation: identity columns wherever one more
                # quantum in mode i and j still fits the caps
                for col, occ in enumerate(basis.boson_occupations):
                    if occ.sum() + 1 > basis.total_cap:
                        continue
                    if occ[i] + 1 > basis.n_max or occ[j] + 1 > basis.n_max:
                        continue
                    idx = col  # fermion vacuum block
                    column = comm[:, idx].toarray().ravel()
                    expected = np.zeros(basis.dim, dtype=complex)
                    if i == j:
                        expected[idx] = 1.0
                    assert np.max(np.abs(column - expected)) <= 1e-12
                pair = (
                    boson_annihilator(i, basis) @ boson_annihilator(j, basis)
                    - boson_annihilator(j, basis) @ boson_annihilator(i, basis)
                )
                assert pair.nnz == 0 or np.max(np.abs(pair.data)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(1, f"CAR/CCR exact on dims 64 and 4096 in {elapsed:.1f}s")


def test_criterion_2_smeared_norm_theorem():
    """Operator norm of every smeared ladder operator equals the coefficient norm."""
    rng = np.random.default_rng(2024)

    lat1 = build_lattice(TWO_PI, 0.5)
    basis1 = enumerate_basis(lat1, n_max=1)
    for trial in range(50):
        xi = DiscreteCoefficients(rng.normal(size=1) + 1j * rng.normal(size=1), lat1)
        species = "b" if trial % 2 == 0 else "d"
        op = smeared_fermion(xi, species, 0.5, basis1)
        smax = np.linalg.svd(op.toarray(), compute_uv=False)[0]
        assert abs(smax - xi.norm) <= 1e-10

    # eight-point lattice: one (species, spin) family occupies a contiguous
    # mode block, so the smeared operator is (block operator) x identity and
    # its norm equals the norm of the 2^8-dimensional block alone
    lat8 = MomentumLattice.from_integer_points(
        TWO_PI, 1.5, [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    )
    root_w = math.sqrt(lat8.cell_volume)
    for trial in range(50):
        xi = DiscreteCoefficients(rng.normal(size=8) + 1j * rng.normal(size=8), lat8)
        block = smeared_mask_ladder(8, range(8), np.conj(xi.values) * root_w, [False] * 8)
        smax = np.linalg.svd(block.toarray(), compute_uv=False)[0]
        assert abs(smax - xi.norm) <= 1e-10
    _pass(2, "norm theorem to 1e-10 for 50 random coefficients on 1- and 8-point lattices")


def test_criterion_3_free_spectrum():
    """Zero ground energy and mass gap min(m, M) for the decoupled model."""
    for M, m in [(1.0, 1.0), (1.0, 0.5), (0.3, 2.0)]:
        params = minimal_params(dirac_mass=M, boson_mass=m, coupling=0.0)
        model = build_model(params)
        assert np.any(np.all(model.basis.fermion_lattice.integer_points == 0, axis=1))
        result = dense_lowest(model.hamiltonian(), 2)
        assert result.ground_energy == 0.0
        assert abs(result.gap - min(M, m)) <= 1e-12
    _pass(3, "free ground energy exactly 0 and gap min(m, M) to 1e-12 for three mass pairs")


def test_criterion_4_inequality_suite():
    """Every stated operator inequality holds on 1000 random states."""
    model = build_model(minimal_params())
    assert model.basis.dim == 64
    report = verify_inequalities(model, n_samples=1000, n_field_points=10, seed=4)
    expected_checks = {
        "annihilator_relative",
        "creator_relative",
        "dirac_field_norm",
        "boson_field_vector",
        "form_bound",
        "interaction_relative",
        "sqrt_interpolation",
        "free_relative",
        "vacuum_interaction",
    }
    assert expected_checks <= set(report.checks)
    for name, check in report.checks.items():
        assert check.worst_ratio <= 1.0 + 1e-9, (name, check.worst_ratio)
    assert report.epsilon_ceiling > 0
    _pass(4, f"worst inequality ratio {max(report.worst_ratios().values()):.12f} <= 1 + 1e-9")


def test_criterion_5_sector_gap_bound():
    """Each invariant charge sector sits at least n * M above the ground energy."""
    configs = [
        minimal_params(),
        ModelParams(
            dirac_mass=1.0,
            boson_mass=1.0,
            coupling=1.0,
            fermion_points=((0, 0, 0), (0, 0, 1)),
            fermion_V=TWO_PI,
            fermion_L=1.5,
            n_max=1,
            total_boson_cap=1,
        ),
    ]
    for params in configs:
        for kappa in (0.0, 0.25, 0.5):
            model = build_model(replace(params, coupling=kappa))
            h = model.hamiltonian()
            assert h.shape[0] <= 4096
            e0 = dense_lowest(h, 1).ground_energy
            charges = sorted(set(model.basis.charge().tolist()))
            checked = 0
            for n in charges:
                if n < 1:
                    continue
                sector = sector_minima(h, model.basis, n, label="charge")
                assert sector.invariant, f"charge sector {n} unexpectedly mixed"
                assert sector.energy >= e0 + n * params.dirac_mass - 1e-9
                checked += 1
            assert checked >= 2
    _pass(5, "sector minima respect E0 + n*M - 1e-9 on all positive charge sectors")


def test_criterion_6_ground_state_existence_shadow():
    """The iterative solver attains the bottom of the spectrum for every coupling."""
    params = minimal_params(coupling=0.0)
    model = build_model(params)
    free_energy = dense_lowest(model.hamiltonian(0.0), 1).ground_energy
    interaction_norm = operator_norm_dense(model.h_int)
    for kappa in np.arange(0.0, 2.0001, 0.1):
        h = model.hamiltonian(float(kappa))
        result = lanczos_lowest(h, 2, tol=1e-10, seed=6)
        assert result.residual <= 1e-9
        assert result.gap > 0
        assert abs(result.ground_energy - free_energy) <= kappa * interaction_norm + 1e-12
    _pass(6, "ground state attained with residual <= 1e-9 and positive gap for 21 couplings")


def test_criterion_7_oracle_equivalence():
    """Lanczos and dense eigenvalues agree to 1e-8 on randomized instances."""
    rng = np.random.default_rng(7)
    checked_dims = []
    for trial in range(20):
        if trial % 2 == 0:
            params = minimal_params(
                dirac_mass=float(rng.uniform(0.3, 2.0)),
                boson_mass=float(rng.uniform(0.3, 2.0)),
                coupling=float(rng.uniform(-1.0, 1.0)),
                n_max=int(rng.integers(2, 7)),
                total_boson_cap=None,
            )
        else:
            params = ModelParams(
                dirac_mass=float(rng.uniform(0.3, 2.0)),
                boson_mass=float(rng.uniform(0.3, 2.0)),
                coupling=float(rng.uniform(-1.0, 1.0)),
                fermion_points=((0, 0, 0), (0, 0, 1)),
                fermion_V=TWO_PI,
                fermion_L=1.5,
                n_max=int(rng.integers(1, 3)),
                total_boson_cap=2,
            )
        h = build_model(params).hamiltonian()
        assert h.shape[0] <= 2000
        checked_dims.append(h.shape[0])
        k = int(rng.integers(2, 5))
        dense = dense_lowest(h, k)
        fast = lanczos_lowest(h, k, tol=1e-10, seed=100 + trial)
        assert np.max(np.abs(fast.eigenvalues - dense.eigenvalues)) <= 1e-8
    assert max(checked_dims) > 500  # exercise non-trivial sizes too
    _pass(7, f"20 randomized instances, dims {min(checked_dims)}..{max(checked_dims)}, agree to 1e-8")


def test_criterion_8_variational_monotonicity():
    """Nested refinements never raise the ground energy; deltas shrink."""
    # boson truncation refinement on a coarse lattice (strong effective coupling)
    params = ModelParams(
        dirac_mass=1.0, boson_mass=1.0, coupling=0.5, fermion_V=math.pi, fermion_L=0.9, n_max=1
    )
    report = converge_scan(params, "n_max", [1, 2, 3, 4])
    energies = report.ground_energies
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
    deltas = report.deltas
    assert deltas[-1] <= deltas[-2] * (1 + 1e-9)
    assert deltas[-1] > 1e-13  # resolved above float noise, not vacuously tiny

    with open(FIXTURE_PATH) as fh:
        fixture = json.load(fh)
    frozen = fixture["boson_truncation_scan"]["ground_energies"]
    assert np.allclose(energies, frozen, rtol=1e-8, atol=1e-12)

    # fermion mode enlargement: explicit nested mode sets
    params2 = ModelParams(
        dirac_mass=1.0,
        boson_mass=1.0,
        coupling=0.5,
        fermion_points=((0, 0, 0), (0, 0, 1), (0, 0, -1)),
        fermion_V=TWO_PI,
        fermion_L=1.5,
        n_max=1,
        total_boson_cap=1,
        boson_points=((0, 0, 0),),
    )
    report2 = converge_scan(params2, "fermion_modes", [1, 2, 3])
    energies2 = report2.ground_energies
    assert all(b <= a + 1e-12 for a, b in zip(energies2, energies2[1:]))

    # spacing refinement of the boson lattice against the frozen record
    params3 = ModelParams(
        dirac_mass=1.0,
        boson_mass=1.0,
        coupling=0.5,
        fermion_V=math.pi,
        fermion_L=0.9,
        n_max=1,
        total_boson_cap=1,
        boson_L=1.6,
    )
    report3 = converge_scan(params3, "boson_V", [math.pi, TWO_PI, 3 * math.pi])
    frozen3 = fixture["boson_spacing_scan"]["ground_energies"]
    assert np.allclose(report3.ground_energies, frozen3, rtol=1e-8, atol=1e-12)
    d3 = report3.deltas
    assert d3[-1] <= d3[-2]
    _pass(8, "E0 monotone under nested refinement; delta sequences shrink and match fixture")


def test_criterion_9_form_definition_check():
    """Matrix elements of the interaction equal the direct x-integral of the form."""
    start = time.perf_counter()
    model = build_model(minimal_params())
    rng = np.random.default_rng(9)
    dim = model.basis.dim
    for _ in range(10):
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        direct = complex(np.vdot(phi, model.h_int @ psi))
        quad = interaction_form_quadrature(model, phi, psi)
        scale = max(1.0, abs(direct))
        assert abs(quad - direct) <= 1e-6 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(9, f"10 random form evaluations agree to 1e-6 in {elapsed:.1f}s")
