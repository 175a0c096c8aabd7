import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from yukawa_ed.errors import CapacityError, LatticeMismatchError, ParameterError
from yukawa_ed.fock import (
    FermionMode,
    FockState,
    boson_annihilator,
    boson_creator,
    count_boson_occupations,
    enumerate_basis,
    fermion_annihilator,
    fermion_creator,
    mask_annihilator,
    second_quantization,
    smeared_boson,
    smeared_fermion,
)
from yukawa_ed.lattice import DiscreteCoefficients, MomentumLattice, build_lattice, discretize
from yukawa_ed.spinor import boson_energy, dirac_energy

RNG = np.random.default_rng(7)


def minimal_lattice():
    return build_lattice(2 * np.pi, 0.5)


def two_point_lattice():
    return MomentumLattice.from_integer_points(2 * np.pi, 1.5, [[0, 0, 0], [0, 0, 1]])


def is_zero(mat, tol=0.0):
    return mat.nnz == 0 or np.max(np.abs(mat.data)) <= tol


def identity_defect(mat, scale=1.0):
    dim = mat.shape[0]
    diff = mat - scale * sp.identity(dim, dtype=complex, format="csr")
    return 0.0 if diff.nnz == 0 else np.max(np.abs(diff.data))


class TestBasisEnumeration:
    def test_minimal_basis_dimension(self):
        basis = enumerate_basis(minimal_lattice(), n_max=3, total_cap=3)
        assert basis.fermion_dim == 16
        assert basis.boson_dim == 4
        assert basis.dim == 64

    def test_minimal_boson_sector_when_caps_zero(self):
        basis = enumerate_basis(minimal_lattice(), n_max=0)
        assert basis.boson_dim == 1
        assert basis.dim == 16

    def test_two_point_truncated_count_against_enumeration_oracle(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=1, total_cap=1)
        oracle = [
            occ
            for occ in itertools.product(range(2), repeat=2)
            if sum(occ) <= 1
        ]
        assert basis.boson_dim == len(oracle) == 3
        assert basis.dim == 2**8 * 3 == 768

    @settings(max_examples=40, deadline=None)
    @given(
        modes=st.integers(min_value=1, max_value=4),
        n_max=st.integers(min_value=0, max_value=4),
        cap=st.integers(min_value=0, max_value=6),
    )
    def test_occupation_count_matches_brute_force(self, modes, n_max, cap):
        brute = sum(
            1
            for occ in itertools.product(range(n_max + 1), repeat=modes)
            if sum(occ) <= cap
        )
        assert count_boson_occupations(modes, n_max, cap) == brute

    def test_vacuum_is_index_zero_and_roundtrip(self):
        basis = enumerate_basis(minimal_lattice(), n_max=2)
        vac = basis.state(0)
        assert vac.fermion_mask == 0
        assert vac.boson_occupation == (0,)
        for i in (0, 5, 17, basis.dim - 1):
            assert basis.index_of(basis.state(i)) == i

    def test_ordering_fermion_major_boson_lexicographic(self):
        basis = enumerate_basis(two_point_lattice(), n_max=1, total_cap=1)
        assert basis.state(0) == FockState(0, (0, 0))
        assert basis.state(1) == FockState(0, (0, 1))
        assert basis.state(2) == FockState(0, (1, 0))
        assert basis.state(3) == FockState(1, (0, 0))

    def test_capacity_error_reports_projected_dimension(self):
        lat = MomentumLattice.from_integer_points(
            2 * np.pi, 2.0, [[0, 0, i] for i in range(-2, 3)]
        )
        with pytest.raises(CapacityError) as err:
            enumerate_basis(lat, n_max=3, basis_cap=10_000)
        assert err.value.projected == 2**20 * count_boson_occupations(5, 3, 3)

    def test_capacity_check_counts_any_number_of_modes(self):
        # 1 331 points (the default lattice at fermion_L = 5) once overflowed
        # a recursive count; the cap must still be checked before allocation
        lat = build_lattice(2 * np.pi, 5.0)
        assert lat.n_points == 1331
        with pytest.raises(CapacityError) as err:
            enumerate_basis(lat, n_max=3, total_cap=3)
        assert err.value.projected == 2 ** (4 * 1331) * count_boson_occupations(1331, 3, 3)

    def test_long_boson_lattice_enumerates_in_order(self):
        fermion = MomentumLattice.from_integer_points(2 * np.pi, 1.5, [[0, 0, 0]])
        boson = MomentumLattice.from_integer_points(2 * np.pi, 1.5, [[0, 0, n] for n in range(1100)])
        start = time.perf_counter()
        basis = enumerate_basis(fermion, n_max=1, total_cap=1, boson_lattice=boson)
        assert time.perf_counter() - start < 1.0
        assert (basis.fermion_dim, basis.boson_dim, basis.dim) == (16, 1101, 16 * 1101)
        assert basis.state(0) == FockState(0, (0,) * 1100)
        # lexicographic: the single quantum moves from the last mode to the first
        assert np.array_equal(basis.boson_occupations[1:], np.eye(1100, dtype=np.int64)[::-1])

    def test_charge_and_number_labels(self):
        basis = enumerate_basis(minimal_lattice(), n_max=1)
        mode_b = basis.mode_index(FermionMode("b", 0.5, 0))
        mode_d = basis.mode_index(FermionMode("d", -0.5, 0))
        state = FockState((1 << mode_b) | (1 << mode_d), (0,))
        i = basis.index_of(state)
        assert basis.fermion_number()[i] == 2
        assert basis.charge()[i] == 0
        only_d = basis.index_of(FockState(1 << mode_d, (1,)))
        assert basis.charge()[only_d] == -1
        assert basis.boson_occupations[only_d % basis.boson_dim].sum() == 1


class TestFermionOperators:
    def test_annihilator_kills_vacuum(self):
        basis = enumerate_basis(minimal_lattice(), n_max=1)
        op = fermion_annihilator(FermionMode("b", 0.5, 0), basis)
        vac = np.zeros(basis.dim)
        vac[0] = 1.0
        assert np.allclose(op @ vac, 0, atol=0)

    def test_car_holds_exactly_for_all_mode_pairs(self):
        basis = enumerate_basis(two_point_lattice(), n_max=1, total_cap=1)
        modes = [
            FermionMode(species, spin, pt)
            for species in "bd"
            for spin in (0.5, -0.5)
            for pt in range(2)
        ]
        ann = {m: fermion_annihilator(m, basis) for m in modes}
        cre = {m: ann[m].conj().T.tocsr() for m in modes}
        for mi in modes:
            for mj in modes:
                anti = ann[mi] @ cre[mj] + cre[mj] @ ann[mi]
                if mi == mj:
                    assert identity_defect(anti) == 0.0
                else:
                    assert is_zero(anti)
                assert is_zero(ann[mi] @ ann[mj] + ann[mj] @ ann[mi])

    def test_creation_antisymmetry(self):
        basis = enumerate_basis(minimal_lattice(), n_max=1)
        b1 = fermion_creator(FermionMode("b", 0.5, 0), basis)
        b2 = fermion_creator(FermionMode("b", -0.5, 0), basis)
        vac = np.zeros(basis.dim)
        vac[0] = 1.0
        assert np.allclose(b1 @ (b2 @ vac), -(b2 @ (b1 @ vac)), atol=0)

    def test_jordan_wigner_sign_convention(self):
        op = mask_annihilator(3, 1)
        assert op[0b001, 0b011] == -1.0  # one occupied mode below index 1
        assert op[0b100, 0b110] == 1.0  # mode 0 empty: no sign


class TestBosonOperators:
    def test_annihilator_kills_vacuum_and_number_operator(self):
        basis = enumerate_basis(minimal_lattice(), n_max=3, total_cap=3)
        a = boson_annihilator(0, basis)
        adag = boson_creator(0, basis)
        vac = np.zeros(basis.dim)
        vac[0] = 1.0
        assert np.allclose(a @ vac, 0, atol=0)
        num = adag @ a
        for n in range(4):
            state = np.zeros(basis.dim)
            state[basis.index_of(FockState(0, (n,)))] = 1.0
            assert np.allclose(num @ state, n * state, atol=0)

    def test_creation_truncates_at_cap(self):
        basis = enumerate_basis(minimal_lattice(), n_max=2)
        adag = boson_creator(0, basis)
        top = np.zeros(basis.dim)
        top[basis.index_of(FockState(0, (2,)))] = 1.0
        assert np.allclose(adag @ top, 0, atol=0)

    def test_ccr_on_untruncated_subspace(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=2, total_cap=3)
        for i in range(2):
            for j in range(2):
                comm = (
                    boson_annihilator(i, basis) @ boson_creator(j, basis)
                    - boson_creator(j, basis) @ boson_annihilator(i, basis)
                )
                target = sp.identity(basis.dim, format="csr") if i == j else None
                # restrict to states where creating one quantum in mode i or j stays in basis
                for col, occ in enumerate(basis.boson_occupations):
                    if occ.sum() + 1 > basis.total_cap:
                        continue
                    if occ[i] + 1 > basis.n_max or occ[j] + 1 > basis.n_max:
                        continue
                    for mask in (0, 3):
                        idx = mask * basis.boson_dim + col
                        column = comm[:, idx].toarray().ravel()
                        expected = np.zeros(basis.dim, dtype=complex)
                        if target is not None:
                            expected[idx] = 1.0
                        assert np.allclose(column, expected, atol=0)


class TestSmearedOperators:
    @settings(max_examples=30, deadline=None)
    @given(
        re=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2),
        im=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2),
        spin=st.sampled_from([0.5, -0.5]),
    )
    def test_norm_theorem_property(self, re, im, spin):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=0)
        xi = DiscreteCoefficients(np.array(re) + 1j * np.array(im), lat)
        op = smeared_fermion(xi, "d", spin, basis)
        smax = np.linalg.svd(op.toarray(), compute_uv=False)[0]
        assert abs(smax - xi.norm) <= 1e-10 * max(1.0, xi.norm)

    def test_norm_theorem_minimal_lattice(self):
        lat = minimal_lattice()
        basis = enumerate_basis(lat, n_max=1)
        for _ in range(10):
            xi = DiscreteCoefficients(RNG.normal(size=1) + 1j * RNG.normal(size=1), lat)
            op = smeared_fermion(xi, "b", 0.5, basis)
            smax = np.linalg.svd(op.toarray(), compute_uv=False)[0]
            assert smax == pytest.approx(xi.norm, abs=1e-12)

    def test_indicator_coefficient_reduces_to_single_mode(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=1, total_cap=1)
        xi = DiscreteCoefficients([0.0, 1.0], lat)
        op = smeared_fermion(xi, "d", -0.5, basis)
        single = fermion_annihilator(FermionMode("d", -0.5, 1), basis)
        diff = op - np.sqrt(lat.cell_volume) * single
        assert is_zero(diff, tol=0.0)

    def test_smeared_car_gives_discrete_inner_product(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=1, total_cap=1)
        for s, tau in [(0.5, 0.5), (0.5, -0.5)]:
            xi = DiscreteCoefficients(RNG.normal(size=2) + 1j * RNG.normal(size=2), lat)
            eta = DiscreteCoefficients(RNG.normal(size=2) + 1j * RNG.normal(size=2), lat)
            b_xi = smeared_fermion(xi, "b", s, basis)
            bdag_eta = smeared_fermion(eta, "b", tau, basis, create=True)
            anti = b_xi @ bdag_eta + bdag_eta @ b_xi
            inner = lat.cell_volume * np.vdot(xi.values, eta.values)
            expected = inner if s == tau else 0.0
            if expected == 0.0:
                assert is_zero(anti, tol=1e-15)
            else:
                assert identity_defect(anti, scale=expected) < 1e-14

    def test_mixed_species_anticommutators_vanish(self):
        lat = minimal_lattice()
        basis = enumerate_basis(lat, n_max=1)
        xi = DiscreteCoefficients(RNG.normal(size=1) + 1j * RNG.normal(size=1), lat)
        eta = DiscreteCoefficients(RNG.normal(size=1) + 1j * RNG.normal(size=1), lat)
        b = smeared_fermion(xi, "b", 0.5, basis)
        d = smeared_fermion(eta, "d", 0.5, basis)
        ddag = smeared_fermion(eta, "d", 0.5, basis, create=True)
        assert is_zero(b @ d + d @ b)
        assert is_zero(b @ ddag + ddag @ b)

    def test_adjoint_pair_exact(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=1, total_cap=1)
        xi = DiscreteCoefficients(RNG.normal(size=2) + 1j * RNG.normal(size=2), lat)
        ann = smeared_fermion(xi, "b", -0.5, basis)
        cre = smeared_fermion(xi, "b", -0.5, basis, create=True)
        assert is_zero(cre - ann.conj().T.tocsr(), tol=0.0)
        a_ann = smeared_boson(xi, basis)
        a_cre = smeared_boson(xi, basis, create=True)
        assert is_zero(a_cre - a_ann.conj().T.tocsr(), tol=0.0)

    def test_lattice_mismatch_rejected(self):
        basis = enumerate_basis(minimal_lattice(), n_max=1)
        other = two_point_lattice()
        xi = DiscreteCoefficients(np.ones(2), other)
        with pytest.raises(LatticeMismatchError):
            smeared_fermion(xi, "b", 0.5, basis)
        with pytest.raises(LatticeMismatchError):
            smeared_boson(xi, basis)

    def test_smeared_boson_ccr_scalar(self):
        lat = minimal_lattice()
        basis = enumerate_basis(lat, n_max=6, total_cap=6)
        eta = DiscreteCoefficients([0.6 - 0.3j], lat)
        a = smeared_boson(eta, basis)
        adag = smeared_boson(eta, basis, create=True)
        comm = (a @ adag - adag @ a).toarray()
        # away from the top occupation the commutator is ||eta||^2
        inner = lat.cell_volume * np.vdot(eta.values, eta.values).real
        assert np.allclose(np.diag(comm)[: basis.index_of(FockState(0, (6,)))], inner, atol=1e-14)


class TestSecondQuantization:
    def test_vacuum_and_single_particle_eigenvalues(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=1, total_cap=1)
        mass = 1.2
        energies = discretize(lambda q: dirac_energy(q, mass), lat)
        h_dirac = second_quantization(energies, basis, side="fermion")
        diag = h_dirac.diagonal().real
        assert diag[0] == 0.0
        for pt in range(2):
            mode = basis.mode_index(FermionMode("b", 0.5, pt))
            idx = basis.index_of(FockState(1 << mode, (0, 0)))
            assert diag[idx] == pytest.approx(dirac_energy(lat.points[pt], mass), rel=1e-15)

    def test_two_bosons_in_one_mode(self):
        lat = minimal_lattice()
        basis = enumerate_basis(lat, n_max=2)
        m = 0.8
        energies = discretize(lambda k: boson_energy(k, m), lat)
        h_kg = second_quantization(energies, basis, side="boson")
        idx = basis.index_of(FockState(0, (2,)))
        assert h_kg.diagonal().real[idx] == pytest.approx(2 * m, rel=1e-15)

    def test_nonnegative_when_energies_nonnegative(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=1, total_cap=1)
        energies = discretize(lambda q: boson_energy(q, 0.5), lat)
        h = second_quantization(energies, basis, side="boson")
        assert np.all(h.diagonal().real >= 0)

    def test_negative_energy_rejected(self):
        lat = minimal_lattice()
        basis = enumerate_basis(lat, n_max=1)
        bad = DiscreteCoefficients([-1.0], lat)
        with pytest.raises(ParameterError):
            second_quantization(bad, basis, side="boson")


class TestRelativeBounds:
    """Smeared ladder operators are relatively bounded by the number operator."""

    def setup_method(self):
        self.lat = two_point_lattice()
        self.basis = enumerate_basis(self.lat, n_max=2, total_cap=2)
        self.mass = 0.6
        self.omega = discretize(lambda k: boson_energy(k, self.mass), self.lat)
        self.h_kg = second_quantization(self.omega, self.basis, side="boson")
        self.sqrt_h = sp.diags(np.sqrt(self.h_kg.diagonal().real), format="csr")

    def test_annihilator_relative_bound(self):
        for _ in range(50):
            eta = DiscreteCoefficients(RNG.normal(size=2) + 1j * RNG.normal(size=2), self.lat)
            psi = RNG.normal(size=self.basis.dim) + 1j * RNG.normal(size=self.basis.dim)
            a = smeared_boson(eta, self.basis)
            weight = DiscreteCoefficients(eta.values / np.sqrt(self.omega.values.real), self.lat)
            lhs = np.linalg.norm(a @ psi)
            rhs = weight.norm * np.linalg.norm(self.sqrt_h @ psi)
            assert lhs <= rhs * (1 + 1e-12)

    def test_creator_relative_bound(self):
        for _ in range(50):
            eta = DiscreteCoefficients(RNG.normal(size=2) + 1j * RNG.normal(size=2), self.lat)
            psi = RNG.normal(size=self.basis.dim) + 1j * RNG.normal(size=self.basis.dim)
            adag = smeared_boson(eta, self.basis, create=True)
            weight = DiscreteCoefficients(eta.values / np.sqrt(self.omega.values.real), self.lat)
            lhs = np.linalg.norm(adag @ psi)
            rhs = weight.norm * np.linalg.norm(self.sqrt_h @ psi) + eta.norm * np.linalg.norm(psi)
            assert lhs <= rhs * (1 + 1e-12)


class TestNumberEnergyIdentity:
    """The diagonal builder must equal the explicit ladder-operator sum."""

    def test_fermion_side_matches_ladder_sum(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=1, total_cap=1)
        mass = 0.7
        energies = discretize(lambda q: dirac_energy(q, mass), lat)
        built = second_quantization(energies, basis, side="fermion")
        explicit = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
        for species in "bd":
            for spin in (0.5, -0.5):
                for pt in range(lat.n_points):
                    mode = FermionMode(species, spin, pt)
                    ann = fermion_annihilator(mode, basis)
                    explicit = explicit + energies.values[pt].real * (ann.conj().T @ ann)
        assert is_zero(built - explicit, tol=1e-14)

    def test_boson_side_matches_ladder_sum(self):
        lat = two_point_lattice()
        basis = enumerate_basis(lat, n_max=2, total_cap=3)
        m = 1.4
        energies = discretize(lambda k: boson_energy(k, m), lat)
        built = second_quantization(energies, basis, side="boson")
        explicit = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
        for k in range(lat.n_points):
            ann = boson_annihilator(k, basis)
            explicit = explicit + energies.values[k].real * (ann.conj().T @ ann)
        assert is_zero(built - explicit, tol=1e-14)
