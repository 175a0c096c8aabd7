import numpy as np
import pytest

from yukawa_ed.errors import ParameterError
from yukawa_ed.lattice import build_lattice
from yukawa_ed.spinor import (
    CutoffProfile,
    boson_coefficients,
    boson_energy,
    dirac_algebra,
    dirac_energy,
    fermion_coefficients,
    spinors_at,
)

RNG = np.random.default_rng(20240811)


class TestDiracAlgebra:
    def test_alpha_anticommutators(self):
        alg = dirac_algebra()
        for j in range(3):
            for l in range(3):
                anti = alg.alpha[j] @ alg.alpha[l] + alg.alpha[l] @ alg.alpha[j]
                assert np.allclose(anti, 2 * (j == l) * np.eye(4), atol=0)

    def test_beta_squares_to_identity(self):
        alg = dirac_algebra()
        assert np.array_equal(alg.beta @ alg.beta, np.eye(4))

    def test_alpha_beta_anticommute(self):
        alg = dirac_algebra()
        for j in range(3):
            anti = alg.alpha[j] @ alg.beta + alg.beta @ alg.alpha[j]
            assert np.count_nonzero(anti) == 0

    def test_entries_are_quarter_integers_of_unit_modulus(self):
        alg = dirac_algebra()
        for mat in (*alg.alpha, alg.beta):
            vals = set(np.round(mat.flatten(), 12))
            assert vals <= {0, 1, -1, 1j, -1j}

    def test_chiral_representation_satisfies_same_algebra(self):
        alg = dirac_algebra("chiral")
        for j in range(3):
            assert np.count_nonzero(alg.alpha[j] @ alg.beta + alg.beta @ alg.alpha[j]) == 0
        assert np.array_equal(alg.beta @ alg.beta, np.eye(4))

    def test_unknown_representation_rejected(self):
        with pytest.raises(ParameterError):
            dirac_algebra("weyl-majorana")


class TestSpinors:
    def test_rest_frame_spinors_are_canonical(self):
        pair = spinors_at(np.zeros(3), mass=1.0)
        assert np.allclose(pair.u[0], [1, 0, 0, 0], atol=0)
        assert np.allclose(pair.u[1], [0, 1, 0, 0], atol=0)
        span = np.stack([pair.v[0], pair.v[1]])
        # negative-energy pair spans e3, e4
        assert np.allclose(np.abs(span), [[0, 0, 1, 0], [0, 0, 0, 1]], atol=0)

    def test_eigenvector_residuals_against_dense_solver(self):
        alg = dirac_algebra()
        for _ in range(100):
            p = RNG.normal(size=3) * 3.0
            mass = float(RNG.uniform(0.1, 4.0))
            pair = spinors_at(p, mass, alg)
            dmat = alg.contraction(p, mass)
            evals = np.linalg.eigvalsh(dmat)
            energy = dirac_energy(p, mass)
            assert np.allclose(sorted(evals), [-energy, -energy, energy, energy], atol=1e-12)
            for s in range(2):
                assert np.linalg.norm(dmat @ pair.u[s] - energy * pair.u[s]) < 1e-12
                assert np.linalg.norm(dmat @ pair.v[s] + energy * pair.v[s]) < 1e-12

    def test_orthonormality_and_completeness(self):
        for _ in range(100):
            p = RNG.normal(size=3) * 2.0
            pair = spinors_at(p, mass=0.7)
            cols = np.stack([*pair.u, *pair.v]).T
            assert np.allclose(cols.conj().T @ cols, np.eye(4), atol=1e-12)
            total = sum(np.outer(vec, vec.conj()) for vec in (*pair.u, *pair.v))
            assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_energy_has_mass_gap(self):
        for _ in range(50):
            p = RNG.normal(size=3)
            assert dirac_energy(p, 0.4) >= 0.4
            assert boson_energy(p, 1.7) >= 1.7

    def test_phase_determinism_bitwise(self):
        p = np.array([0.3, -1.2, 0.77])
        a = spinors_at(p, 1.3)
        b = spinors_at(p, 1.3)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    def test_mass_must_be_positive(self):
        with pytest.raises(ParameterError):
            spinors_at(np.zeros(3), 0.0)


class TestCutoffProfiles:
    def test_gaussian_profile_values(self):
        chi = CutoffProfile.gaussian(2.0)
        assert chi(np.zeros(3)) == 1.0
        assert chi(np.array([2.0, 0, 0])) == pytest.approx(np.exp(-0.5))

    def test_sharp_ball_profile(self):
        chi = CutoffProfile.sharp_ball(1.0)
        assert chi(np.array([0.5, 0.5, 0.5])) == 1.0
        assert chi(np.array([1.5, 0, 0])) == 0.0

    def test_zero_profile(self):
        chi = CutoffProfile.zero()
        assert chi(np.array([0.1, 0.2, 0.3])) == 0.0

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ParameterError):
            CutoffProfile("box", 1.0)
        with pytest.raises(ParameterError):
            CutoffProfile.gaussian(-1.0)
        for scale in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="finite"):
                CutoffProfile.gaussian(scale)


class TestCoefficients:
    def test_rest_frame_particle_coefficient(self):
        lat = build_lattice(2 * np.pi, 0.5)
        f, g = fermion_coefficients(lat, mass=1.0, cutoff=CutoffProfile.gaussian(1.0))
        expected = 1.0 / np.sqrt((2 * np.pi) ** 3)
        assert f[0][0].values[0] == pytest.approx(expected, rel=1e-14)
        assert f[0][2].values[0] == 0
        # antiparticle coefficients live on the lower components at rest
        assert abs(g[0][2].values[0]) == pytest.approx(expected, rel=1e-14)
        assert g[0][0].values[0] == 0

    def test_component_sum_matches_cutoff_over_energy(self):
        lat = build_lattice(np.pi, 2.5)
        chi = CutoffProfile.gaussian(1.5)
        f, g = fermion_coefficients(lat, mass=0.9, cutoff=chi)
        for i, p in enumerate(lat.points):
            energy = dirac_energy(p, 0.9)
            expected = chi(p) ** 2 / ((2 * np.pi) ** 3 * energy)
            for si in range(2):
                total_f = sum(abs(f[si][l].values[i]) ** 2 for l in range(4))
                total_g = sum(abs(g[si][l].values[i]) ** 2 for l in range(4))
                assert total_f == pytest.approx(expected, rel=1e-12, abs=1e-18)
                assert total_g == pytest.approx(expected, rel=1e-12, abs=1e-18)

    def test_boson_coefficient_at_rest(self):
        lat = build_lattice(2 * np.pi, 0.5)
        h = boson_coefficients(lat, mass=1.0, cutoff=CutoffProfile.gaussian(1.0))
        assert h.values[0] == pytest.approx((2 * np.pi) ** -1.5, rel=1e-14)
        h2 = boson_coefficients(lat, mass=2.0, cutoff=CutoffProfile.gaussian(1.0))
        assert h2.values[0] == pytest.approx(1.0 / np.sqrt((2 * np.pi) ** 3 * 2.0), rel=1e-14)

    def test_weighted_norm_matches_direct_summation(self):
        lat = build_lattice(np.pi, 2.5)
        m = 1.3
        chi = CutoffProfile.gaussian(2.0)
        h = boson_coefficients(lat, m, chi)
        weighted = np.array(
            [h.values[i] / boson_energy(k, m) ** 0.25 for i, k in enumerate(lat.points)]
        )
        direct = lat.cell_volume * sum(
            chi(k) ** 2 / ((2 * np.pi) ** 3 * boson_energy(k, m) ** 1.5) for k in lat.points
        )
        assert np.sum(np.abs(weighted) ** 2) * lat.cell_volume == pytest.approx(direct, rel=1e-13)

    def test_boson_mass_must_be_positive(self):
        lat = build_lattice(2 * np.pi, 0.5)
        with pytest.raises(ParameterError):
            boson_coefficients(lat, 0.0, CutoffProfile.gaussian(1.0))
