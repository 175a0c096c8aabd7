import math

import numpy as np
import pytest

from yukawa_ed import bounds
from yukawa_ed.bounds import (
    RATIO_TOL,
    _apply,
    _largest_singular_value,
    _on_block,
    _random_states,
    compute_constants,
    verify_inequalities,
)
from yukawa_ed.fock import boson_number_diagonal, lift_boson, second_quantization, smeared_boson_block
from yukawa_ed.hamiltonian import (
    ModelParams,
    boson_field_block,
    build_model,
    chi_spatial_l1_norm,
    dirac_field_component,
    dirac_field_mask,
    fourier_quadrature,
)
from yukawa_ed.lattice import DiscreteCoefficients, discretize
from yukawa_ed.spinor import CutoffProfile, boson_energy


def minimal_params(**kwargs):
    defaults = dict(dirac_mass=1.0, boson_mass=1.0, coupling=1.0, n_max=3, total_boson_cap=3)
    defaults.update(kwargs)
    return ModelParams(**defaults)


def kg_operator(model):
    """H_KG = dGamma(omega) on the product basis."""
    omega = discretize(lambda k: boson_energy(k, model.params.boson_mass), model.boson_lattice)
    return second_quantization(omega, model.basis, "boson")


def two_point_params(**kwargs):
    defaults = dict(
        dirac_mass=1.0,
        boson_mass=0.8,
        coupling=0.6,
        fermion_points=((0, 0, 0), (0, 0, 1)),
        fermion_V=2 * math.pi,
        fermion_L=1.5,
        n_max=2,
        total_boson_cap=2,
    )
    defaults.update(kwargs)
    return ModelParams(**defaults)


class TestConstants:
    def test_zero_dirac_cutoff_collapses_all_constants(self):
        model = build_model(minimal_params(chi_dirac=CutoffProfile.zero()))
        report = compute_constants(model)
        assert all(v == 0 for v in report.dirac_field_norms)
        assert report.form_bound_slope == 0.0
        assert report.form_bound_offset == 0.0
        assert report.epsilon_ceiling == math.inf

    def test_spatial_l1_norm_against_quadrature_oracle(self):
        chi = CutoffProfile.gaussian(1.0)
        quad = fourier_quadrature(chi, np.zeros(3))
        assert chi_spatial_l1_norm(chi) == pytest.approx(quad.real, rel=1e-10)
        assert chi_spatial_l1_norm(chi) == pytest.approx((2 * math.pi) ** 1.5, rel=1e-14)

    def test_kg_norm_mass_relation(self):
        # energies are at least the mass, so dividing by sqrt(energy) loses
        # at least a factor sqrt(mass)
        model = build_model(two_point_params())
        report = compute_constants(model)
        m = model.params.boson_mass
        assert report.kg_weighted_norms[0] >= report.kg_weighted_norms[1] * math.sqrt(m) - 1e-15
        assert report.kg_weighted_norms[1] >= report.kg_weighted_norms[2] * math.sqrt(m) - 1e-15

    def test_constants_monotone_in_cutoff_radius(self):
        base = two_point_params()
        small = build_model(
            ModelParams(**{**base.__dict__, "chi_dirac": CutoffProfile.sharp_ball(0.5)})
        )
        large = build_model(
            ModelParams(**{**base.__dict__, "chi_dirac": CutoffProfile.sharp_ball(2.0)})
        )
        small_report = compute_constants(small)
        large_report = compute_constants(large)
        for a, b in zip(small_report.dirac_field_norms, large_report.dirac_field_norms):
            assert b >= a - 1e-15

    def test_rest_frame_constants_closed_form(self):
        params = minimal_params()
        model = build_model(params)
        report = compute_constants(model)
        unit = 1.0 / math.sqrt((2 * math.pi) ** 3)  # single coefficient of size c_f
        for l in range(4):
            assert report.dirac_field_norms[l] == pytest.approx(unit, rel=1e-13)
        assert report.kg_weighted_norms[0] == pytest.approx(unit, rel=1e-13)


class TestInequalities:
    def test_minimal_model_suite_passes(self):
        model = build_model(minimal_params())
        report = verify_inequalities(model, n_samples=300, seed=2)
        assert report.all_passed, report.worst_ratios()
        for check in report.checks.values():
            assert check.worst_ratio <= 1.0 + RATIO_TOL

    def test_two_point_model_suite_passes(self):
        model = build_model(two_point_params())
        report = verify_inequalities(model, n_samples=120, n_field_points=4, seed=5)
        assert report.all_passed, report.worst_ratios()

    def test_field_norm_bound_is_tight_at_rest(self):
        # on the rest-frame lattice each component collapses to one smeared
        # operator, so the triangle inequality is saturated
        model = build_model(minimal_params())
        report = verify_inequalities(model, n_samples=50, n_field_points=3, seed=9)
        assert report.checks["dirac_field_norm"].worst_ratio == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_bound(self):
        model = build_model(minimal_params())
        report = verify_inequalities(model, n_samples=10, seed=1)
        assert report.checks["vacuum_interaction"].worst_ratio <= 1.0 + RATIO_TOL

    def test_report_serialization(self):
        model = build_model(minimal_params())
        report = verify_inequalities(model, n_samples=20, seed=3)
        data = report.to_dict()
        assert data["all_passed"] is True
        assert set(data["checks"]) == set(report.checks)
        assert data["epsilon_ceiling"] > 0

    def test_real_operators_act_on_both_parts_bitwise(self):
        # verify_inequalities applies real operators to the real and imaginary
        # parts of complex states; the products must equal the complex ones
        model = build_model(two_point_params())
        rng = np.random.default_rng(4)
        psi = rng.standard_normal(model.basis.dim) + 1j * rng.standard_normal(model.basis.dim)
        for op in (model.h_int, model.h_free, kg_operator(model)):
            assert op.dtype == np.float64
            assert _apply(op, psi).tobytes() == (op.astype(complex) @ psi).tobytes()
        assert np.array_equal(_apply(model.h_int, psi.real), model.h_int @ psi.real)

    @pytest.mark.parametrize("points", [((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (1, 2, 1))])
    def test_free_parts_act_as_their_diagonals(self, points):
        # verify_inequalities applies H_KG, h_free and sqrt(H_KG) as vectors
        model = build_model(two_point_params(fermion_points=points))
        rng = np.random.default_rng(6)
        psi = rng.standard_normal(model.basis.dim) + 1j * rng.standard_normal(model.basis.dim)
        h_kg = kg_operator(model)
        for op in (model.h_free, h_kg):
            coo = op.tocoo()
            assert np.array_equal(coo.row, coo.col)
            assert np.array_equal(op.diagonal() * psi, _apply(op, psi))
        # the KG diagonal verify_inequalities builds is H_KG's, bitwise
        omega = np.array([boson_energy(k, model.params.boson_mass) for k in model.boson_lattice.points])
        kg = np.tile(boson_number_diagonal(model.basis, omega), model.basis.fermion_dim)
        assert kg.tobytes() == h_kg.diagonal().tobytes()


class TestTensorFactorRoute:
    """verify_inequalities checks the field and ladder bounds on the tensor factors."""

    @pytest.mark.parametrize(
        "params",
        [minimal_params(), two_point_params(), two_point_params(fermion_points=((0, 0, 0), (1, 2, 1)))],
        ids=["w0", "two_point", "off_axis_two_point"],
    )
    def test_block_action_equals_the_lifted_product_bitwise(self, params):
        model = build_model(params)
        rng = np.random.default_rng(8)
        psi = rng.standard_normal(model.basis.dim) + 1j * rng.standard_normal(model.basis.dim)
        n = model.boson_lattice.n_points
        eta = DiscreteCoefficients(rng.standard_normal(n) + 1j * rng.standard_normal(n), model.boson_lattice)
        ann = smeared_boson_block(eta, model.basis)
        for block in (ann, ann.conj().T.tocsr(), boson_field_block(model, np.array([0.4, -0.3, 1.2]))):
            assert _on_block(block, psi).tobytes() == _apply(lift_boson(model.basis, block), psi).tobytes()

    def test_mask_sigma_equals_the_dense_svd_of_the_lift(self):
        # W0: both dense, bitwise
        model = build_model(minimal_params())
        for l, x in enumerate(np.random.default_rng(3).normal(scale=2.0, size=(4, 3))):
            lifted = np.linalg.svd(dirac_field_component(model, l, x).toarray(), compute_uv=False)[0]
            assert _largest_singular_value(dirac_field_mask(model, l, x), seed=l) == lifted
        # the W1 fermion lattice (mask dimension 256, svds) under a small boson truncation
        model = build_model(two_point_params(n_max=1, total_boson_cap=1))
        for l, x in enumerate(np.random.default_rng(4).normal(scale=2.0, size=(4, 3))):
            lifted = np.linalg.svd(dirac_field_component(model, l, x).toarray(), compute_uv=False)[0]
            mask_sigma = _largest_singular_value(dirac_field_mask(model, l, x), seed=l)
            assert mask_sigma == pytest.approx(lifted, rel=1e-14, abs=0.0)

    def test_scaled_field_factor_fails_the_field_norm_check(self, monkeypatch):
        # at rest the field-norm ratio sits at 1 to 1e-10, so a 1e-6 error must show
        model = build_model(minimal_params())
        field_mask = bounds.dirac_field_mask
        monkeypatch.setattr(bounds, "dirac_field_mask", lambda *args: (1.0 + 1e-6) * field_mask(*args))
        report = verify_inequalities(model, n_samples=50, n_field_points=3, seed=9)
        assert not report.checks["dirac_field_norm"].passed
        assert [name for name, check in report.checks.items() if not check.passed] == ["dirac_field_norm"]

    def test_random_states_keep_the_two_draw_values_and_stream(self):
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = _random_states(got_rng, 37, 6)
        want = want_rng.standard_normal((6, 37)) + 1j * want_rng.standard_normal((6, 37))
        assert got.tobytes() == want.tobytes()
        assert got_rng.standard_normal(3).tobytes() == want_rng.standard_normal(3).tobytes()
