import math
import re
import tracemalloc

import numpy as np
import pytest

from yukawa_ed import bounds
from yukawa_ed.bounds import (
    EPS_GRID,
    RATIO_TOL,
    SAMPLE_CAP,
    _apply,
    _largest_singular_value,
    _state_blocks,
    compute_constants,
    verify_inequalities,
)
from yukawa_ed.errors import CapacityError, ParameterError
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


def on_block(block, psi):
    """``(I (x) block) @ psi`` one state at a time, without the lift."""
    return (block @ psi.reshape(-1, block.shape[1]).T).T.reshape(-1)


def kg_operator(model):
    """H_KG = dGamma(omega) on the product basis."""
    omega = discretize(lambda k: boson_energy(k, model.params.boson_mass), model.basis.boson_lattice)
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
        for op in (model.h_int, model.hamiltonian(0.0), kg_operator(model)):
            assert op.dtype == np.float64
            assert _apply(op, psi).tobytes() == (op.astype(complex) @ psi).tobytes()
        assert np.array_equal(_apply(model.h_int, psi.real), model.h_int @ psi.real)

    @pytest.mark.parametrize("points", [((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (1, 2, 1))])
    def test_free_parts_act_as_their_diagonals(self, points):
        # verify_inequalities applies H_KG, the free diagonal and sqrt(H_KG) as vectors
        model = build_model(two_point_params(fermion_points=points))
        rng = np.random.default_rng(6)
        psi = rng.standard_normal(model.basis.dim) + 1j * rng.standard_normal(model.basis.dim)
        h_kg = kg_operator(model)
        for op in (model.hamiltonian(0.0), h_kg):
            coo = op.tocoo()
            assert np.array_equal(coo.row, coo.col)
            assert np.array_equal(op.diagonal() * psi, _apply(op, psi))
        # the KG diagonal verify_inequalities builds from model.omega is H_KG's, bitwise
        omega = np.array([boson_energy(k, model.params.boson_mass) for k in model.basis.boson_lattice.points])
        assert model.omega.dtype == np.float64 and model.omega.tobytes() == omega.tobytes()
        kg = np.tile(boson_number_diagonal(model.basis, model.omega), model.basis.fermion_dim)
        assert kg.tobytes() == h_kg.diagonal().tobytes()


class TestTensorFactorRoute:
    """verify_inequalities checks the field and ladder bounds on the tensor factors."""

    @pytest.mark.parametrize(
        "params",
        [minimal_params(), two_point_params(), two_point_params(fermion_points=((0, 0, 0), (1, 2, 1)))],
        ids=["w0", "two_point", "off_axis_two_point"],
    )
    def test_block_action_equals_the_lifted_product_bitwise(self, params):
        # verify_inequalities applies I (x) B to a block of states through
        # _apply on the block's (-1, boson_dim) view
        model = build_model(params)
        rng = np.random.default_rng(8)
        states = rng.standard_normal((3, model.basis.dim)) + 1j * rng.standard_normal((3, model.basis.dim))
        n = model.basis.boson_lattice.n_points
        eta = DiscreteCoefficients(rng.standard_normal(n) + 1j * rng.standard_normal(n), model.basis.boson_lattice)
        ann = smeared_boson_block(eta, model.basis)
        for block in (ann, ann.conj().T.tocsr(), boson_field_block(model, np.array([0.4, -0.3, 1.2]))):
            got = _apply(block, states.reshape(-1, model.basis.boson_dim)).reshape(states.shape)
            for row, psi in zip(got, states):
                assert row.tobytes() == _apply(lift_boson(model.basis, block), psi).tobytes()
                assert row.tobytes() == on_block(block, psi).tobytes()

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

    @pytest.mark.parametrize("rows", [1, 4, 10, 25])
    def test_state_blocks_read_the_two_draw_blocks(self, rows, monkeypatch):
        if rows >= 10:  # one block, drawn straight from the generator
            monkeypatch.setattr(bounds.copy, "deepcopy", lambda rng: pytest.fail("copied the generator"))
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        stream = _state_blocks(got_rng, 37, 10, rows)
        blocks = [next(stream).copy()]  # each block is overwritten by the next
        re, im = want_rng.standard_normal((10, 37)), want_rng.standard_normal((10, 37))
        # the generator stands past both blocks once the first is read
        assert got_rng.standard_normal(3).tobytes() == want_rng.standard_normal(3).tobytes()
        blocks += [block.copy() for block in stream]
        assert [len(block) for block in blocks] == [min(rows, 10 - start) for start in range(0, 10, rows)]
        got = np.concatenate(blocks)
        assert got.real.tobytes() == re.tobytes()
        assert got.imag.tobytes() == im.tobytes()
        # each state holds the values of a + 1j * b
        assert got.tobytes() == (re + 1j * im).tobytes()


def complex_block_ratios(model, report, n_samples, n_field_points, seed):
    """The sampled worst ratios as computed with one complex block of states per batch.

    Every batch is ``a + 1j * b`` for two draws ``standard_normal((count, dim))``,
    real operators act through ``_apply`` and phi is ``a + 1j * b``: the
    arithmetic and draw order that ``verify_inequalities`` must reproduce.
    """
    rng = np.random.default_rng(seed)
    dim = model.basis.dim

    def states(count):
        return rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))

    omega = np.array([boson_energy(k, model.params.boson_mass) for k in model.basis.boson_lattice.points])
    kg = np.tile(boson_number_diagonal(model.basis, omega), model.basis.fermion_dim)
    sqrt_kg, free = np.sqrt(kg), model.free
    slope, offset = report.form_bound_slope, report.form_bound_offset
    m_kg0, m_kg1 = report.kg_weighted_norms[0], report.kg_weighted_norms[1]
    worst = dict.fromkeys(
        ("annihilator_relative", "creator_relative", "boson_field_vector", "form_bound",
         "interaction_relative", "sqrt_interpolation", "free_relative"),
        0.0,
    )
    for _ in range(max(1, n_samples // 20)):
        eta = DiscreteCoefficients(
            rng.standard_normal(len(omega)) + 1j * rng.standard_normal(len(omega)), model.basis.boson_lattice
        )
        weighted = DiscreteCoefficients(eta.values / np.sqrt(omega), model.basis.boson_lattice)
        ann = smeared_boson_block(eta, model.basis)
        cre = ann.conj().T.tocsr()
        for psi in states(5):
            sqrt_term = np.linalg.norm(sqrt_kg * psi)
            lhs = np.linalg.norm(on_block(ann, psi))
            worst["annihilator_relative"] = max(
                worst["annihilator_relative"], bounds._ratio(lhs, weighted.norm * sqrt_term)
            )
            lhs = np.linalg.norm(on_block(cre, psi))
            rhs = weighted.norm * sqrt_term + eta.norm * np.linalg.norm(psi)
            worst["creator_relative"] = max(worst["creator_relative"], bounds._ratio(lhs, rhs))
    for _ in range(n_field_points):
        x = rng.normal(scale=2.0 * model.params.chi_spatial.scale, size=3)
        phi_op = boson_field_block(model, x)
        for psi in states(3):
            lhs = np.linalg.norm(on_block(phi_op, psi))
            rhs = math.sqrt(2.0) * m_kg1 * np.linalg.norm(sqrt_kg * psi) + m_kg0 * np.linalg.norm(psi) / math.sqrt(2.0)
            worst["boson_field_vector"] = max(worst["boson_field_vector"], bounds._ratio(lhs, rhs))
    for psi in states(n_samples):
        norm_psi = np.linalg.norm(psi)
        sqrt_term = np.linalg.norm(sqrt_kg * psi)
        int_psi = _apply(model.h_int, psi)
        int_norm = np.linalg.norm(int_psi)
        rhs_int = slope * sqrt_term + offset * norm_psi
        worst["interaction_relative"] = max(worst["interaction_relative"], bounds._ratio(int_norm, rhs_int))
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lhs = abs(np.vdot(phi, int_psi))
        worst["form_bound"] = max(worst["form_bound"], bounds._ratio(lhs, rhs_int * np.linalg.norm(phi)))
        kg_term, free_term = np.linalg.norm(kg * psi), np.linalg.norm(free * psi)
        for eps in EPS_GRID:
            worst["sqrt_interpolation"] = max(
                worst["sqrt_interpolation"], bounds._ratio(sqrt_term, eps * kg_term + norm_psi / (4.0 * eps))
            )
            rhs_free = eps * slope * free_term + (slope / (4.0 * eps) + offset) * norm_psi
            worst["free_relative"] = max(worst["free_relative"], bounds._ratio(int_norm, rhs_free))
    return worst


def traced_peak(model, report, n_samples):
    """Traced peak of one ``verify_inequalities`` run above what was held before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        verify_inequalities(model, report=report, n_samples=n_samples, n_field_points=2, seed=3)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestSampleBlocks:
    """verify_inequalities streams the interaction batch in blocks of at most CHUNK_ENTRIES float values."""

    @pytest.mark.parametrize("seed", [2, 13])
    @pytest.mark.parametrize("rows", [None, 128, 30, 7])  # None keeps the default budget
    @pytest.mark.parametrize(
        "params",
        [minimal_params(), two_point_params(), two_point_params(fermion_points=((0, 0, 0), (1, 2, 1)))],
        ids=["w0", "two_point", "off_axis_two_point"],  # the off-axis h_int is complex
    )
    def test_ratios_equal_the_complex_block_oracle_bitwise(self, params, rows, seed, monkeypatch):
        model = build_model(params)
        if rows is not None:  # 100 states in blocks of `rows`: fewer than one block, or the last one partial
            monkeypatch.setattr(bounds, "CHUNK_ENTRIES", 2 * rows * model.basis.dim)
        report = verify_inequalities(model, n_samples=100, n_field_points=3, seed=seed)
        want = complex_block_ratios(model, compute_constants(model), 100, 3, seed)
        got = report.worst_ratios()
        assert {name: got[name].hex() for name in want} == {name: float(v).hex() for name, v in want.items()}

    def test_traced_peak_does_not_grow_with_the_samples(self, monkeypatch):
        # 20-state blocks, so 40 samples already fill whole blocks; holding
        # the batch would add 16 bytes per entry of the 360 further states
        model = build_model(two_point_params())
        report = compute_constants(model)
        monkeypatch.setattr(bounds, "CHUNK_ENTRIES", 2 * 20 * model.basis.dim)
        small, large = traced_peak(model, report, 40), traced_peak(model, report, 400)
        assert large - small < 8 * bounds.CHUNK_ENTRIES  # one block's scratch array

    def test_negative_seed_raises_before_any_work(self, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the seed check")

        monkeypatch.setattr(bounds, "compute_constants", computed)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            verify_inequalities(build_model(minimal_params()), n_samples=10, seed=-1)

    def test_sample_cap_raises_before_anything_is_drawn(self, monkeypatch):
        def drawn(*args, **kwargs):
            raise AssertionError("drew or computed before the cap check")

        monkeypatch.setattr(bounds, "compute_constants", drawn)
        monkeypatch.setattr(bounds, "_state_blocks", drawn)
        model = build_model(minimal_params())
        n = SAMPLE_CAP // 64 + 1
        with pytest.raises(CapacityError, match="over the cap") as err:
            verify_inequalities(model, n_samples=n)
        assert (err.value.projected, err.value.cap) == (n * 64, SAMPLE_CAP)

    @pytest.mark.parametrize("points", [0, -2])
    def test_no_field_point_is_rejected(self, points):
        # without a point the field checks would report a pass they never ran
        with pytest.raises(ParameterError, match=f"n_field_points must be >= 1, got {points}"):
            verify_inequalities(build_model(minimal_params()), n_samples=10, n_field_points=points)

    @pytest.mark.parametrize("value", [10.5, True, math.nan, "x", None, [2]])
    @pytest.mark.parametrize("name", ["n_samples", "n_field_points", "seed"])
    def test_non_integers_raise_before_any_work(self, name, value, monkeypatch):
        # n_samples = 10.5 and n_field_points = 2.5 used to raise a bare TypeError after the constants, and
        # "x", None and [2] float()'s own ValueError or TypeError
        def computed(*args, **kwargs):
            raise AssertionError("computed before the argument check")

        monkeypatch.setattr(bounds, "compute_constants", computed)
        with pytest.raises(ParameterError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            verify_inequalities(build_model(minimal_params()), **{"n_samples": 10, name: value})

    @pytest.mark.parametrize("samples", [0, -2])
    def test_no_sample_is_rejected(self, samples):
        with pytest.raises(ParameterError, match=f"n_samples must be >= 1, got {samples}"):
            verify_inequalities(build_model(minimal_params()), n_samples=samples)

    @pytest.mark.parametrize("three", [3.0, np.int64(3)])
    def test_integral_values_pass(self, three):
        model = build_model(minimal_params())
        want = verify_inequalities(model, n_samples=3, n_field_points=3, seed=3).worst_ratios()
        assert verify_inequalities(model, n_samples=three, n_field_points=three, seed=three).worst_ratios() == want

    def test_sample_cap_admits_exactly_the_cap(self, monkeypatch):
        model = build_model(minimal_params())
        monkeypatch.setattr(bounds, "SAMPLE_CAP", 64 * 30)
        assert verify_inequalities(model, n_samples=30, n_field_points=1).checks["form_bound"].samples == 30
        with pytest.raises(CapacityError):
            verify_inequalities(model, n_samples=31, n_field_points=1)
