import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from yukawa_ed import hamiltonian
from yukawa_ed.errors import AssemblyError, CapacityError, ParameterError
from yukawa_ed.fock import (
    FermionMode,
    FockState,
    boson_annihilator,
    boson_block_annihilator,
    boson_creator,
    fermion_annihilator,
    fermion_creator,
    lift_boson,
    lift_fermion,
    mask_annihilator,
    second_quantization,
)
from yukawa_ed.hamiltonian import (
    FactorTable,
    ModelParams,
    boson_field,
    boson_field_block,
    build_model,
    chi_spatial_fourier,
    chi_spatial_l1_norm,
    dirac_field_component,
    dirac_field_mask,
    fourier_quadrature,
    assemble_interaction,
    hermiticity_defect,
    interaction_form_quadrature,
    interaction_hermiticity_defect,
    ladder_factors,
)
from yukawa_ed.lattice import discretize
from yukawa_ed.spinor import SPINS, CutoffProfile, boson_energy, dirac_algebra, dirac_energy

RNG = np.random.default_rng(31)

TWO_PI = 2.0 * math.pi


def minimal_params(**kwargs):
    defaults = dict(dirac_mass=1.0, boson_mass=1.0, coupling=1.0, n_max=3, total_boson_cap=3)
    defaults.update(kwargs)
    return ModelParams(**defaults)


def two_point_params(**kwargs):
    defaults = dict(
        dirac_mass=1.0,
        boson_mass=1.0,
        coupling=0.7,
        fermion_points=((0, 0, 0), (0, 0, 1)),
        fermion_V=TWO_PI,
        fermion_L=1.5,
        n_max=1,
        total_boson_cap=1,
    )
    defaults.update(kwargs)
    return ModelParams(**defaults)


class TestSpatialCutoffTransform:
    def test_zero_momentum_matches_quadrature_oracle(self):
        chi = CutoffProfile.gaussian(1.0)
        exact = chi_spatial_fourier(np.zeros(3), chi)
        assert exact == pytest.approx((2 * math.pi) ** 1.5, rel=1e-14)
        quad = fourier_quadrature(chi, np.zeros(3))
        assert quad.real == pytest.approx(exact, rel=1e-10)
        assert abs(quad.imag) < 1e-12

    def test_unit_momentum_matches_quadrature_oracle(self):
        chi = CutoffProfile.gaussian(1.0)
        xi = np.array([0.0, 1.0, 0.0])
        exact = chi_spatial_fourier(xi, chi)
        assert exact == pytest.approx((2 * math.pi) ** 1.5 * math.exp(-0.5), rel=1e-14)
        quad = fourier_quadrature(chi, xi)
        assert quad.real == pytest.approx(exact, rel=1e-10)

    def test_even_symmetry(self):
        chi = CutoffProfile.gaussian(0.7)
        xi = RNG.normal(size=3)
        assert chi_spatial_fourier(xi, chi) == chi_spatial_fourier(-xi, chi)

    def test_l1_norm_scaling(self):
        assert chi_spatial_l1_norm(CutoffProfile.gaussian(2.0)) == pytest.approx(
            (2 * math.pi * 4.0) ** 1.5, rel=1e-14
        )

    def test_non_gaussian_rejected(self):
        with pytest.raises(ParameterError):
            chi_spatial_fourier(np.zeros(3), CutoffProfile.sharp_ball(1.0))


class TestModelParams:
    def test_free_gap(self):
        assert minimal_params(dirac_mass=0.3, boson_mass=2.0).free_gap == 0.3

    def test_masses_validated(self):
        with pytest.raises(ParameterError):
            ModelParams(dirac_mass=0.0, boson_mass=1.0, coupling=0.0)
        with pytest.raises(ParameterError):
            ModelParams(dirac_mass=1.0, boson_mass=-2.0, coupling=0.0)

    @pytest.mark.parametrize("key", ["coupling", "chi_hat_floor", "dirac_mass", "fermion_L", "boson_V"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, np.float32("nan"), np.float32("inf"), "1.0", 1 + 0j, True, 10**400],
        ids=lambda value: repr(value)[:20],
    )
    def test_non_finite_floats_rejected(self, key, value):
        # a NaN coupling used to build NaN interaction entries, a NaN floor an empty h_int; a float32 NaN floor
        # built an empty h_int too, float32 NaN and inf and strings raised bare errors, and 1 + 0j was accepted
        with pytest.raises(ParameterError, match=f"{key} must be a finite real number"):
            minimal_params(**{key: value})

    def test_real_numbers_of_any_type_pass(self):
        params = minimal_params(coupling=np.float32(0.5), fermion_L=1, boson_V=None, chi_hat_floor=np.float64(0))
        assert params.coupling == 0.5 and params.boson_V is None

    @pytest.mark.parametrize(
        "key, value",
        [("n_max", True), ("n_max", 2.5), ("n_max", 3.0), ("total_boson_cap", True), ("total_boson_cap", 2.5),
         ("point_cap", False), ("point_cap", 1e5), ("basis_cap", True), ("basis_cap", "64")],
    )
    def test_counts_must_be_integers(self, key, value):
        # n_max=True, total_boson_cap=True built a 32-state model; n_max=2.5 a TypeError in the basis count
        with pytest.raises(ParameterError, match=key):
            minimal_params(**{key: value})

    def test_integer_counts_accepted(self):
        params = minimal_params(n_max=np.int64(2), total_boson_cap=None, point_cap=10**6, basis_cap=np.int32(64))
        assert params.n_max == 2 and params.total_boson_cap is None

    def test_spatial_cutoff_must_be_gaussian(self):
        with pytest.raises(ParameterError):
            ModelParams(
                dirac_mass=1.0,
                boson_mass=1.0,
                coupling=0.0,
                chi_spatial=CutoffProfile.sharp_ball(1.0),
            )

    def test_default_lattice_past_the_basis_cap_raises_capacity_error(self):
        params = minimal_params(fermion_L=5.0)  # 1 331 points, 4 fermion modes each
        assert params.build_fermion_lattice().n_points == 1331
        with pytest.raises(CapacityError):
            build_model(params)

    def test_boson_lattice_defaults_to_fermion_geometry(self):
        params = two_point_params()
        assert params.build_boson_lattice().n_points == 2
        params2 = minimal_params(boson_V=math.pi, boson_L=0.9)
        assert params2.build_boson_lattice().spacing == pytest.approx(2.0)


class TestFreeHamiltonian:
    def test_vacuum_energy_zero_and_spectrum_contains_zero(self):
        h0 = build_model(minimal_params()).hamiltonian(0.0)
        diag = h0.diagonal().real
        assert diag[0] == 0.0
        assert np.min(diag) == 0.0

    def test_lowest_nonzero_entry_is_smaller_mass(self):
        for M, m in [(1.0, 1.0), (1.0, 0.5), (0.3, 2.0)]:
            diag = build_model(minimal_params(dirac_mass=M, boson_mass=m)).hamiltonian(0.0).diagonal().real
            assert np.min(diag[diag > 0]) == pytest.approx(min(M, m), abs=1e-15)

    def test_mixed_state_additivity(self):
        model = build_model(minimal_params(dirac_mass=0.8, boson_mass=1.7))
        diag = model.hamiltonian(0.0).diagonal().real
        idx = model.basis.index_of(FockState(0b0001, (1,)))  # one b-particle, one boson at rest
        assert diag[idx] == pytest.approx(0.8 + 1.7, rel=1e-15)


def brute_force_nonzero_combinations(f, g, h, gamma0):
    """Independent count of surviving monomials from the coefficient arrays."""
    n_f = f[0][0].lattice.n_points
    n_b = h.lattice.n_points
    count = 0
    for si in range(2):
        for spi in range(2):
            for qi in range(n_f):
                for qpi in range(n_f):
                    for l in range(4):
                        for lp in range(4):
                            if gamma0[l, lp] == 0:
                                continue
                            products = [
                                f[si][l].values[qi] * np.conj(f[spi][lp].values[qpi]),
                                f[si][l].values[qi] * g[spi][lp].values[qpi],
                                np.conj(g[si][l].values[qi]) * np.conj(f[spi][lp].values[qpi]),
                                np.conj(g[si][l].values[qi]) * g[spi][lp].values[qpi],
                            ]
                            alive = sum(1 for p in products if p != 0)
                            for ki in range(n_b):
                                if h.values[ki] != 0:
                                    count += 2 * alive  # one boson emission and one absorption kind
    return count


class TestInteractionTerms:
    def test_minimal_lattice_has_eight_terms_with_density_signs(self):
        terms = build_model(minimal_params()).terms
        assert len(terms) == 8
        assert set(terms.fermion_kind) == {"b*b", "dd*"}
        assert np.all(terms.spin == terms.spin_p)
        assert np.all(terms.component == terms.component_p)
        sign = np.where(np.isin(terms.component, (0, 1)), 1.0, -1.0)
        assert np.all(np.sign(terms.coefficient.real) == sign)
        assert np.all(terms.coefficient.imag == 0.0)

    def test_term_count_matches_brute_force_oracle(self):
        for algebra in (dirac_algebra("dirac"), dirac_algebra("chiral")):
            for params in (minimal_params(), two_point_params()):
                model = build_model(params, algebra=algebra)
                expected = brute_force_nonzero_combinations(model.f, model.g, model.h, algebra.beta)
                assert len(model.terms) == expected

    def test_generic_momentum_point_count(self):
        # one lattice point at generic momentum: each spinor has one structural zero
        params = minimal_params(
            fermion_points=((1, 2, 3),), fermion_V=4 * math.pi, fermion_L=2.0
        )
        model = build_model(params)
        expected = brute_force_nonzero_combinations(model.f, model.g, model.h, model.algebra.beta)
        assert len(model.terms) == expected == 72  # 36 surviving spin-component combos, two boson kinds

    def test_zero_dirac_cutoff_gives_empty_term_list(self):
        model = build_model(minimal_params(chi_dirac=CutoffProfile.zero()))
        assert len(model.terms) == 0
        assert model.h_int.nnz == 0

    @pytest.mark.parametrize("representation", ["dirac", "chiral"])
    def test_each_row_matches_a_scalar_recomputation_from_its_labels(self, representation):
        algebra = dirac_algebra(representation)
        model = build_model(two_point_params(fermion_points=((0, 0, 0), (1, 2, 1))), algebra=algebra)
        f, g, h = model.f, model.g, model.h
        q, k = model.basis.fermion_lattice.points, model.basis.boson_lattice.points
        lat_f, lat_b = model.basis.fermion_lattice, model.basis.boson_lattice
        base = lat_f.cell_volume * math.sqrt(lat_b.cell_volume) / math.sqrt(2.0)
        spin = {0.5: 0, -0.5: 1}
        assert len(model.terms) > 0
        for t in model.terms:
            si, spi, l, lp, qi, qpi = spin[t.spin], spin[t.spin_p], t.component, t.component_p, t.q_index, t.qp_index
            spinor = {
                "b*b": f[si][l].values[qi] * np.conj(f[spi][lp].values[qpi]),
                "b*d*": f[si][l].values[qi] * g[spi][lp].values[qpi],
                "db": np.conj(g[si][l].values[qi]) * np.conj(f[spi][lp].values[qpi]),
                "dd*": np.conj(g[si][l].values[qi]) * g[spi][lp].values[qpi],
            }[t.fermion_kind]
            phase = {"b*b": -q[qi] + q[qpi], "b*d*": -q[qi] - q[qpi], "db": q[qi] + q[qpi], "dd*": q[qi] - q[qpi]}
            if t.boson_kind == "a":
                bos, balance = np.conj(h.values[t.k_index]), phase[t.fermion_kind] - k[t.k_index]
            else:
                bos, balance = h.values[t.k_index], phase[t.fermion_kind] + k[t.k_index]
            hat = (2 * math.pi) ** 1.5 * math.exp(-0.5 * float(balance @ balance))
            assert np.array_equal(t.momentum_balance, balance)
            assert t.coefficient == pytest.approx(algebra.beta[l, lp] * spinor * bos * hat * base, rel=1e-14)

    def test_adjoint_closure_with_conjugated_coefficients(self):
        adjoint_kind = {"b*b": "b*b", "dd*": "dd*", "b*d*": "db", "db": "b*d*"}
        adjoint_bkind = {"a": "a*", "a*": "a"}
        fields = ["fermion_kind", "boson_kind", "spin", "spin_p", "component", "component_p", "q_index", "qp_index", "k_index"]
        for representation in ("dirac", "chiral"):
            terms = build_model(two_point_params(), algebra=dirac_algebra(representation)).terms
            rows = list(zip(terms[fields].tolist(), terms.coefficient))
            index = dict(rows)
            for (kind, bkind, s, s_p, l, l_p, qi, qpi, ki), coefficient in rows:
                key = (adjoint_kind[kind], adjoint_bkind[bkind], s_p, s, l_p, l, qpi, qi, ki)
                assert key in index
                assert index[key] == pytest.approx(np.conj(coefficient), rel=1e-14)


def independent_minimal_interaction(params):
    """Hand expansion on the rest-frame single-point lattice.

    The density reduces to (total fermion number - 2) and the boson factor to
    (a + a*), with the scalar prefactor built from first principles.
    """
    c_f2 = params.chi_dirac(np.zeros(3)) ** 2 / ((2 * math.pi) ** 3 * params.dirac_mass)
    c_h = params.chi_kg(np.zeros(3)) / math.sqrt((2 * math.pi) ** 3 * params.boson_mass)
    chi0 = (2 * math.pi * params.chi_spatial.scale**2) ** 1.5
    scale = chi0 * c_f2 * c_h / math.sqrt(2.0)  # unit cell volumes on this lattice

    number = np.diag([bin(mask).count("1") for mask in range(16)]).astype(complex)
    dim_b = params.n_max + 1
    lower = np.diag(np.sqrt(np.arange(1, dim_b)), k=1).astype(complex)  # a
    displac = lower + lower.conj().T
    return scale * np.kron(number - 2.0 * np.eye(16), displac)


class TestAssembly:
    def test_zero_coupling_returns_free_part_exactly(self):
        model = build_model(minimal_params(coupling=0.0))
        total = model.hamiltonian()
        free = sp.diags(model.free)
        assert (total - free).nnz == 0

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, kappa):
        # NaN gave 60 NaN entries among 123 on this model, inf non-finite data
        model = build_model(minimal_params())
        with pytest.raises(ParameterError, match="coupling"):
            model.hamiltonian(kappa)

    def test_hermiticity_at_random_parameters(self):
        for _ in range(3):
            params = two_point_params(
                dirac_mass=float(RNG.uniform(0.2, 2.0)),
                boson_mass=float(RNG.uniform(0.2, 2.0)),
                coupling=float(RNG.uniform(-1.5, 1.5)),
                chi_dirac=CutoffProfile.gaussian(float(RNG.uniform(0.5, 2.0))),
            )
            total = build_model(params).hamiltonian()
            assert hermiticity_defect(total) < 1e-12

    def test_coupling_linearity(self):
        params = minimal_params()
        h_a = build_model(replace(params, coupling=0.3)).hamiltonian()
        h_b = build_model(replace(params, coupling=1.1)).hamiltonian()
        h_free = build_model(params).hamiltonian(0.0)
        h_sum = build_model(replace(params, coupling=1.4)).hamiltonian()
        defect = (h_a + h_b - h_free - h_sum).toarray()
        assert np.max(np.abs(defect)) < 1e-13

    def test_minimal_basis_matrix_matches_hand_fixture(self):
        params = minimal_params()
        model = build_model(params)
        expected = independent_minimal_interaction(params)
        assert model.basis.dim == 64
        assert np.allclose(model.h_int.toarray(), expected, atol=1e-14)

    def test_spectrum_invariant_under_chiral_representation(self):
        params = minimal_params(coupling=0.8, boson_mass=0.7)
        h_dirac_rep = build_model(params).hamiltonian()
        h_chiral_rep = build_model(params, algebra=dirac_algebra("chiral")).hamiltonian()
        e1 = np.linalg.eigvalsh(h_dirac_rep.toarray())
        e2 = np.linalg.eigvalsh(h_chiral_rep.toarray())
        assert np.allclose(e1, e2, atol=1e-10)

    def test_interaction_matches_full_space_ladder_products(self):
        # oracle: each term as a product of full-space ladder operators, no mask-space factors
        model = build_model(two_point_params())
        assert set(model.terms.fermion_kind) == {"b*b", "b*d*", "db", "dd*"}
        factors = {
            "b*b": (("b", True), ("b", False)),
            "b*d*": (("b", True), ("d", True)),
            "db": (("d", False), ("b", False)),
            "dd*": (("d", False), ("d", True)),
        }

        def fermion_op(species, create, spin, point):
            mode = FermionMode(species, spin, point)
            op = fermion_creator if create else fermion_annihilator
            return op(mode, model.basis)

        expected = sp.csr_matrix((model.basis.dim, model.basis.dim), dtype=complex)
        for t in model.terms:
            (left, left_create), (right, right_create) = factors[t.fermion_kind]
            boson_op = boson_annihilator if t.boson_kind == "a" else boson_creator
            expected = expected + t.coefficient * (
                fermion_op(left, left_create, t.spin, t.q_index)
                @ fermion_op(right, right_create, t.spin_p, t.qp_index)
                @ boson_op(t.k_index, model.basis)
            )
        assert np.max(np.abs((model.h_int - expected).toarray())) < 1e-14

    def test_hermiticity_defect_is_rejected(self, monkeypatch):
        enumerate_terms = hamiltonian.enumerate_interaction_terms

        def perturbed(*args):
            terms = enumerate_terms(*args)
            terms.coefficient[0] *= 1 + 1e-6
            return terms

        monkeypatch.setattr(hamiltonian, "enumerate_interaction_terms", perturbed)
        with pytest.raises(AssemblyError):
            build_model(two_point_params())

    def test_ladder_defect_equals_full_defect(self):
        model = build_model(two_point_params(n_max=2, total_boson_cap=2))
        factors = ladder_factors(model.terms, model.basis)
        assert interaction_hermiticity_defect(factors, model.basis) == 0.0
        assert hermiticity_defect(assemble_interaction(factors, model.basis)) == 0.0
        broken = replace(factors, data=factors.data.copy())
        broken.data[factors.ladders.index(("a", 1)), 0] *= 1 + 1e-6
        kept = [r != ("a*", 0) for r in factors.ladders]
        absent = FactorTable(tuple(r for r, keep in zip(factors.ladders, kept) if keep), factors.indptr,
                             factors.indices, factors.data[kept])
        for mutated in (broken, absent):
            full = hermiticity_defect(assemble_interaction(mutated, model.basis))
            assert full > 1e-12
            assert interaction_hermiticity_defect(mutated, model.basis) == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("representation", ["dirac", "chiral"])
    def test_no_rounding_residues_stored(self, representation):
        # sums that vanish exactly (gamma0's signs cancelling components) store nothing
        h_int = build_model(two_point_params(), algebra=dirac_algebra(representation)).h_int
        magnitude = np.abs(h_int.data)
        assert np.min(magnitude) >= 1e-12 * np.max(magnitude)

    def test_interaction_conserves_charge(self):
        model = build_model(two_point_params())
        charge = model.basis.charge()
        coo = model.h_int.tocoo()
        assert np.all(charge[coo.row] == charge[coo.col])


def kron_sum_oracle(factors, basis):
    """H_int as 2 N_b sparse additions of sp.kron(F_r, B_r), one per boson ladder."""
    total = sp.csr_matrix((basis.dim, basis.dim))
    for (bkind, k), f_r in factors.items():
        b_r = boson_block_annihilator(basis, k)
        if bkind == "a*":
            b_r = b_r.conj().T
        total = total + sp.kron(f_r, b_r, format="csr")
    return total


def assert_bitwise_equal(got, want):
    """Equal CSR matrices, or equal factor tables, array by array to the byte."""
    if sp.issparse(want):
        assert got.shape == want.shape and got.dtype == want.dtype
    else:
        assert got.ladders == want.ladders
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def table_of(factors, dim):
    """A FactorTable of per-ladder matrices: U the union of their patterns, zero where a ladder has no entry."""
    mats = {r: sp.csr_matrix(f_r) for r, f_r in factors.items()}
    keys = {r: np.repeat(np.arange(dim, dtype=np.int64) * dim, np.diff(m.indptr)) + m.indices for r, m in mats.items()}
    union = np.unique(np.concatenate([np.zeros(0, np.int64), *keys.values()]))
    data = np.zeros((len(mats), len(union)), np.result_type(float, *(m.dtype for m in mats.values())))
    for row, m, key in zip(data, mats.values(), keys.values()):
        row[np.searchsorted(union, key)] = m.data
    rows, cols = np.divmod(union, dim)
    return FactorTable(tuple(mats), np.searchsorted(rows, np.arange(dim + 1)), cols.astype(np.int32), data)


def mixed_pattern_factors(model):
    """The model's factors with one ladder thinned, one grown, one emptied: as a table and as per-ladder matrices."""
    factors = product_factors_oracle(model.terms, model.basis)
    thinned, grown, emptied = list(factors)[:3]
    f_r = factors[thinned].tocoo()
    factors[thinned] = sp.csr_matrix((f_r.data[::2], (f_r.row[::2], f_r.col[::2])), shape=f_r.shape)
    factors[grown] = factors[grown] + 0.25 * sp.eye(f_r.shape[0], format="csr")
    factors[emptied] = sp.csr_matrix(f_r.shape)
    table = table_of(factors, model.basis.fermion_dim)
    assert len({(f.nnz, f.indices.tobytes()) for f in factors.values()}) == 4
    assert len(table.indices) > len(model.factors.indices)  # the grown diagonal joins U
    assert np.count_nonzero(table.data, axis=1).tolist() == [f.nnz for f in factors.values()]
    return table, factors


KERNEL_MODELS = {
    "minimal": minimal_params(),
    "w1": two_point_params(coupling=0.5, n_max=3, total_boson_cap=6),
    "off_axis": ModelParams(  # complex coefficients
        dirac_mass=1.0,
        boson_mass=1.0,
        coupling=1.0,
        fermion_points=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
        boson_points=((0, 0, 0),),
        fermion_V=math.pi,
        fermion_L=0.9,
        n_max=1,
        total_boson_cap=1,
    ),
    "no_terms": minimal_params(coupling=0.0, chi_dirac=CutoffProfile.zero()),
}

# the kernel's chunked passes: every kernel model, factors of four patterns, and a pruned model
CHUNK_CASES = dict(KERNEL_MODELS, mixed_patterns=KERNEL_MODELS["w1"],
                   pruned_3=two_point_params(chi_spatial=CutoffProfile.gaussian(3.0)))


class TestAssemblyKernel:
    @pytest.mark.parametrize("name", list(KERNEL_MODELS))
    def test_kernel_matches_kron_sum_bitwise(self, name):
        model = build_model(KERNEL_MODELS[name])
        want = kron_sum_oracle(product_factors_oracle(model.terms, model.basis), model.basis)
        assert_bitwise_equal(assemble_interaction(model.factors, model.basis), want)
        assert_bitwise_equal(model.h_int, want)
        assert model.h_int.has_canonical_format

    def test_kernel_on_factors_with_different_patterns(self):
        model = build_model(KERNEL_MODELS["w1"])
        table, factors = mixed_pattern_factors(model)
        got = assemble_interaction(table, model.basis)
        assert_bitwise_equal(got, kron_sum_oracle(factors, model.basis))
        want = (model.hamiltonian(0.0) + 0.5 * kron_sum_oracle(factors, model.basis)).tocsr()
        assert_bitwise_equal(assemble_interaction(table, model.basis, 0.5, model.free), want)

    @pytest.mark.parametrize("name", list(KERNEL_MODELS))
    def test_hamiltonian_matches_sparse_sum_bitwise(self, name):
        model = build_model(KERNEL_MODELS[name])
        for kappa in (0.5, -1.3, model.params.coupling):
            if kappa != 0:
                assert_bitwise_equal(model.hamiltonian(kappa), (model.hamiltonian(0.0) + kappa * model.h_int).tocsr())
        assert_bitwise_equal(model.hamiltonian(0.0), sp.diags(model.free, format="csr"))

    def test_assembly_is_lazy(self, monkeypatch):
        calls = []
        kernel, kron = hamiltonian.assemble_interaction, sp.kron

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return kernel(*args, **kwargs)

        def no_kron(*args, **kwargs):
            raise AssertionError("full-space Kronecker product")

        monkeypatch.setattr(hamiltonian, "assemble_interaction", counted)
        monkeypatch.setattr(sp, "kron", no_kron)
        model = build_model(KERNEL_MODELS["w1"])
        assert calls == []
        model.hamiltonian()
        assert len(calls) == 1
        assert model.h_int is model.h_int
        assert len(calls) == 2
        model.hamiltonian(0.0)  # the free diagonal alone: no kernel call
        assert len(calls) == 2
        monkeypatch.setattr(sp, "kron", kron)
        assert_bitwise_equal(model.h_int, kron_sum_oracle(product_factors_oracle(model.terms, model.basis), model.basis))

    def test_pruned_result_holds_only_its_entries(self):
        # scipy's eliminate_zeros leaves views of the full-length buffers when over half the entries survive
        model = build_model(CHUNK_CASES["pruned_3"])
        for h in (model.h_int, model.hamiltonian()):
            for part in (h.data, h.indices):
                held = part if part.base is None else part.base
                assert held.nbytes == part.nbytes == h.nnz * part.itemsize

    @pytest.mark.parametrize("name", list(CHUNK_CASES))
    @pytest.mark.parametrize("budget", [1, 7, 300])
    def test_small_budgets_match_kron_sum_bitwise(self, name, budget, monkeypatch):
        model = build_model(CHUNK_CASES[name])
        table, factors = (mixed_pattern_factors(model) if name == "mixed_patterns"
                          else (model.factors, product_factors_oracle(model.terms, model.basis)))
        want = kron_sum_oracle(factors, model.basis)
        want_h = (model.hamiltonian(0.0) + 0.5 * want).tocsr()
        if name == "pruned_3":  # the table's pattern U holds entries that come out zero
            assert want.nnz < len(table.indices) * 2 * len(model.basis.boson_lowering[0])
        assert name == "no_terms" or np.diff(table.indptr).max() * model.basis.boson_dim > 1  # a row group's table
        monkeypatch.setattr(hamiltonian, "CHUNK_ENTRIES", budget)
        assert_bitwise_equal(assemble_interaction(table, model.basis), want)
        assert_bitwise_equal(assemble_interaction(table, model.basis, 0.5, model.free), want_h)

    @pytest.mark.parametrize("name", ["w1", "off_axis"])
    @pytest.mark.parametrize("budget", [1, 7, 300, None])
    def test_diagonal_zeros_in_many_mask_rows(self, name, budget, monkeypatch):
        """Zeros in some states of many mask rows (each row its own kind) and in whole rows, bitwise at every budget."""
        model = build_model(KERNEL_MODELS[name])
        n_f, n_b = model.basis.fermion_dim, model.basis.boson_dim
        d = model.free.copy()
        d[::37] = 0  # at a different place in each mask row it falls in
        d.reshape(n_f, n_b)[1::7] = 0
        zeros = np.count_nonzero(d.reshape(n_f, n_b) == 0, axis=1)
        assert np.count_nonzero((zeros > 0) & (zeros < n_b)) > 50 and np.count_nonzero(zeros == n_b) > 30
        want = (sp.diags(d, format="csr") + 0.5 * kron_sum_oracle(product_factors_oracle(model.terms, model.basis),
                                                                   model.basis)).tocsr()
        if budget is not None:
            monkeypatch.setattr(hamiltonian, "CHUNK_ENTRIES", budget)
        assert_bitwise_equal(assemble_interaction(model.factors, model.basis, 0.5, d), want)

    @pytest.mark.parametrize("name", ["w1", "off_axis"])
    def test_hamiltonian_hands_the_kernel_the_stored_free_diagonal(self, name, monkeypatch):
        seen, kernel = [], hamiltonian.assemble_interaction

        def recorded(factors, basis, coupling=1.0, diagonal=None):
            seen.append(diagonal)
            return kernel(factors, basis, coupling, diagonal)

        monkeypatch.setattr(hamiltonian, "assemble_interaction", recorded)
        model = build_model(KERNEL_MODELS[name])
        model.hamiltonian(0.5)
        assert len(seen) == 1 and seen[0] is model.free
        assert model.free.dtype == np.float64 and model.free.shape == (model.basis.dim,)
        assert model.free.tobytes() == model.hamiltonian(0.0).diagonal().tobytes()
        assert len(seen) == 1  # the free diagonal alone needs no kernel call

    def test_small_model_is_one_chunk_of_each_pass(self, monkeypatch):
        spans, chunks = [], hamiltonian.chunks

        def recorded(ends, budget):
            spans.append(list(chunks(ends, budget)))
            return iter(spans[-1])

        monkeypatch.setattr(hamiltonian, "chunks", recorded)
        model = build_model(KERNEL_MODELS["w1"])
        model.hamiltonian()
        assert spans and all(len(ranges) == 1 for ranges in spans)

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_scratch_does_not_grow_with_the_operator(self, diagonal, monkeypatch):
        """Same masks, a six times larger operator: the traced peak above the result barely moves.

        Only the templates of the largest row group grow with the boson block;
        the tables sized by the whole operator are gone.
        """
        import tracemalloc

        # both operators span many chunks at this budget (raising=False: a kernel without one is measured as is)
        monkeypatch.setattr(hamiltonian, "CHUNK_ENTRIES", 1 << 10, raising=False)
        extra, result = [], []
        for n_max in (3, 8):
            model = build_model(two_point_params(coupling=0.5, n_max=n_max, total_boson_cap=2 * n_max))
            args = (0.5, model.free) if diagonal else ()
            tracemalloc.start()
            try:
                h = assemble_interaction(model.factors, model.basis, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            result.append(h.data.nbytes + h.indices.nbytes + h.indptr.nbytes)
            extra.append(peak - result[-1])
        assert result[1] > 5 * result[0]
        assert extra[1] - extra[0] < 0.05 * (result[1] - result[0])

    def test_corrupted_factor_is_rejected_by_build_model(self, monkeypatch):
        build_factors = hamiltonian.ladder_factors

        def corrupted(terms, basis):
            factors = build_factors(terms, basis)
            factors.data[0, np.flatnonzero(factors.data[0])[0]] *= 1 + 1e-6
            return factors

        monkeypatch.setattr(hamiltonian, "ladder_factors", corrupted)
        with pytest.raises(AssemblyError):
            build_model(KERNEL_MODELS["w1"])


def product_factors_oracle(terms, basis):
    """F_r from per-key sparse products of mask ladders, each ladder sorted and summed on its own."""
    n_modes, dim = basis.n_fermion_modes, basis.fermion_dim
    annihilators = [mask_annihilator(n_modes, j) for j in range(n_modes)]
    ladder_ops = {False: annihilators, True: [c.conj().T.tocsr() for c in annihilators]}

    def bilinear(kind, spin, spin_p, qi, qpi):
        (left, left_create), (right, right_create) = hamiltonian.BILINEAR_FACTORS[kind]
        i = basis.mode_index(FermionMode(left, spin, qi))
        j = basis.mode_index(FermionMode(right, spin_p, qpi))
        return (ladder_ops[left_create][i] @ ladder_ops[right_create][j]).tocoo()

    ladders, ladder_of = np.unique(terms[["k_index", "boson_kind"]], return_inverse=True)
    keys, key_of = np.unique(terms[["fermion_kind", "spin", "spin_p", "q_index", "qp_index"]], return_inverse=True)
    mats = [bilinear(*key) for key in keys.tolist()]
    flat = [m.row.astype(np.int64) * dim + m.col for m in mats]
    pairs, pair_of = np.unique(np.stack([ladder_of, key_of], axis=1), axis=0, return_inverse=True)
    coefficient = np.bincount(pair_of, terms.coefficient.real)
    imag = np.bincount(pair_of, terms.coefficient.imag)
    if np.any(imag):
        coefficient = coefficient + 1j * imag
    magnitude = np.bincount(pair_of, np.abs(terms.coefficient))
    factors = {}
    for r, (k, bkind) in enumerate(ladders.tolist()):
        mine = np.flatnonzero(pairs[:, 0] == r)
        key = pairs[mine, 1]
        entry = np.concatenate([flat[b] for b in key])
        counts = [mats[b].nnz for b in key]
        value = np.repeat(coefficient[mine], counts) * np.concatenate([mats[b].data for b in key])
        order = np.argsort(entry, kind="stable")
        entry = entry[order]
        starts = np.flatnonzero(np.diff(entry, prepend=-1))
        total = np.add.reduceat(value[order], starts)
        bound = np.add.reduceat(np.repeat(magnitude[mine], counts)[order], starts)
        keep = np.abs(total) > hamiltonian.RESIDUE_TOL * bound
        rows, cols = np.divmod(entry[starts][keep], dim)
        indptr = np.searchsorted(rows, np.arange(dim + 1))
        factors[(bkind, k)] = sp.csr_matrix((total[keep], cols, indptr), shape=(dim, dim))
    return factors


def pair_defect_oracle(table, basis):
    """The hermiticity defect of [[0, F_a], [F_a*, 0]] per boson mode, times max|B_k|; an absent ladder is zero."""
    zero = sp.csr_matrix((basis.fermion_dim,) * 2)
    factors = {r: sp.csr_matrix((row, table.indices, table.indptr), shape=zero.shape)
               for r, row in zip(table.ladders, table.data)}
    defect = 0.0
    for k in sorted({k for _, k in factors}):
        pair = sp.bmat([[None, factors.get(("a", k), zero)], [factors.get(("a*", k), zero), None]])
        scale = np.max(np.abs(boson_block_annihilator(basis, k).data), initial=0.0)
        defect = max(defect, hermiticity_defect(pair) * scale)
    return defect


W2_POINTS = ((0, 0, 0), (0, 0, 1), (0, 0, -1))
FACTOR_MODELS = {
    "w0": (minimal_params(coupling=0.5), "dirac"),
    "w1": (KERNEL_MODELS["w1"], "dirac"),
    "w2_fermions": (two_point_params(fermion_points=W2_POINTS), "dirac"),
    # the ten ladders of the W3 workload: the fermions of W2, bosons also at (0, +-1, 0)
    "ten_ladders": (two_point_params(fermion_points=W2_POINTS, boson_points=W2_POINTS + ((0, 1, 0), (0, -1, 0))),
                    "dirac"),
    "pruned_3": (two_point_params(chi_spatial=CutoffProfile.gaussian(3.0)), "dirac"),
    "pruned_6": (two_point_params(chi_spatial=CutoffProfile.gaussian(6.0)), "dirac"),
    "pruned_12": (two_point_params(chi_spatial=CutoffProfile.gaussian(12.0)), "dirac"),
    "pruned_w2_3": (two_point_params(fermion_points=W2_POINTS, chi_spatial=CutoffProfile.gaussian(3.0)), "dirac"),
    "chiral": (KERNEL_MODELS["w1"], "chiral"),
    "off_axis": (KERNEL_MODELS["off_axis"], "dirac"),
    # the off-axis pair of fermion points: complex factors
    "off_axis_pair": (two_point_params(coupling=0.5, fermion_points=((0, 0, 0), (1, 2, 1)), n_max=2,
                                       total_boson_cap=2), "dirac"),
}


class TestFactorBuild:
    @pytest.mark.parametrize("name", list(FACTOR_MODELS))
    def test_factors_match_sparse_products_bitwise(self, name):
        params, representation = FACTOR_MODELS[name]
        model = build_model(params, algebra=dirac_algebra(representation))
        oracle = product_factors_oracle(model.terms, model.basis)
        table = model.factors
        assert table.ladders == tuple(oracle)
        # one pattern U for every ladder, stored once, and a row of data per ladder on it
        assert table.data.shape == (len(table.ladders), len(table.indices)) == (len(oracle), table.indptr[-1])
        assert len(table.indptr) == model.basis.fermion_dim + 1
        assert np.any(table.data, axis=0).all()  # every entry of U is kept by some ladder
        assert_bitwise_equal(table, table_of(oracle, model.basis.fermion_dim))
        # U is every ladder's own pattern unless pruning drops some entries from some ladders
        shared = all(f_r.nnz == len(table.indices) for f_r in oracle.values())
        assert shared == (not name.startswith("pruned"))
        if name == "ten_ladders":
            assert len(model.factors.ladders) == 10
        if name.startswith("pruned"):  # some ladder lacks some bilinear the others have
            t = model.terms
            keys = {(b, k): frozenset(t[(t.boson_kind == b) & (t.k_index == k)][["fermion_kind", "spin", "spin_p",
                                                                                "q_index", "qp_index"]].tolist())
                    for b, k in model.factors.ladders}
            assert len(set(keys.values())) > 1

    @pytest.mark.parametrize("name", ["w1", "pruned_3", "pruned_12", "off_axis", "ten_ladders"])
    def test_pair_defect_matches_block_defect_exactly(self, name):
        params, representation = FACTOR_MODELS[name]
        model = build_model(params, algebra=dirac_algebra(representation))
        table, dim = model.factors, model.basis.fermion_dim
        oracle = product_factors_oracle(model.terms, model.basis)
        k = table.ladders[0][1]
        a, c = table.ladders.index(("a", k)), table.ladders.index(("a*", k))
        scaled = replace(table, data=table.data.copy())
        at = np.flatnonzero(table.data[a])
        scaled.data[a, at[len(at) // 3]] *= 1 + 1e-6
        # an entry of F_{a*,k} set to zero: its mirror in F_{a,k} is compared with that zero
        dropped = replace(table, data=table.data.copy())
        dropped.data[c, np.flatnonzero(table.data[c])[0]] = 0
        # an entry (i, j) whose mirror (j, i) is not in U, added to F_{a,k}, then to F_{a*,k}
        rows = np.repeat(np.arange(dim), np.diff(table.indptr))
        taken = set(zip(rows.tolist(), table.indices.tolist()))
        i, j = next((i, j) for i in range(dim) for j in range(dim) if not {(i, j), (j, i)} & taken)
        lone = sp.csr_matrix(([0.5], ([i], [j])), shape=(dim, dim))
        unmirrored = [table_of({**oracle, r: oracle[r] + lone}, dim) for r in (("a", k), ("a*", k))]
        assert all(len(t.indices) == len(table.indices) + 1 for t in unmirrored)
        absent = FactorTable(table.ladders[:-1], table.indptr, table.indices, table.data[:-1])
        empty = build_model(minimal_params(chi_hat_floor=2.0))  # no terms: the empty table
        cases = [(t, model.basis) for t in (table, scaled, dropped, *unmirrored, absent)]
        cases.append((empty.factors, empty.basis))
        for factors, basis in cases:
            assert interaction_hermiticity_defect(factors, basis) == pair_defect_oracle(factors, basis)
        for factors in (scaled, dropped, *unmirrored, absent):
            assert interaction_hermiticity_defect(factors, model.basis) > 0
        assert interaction_hermiticity_defect(table, model.basis) == 0.0

    def test_a_nonzero_defect_is_a_python_float(self):
        # the off-axis pair of fermion points: complex factors whose defect is a rounding residue
        params = two_point_params(coupling=0.5, fermion_points=((0, 0, 0), (1, 2, 1)), n_max=2, total_boson_cap=2)
        model = build_model(params)
        defect = interaction_hermiticity_defect(model.factors, model.basis)
        assert type(defect) is float
        assert 0.0 < defect == pair_defect_oracle(model.factors, model.basis)

    def test_bilinears_no_ladder_keeps_are_left_out_of_the_runs(self, monkeypatch):
        """Off-diagonal bilinears that cancel on every ladder add no runs, and the factors keep their bits."""
        model = build_model(FACTOR_MODELS["ten_ladders"][0])
        runs, seen = hamiltonian._bilinear_runs, []

        def every_key(keys, live, basis):
            seen.append((keys, live))
            return runs(keys, np.ones_like(live), basis)

        monkeypatch.setattr(hamiltonian, "_bilinear_runs", every_key)
        factors = ladder_factors(model.terms, model.basis)
        keys, live = seen[0]
        assert 0 < np.count_nonzero(~live) < len(live)
        assert_bitwise_equal(factors, model.factors)
        # with no key live, only the diagonal bilinears (one per mode, on half the masks each) add entries
        slot, starts, cols, row_ptr = runs(keys, np.zeros_like(live), model.basis)
        dim = model.basis.fermion_dim
        diagonal = [kind in ("b*b", "dd*") and (s, q) == (s_p, q_p) for kind, s, s_p, q, q_p in keys.tolist()]
        assert np.array_equal(np.bincount(slot // 2, minlength=len(keys)), np.where(diagonal, dim // 2, 0))
        assert np.array_equal(cols, np.repeat(np.arange(dim), np.diff(row_ptr)))  # every run on the diagonal

    def test_single_entry_residues_are_dropped_as_in_the_oracle(self):
        """A one-entry sum that cancels to a rounding residue, not to zero, is dropped like an exact zero.

        Nudging the terms of spinor component 0, the sums that cancel exactly become
        residues on every ladder but ("a", 0), where they stay, so those bilinears remain in the runs.
        """
        model = build_model(FACTOR_MODELS["w2_fermions"][0])
        terms = model.terms.copy()
        kept, nudged = (terms.boson_kind == "a") & (terms.k_index == 0), terms.component == 0
        terms.coefficient[nudged] *= np.where(kept[nudged], 1 + 1e-3, 1 + 2.0**-50)
        factors, oracle = ladder_factors(terms, model.basis), product_factors_oracle(terms, model.basis)
        assert_bitwise_equal(factors, table_of(oracle, model.basis.fermion_dim))
        assert factors.ladders == model.factors.ladders
        for ladder, nnz, before in zip(factors.ladders, np.count_nonzero(factors.data, axis=1),
                                       np.count_nonzero(model.factors.data, axis=1)):
            assert (nnz > before) if ladder == ("a", 0) else (nnz == before)

    @pytest.mark.parametrize("name", ["w0", "w1", "off_axis"])
    def test_free_part_matches_sum_of_number_operators_bitwise(self, name):
        params, _ = FACTOR_MODELS[name]
        model = build_model(params)
        basis, lat_f, lat_b = model.basis, model.basis.fermion_lattice, model.basis.boson_lattice
        h_dirac = second_quantization(discretize(lambda q: dirac_energy(q, params.dirac_mass), lat_f), basis, "fermion")
        h_kg = second_quantization(discretize(lambda k: boson_energy(k, params.boson_mass), lat_b), basis, "boson")
        assert_bitwise_equal(model.hamiltonian(0.0), (h_dirac + h_kg).tocsr())

    def test_empty_interaction(self):
        # a floor above the transform's peak prunes every term
        model = build_model(minimal_params(chi_hat_floor=2.0))
        assert len(model.terms) == 0 and model.factors.ladders == ()
        assert model.factors.data.shape == (0, 0) and not model.factors.indptr.any()
        assert model.h_int.shape == (model.basis.dim,) * 2 and model.h_int.nnz == 0
        assert_bitwise_equal(model.hamiltonian(), model.hamiltonian(0.0))
        assert interaction_hermiticity_defect(model.factors, model.basis) == 0.0


def dirac_field_oracle(model, component, x):
    """psi_l(x) as a CSR sum of weighted elementary ladders on the product basis."""
    basis, lat_f = model.basis, model.basis.fermion_lattice
    phase = np.exp(-1j * (lat_f.points @ x))
    psi = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for si, s in enumerate(SPINS):
        w_b = np.conj(model.f[si][component].values * phase) * np.sqrt(lat_f.cell_volume)
        w_d = np.conj(model.g[si][component].values * phase) * np.sqrt(lat_f.cell_volume)
        for q in range(lat_f.n_points):
            if w_b[q] != 0:
                psi = psi + w_b[q] * fermion_annihilator(FermionMode("b", s, q), basis)
            if w_d[q] != 0:
                psi = psi + (w_d[q] * fermion_annihilator(FermionMode("d", s, q), basis)).conj().T
    return psi.tocsr()


def boson_field_oracle(model, x):
    """phi(x) as a CSR sum of weighted elementary ladders on the product basis."""
    basis, lat_b = model.basis, model.basis.boson_lattice
    w_a = np.conj(model.h.values * np.exp(1j * (lat_b.points @ x))) * np.sqrt(lat_b.cell_volume)
    ann = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for k in range(lat_b.n_points):
        if w_a[k] != 0:
            ann = ann + w_a[k] * boson_annihilator(k, basis)
    return (ann + ann.conj().T.tocsr()) / math.sqrt(2.0)


def assert_same_entries(got, want):
    assert got.shape == want.shape and got.has_canonical_format and want.has_canonical_format
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


FIELD_MODELS = {
    "w0": KERNEL_MODELS["minimal"],
    "w1": KERNEL_MODELS["w1"],
    "off_axis_two_point": two_point_params(fermion_points=((0, 0, 0), (1, 2, 1))),  # complex
}


class TestFieldOperators:
    @pytest.mark.parametrize("name", list(FIELD_MODELS))
    def test_lifted_factors_match_the_ladder_sums(self, name):
        model = build_model(FIELD_MODELS[name])
        for x in (np.zeros(3), np.array([0.3, -1.1, 0.7])):
            for l in range(4):
                psi = dirac_field_oracle(model, l, x)
                assert_same_entries(lift_fermion(model.basis, dirac_field_mask(model, l, x)), psi)
                assert_same_entries(dirac_field_component(model, l, x), psi)
            phi = boson_field_oracle(model, x)
            assert_same_entries(lift_boson(model.basis, boson_field_block(model, x)), phi)
            assert_same_entries(boson_field(model, x), phi)

    def test_density_reconstructs_interaction(self):
        # integrating the field sandwich over x must reproduce the assembled matrix;
        # here checked at x=0 against the term expansion restricted to zero balance
        model = build_model(minimal_params())
        x = np.zeros(3)
        gamma0 = model.algebra.beta
        density = sp.csr_matrix((model.basis.dim, model.basis.dim), dtype=complex)
        comps = [dirac_field_component(model, l, x) for l in range(4)]
        for lb in range(4):
            for lk in range(4):
                if gamma0[lb, lk] != 0:
                    density = density + gamma0[lb, lk] * (comps[lb].conj().T.tocsr() @ comps[lk])
        sandwich = density @ boson_field(model, x)
        # on the rest-frame lattice the integrand is x-independent up to the cutoff weight
        expected = model.h_int.toarray() / chi_spatial_l1_norm(model.params.chi_spatial)
        assert np.allclose(sandwich.toarray(), expected, atol=1e-13)

    def test_boson_field_is_hermitian(self):
        model = build_model(two_point_params())
        x = np.array([0.3, -0.2, 0.9])
        phi = boson_field(model, x)
        assert hermiticity_defect(phi) < 1e-14


class TestFormQuadrature:
    def test_matches_matrix_element_on_minimal_basis(self):
        model = build_model(minimal_params())
        dim = model.basis.dim
        for _ in range(4):
            phi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
            psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
            direct = complex(np.vdot(phi, model.h_int @ psi))
            quad = interaction_form_quadrature(model, phi, psi)
            assert quad == pytest.approx(direct, rel=1e-8, abs=1e-12)

    def test_matches_matrix_element_with_nonzero_momenta(self):
        model = build_model(two_point_params())
        dim = model.basis.dim
        phi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
        psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
        direct = complex(np.vdot(phi, model.h_int @ psi))
        quad = interaction_form_quadrature(model, phi, psi, n_nodes=48)
        assert quad == pytest.approx(direct, rel=1e-6, abs=1e-10)


class TestBalancePruning:
    def test_wide_spatial_cutoff_prunes_off_balance_terms(self):
        # a very wide spatial profile suppresses momentum-unbalanced terms
        # below the relative floor; the pruned matrix must stay Hermitian
        tight = build_model(two_point_params())
        wide = build_model(two_point_params(chi_spatial=CutoffProfile.gaussian(12.0)))
        assert len(wide.terms) < len(tight.terms)
        assert hermiticity_defect(wide.h_int) == 0.0
        peak = chi_spatial_l1_norm(wide.params.chi_spatial)
        floor = wide.params.chi_hat_floor * peak
        balances = {tuple(b) for b in np.round(wide.terms.momentum_balance, 12).tolist()}
        values = chi_spatial_fourier(tight.terms.momentum_balance, wide.params.chi_spatial)
        for balance, value in zip(np.round(tight.terms.momentum_balance, 12).tolist(), values):
            if value < floor:
                assert tuple(balance) not in balances

    @pytest.mark.parametrize("sigma", (3.0, 6.0, 12.0))
    def test_pruned_factors_keep_one_table_pattern(self, sigma):
        # pruning drops different entries from different ladders: the table keeps
        # their union once, with zeros where a ladder has no entry
        model = build_model(two_point_params(chi_spatial=CutoffProfile.gaussian(sigma)))
        table, factors = model.factors, product_factors_oracle(model.terms, model.basis)
        assert table.data.shape == (4, len(table.indices)) and not table.data.all()
        patterns = {(f.indptr.tobytes(), f.indices.tobytes()) for f in factors.values()}
        assert len(patterns) == 3
        assert_bitwise_equal(table, table_of(factors, model.basis.fermion_dim))
        oracle = kron_sum_oracle(factors, model.basis)
        assert_bitwise_equal(model.h_int, oracle)
        for kappa in (model.params.coupling, -1.3):
            assert_bitwise_equal(model.hamiltonian(kappa), (model.hamiltonian(0.0) + kappa * oracle).tocsr())


class TestAnalyticLimits:
    def test_rest_frame_model_reduces_to_displaced_oscillators(self):
        # every fermion sector couples the zero mode linearly, so the exact
        # ground energy is the displaced-oscillator value -(2 kappa C)^2 / m
        # with C assembled from first principles; deep truncation makes the
        # remaining error invisible at double precision
        for kappa in (0.5, 20.0):
            params = minimal_params(coupling=kappa, n_max=12, total_boson_cap=12)
            model = build_model(params)
            scale = (2 * math.pi) ** -3 / math.sqrt(2.0)
            g = 2.0 * kappa * scale
            vals = np.linalg.eigvalsh(model.hamiltonian().toarray())
            assert vals[0] == pytest.approx(-g * g / params.boson_mass, abs=1e-14)
            # the boson ladder inside the ground sector keeps its spacing
            assert vals[1] - vals[0] == pytest.approx(params.boson_mass, abs=1e-9)

    def test_weak_coupling_matches_second_order_perturbation_theory(self):
        params = two_point_params(
            dirac_mass=1.1, boson_mass=0.9, coupling=0.0, n_max=2, total_boson_cap=2
        )
        model = build_model(params)
        free_diag = model.free
        column = model.h_int[:, 0].toarray().ravel()  # couplings out of the vacuum
        shift = sum(
            abs(column[n]) ** 2 / free_diag[n] for n in range(1, len(column)) if column[n] != 0
        )
        for kappa in (1e-3, 1e-2):
            e0 = np.linalg.eigvalsh(model.hamiltonian(kappa).toarray())[0]
            assert e0 == pytest.approx(-kappa**2 * shift, abs=10 * kappa**4)
