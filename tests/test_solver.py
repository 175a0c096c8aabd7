import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from yukawa_ed.errors import CapacityError, ConvergenceError, ParameterError
from yukawa_ed.fock import enumerate_basis
from yukawa_ed.hamiltonian import ModelParams, build_model
from yukawa_ed.solver import (
    DEFAULT_DENSE_CAP,
    ORACLE_DENSE_CAP,
    SCAN_AXES,
    SEMI_ORTHOGONAL,
    _LanczosState,
    _params_for_step,
    converge_scan,
    dense_lowest,
    lanczos_lowest,
    operator_norm_dense,
    sector_minima,
    solve_lowest,
)
from yukawa_ed.spinor import CutoffProfile

RNG = np.random.default_rng(97)

TWO_PI = 2.0 * math.pi


def minimal_params(**kwargs):
    defaults = dict(dirac_mass=1.0, boson_mass=1.0, coupling=0.5, n_max=3, total_boson_cap=3)
    defaults.update(kwargs)
    return ModelParams(**defaults)


def strong_coupling_params(**kwargs):
    # coarse lattice: large cells boost the effective coupling so truncation
    # effects sit well above float noise
    defaults = dict(
        dirac_mass=1.0,
        boson_mass=1.0,
        coupling=0.5,
        fermion_V=math.pi,
        fermion_L=0.9,
        n_max=3,
        total_boson_cap=None,
    )
    defaults.update(kwargs)
    return ModelParams(**defaults)


def hermitian_with_spectrum(eigenvalues, rng):
    """Dense Hermitian matrix with the given spectrum in a random unitary basis."""
    dim = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    mat = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (mat + mat.conj().T) / 2


def w1_params():
    """Ladder row W1 (dim 4 096); on-axis points, so H is exactly real."""
    return ModelParams(
        dirac_mass=1.0,
        boson_mass=1.0,
        coupling=0.5,
        fermion_points=((0, 0, 0), (0, 0, 1)),
        fermion_V=TWO_PI,
        fermion_L=1.5,
        n_max=3,
        total_boson_cap=6,
    )


def w1_hamiltonian():
    return build_model(w1_params()).hamiltonian()


def off_axis_params():
    """The origin plus a fermion point on each of the x and y axes: complex coefficients."""
    return ModelParams(
        dirac_mass=1.0,
        boson_mass=1.0,
        coupling=1.0,
        fermion_points=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
        boson_points=((0, 0, 0),),
        fermion_V=math.pi,
        fermion_L=0.9,
        n_max=1,
        total_boson_cap=1,
    )


def phase_conjugated(h, rng):
    """D h D^H for a random diagonal unitary D: same spectrum, complex entries."""
    phases = sp.diags(np.exp(1j * rng.uniform(0, TWO_PI, size=h.shape[0])))
    return (phases @ sp.csr_matrix(h) @ phases.conj()).tocsr()


def random_hermitian(dim, rng, degenerate=False):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = (mat + mat.conj().T) / 2
    if degenerate:
        half = dim // 2
        block = mat[:half, :half]
        mat = np.kron(np.eye(2), block)  # every eigenvalue twice
    return sp.csr_matrix(mat)


class TestDenseLowest:
    def test_free_hamiltonian_minimal_basis(self):
        params = minimal_params(coupling=0.0)
        basis = enumerate_basis(params.build_fermion_lattice(), 3, 3)
        h0 = build_model(params, basis=basis).hamiltonian(0.0)
        result = dense_lowest(h0, 4)
        assert result.ground_energy == 0.0
        assert result.gap == pytest.approx(1.0, abs=1e-15)

    def test_identity_matrix(self):
        result = dense_lowest(sp.identity(10, format="csr"), 3)
        assert np.allclose(result.eigenvalues, [1, 1, 1], atol=0)

    def test_small_diagonal(self):
        result = dense_lowest(sp.diags([0.0, 2.0, 5.0]).tocsr(), 2)
        assert np.allclose(result.eigenvalues, [0.0, 2.0], atol=0)

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            dense_lowest(sp.identity(100, format="csr"), 1, dense_cap=50)

    def test_residual_reported(self):
        h = random_hermitian(40, RNG)
        result = dense_lowest(h, 2)
        assert result.residual < 1e-12

    def test_nested_lists_as_solve_lowest_takes_them(self):
        h = [[1.0, 0.0], [0.0, -2.0]]
        assert dense_lowest(h, 1).eigenvalues.tolist() == solve_lowest(h, 1).eigenvalues.tolist() == [-2.0]
        assert operator_norm_dense(h) == 2.0
        with pytest.raises(CapacityError):
            dense_lowest(h, 1, dense_cap=1)
        for dense in (lambda m: dense_lowest(m, 1), operator_norm_dense):
            with pytest.raises(ParameterError, match=r"square matrix, got shape \(1, 3\)"):
                dense([[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("dim", [1, 7, 60])
    def test_subset_matches_full_eigvalsh(self, dim):
        h = random_hermitian(dim, RNG)
        full = np.linalg.eigvalsh(h.toarray())
        for k in (1, dim):
            result = dense_lowest(h, k)
            assert result.eigenvalues.shape == (k,)
            assert np.allclose(result.eigenvalues, full[:k], rtol=0, atol=1e-10)
            assert result.residual < 1e-10


class TestLanczosLowest:
    def test_agrees_with_dense_on_random_matrices(self):
        for trial in range(8):
            dim = int(RNG.integers(30, 300))
            h = random_hermitian(dim, RNG)
            k = int(RNG.integers(1, 6))
            dense = dense_lowest(h, k)
            fast = lanczos_lowest(h, k, tol=1e-11, seed=trial)
            assert np.allclose(fast.eigenvalues, dense.eigenvalues, atol=1e-8)

    def test_resolves_degenerate_multiplicities(self):
        h = random_hermitian(120, RNG, degenerate=True)
        dense = dense_lowest(h, 6)
        fast = lanczos_lowest(h, 6, tol=1e-11, seed=3)
        # doubly degenerate spectrum: both copies of each level must appear
        assert np.allclose(fast.eigenvalues, dense.eigenvalues, atol=1e-8)
        assert dense.eigenvalues[1] - dense.eigenvalues[0] < 1e-10
        # degeneracy is reported via multiplicity, never as a tiny positive gap
        assert dense.gap == 0.0
        assert dense.ground_multiplicity >= 2
        assert fast.gap == 0.0

    def test_zero_coupling_ground_state_is_exact_vacuum(self):
        params = minimal_params(coupling=0.0)
        basis = enumerate_basis(params.build_fermion_lattice(), 3, 3)
        h0 = build_model(params, basis=basis).hamiltonian(0.0)
        result = lanczos_lowest(h0, 2, tol=1e-12, seed=11)
        assert abs(result.ground_energy) < 1e-12
        assert result.residual < 1e-11

    def test_deterministic_for_fixed_seed(self):
        h = random_hermitian(80, RNG)
        a = lanczos_lowest(h, 3, seed=42)
        b = lanczos_lowest(h, 3, seed=42)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

    def test_nonconvergence_raises_with_best_residual(self):
        h = random_hermitian(400, RNG)
        with pytest.raises(ConvergenceError) as err:
            lanczos_lowest(h, 4, tol=1e-12, max_iter=3, seed=0)
        assert err.value.best_residual is not None
        assert err.value.best_residual > 1e-12

    def test_small_dimension_clips_k(self):
        h = sp.diags([1.0, 2.0]).tocsr()
        result = lanczos_lowest(h, 5, seed=1)
        assert np.allclose(result.eigenvalues, [1.0, 2.0], atol=1e-10)

    def test_max_iter_above_dimension(self):
        h = random_hermitian(40, RNG)
        dense = dense_lowest(h, 3)
        fast = lanczos_lowest(h, 3, tol=1e-11, max_iter=500, seed=2)
        assert np.allclose(fast.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-10)

    def test_k_equal_dimension_deflates_whole_space(self):
        dim = 12
        h = random_hermitian(dim, RNG)
        dense = dense_lowest(h, dim)
        fast = lanczos_lowest(h, dim, tol=1e-11, seed=4)
        assert fast.eigenvalues.shape == (dim,)
        assert np.allclose(fast.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-10)

    def test_dense_ndarray_input(self):
        h = random_hermitian(50, RNG)
        from_sparse = lanczos_lowest(h, 2, tol=1e-11, seed=6)
        from_array = lanczos_lowest(h.toarray(), 2, tol=1e-11, seed=6)
        assert isinstance(from_array.ground_vector, np.ndarray)
        assert np.allclose(from_array.eigenvalues, from_sparse.eigenvalues, rtol=0, atol=1e-10)
        assert from_array.residual < 1e-9

    def test_threefold_degenerate_ground_level_keeps_multiplicity(self):
        spectrum = np.concatenate([[-3.0, -3.0, -3.0], np.sort(RNG.uniform(-2.0, 4.0, size=57))])
        h = hermitian_with_spectrum(spectrum, RNG)
        dense = dense_lowest(h, 4)
        fast = lanczos_lowest(h, 4, tol=1e-11, seed=8)
        assert dense.ground_multiplicity == 3
        assert fast.ground_multiplicity == 3
        assert fast.gap == 0.0
        assert np.allclose(fast.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-10)

    def test_interacting_model_matches_dense(self):
        model = build_model(strong_coupling_params())
        h = model.hamiltonian()
        dense = dense_lowest(h, 4)
        fast = lanczos_lowest(h, 4, tol=1e-11, seed=5)
        assert np.allclose(fast.eigenvalues, dense.eigenvalues, atol=1e-8)


class TestRealRoute:
    def test_build_model_picks_the_field(self):
        for params in (w1_params(), minimal_params()):
            model = build_model(params)
            for op in (model.h_int, model.hamiltonian(0.0), model.hamiltonian()):
                assert op.dtype == np.float64
        model = build_model(off_axis_params())
        for op in (model.h_int, model.hamiltonian()):
            assert op.dtype == np.complex128

    def test_real_and_complex_routes_agree_on_w1(self):
        h = w1_hamiltonian()
        assert not np.any(h.data.imag)
        real = lanczos_lowest(h, 4, seed=5)
        cplx = lanczos_lowest(phase_conjugated(h, RNG), 4, seed=5)
        assert np.isrealobj(real.ground_vector) and np.iscomplexobj(cplx.ground_vector)
        assert np.allclose(real.eigenvalues, cplx.eigenvalues, rtol=0, atol=1e-10)

    def test_threefold_degenerate_level_on_both_routes(self):
        spectrum = np.concatenate([[-3.0, -3.0, -3.0], np.sort(RNG.uniform(-2.0, 4.0, size=57))])
        q, _ = np.linalg.qr(RNG.normal(size=(60, 60)))
        mat = (q * spectrum) @ q.T
        h = sp.csr_matrix((mat + mat.T) / 2)  # float64: the real route
        assert h.dtype == np.float64
        oracle = dense_lowest(h, 4)
        for op in (h, phase_conjugated(h, RNG)):
            for result in (dense_lowest(op, 4), lanczos_lowest(op, 4, tol=1e-11, seed=8)):
                assert result.ground_multiplicity == 3
                assert np.allclose(result.eigenvalues, oracle.eigenvalues, rtol=0, atol=1e-10)

    def test_off_axis_model_keeps_complex_arithmetic(self):
        model = build_model(off_axis_params())
        inside = np.flatnonzero(model.basis.charge() == 3)
        block = model.hamiltonian()[np.ix_(inside, inside)]
        assert 1e-4 < np.max(np.abs(block.data.imag)) < 1e-3
        oracle = dense_lowest(block, 2)
        fast = lanczos_lowest(block, 2, tol=1e-11, seed=2)
        assert np.iscomplexobj(oracle.ground_vector) and np.iscomplexobj(fast.ground_vector)
        assert np.allclose(fast.eigenvalues, oracle.eigenvalues, rtol=0, atol=1e-10)
        # the imaginary part matters: the real part alone misses far beyond 1e-10
        dropped = dense_lowest(sp.csr_matrix(block.real), 2)
        assert np.max(np.abs(dropped.eigenvalues - oracle.eigenvalues)) > 1e-9

    def test_ritz_vectors_orthonormal_on_w1(self):
        h = w1_hamiltonian()
        state = _LanczosState(h.real.tocsr(), np.random.default_rng(3))
        while len(state.values) < 4:
            assert state.run_round(4 - len(state.values), 1e-10, 400) is not None
        vecs = np.array(state.vectors)
        gram = vecs @ vecs.T
        assert np.max(np.abs(gram - np.eye(len(vecs)))) < 1e-12


class TestRitzPairs:
    @pytest.mark.parametrize("size, count", [(1, 1), (2, 1), (2, 2), (20, 1), (20, 2), (80, 1), (80, 2)])
    def test_lapack_calls_match_eigh_tridiagonal_bitwise(self, size, count):
        import scipy.linalg as sla

        from yukawa_ed.solver import _lowest_ritz

        rng = np.random.default_rng(size)
        for _ in range(20):
            alphas, betas = rng.normal(size=size), np.abs(rng.normal(size=size - 1))
            drivers = sla.get_lapack_funcs(("stebz", "stein"), (alphas, betas))
            got = _lowest_ritz(*drivers, alphas, betas, count)
            want = sla.eigh_tridiagonal(alphas, betas, select="i", select_range=(0, count - 1))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


class TestReorthogonalization:
    def test_basis_stays_semi_orthogonal_with_few_projections(self):
        # tol 0 accepts no Ritz pair early: the sweep runs until W1's Krylov
        # space is exhausted, long after the lowest Ritz values converged
        state = _LanczosState(w1_hamiltonian(), np.random.default_rng(1))
        state.run_round(1, 0.0, 400)
        steps = state.iterations
        basis = state.krylov[:steps]
        overlaps = np.abs(basis @ basis.T)
        # max |Q_j^T q_{j+1}| after every step j
        worst = [np.max(overlaps[j + 1, : j + 1]) for j in range(steps - 1)]
        assert max(worst) < SEMI_ORTHOGONAL
        assert 0 < state.reorthogonalizations < steps / 4


class TestClusteredSpectrum:
    @staticmethod
    def clustered_hamiltonian(rng, blocks=50, size=40):
        """Real symmetric, dim 2 000: a 4-fold ground level at -1, three levels within 1e-6 above it.

        Random orthogonal blocks with rows and columns shuffled; the rest of
        the spectrum lies in [0, 4].
        """
        spectrum = rng.uniform(0.0, 4.0, size=blocks * size)
        spectrum[:4] = -1.0
        spectrum[4:7] = -1.0 + np.array([2e-7, 5e-7, 9e-7])
        mats = []
        for values in rng.permutation(spectrum).reshape(blocks, size):
            q, _ = np.linalg.qr(rng.normal(size=(size, size)))
            mat = (q * values) @ q.T
            mats.append((mat + mat.T) / 2)
        perm = rng.permutation(blocks * size)
        return sp.block_diag(mats, format="csr")[perm][:, perm].tocsr()

    def test_degenerate_level_and_cluster_match_the_oracle(self):
        rng = np.random.default_rng(5)
        h = self.clustered_hamiltonian(rng)
        # the phase rotation is a unitary similarity: one oracle serves both
        oracle = dense_lowest(h, 6)
        assert oracle.ground_multiplicity == 4
        for op in (h, phase_conjugated(h, rng)):
            fast = lanczos_lowest(op, 6, tol=1e-11, seed=4)
            assert fast.ground_multiplicity == 4
            assert np.allclose(fast.eigenvalues, oracle.eigenvalues, rtol=0, atol=1e-10)


class TestDiagonalMatrices:
    """Nothing off the diagonal: both routes read the levels off exactly.

    With a dense cap of 1 every state is its own block, whose Gershgorin
    bound and 1x1 dense solve are both its diagonal entry; with 680 the
    whole matrix goes to the subset driver.
    """

    ROUTES = [(1, "blocks"), (680, "dense")]

    @pytest.mark.parametrize("dense_cap, method", ROUTES)
    def test_exact_values_and_multiplicities(self, dense_cap, method):
        diag = np.array([3.0, -1.0, 2.0, -1.0, 0.5, -1.0])
        h = sp.diags(diag).tocsr() + 0j
        for k in (1, 4, 6, 9):
            result = solve_lowest(h, k, dense_cap=dense_cap)
            assert result.method == method
            assert result.eigenvalues.tolist() == sorted(diag)[: min(k, len(diag))]
            assert (result.iterations, result.matvecs, result.residual) == (0, 0, 0.0)
        assert result.ground_multiplicity == 3
        # any unit vector of the -1 eigenspace is a ground vector
        assert not np.any(result.ground_vector[diag != -1.0])
        assert np.linalg.norm(result.ground_vector) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("dense_cap, method", ROUTES)
    def test_free_hamiltonian_is_read_off_exactly(self, dense_cap, method):
        h0 = build_model(minimal_params(coupling=0.0)).hamiltonian(0.0)
        result = solve_lowest(h0, 2, dense_cap=dense_cap)
        assert result.method == method
        assert result.eigenvalues.tolist() == [0.0, 1.0]
        assert result.residual == 0.0

    def test_one_off_diagonal_entry_joins_two_states(self):
        h = sp.diags([0.0, 1.0, 2.0]).tolil()
        h[0, 2] = h[2, 0] = 1e-300
        assert solve_lowest(h.toarray(), 1).method == "dense"
        result = solve_lowest(h.tocsr(), 3, dense_cap=2)
        assert (result.method, result.blocks, result.blocks_solved) == ("blocks", 2, 2)
        assert np.allclose(result.eigenvalues, [0.0, 1.0, 2.0], rtol=0, atol=1e-15)


def block_oracle(h, k):
    """Lowest ``k`` levels merged from ``dense_lowest`` on every weakly connected component.

    The components are checked to be invariant (no stored entry joins two of
    them), so their spectra together are the spectrum of ``h``.
    """
    n_blocks, labels = connected_components(abs(h), directed=False)
    coo = h.tocoo()
    assert np.array_equal(labels[coo.row], labels[coo.col])
    parts = [dense_lowest(h[np.ix_(states, states)], k).eigenvalues
             for states in (np.flatnonzero(labels == b) for b in range(n_blocks))]
    return np.sort(np.concatenate(parts))[:k]


@lru_cache(maxsize=None)
def oracle_case(case):
    """Hamiltonian of a named model and its lowest 6 levels from the dense oracle."""
    params = {"w1": w1_params, "off_axis": off_axis_params, "minimal": minimal_params}[case]()
    h = build_model(params).hamiltonian()
    return h, dense_lowest(h, 6).eigenvalues if h.shape[0] <= 64 else block_oracle(h, 6)


def split_level_matrix(rng, size=40):
    """Three invariant blocks, shuffled: A and B share the level -2, C sits far above.

    C is diagonally dominant, so its Gershgorin bound (>= 9) lies above the
    second level and the block route never solves it.
    """
    mats = []
    for values in ([-2.0, 0.5], [-2.0, 0.7]):
        spectrum = np.concatenate([values, rng.uniform(1.0, 3.0, size=size - 2)])
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        mats.append((q * spectrum) @ q.T)
    coupling = rng.uniform(-0.01, 0.01, size=(size, size))
    mats.append(np.diag(rng.uniform(10.0, 11.0, size=size)) + coupling + coupling.T)
    perm = rng.permutation(3 * size)
    mat = sp.block_diag([(m + m.T) / 2 for m in mats], format="csr")[perm][:, perm]
    return mat.tocsr(), perm


class TestBlockRoute:
    @pytest.mark.parametrize("k", [2, 6])
    @pytest.mark.parametrize(
        "case, blocks, dense_cap",
        [("w1", 85, 680), ("off_axis", 53, 680), ("minimal", 34, 1)],
    )
    def test_merged_spectra_match_the_oracle(self, case, blocks, dense_cap, k):
        h, oracle = oracle_case(case)
        result = solve_lowest(h, k, dense_cap=dense_cap)
        assert (result.method, result.blocks) == ("blocks", blocks)
        assert 0 < result.blocks_solved < blocks
        assert result.eigenvalues.shape == (k,)
        assert np.allclose(result.eigenvalues, oracle[:k], rtol=0, atol=1e-10)
        assert result.residual < 1e-9

    def test_level_split_across_blocks_keeps_its_multiplicity(self):
        rng = np.random.default_rng(21)
        h, _ = split_level_matrix(rng)
        oracle = dense_lowest(h, 3)
        for op in (h, phase_conjugated(h, rng)):
            # dense cap 10: the 40-state blocks A and B go to Lanczos
            result = solve_lowest(op, 3, dense_cap=10, tol=1e-11)
            assert (result.method, result.blocks, result.blocks_solved) == ("blocks", 3, 2)
            assert result.ground_multiplicity == 2 and result.gap == 0.0
            assert np.allclose(result.eigenvalues, oracle.eigenvalues, rtol=0, atol=1e-10)
            assert np.allclose(result.eigenvalues, [-2.0, -2.0, 0.5], rtol=0, atol=1e-10)

    def test_one_coupling_entry_merges_two_blocks(self):
        rng = np.random.default_rng(21)
        h, perm = split_level_matrix(rng)
        a, c = np.flatnonzero(perm == 0)[0], np.flatnonzero(perm == 80)[0]  # states of A and C
        mutated = h.tolil()
        mutated[a, c] = mutated[c, a] = 3.0
        mutated = mutated.tocsr()
        oracle = dense_lowest(mutated, 3)
        assert np.max(np.abs(oracle.eigenvalues - dense_lowest(h, 3).eigenvalues)) > 1e-3
        result = solve_lowest(mutated, 3, dense_cap=10, tol=1e-11)
        assert (result.method, result.blocks) == ("blocks", 2)
        assert np.allclose(result.eigenvalues, oracle.eigenvalues, rtol=0, atol=1e-10)

    def test_lanczos_stops_above_the_merged_kth_with_every_copy_below_it(self):
        spectrum = np.concatenate([[0.0, 0.0, 0.0], np.sort(RNG.uniform(5.0, 8.0, size=57))])
        h = hermitian_with_spectrum(spectrum, RNG)
        # each round finds one copy of the triple level; all three lie below 0.1
        full = lanczos_lowest(h, 3, tol=1e-11, seed=3, above=0.1)
        assert np.allclose(full.eigenvalues, [0.0, 0.0, 0.0], rtol=0, atol=1e-10)
        # a first round decided above the merged k-th value ends the solve with no pairs
        early = lanczos_lowest(h, 3, tol=1e-11, seed=3, above=-1.0)
        assert early.eigenvalues.shape == (0,) and early.ground_vector is None
        assert 0 < early.matvecs < full.matvecs

    def test_a_level_just_below_the_limit_is_converged_and_returned(self):
        # 1e-7 below `above`: past tie_tol (1e-9) but within sqrt(tol) (1e-5) of it
        above, rng = 0.3, np.random.default_rng(43)
        spectrum = np.concatenate([[above - 1e-7], np.sort(rng.uniform(1.0, 4.0, size=59))])
        h = hermitian_with_spectrum(spectrum, rng)
        result = lanczos_lowest(h, 1, seed=2, above=above)
        assert result.eigenvalues.shape == (1,)
        assert abs(result.eigenvalues[0] - (above - 1e-7)) < 1e-10

    def test_a_block_above_the_kth_value_is_decided_without_converging(self):
        rng = np.random.default_rng(41)
        spectrum = np.concatenate([[0.0, 0.2], np.sort(rng.uniform(1.0, 3.0, size=58))])
        a = hermitian_with_spectrum(spectrum, rng)
        b = a + 0.7 * np.eye(60)  # lowest level 0.7, 0.5 above a's second; its floor is a's plus 0.7
        h = sp.block_diag([a, b], format="csr")
        result = solve_lowest(h, 2, dense_cap=10, tol=1e-11)
        assert (result.blocks, result.blocks_solved) == (2, 2)  # b's floor lies below 0.2
        assert np.allclose(result.eigenvalues, dense_lowest(h, 2).eigenvalues, rtol=0, atol=1e-10)
        unbounded = sum(lanczos_lowest(block, 2, tol=1e-11).matvecs for block in (a, b))
        assert result.matvecs < unbounded
        # b's round ends before its lowest value converges to tol
        to_tol = _LanczosState(sp.csr_matrix(b), np.random.default_rng(0))
        assert to_tol.run_round(2, 1e-11, 400) == pytest.approx(0.7, abs=1e-10)
        assert result.matvecs < lanczos_lowest(a, 2, tol=1e-11).matvecs + to_tol.matvecs

    @pytest.mark.parametrize("case", ["w1", "off_axis", "split_level"])
    def test_residual_is_that_of_the_returned_vector(self, case):
        if case == "split_level":
            h, k, kwargs = split_level_matrix(np.random.default_rng(21))[0], 3, dict(dense_cap=10, tol=1e-11)
        else:
            h, k, kwargs = oracle_case(case)[0], 2, {}
        result = solve_lowest(h, k, **kwargs)
        assert result.method == "blocks"
        vector, value = result.ground_vector, result.eigenvalues[0]
        assert abs(result.residual - np.linalg.norm(h @ vector - value * vector)) <= 1e-15

    def test_connected_matrix_is_one_lanczos_block(self):
        h = random_hermitian(120, RNG)
        result = solve_lowest(h, 3, dense_cap=50, tol=1e-11)
        assert (result.method, result.blocks, result.blocks_solved) == ("blocks", 1, 1)
        assert result.matvecs > 0
        assert np.allclose(result.eigenvalues, dense_lowest(h, 3).eigenvalues, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("value", [0.0, 1e-13])
    def test_one_sided_entry_joins_its_blocks(self, value):
        # blocks of 30 and 50 states; one entry stored above the diagonal only
        # makes them two strong components of the pattern but one weak one
        small, large = random_hermitian(30, RNG), random_hermitian(50, RNG) + 0.5 * sp.eye(50)
        coo = sp.block_diag([small, large], format="coo")
        h = sp.csr_matrix((np.append(coo.data, value), (np.append(coo.row, 3), np.append(coo.col, 70))))
        assert h.nnz == coo.nnz + 1
        assert connected_components(abs(h), connection="strong")[0] == 2
        oracle = dense_lowest(h.toarray(), 4).eigenvalues
        result = solve_lowest(h, 4, dense_cap=10, tol=1e-11)
        assert (result.method, result.blocks, result.blocks_solved) == ("blocks", 1, 1)
        assert np.allclose(result.eigenvalues, oracle, rtol=0, atol=1e-10)
        assert result.residual < 1e-9

    def test_fewer_stored_entries_than_states(self):
        # one off-diagonal pair in 1 000 states: the matrix stores 2 entries
        h = sp.csr_matrix(([1.0, 1.0], ([3, 700], [700, 3])), shape=(1000, 1000))
        result = solve_lowest(h, 2)
        assert (result.method, result.blocks, result.blocks_solved) == ("blocks", 999, 2)
        assert np.allclose(result.eigenvalues, [-1.0, 0.0], rtol=0, atol=1e-15)

    def test_free_w1_hamiltonian_is_read_off_exactly(self):
        # kappa = 0 on W1 at n_max 2: the vacuum's 0 is not stored
        h = build_model(replace(w1_params(), n_max=2, total_boson_cap=None)).hamiltonian(0.0)
        assert (h.shape[0], h.nnz) == (1536, 1535)
        result = solve_lowest(h, 2)
        assert (result.method, result.matvecs, result.blocks_solved) == ("blocks", 0, 2)
        assert result.eigenvalues.tolist() == [0.0, 1.0]
        assert result.residual == 0.0

    def test_a_bound_that_ties_the_kth_value_ends_the_search(self):
        pair = sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]])
        result = solve_lowest(sp.block_diag([pair] * 2000, format="csr"), 2)
        assert result.eigenvalues.tolist() == [-1.0, -1.0]
        assert (result.blocks, result.blocks_solved) == (2000, 2)

    def test_later_lanczos_blocks_ask_only_for_displaceable_pairs(self, monkeypatch):
        import yukawa_ed.solver as solver_mod

        asked = []
        original = solver_mod.lanczos_lowest

        def spy(h, k, *args, **kwargs):
            asked.append(k)
            return original(h, k, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "lanczos_lowest", spy)

        def path(diag):  # weak couplings along a path keep each Gershgorin floor near its lowest entry
            off = np.full(len(diag) - 1, 1e-3)
            return sp.diags([off, diag, off], [-1, 0, 1])

        # A holds -2 and -1.9; B's floor (about -1.962) lies between them,
        # so only A's -1.9 can be displaced and B is asked for one pair
        a = path(np.concatenate([[-2.0, -1.9], np.linspace(0.5, 3.0, 28)]))
        b = path(np.concatenate([[-1.96], np.linspace(0.5, 3.0, 29)]))
        h = sp.block_diag([a, b], format="csr")
        result = solve_lowest(h, 2, dense_cap=10, tol=1e-11)
        assert asked == [2, 1]
        assert (result.blocks, result.blocks_solved) == (2, 2)
        assert np.allclose(result.eigenvalues, dense_lowest(h, 2).eigenvalues, rtol=0, atol=1e-10)
        assert result.eigenvalues[1] == pytest.approx(-1.96, abs=1e-5)

    def test_strong_components_of_the_pattern_are_the_weak_ones(self):
        h = w1_hamiltonian()
        strong = connected_components(h, directed=True, connection="strong")
        weak = connected_components(h, directed=False)
        assert strong[0] == weak[0] == 85
        assert np.array_equal(strong[1], weak[1])


def spectrum_block(eigenvalues, rng, real):
    """Hermitian block with the given spectrum in a random orthogonal (``real``) or unitary basis."""
    if not real:
        return hermitian_with_spectrum(eigenvalues, rng)
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    mat = (q * np.asarray(eigenvalues)) @ q.T
    return (mat + mat.T) / 2


def certificate_margin(block, kth):
    """How far above ``kth`` the block route's Cholesky certificate shifts: (n + 2) eps (sum |b_ij| + n |kth|)."""
    n = block.shape[0]
    return (n + 2) * np.finfo(float).eps * (np.abs(block).sum() + n * abs(kth))


def certificate_case(real, seed=61):
    """Seven dense blocks, shuffled; K2 is K1's bitwise copy, every other size is distinct.

    G holds 0, 0.4 and 1.2, K1 and K2 the level 1.  Wide spectra keep the
    floors of G, then K1 and K2, lowest; H is a path whose weak couplings keep
    its floor near its lowest level 0.7, so it comes last.  In between, N's
    lowest level lies a quarter of the certificate's margin above K1's
    computed 1, and A1 and A2 hold no level below 1.5.
    """
    rng = np.random.default_rng(seed)

    def spaced(size, step, *low):  # the levels `low`, then steps of `step` above the last
        return np.concatenate([low, low[-1] + step * np.arange(1, size + 1 - len(low))])

    g = spectrum_block(spaced(10, 20.0, 0.0, 0.4, 1.2), rng, real)
    k1 = spectrum_block(spaced(6, 10.0, 1.0), rng, real)
    levels = spaced(7, 1.0, 1.0)
    levels[0] += certificate_margin(spectrum_block(levels, np.random.default_rng(seed), real), 1.0) / 4
    n = spectrum_block(levels, np.random.default_rng(seed), real)  # the basis the margin was taken in
    a1 = spectrum_block(spaced(8, 1.0, 1.5, 2.0), rng, real)
    a2 = spectrum_block(spaced(9, 1.0, 1.8), rng, real)
    off = np.full(4, 1e-3)
    h_block = np.diag([0.7, 2.0, 3.0, 4.0, 5.0]) + np.diag(off, 1) + np.diag(off, -1)
    blocks = [g, k1, k1.copy(), n, a1, a2, h_block]  # G, K1, K2, N, A1, A2, H
    perm = rng.permutation(sum(len(b) for b in blocks))
    return sp.block_diag(blocks, format="csr")[perm][:, perm].tocsr()


@pytest.fixture
def dense_sizes(monkeypatch):
    """The sizes of the matrices the solver hands to ``dense_lowest``, in call order."""
    import yukawa_ed.solver as solver_mod

    sizes = []

    def spy(block, *args, **kwargs):
        sizes.append(block.shape[0])
        return dense_lowest(block, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "dense_lowest", spy)
    return sizes


class TestDenseCertificate:
    """Dense blocks decided above the merged k-th value by one Cholesky factorization."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_blocks_above_kth_skip_their_eigensolve(self, real, k, dense_sizes):
        h = certificate_case(real)
        assert np.isrealobj(h) == real
        result = solve_lowest(h, k, dense_cap=10)
        oracle = dense_lowest(h, k).eigenvalues
        assert np.allclose(oracle, [0.0, 0.4, 0.7, 1.0, 1.0][:k], rtol=0, atol=1e-5)  # H's couplings lower 0.7 by 8e-7
        assert np.allclose(result.eigenvalues, oracle, rtol=0, atol=1e-10)
        assert result.ground_multiplicity == 1 and result.residual < 1e-12
        # G, K1, K2 (at k = 3 its lowest level is the k-th bitwise), N (within the margin at k = 3 and 4)
        # and H (below the k-th, behind a high floor) are solved; the certificate alone decides A1 and A2
        assert dense_sizes == [10, 6, 6, 7, 5]
        assert (result.blocks, result.blocks_solved) == (7, 7)

    def test_kappa_scan_model_solves_only_its_ground_block(self, dense_sizes):
        # the kappa-scan-dense benchmark model: W1 at n_max 2, 1 536 states
        model = build_model(replace(w1_params(), n_max=2, total_boson_cap=None))
        solved, per_kappa = [], []
        for kappa in (0.0, 0.5, 1.0):
            start = len(dense_sizes)
            solved.append(solve_lowest(model.hamiltonian(kappa), 2).stats())
            per_kappa.append(dense_sizes[start:])
        # four 144-state blocks at kappa 0.5 and 1 lie above the k-th value behind floors below it
        assert per_kappa == [[1, 1], [216], [216]]
        work = dict(method="blocks", iterations=0, matvecs=0, reorthogonalizations=0)
        assert solved == [dict(work, blocks=1536, blocks_solved=2), dict(work, blocks=45, blocks_solved=5),
                          dict(work, blocks=45, blocks_solved=5)]


def one_sided_matrix(row, col, seed=5):
    """Hermitian blocks of 30 and 50 states and one entry (row, col) stored on one side only, joining them."""
    rng = np.random.default_rng(seed)
    small, large = random_hermitian(30, rng), random_hermitian(50, rng) + 0.5 * sp.eye(50)
    coo = sp.block_diag([small, large], format="coo")
    return sp.csr_matrix((np.append(coo.data, 1e-13), (np.append(coo.row, row), np.append(coo.col, col))))


def sweep_case(name):
    """(h, k, solve_lowest keywords, entry budgets) for the chunked block search."""
    lanczos = dict(dense_cap=10, tol=1e-11)
    if name in ("w1", "off_axis"):
        return oracle_case(name)[0], 2, {}, [1, 100]
    if name == "split_level":
        return split_level_matrix(np.random.default_rng(21))[0], 3, lanczos, [1, 7]
    if name == "joining_entry_in_the_last_chunk":
        return one_sided_matrix(79, 2), 4, lanczos, [1, 7]
    if name == "joining_entry_ends_a_chunk":  # the first chunk is rows 0-3, whose last entry is (3, 70)
        h = one_sided_matrix(3, 70)
        return h, 4, lanczos, [int(h.indptr[4])]
    if name == "joining_entry_starts_a_chunk":  # the second chunk starts with row 75, whose first entry is (75, 5)
        h = one_sided_matrix(75, 5)
        return h, 4, lanczos, [int(h.indptr[75])]
    if name == "rows_longer_than_the_budget":
        return random_hermitian(120, np.random.default_rng(8)), 3, dict(dense_cap=50, tol=1e-11), [7, 119]
    if name == "empty_rows":
        return sp.csr_matrix(([1.0, 1.0], ([3, 700], [700, 3])), shape=(1000, 1000)), 2, {}, [1, 2]
    raise KeyError(name)


def assert_same_solve(got, want):
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.ground_vector.tobytes() == want.ground_vector.tobytes()
    assert (got.residual, got.stats()) == (want.residual, want.stats())


class TestChunkedSweep:
    """The block search reads H in chunks of whole rows; the chunking changes no bit of the result."""

    @pytest.mark.parametrize("name", [
        "w1", "off_axis", "split_level", "joining_entry_in_the_last_chunk", "joining_entry_ends_a_chunk",
        "joining_entry_starts_a_chunk", "rows_longer_than_the_budget", "empty_rows",
    ])
    def test_small_budgets_give_the_default_result_bitwise(self, name, monkeypatch):
        import yukawa_ed.solver as solver_mod

        h, k, kwargs, budgets = sweep_case(name)
        assert h.nnz <= solver_mod.CHUNK_ENTRIES  # one chunk at the default budget
        default = solve_lowest(h, k, **kwargs)
        assert default.method == "blocks"
        for budget in budgets:
            monkeypatch.setattr(solver_mod, "CHUNK_ENTRIES", budget)
            assert_same_solve(solve_lowest(h, k, **kwargs), default)

    def test_search_scratch_does_not_grow_with_nnz(self):
        import tracemalloc

        size, count = 400, 100

        def block_matrix(per_row):  # 100 random blocks of 400 states, block b shifted by 100 b
            rng = np.random.default_rng(3)
            rows = np.repeat(np.arange(size * count), per_row // 2)
            cols = rows // size * size + rng.integers(0, size, len(rows))
            h = sp.csr_matrix((rng.uniform(-1.0, 1.0, len(rows)), (rows, cols)), shape=(size * count,) * 2)
            return (h + h.T + sp.diags(100.0 * (np.arange(size * count) // size))).tocsr()

        peaks = []
        for h in (block_matrix(8), block_matrix(32)):  # every block 4x denser; both above the entry budget
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = solve_lowest(h, 2)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert (result.method, result.blocks, result.blocks_solved) == ("blocks", count, 1)
        workspace = size * size * 8  # the dense array of one 400-state block
        assert peaks[1] - peaks[0] < workspace


def poisoned(kind, dim=800):
    """A diagonal matrix with one non-finite entry, or pair of entries, and the row named for it."""
    h = sp.lil_matrix((dim, dim))
    h.setdiag(np.arange(dim) % 7)
    row = {"nan_diagonal": 5, "nan_pair": 3, "inf_diagonal": 17}[kind]
    if kind == "nan_pair":
        h[3, dim - 10] = h[dim - 10, 3] = np.nan
    else:
        h[row, row] = np.inf if kind == "inf_diagonal" else np.nan
    return h.tocsr(), row


class TestNonFiniteEntries:
    KINDS = ["nan_diagonal", "nan_pair", "inf_diagonal"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dense_cap", [DEFAULT_DENSE_CAP, 800])  # blocks, dense
    def test_both_routes_name_the_row(self, kind, dense_cap):
        h, row = poisoned(kind)
        with pytest.raises(ParameterError, match=f"in row {row} is not finite"):
            solve_lowest(h, 2, dense_cap=dense_cap)

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_lowest_checks_its_own_input(self, kind):
        h, row = poisoned(kind, dim=40)
        for op in (h, h.toarray()):
            with pytest.raises(ParameterError, match=f"in row {row} is not finite"):
                dense_lowest(op, 2)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("budget", [None, 1, 3])  # the default, or a search in chunks of one or a few rows
    def test_lanczos_lowest_names_the_row(self, kind, budget, monkeypatch):
        # it used to fail inside eigh_tridiagonal with scipy's bare ValueError
        import yukawa_ed.solver as solver_mod

        if budget:
            monkeypatch.setattr(solver_mod, "CHUNK_ENTRIES", budget)
        h, row = poisoned(kind)
        for op in (h, h.toarray()):
            with pytest.raises(ParameterError, match=f"in row {row} is not finite"):
                lanczos_lowest(op, 2)

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        from yukawa_ed.solver import _as_operator

        h = sp.diags([1e308, 1e308, -1.0], format="csr")
        with np.errstate(over="ignore"):
            assert not np.isfinite(h.data.sum())
        assert _as_operator(h).data.tobytes() == h.data.tobytes()
        assert _as_operator(h.toarray()).tobytes() == h.toarray().tobytes()

    @pytest.mark.parametrize("kind", KINDS + ["nan_pair_across"])
    @pytest.mark.parametrize("case", ["minimal", "w1"])  # charge-0 sectors of 36 states (dense), 1 120 (blocks)
    def test_sector_minima_rejects_them(self, kind, case):
        params = {"minimal": minimal_params, "w1": w1_params}[case]()
        model = build_model(params)
        charge = model.basis.charge()
        inside, outside = np.flatnonzero(charge == 0), np.flatnonzero(charge != 0)
        h = model.hamiltonian().tolil()
        a, b = inside[0], inside[-1]
        if kind == "nan_pair_across":
            b = outside[0]
        if kind in ("nan_pair", "nan_pair_across"):
            h[a, b] = h[b, a] = np.nan
        else:
            h[a, a] = np.inf if kind == "inf_diagonal" else np.nan
        with pytest.raises(ParameterError, match="not finite|non-finite"):
            sector_minima(h.tocsr(), model.basis, 0, label="charge")


class TestPerturbationBound:
    def test_ground_energy_shift_bounded_by_coupling_times_norm(self):
        model = build_model(strong_coupling_params())
        hnorm = operator_norm_dense(model.h_int)
        e0_free = dense_lowest(model.hamiltonian(0.0), 1).ground_energy
        for kappa in (0.1, 0.5, 1.0, 2.0):
            e0 = dense_lowest(model.hamiltonian(kappa), 1).ground_energy
            assert abs(e0 - e0_free) <= kappa * hnorm * (1 + 1e-12)


def tridiagonal(size):
    off = np.ones(size - 1)
    return sp.diags([off, np.arange(size, dtype=float), off], [-1, 0, 1], format="csr")


class TestNegativeSeed:
    """numpy's default_rng rejects a negative seed with a bare ValueError; each entry point names it first."""

    def test_solve_lowest_rejects_it_before_the_block_route(self, monkeypatch):
        h = tridiagonal(800)
        stats = solve_lowest(h, 1, seed=0, dense_cap=100).stats()
        assert stats["blocks"] == 1 and stats["matvecs"] > 0  # one block, above the cap: Lanczos
        import yukawa_ed.solver as solver_mod

        def converted(*args):
            raise AssertionError("worked on the matrix before the seed check")

        monkeypatch.setattr(solver_mod, "_as_operator", converted)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            solve_lowest(h, 1, seed=-1, dense_cap=100)

    def test_lanczos_lowest_rejects_it(self):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -2"):
            lanczos_lowest(tridiagonal(800), 1, seed=-2)

    def test_converge_scan_rejects_it_before_building_a_model(self, monkeypatch):
        import yukawa_ed.solver as solver_mod

        def built(*args):
            raise AssertionError("built a model before the seed check")

        monkeypatch.setattr(solver_mod, "build_model", built)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            converge_scan(minimal_params(), "n_max", [1, 2], seed=-1)

    def test_sector_minima_rejects_it(self):
        # the minimal model's sectors are solved densely, where the seed is never read
        model = build_model(minimal_params())
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            sector_minima(model.hamiltonian(), model.basis, 1, seed=-1)


class TestSolverArguments:
    """A negative tol, a max_iter below 1 and an empty or non-square matrix raise ParameterError before any work."""

    @pytest.mark.parametrize("setting, message", [
        (dict(tol=-1.0), "tol must be >= 0, got -1.0"),
        (dict(tol=math.nan), "tol must be >= 0, got nan"),
        (dict(max_iter=0), "max_iter must be >= 1, got 0"),
    ])
    def test_solve_lowest_rejects_them_on_either_route(self, setting, message, monkeypatch):
        # the tol used to reach math.sqrt in run_round, and max_iter 0 to end in ConvergenceError;
        # on the dense route both were ignored
        import yukawa_ed.solver as solver_mod

        def converted(*args):
            raise AssertionError("worked on the matrix before the argument check")

        monkeypatch.setattr(solver_mod, "_as_operator", converted)
        for dense_cap in (100, DEFAULT_DENSE_CAP):
            with pytest.raises(ParameterError, match=message):
                solve_lowest(tridiagonal(800 if dense_cap == 100 else 40), 2, dense_cap=dense_cap, **setting)
        with pytest.raises(ParameterError, match=message):
            lanczos_lowest(tridiagonal(800), 2, **setting)

    def test_converge_scan_rejects_them_before_building_a_model(self, monkeypatch):
        import yukawa_ed.solver as solver_mod

        def built(*args):
            raise AssertionError("built a model before the argument check")

        monkeypatch.setattr(solver_mod, "build_model", built)
        with pytest.raises(ParameterError, match="tol must be >= 0, got -1e-10"):
            converge_scan(minimal_params(), "n_max", [1, 2], tol=-1e-10)
        with pytest.raises(ParameterError, match="max_iter must be >= 1, got -3"):
            converge_scan(minimal_params(), "n_max", [1, 2], max_iter=-3)

    @pytest.mark.parametrize("shape", [(0, 0), (900, 901), (901, 900)])
    @pytest.mark.parametrize("sparse", [True, False])
    def test_each_route_names_the_shape(self, shape, sparse):
        # a 0 x 0 matrix used to raise IndexError (or give lanczos_lowest an empty
        # result), a non-square one a different scipy or numpy ValueError per route
        h = sp.random(*shape, density=0.01, format="csr", random_state=5) if sparse else np.ones(shape)
        message = rf"need a non-empty square matrix, got shape \({shape[0]}, {shape[1]}\)"
        for solve in (dense_lowest, solve_lowest, lanczos_lowest, operator_norm_dense):
            with pytest.raises(ParameterError, match=message):
                solve(h) if solve is operator_norm_dense else solve(h, 1)

    def test_a_vector_is_not_a_matrix(self):
        with pytest.raises(ParameterError, match=r"got shape \(5,\)"):
            solve_lowest(np.ones(5), 1)


NOT_INTEGERS = [1.5, True, False, math.nan, math.inf]


class TestIntegerArguments:
    """k, max_iter and seed take integral values only, checked before any work; 2.0 and np.int64(2) pass."""

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["k", "max_iter", "seed"])
    def test_solvers_reject_them_on_either_route(self, name, value, monkeypatch):
        # k = 1.5 gave one eigenvalue on the dense route and a bare TypeError above the cap
        import yukawa_ed.solver as solver_mod

        def converted(*args):
            raise AssertionError("worked on the matrix before the argument check")

        monkeypatch.setattr(solver_mod, "_as_operator", converted)
        settings = {"k": 2, name: value}
        message = f"{name} must be an integer, got {value!r}"
        for dense_cap in (100, DEFAULT_DENSE_CAP):
            with pytest.raises(ParameterError, match=message):
                solve_lowest(tridiagonal(800 if dense_cap == 100 else 40), dense_cap=dense_cap, **settings)
        with pytest.raises(ParameterError, match=message):
            lanczos_lowest(tridiagonal(800), **settings)
        if name == "k":
            with pytest.raises(ParameterError, match=message):
                dense_lowest(tridiagonal(40), value)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_sector_minima_rejects_a_seed(self, value):
        model = build_model(minimal_params())
        with pytest.raises(ParameterError, match=f"seed must be an integer, got {value!r}"):
            sector_minima(model.hamiltonian(), model.basis, 1, seed=value)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["k", "max_iter", "seed"])
    def test_converge_scan_rejects_them_before_building_a_model(self, name, value, monkeypatch):
        import yukawa_ed.solver as solver_mod

        def built(*args):
            raise AssertionError("built a model before the argument check")

        monkeypatch.setattr(solver_mod, "build_model", built)
        with pytest.raises(ParameterError, match=f"{name} must be an integer, got {value!r}"):
            converge_scan(minimal_params(), "n_max", [1, 2], **{name: value})

    @pytest.mark.parametrize("k", [0, -1, 0.0])
    def test_k_below_one_is_rejected(self, k):
        for solve in (dense_lowest, solve_lowest, lanczos_lowest):
            with pytest.raises(ParameterError, match="k must be >= 1"):
                solve(tridiagonal(40), k)

    @pytest.mark.parametrize("two", [2.0, np.int64(2), np.float64(2.0)])
    def test_integral_values_pass(self, two):
        for dense_cap in (100, DEFAULT_DENSE_CAP):
            h = tridiagonal(800 if dense_cap == 100 else 40)
            want = solve_lowest(h, 2, max_iter=400, seed=2, dense_cap=dense_cap)
            got = solve_lowest(h, two, max_iter=200 * two, seed=two, dense_cap=dense_cap)
            assert got.eigenvalues.tolist() == want.eigenvalues.tolist()
        got = lanczos_lowest(tridiagonal(800), two, max_iter=200 * two, seed=two)
        assert got.eigenvalues.tolist() == lanczos_lowest(tridiagonal(800), 2, seed=2).eigenvalues.tolist()
        assert len(dense_lowest(tridiagonal(40), two).eigenvalues) == 2


class TestDenseCap:
    """dense_cap is an integer from 0 to the oracle's memory guard, checked before any work on every route."""

    BAD = [(ORACLE_DENSE_CAP + 1, f"dense_cap must be <= {ORACLE_DENSE_CAP}, got {ORACLE_DENSE_CAP + 1}"),
           (10**9, f"dense_cap must be <= {ORACLE_DENSE_CAP}, got {10**9}"),
           (-3, "dense_cap must be >= 0, got -3")]
    BAD += [(value, f"dense_cap must be an integer, got {value!r}") for value in NOT_INTEGERS]

    @pytest.mark.parametrize("value, message", BAD)
    def test_solvers_reject_it_before_any_work(self, value, message, monkeypatch):
        # 5000 took a 4 200-state matrix past the guard to the dense route
        import yukawa_ed.solver as solver_mod

        def refused(*args):
            raise AssertionError("worked before the dense_cap check")

        monkeypatch.setattr(solver_mod, "_as_operator", refused)
        monkeypatch.setattr(solver_mod, "build_model", refused)
        for solve in (solve_lowest, dense_lowest):
            with pytest.raises(ParameterError, match=message):
                solve(tridiagonal(40), 2, dense_cap=value)
        with pytest.raises(ParameterError, match=message):
            converge_scan(minimal_params(), "n_max", [1, 2], dense_cap=value)

    def test_caps_up_to_the_guard_pass(self):
        h = tridiagonal(40)
        want = solve_lowest(h, 2).eigenvalues
        assert solve_lowest(h, 2, dense_cap=ORACLE_DENSE_CAP).eigenvalues.tolist() == want.tolist()
        assert solve_lowest(h, 2, dense_cap=40.0).method == "dense"
        lanczos = solve_lowest(h, 2, dense_cap=0, tol=1e-11)
        assert lanczos.method == "blocks" and lanczos.matvecs > 0
        assert np.allclose(lanczos.eigenvalues, want, atol=1e-10)


class TestSectorMinima:
    def test_free_charge_sectors_cost_one_mass_each(self):
        params = minimal_params(coupling=0.0)
        model = build_model(params)
        h = model.hamiltonian()
        for n in (1, 2):
            sector = sector_minima(h, model.basis, n, label="charge")
            assert sector.invariant
            assert sector.energy == pytest.approx(n * params.dirac_mass, abs=1e-14)

    def test_interacting_minimal_sector_bound(self):
        model = build_model(minimal_params(coupling=0.5))
        h = model.hamiltonian()
        e0 = dense_lowest(h, 1).ground_energy
        for n in (1, 2, 3, 4):
            sector = sector_minima(h, model.basis, n, label="number")
            assert sector.invariant  # rest-frame coupling conserves total number
            assert sector.energy >= e0 + n * model.params.dirac_mass - 1e-9

    def test_mixed_sector_reported_not_solved(self):
        params = minimal_params(
            coupling=0.5,
            fermion_points=((0, 0, 0), (0, 0, 1)),
            fermion_V=TWO_PI,
            fermion_L=1.5,
            n_max=1,
            total_boson_cap=1,
        )
        model = build_model(params)
        h = model.hamiltonian()
        sector = sector_minima(h, model.basis, 1, label="number")
        assert not sector.invariant
        assert sector.energy is None
        assert sector.mixing > 1e-12
        charge_sector = sector_minima(h, model.basis, 1, label="charge")
        assert charge_sector.invariant

    def test_empty_sector_rejected(self):
        model = build_model(minimal_params())
        with pytest.raises(ParameterError):
            sector_minima(model.hamiltonian(), model.basis, 7, label="charge")

    def test_a_nested_list_is_solved_as_its_sparse_matrix(self):
        # the shape check read h.shape, an AttributeError on a list
        model = build_model(minimal_params(coupling=0.5))
        h = model.hamiltonian()
        for n in (-1, 0, 2):
            assert sector_minima(h.toarray().tolist(), model.basis, n) == sector_minima(h, model.basis, n)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_a_label_value_that_is_not_an_integer_is_rejected(self, value):
        # True was read as charge 1
        model = build_model(minimal_params())
        with pytest.raises(ParameterError, match=f"n must be an integer, got {value!r}"):
            sector_minima(model.hamiltonian(), model.basis, value)
        assert sector_minima(model.hamiltonian(), model.basis, np.int64(1)).value == 1

    @pytest.mark.parametrize("dim", [32, 128])
    def test_matrix_must_act_on_the_basis(self, dim):
        # 128 x 128 returned a 24-state sector at energy 1.0, 32 x 32 a bare IndexError
        model = build_model(minimal_params())
        with pytest.raises(ParameterError, match="dimension 64"):
            sector_minima(sp.identity(dim, format="csr"), model.basis, 1, label="charge")


def pruned_w1_params():
    """W1 with a wide spatial cutoff: some terms vanish, so assembly drops the zeros it wrote."""
    return replace(w1_params(), chi_spatial=CutoffProfile.gaussian(3.0))


def sector_case(case, label):
    """A model's Hamiltonian and labels; for the number label, only the part of H that conserves it."""
    model = build_model({"w1": w1_params, "off_axis": off_axis_params, "pruned_3": pruned_w1_params}[case]())
    h = model.hamiltonian()
    labels = model.basis.charge() if label == "charge" else model.basis.fermion_number()
    if label == "number":  # the interaction changes the fermion number by pairs
        coo = h.tocoo()
        same = labels[coo.row] == labels[coo.col]
        h = sp.csr_matrix((coo.data[same], (coo.row[same], coo.col[same])), shape=h.shape)
    return model, h, labels


def handed_to_the_solver(monkeypatch):
    """Patch solve_lowest in the solver module to record each matrix it is given."""
    import yukawa_ed.solver as solver_mod

    seen, solve = [], solver_mod.solve_lowest

    def recorded(h, *args, **kwargs):
        seen.append(h)
        return solve(h, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_lowest", recorded)
    return seen


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestSectorCut:
    """sector_minima cuts each sector once and hands solve_lowest the matrix h[inside][:, inside]."""

    @pytest.mark.parametrize("label", ["charge", "number"])
    @pytest.mark.parametrize("case", ["w1", "off_axis", "pruned_3"])
    def test_sector_matrix_is_the_sliced_sector_bitwise(self, case, label, monkeypatch):
        model, h, labels = sector_case(case, label)
        seen = handed_to_the_solver(monkeypatch)
        for n in sorted(set(labels.tolist())):
            sector = sector_minima(h, model.basis, n, label=label)
            inside = np.flatnonzero(labels == n)
            assert (sector.invariant, sector.mixing, sector.dimension) == (True, 0.0, inside.size)
            assert_same_csr(seen[-1], h[inside][:, inside])

    @pytest.mark.parametrize("value", [1e-13, 0.0])  # within INVARIANCE_TOL, and a stored zero
    def test_entries_leaving_the_sector_are_dropped(self, value, monkeypatch):
        model, h, labels = sector_case("w1", "charge")
        a, b = np.flatnonzero(labels == 0)[0], np.flatnonzero(labels == 1)[0]
        coo = h.tocoo()
        rows, cols = np.append(coo.row, [a, b]), np.append(coo.col, [b, a])
        crossed = sp.coo_matrix((np.append(coo.data, [value, value]), (rows, cols)), shape=h.shape).tocsr()
        assert crossed.nnz == h.nnz + 2
        seen = handed_to_the_solver(monkeypatch)
        for n in (0, 1):
            sector = sector_minima(crossed, model.basis, n, label="charge")
            inside = np.flatnonzero(labels == n)
            assert (sector.invariant, sector.mixing) == (True, value)
            want = crossed[inside][:, inside]
            assert_same_csr(seen[-1], want)
            assert_same_csr(want, h[inside][:, inside])
            assert sector.energy == solve_lowest(want, 1).ground_energy

    @pytest.mark.parametrize("label", ["charge", "number"])
    @pytest.mark.parametrize("params", [w1_params, pruned_w1_params], ids=["sigma1", "sigma3"])
    def test_mixing_is_the_largest_entry_leaving_the_sector(self, params, label):
        model = build_model(params())
        h = model.hamiltonian()
        labels = model.basis.charge() if label == "charge" else model.basis.fermion_number()
        for n in sorted(set(labels.tolist())):
            inside = labels == n
            cut = h[np.flatnonzero(inside)][:, np.flatnonzero(~inside)]
            want = float(abs(cut).max()) if cut.nnz else 0.0
            assert sector_minima(h, model.basis, n, label=label).mixing == want


class TestConvergeScan:
    def test_free_scan_is_flat_zero(self):
        report = converge_scan(minimal_params(coupling=0.0), "n_max", [1, 2, 3])
        assert all(row.ground_energy == 0.0 for row in report.rows)
        assert all(d == 0.0 for d in report.deltas)

    def test_boson_truncation_scan_converges(self):
        report = converge_scan(strong_coupling_params(), "n_max", [1, 2, 3, 4])
        assert report.e0_monotone_nonincreasing
        assert report.tail_deltas_nonincreasing
        # truncation error must be resolvable above float noise
        assert report.deltas[-1] > 1e-14
        assert report.deltas[0] > report.deltas[-1]

    def test_fermion_mode_scan_monotone(self):
        params = minimal_params(
            coupling=0.5,
            fermion_points=((0, 0, 0), (0, 0, 1), (0, 0, -1)),
            fermion_V=TWO_PI,
            fermion_L=1.5,
            n_max=1,
            total_boson_cap=1,
            boson_points=((0, 0, 0),),
        )
        report = converge_scan(params, "fermion_modes", [1, 2, 3], dense_cap=600)
        assert len(report.rows) == 3
        assert report.e0_monotone_nonincreasing

    def test_refinement_list_validation(self):
        with pytest.raises(ParameterError):
            converge_scan(minimal_params(), "n_max", [2, 2, 3])
        with pytest.raises(ParameterError):
            converge_scan(minimal_params(), "n_max", [])
        with pytest.raises(ParameterError):
            converge_scan(minimal_params(), "lattice_flavor", [1, 2])

    def test_single_element_list_has_no_deltas(self):
        report = converge_scan(minimal_params(coupling=0.1), "n_max", [2])
        assert len(report.rows) == 1
        assert report.deltas == []

    def test_report_serializes(self):
        report = converge_scan(minimal_params(coupling=0.1), "n_max", [1, 2])
        data = report.to_dict()
        assert data["axis"] == "n_max"
        assert len(data["rows"]) == 2
        assert "diagnostic" in data["note"]


class TestParamsForStep:
    @pytest.mark.parametrize(
        "axis, field, value, expected",
        [
            ("n_max", "n_max", 2.0, 2),
            ("total_cap", "total_boson_cap", 5.0, 5),
            ("boson_V", "boson_V", 3, 3.0),
            ("boson_L", "boson_L", 2, 2.0),
            ("fermion_V", "fermion_V", 4, 4.0),
            ("fermion_L", "fermion_L", 1, 1.0),
            ("fermion_modes", "fermion_points", 2.0, ((0, 0, -1), (0, 0, 0))),
            ("n_max", "n_max", "2", 2),
        ],
    )
    def test_each_axis_sets_its_field_with_its_type(self, axis, field, value, expected):
        params = minimal_params(fermion_points=((0, 0, -1), (0, 0, 0), (0, 0, 1)))
        step = _params_for_step(params, axis, value)
        got = getattr(step, field)
        assert got == expected and type(got) is type(expected)
        assert step == replace(params, **{field: expected})

    def test_axes_are_covered_and_errors_kept(self):
        assert SCAN_AXES == (
            "n_max", "total_cap", "boson_V", "boson_L", "fermion_V", "fermion_L", "fermion_modes",
        )
        with pytest.raises(ParameterError) as err:
            _params_for_step(minimal_params(), "lattice_flavor", 1)
        assert str(err.value) == f"unknown scan axis 'lattice_flavor'; expected one of {SCAN_AXES}"
        with pytest.raises(ParameterError, match="needs explicit fermion_points"):
            _params_for_step(minimal_params(), "fermion_modes", 1)
        with pytest.raises(ParameterError, match="exceeds available points 1"):
            _params_for_step(minimal_params(fermion_points=((0, 0, 0),)), "fermion_modes", 2)

    @pytest.mark.parametrize(
        "axis, value",
        [
            ("n_max", 2.5),
            ("total_cap", 1.5),
            ("fermion_modes", 1.5),
            ("n_max", True),
            ("n_max", None),
            ("n_max", "a"),
            ("boson_L", "b"),
            ("fermion_V", [1.0]),
        ],
    )
    def test_values_are_cast_exactly(self, axis, value):
        params = minimal_params(fermion_points=((0, 0, -1), (0, 0, 0), (0, 0, 1)))
        with pytest.raises(ParameterError, match=f"bad {axis} value"):
            _params_for_step(params, axis, value)

    def test_scan_checks_every_value_before_it_solves(self, monkeypatch):
        import yukawa_ed.solver as solver_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before every scan value was checked")

        monkeypatch.setattr(solver_mod, "build_model", no_solve)
        with pytest.raises(ParameterError, match="bad n_max value 2.5"):
            converge_scan(minimal_params(), "n_max", [1, 2.5, 3])


class TestScanAbort:
    def test_failed_step_carries_partial_report(self, monkeypatch):
        import yukawa_ed.solver as solver_mod

        calls = {"n": 0}
        original = solver_mod.solve_lowest

        def flaky(h, k, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise ConvergenceError("stalled", best_residual=1e-3)
            return original(h, k, **kwargs)

        monkeypatch.setattr(solver_mod, "solve_lowest", flaky)
        with pytest.raises(ConvergenceError) as err:
            converge_scan(minimal_params(coupling=0.2), "n_max", [1, 2, 3])
        partial = err.value.partial
        assert partial is not None
        assert len(partial.rows) == 1
