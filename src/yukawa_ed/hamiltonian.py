"""Assembly of the free and interacting Hamiltonians; ``build_model`` is the only entry.

The interaction is the spatially-weighted coupling of the fermion density to
the scalar field: integral chi_spatial(x) * psibar(x) psi(x) (x) phi(x) dx.
On finite lattices every field operator is a finite sum of ladder operators
with plane-wave phases, so the x-integral collapses to the Fourier transform
of the spatial cutoff evaluated at the signed momentum balance of each term.
Only gaussian spatial cutoffs are supported, for which that transform is
closed-form.

Each term is a fermion bilinear times one boson ladder operator B_r, r one of
a_k or a*_k, so the assembled interaction is H_int = sum_r F_r (x) B_r with
F_r on the 2^(4 N_f) fermion-mask space.  B_r moves the boson occupation by
-e_k or +e_k, a shift no other ladder shares, so distinct blocks occupy
disjoint entries and the 2 N_b blocks add without overlap.

No normal ordering is applied: the antiparticle bilinear is kept in the d d*
order in which the density is written, so the assembled matrix contains the
induced one-boson (tadpole) contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ParameterError
from .fock import (
    DEFAULT_BASIS_CAP,
    FermionMode,
    FockBasis,
    boson_annihilator,
    boson_block_annihilator,
    boson_creator,
    enumerate_basis,
    fermion_annihilator,
    fermion_creator,
    mask_annihilator,
    second_quantization,
    smeared_boson,
    smeared_fermion,
)
from .lattice import (
    DEFAULT_POINT_CAP,
    DiscreteCoefficients,
    MomentumLattice,
    build_lattice,
    discretize,
)
from .spinor import (
    SPINS,
    CutoffProfile,
    DiracAlgebra,
    boson_coefficients,
    boson_energy,
    dirac_algebra,
    dirac_energy,
    fermion_coefficients,
)

# left and right mask factor of each fermion bilinear, as (species, creator?)
BILINEAR_FACTORS = {
    "b*b": (("b", True), ("b", False)),
    "b*d*": (("b", True), ("d", True)),
    "db": (("d", False), ("b", False)),
    "dd*": (("d", False), ("d", True)),
}
FERMION_KINDS = tuple(BILINEAR_FACTORS)
BOSON_KINDS = ("a", "a*")


@dataclass(frozen=True)
class ModelParams:
    """Masses, coupling, cutoffs, lattice geometry, and truncation controls."""

    dirac_mass: float
    boson_mass: float
    coupling: float
    chi_dirac: CutoffProfile = CutoffProfile.gaussian(1.0)
    chi_kg: CutoffProfile = CutoffProfile.gaussian(1.0)
    chi_spatial: CutoffProfile = CutoffProfile.gaussian(1.0)
    fermion_V: float = 2.0 * math.pi
    fermion_L: float = 0.5
    boson_V: Optional[float] = None
    boson_L: Optional[float] = None
    fermion_points: Optional[Tuple[Tuple[int, int, int], ...]] = None
    boson_points: Optional[Tuple[Tuple[int, int, int], ...]] = None
    n_max: int = 3
    total_boson_cap: Optional[int] = None
    chi_hat_floor: float = 1e-14
    point_cap: int = DEFAULT_POINT_CAP
    basis_cap: int = DEFAULT_BASIS_CAP

    def __post_init__(self):
        if self.dirac_mass <= 0:
            raise ParameterError(f"Dirac mass must be positive, got {self.dirac_mass}")
        if self.boson_mass <= 0:
            raise ParameterError(f"boson mass must be positive, got {self.boson_mass}")
        if self.chi_spatial.kind != "gaussian":
            raise ParameterError("the spatial cutoff must be gaussian (closed-form transform)")
        if self.n_max < 0:
            raise ParameterError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def free_gap(self) -> float:
        """Spectral gap of the free Hamiltonian: the smaller of the two masses."""
        return min(self.dirac_mass, self.boson_mass)

    def with_coupling(self, coupling: float) -> "ModelParams":
        return replace(self, coupling=coupling)

    def build_fermion_lattice(self) -> MomentumLattice:
        if self.fermion_points is not None:
            return MomentumLattice.from_integer_points(
                self.fermion_V, self.fermion_L, self.fermion_points
            )
        return build_lattice(self.fermion_V, self.fermion_L, self.point_cap)

    def build_boson_lattice(self) -> MomentumLattice:
        V = self.boson_V if self.boson_V is not None else self.fermion_V
        L = self.boson_L if self.boson_L is not None else self.fermion_L
        if self.boson_points is not None:
            return MomentumLattice.from_integer_points(V, L, self.boson_points)
        if self.boson_V is None and self.boson_L is None and self.fermion_points is not None:
            # no separate boson geometry requested: reuse the explicit fermion modes
            return MomentumLattice.from_integer_points(V, L, self.fermion_points)
        return build_lattice(V, L, self.point_cap)


def chi_spatial_fourier(xi: np.ndarray, profile: CutoffProfile) -> float:
    """Closed-form integral of chi(x) exp(-i xi.x) dx for a gaussian profile.

    Real and positive: (2 pi sigma^2)^(3/2) exp(-sigma^2 |xi|^2 / 2).
    """
    if profile.kind != "gaussian":
        raise ParameterError("closed-form transform requires a gaussian spatial cutoff")
    sigma2 = profile.scale * profile.scale
    return (2.0 * math.pi * sigma2) ** 1.5 * math.exp(-0.5 * sigma2 * float(np.dot(xi, xi)))


def chi_spatial_l1_norm(profile: CutoffProfile) -> float:
    """L1 norm of the spatial cutoff; equals its transform at zero."""
    return chi_spatial_fourier(np.zeros(3), profile)


def fourier_quadrature(
    profile: CutoffProfile,
    xi: np.ndarray,
    radius_factor: float = 8.0,
    n_nodes: int = 48,
) -> complex:
    """Tensor Gauss-Legendre quadrature of the cutoff transform (validation only)."""
    half = radius_factor * profile.scale
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes = nodes * half
    weights = weights * half
    out = 1.0 + 0.0j
    for axis in range(3):
        vals = np.exp(-(nodes**2) / (2.0 * profile.scale**2)) * np.exp(-1j * xi[axis] * nodes)
        out *= np.sum(weights * vals)
    return complex(out)


@dataclass(frozen=True)
class InteractionTerm:
    """One ladder-operator monomial of the expanded interaction.

    ``components`` are the density indices contracted against gamma0 from the
    conjugated and plain field respectively; they coincide in the standard
    representation where gamma0 is diagonal.  ``coefficient`` is the full
    scalar multiplying the operator product, cell-volume weights and the
    momentum-balance transform included.
    """

    fermion_kind: str
    boson_kind: str
    spins: Tuple[float, float]
    components: Tuple[int, int]
    q_index: int
    qp_index: int
    k_index: int
    momentum_balance: Tuple[float, float, float]
    coefficient: complex


def enumerate_interaction_terms(
    params: ModelParams,
    f: Sequence[Sequence[DiscreteCoefficients]],
    g: Sequence[Sequence[DiscreteCoefficients]],
    h: DiscreteCoefficients,
    gamma0: np.ndarray,
) -> List[InteractionTerm]:
    """Expand the interaction into ladder-operator monomials.

    Terms with exactly zero coefficient are dropped, as are terms whose
    momentum-balance transform falls below ``chi_hat_floor`` relative to its
    peak.  The surviving set is closed under taking adjoints with conjugated
    coefficients, which keeps the assembled matrix Hermitian.
    """
    lat_f = f[0][0].lattice
    lat_b = h.lattice
    peak = chi_spatial_fourier(np.zeros(3), params.chi_spatial)
    floor = params.chi_hat_floor * peak
    base = lat_f.cell_volume * math.sqrt(lat_b.cell_volume) / math.sqrt(2.0)

    component_pairs = [
        (lb, lk, gamma0[lb, lk])
        for lb in range(4)
        for lk in range(4)
        if gamma0[lb, lk] != 0
    ]

    terms: List[InteractionTerm] = []
    q_pts = lat_f.points
    k_pts = lat_b.points
    for si, s in enumerate(SPINS):
        for spi, s_p in enumerate(SPINS):
            for qi in range(lat_f.n_points):
                for qpi in range(lat_f.n_points):
                    for lb, lk, gam in component_pairs:
                        # bra factor from the conjugated field, ket factor from the plain one
                        factors = {
                            "b*b": f[si][lb].values[qi] * np.conj(f[spi][lk].values[qpi]),
                            "b*d*": f[si][lb].values[qi] * g[spi][lk].values[qpi],
                            "db": np.conj(g[si][lb].values[qi]) * np.conj(f[spi][lk].values[qpi]),
                            "dd*": np.conj(g[si][lb].values[qi]) * g[spi][lk].values[qpi],
                        }
                        phases = {
                            "b*b": -q_pts[qi] + q_pts[qpi],
                            "b*d*": -q_pts[qi] - q_pts[qpi],
                            "db": q_pts[qi] + q_pts[qpi],
                            "dd*": q_pts[qi] - q_pts[qpi],
                        }
                        for kind in FERMION_KINDS:
                            spinor_part = factors[kind]
                            if spinor_part == 0:
                                continue
                            for ki in range(lat_b.n_points):
                                for bkind in BOSON_KINDS:
                                    if bkind == "a":
                                        bos = np.conj(h.values[ki])
                                        balance = phases[kind] - k_pts[ki]
                                    else:
                                        bos = h.values[ki]
                                        balance = phases[kind] + k_pts[ki]
                                    if bos == 0:
                                        continue
                                    hat = chi_spatial_fourier(balance, params.chi_spatial)
                                    if hat < floor:
                                        continue
                                    coeff = gam * spinor_part * bos * hat * base
                                    if coeff == 0:
                                        continue
                                    terms.append(
                                        InteractionTerm(
                                            fermion_kind=kind,
                                            boson_kind=bkind,
                                            spins=(s, s_p),
                                            components=(lb, lk),
                                            q_index=qi,
                                            qp_index=qpi,
                                            k_index=ki,
                                            momentum_balance=tuple(float(c) for c in balance),
                                            coefficient=complex(coeff),
                                        )
                                    )
    return terms


Ladder = Tuple[str, int]  # (boson_kind, k_index)


def ladder_factors(terms: Sequence[InteractionTerm], basis: FockBasis) -> Dict[Ladder, sp.csr_matrix]:
    """The mask-space factor F_r of each boson ladder r = (boson_kind, k_index).

    F_r sums the group's coefficient-weighted fermion bilinears on the
    2^(4 N_f) mask space in one COO pass, exact zeros eliminated.
    """
    n_modes = basis.n_fermion_modes
    annihilators = [mask_annihilator(n_modes, j) for j in range(n_modes)]
    ladder_ops = {False: annihilators, True: [c.conj().T.tocsr() for c in annihilators]}

    def bilinear(kind: str, spins: Tuple[float, float], qi: int, qpi: int) -> sp.coo_matrix:
        (left, left_create), (right, right_create) = BILINEAR_FACTORS[kind]
        i = basis.mode_index(FermionMode(left, spins[0], qi))
        j = basis.mode_index(FermionMode(right, spins[1], qpi))
        return (ladder_ops[left_create][i] @ ladder_ops[right_create][j]).tocoo()

    groups: Dict[Ladder, Dict[Tuple, complex]] = {}
    for term in terms:
        group = groups.setdefault((term.boson_kind, term.k_index), {})
        key = (term.fermion_kind, term.spins, term.q_index, term.qp_index)
        group[key] = group.get(key, 0) + term.coefficient
    keys = dict.fromkeys(key for group in groups.values() for key in group)
    bilinears = {key: bilinear(*key) for key in keys}

    factors = {}
    for ladder, group in groups.items():
        mats = [bilinears[key] for key in group]
        rows = np.concatenate([m.row for m in mats])
        cols = np.concatenate([m.col for m in mats])
        vals = np.concatenate([c * m.data for c, m in zip(group.values(), mats)])
        f_r = sp.csr_matrix((vals, (rows, cols)), shape=(basis.fermion_dim,) * 2)
        f_r.eliminate_zeros()
        factors[ladder] = f_r
    return factors


def assemble_interaction(factors: Dict[Ladder, sp.csr_matrix], basis: FockBasis) -> sp.csr_matrix:
    """Sum the ladder factors into H_int = sum_r F_r (x) B_r on the product basis.

    The blocks are disjoint (module docstring), so the sum over r never
    merges entries.
    """
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for (bkind, k), f_r in factors.items():
        b_r = boson_block_annihilator(basis, k)
        if bkind == "a*":
            b_r = b_r.conj().T
        total = total + sp.kron(f_r, b_r, format="csr")
    return total


def hermiticity_defect(mat: sp.spmatrix) -> float:
    diff = (mat - mat.conj().T).tocoo()
    return 0.0 if diff.nnz == 0 else float(np.max(np.abs(diff.data)))


def interaction_hermiticity_defect(factors: Dict[Ladder, sp.csr_matrix], basis: FockBasis) -> float:
    """``hermiticity_defect`` of H_int, checked on the mask-space factors.

    The a_k and a*_k blocks of H_int - H_int^H are (F_{a,k} - F_{a*,k}^H) (x) B_k
    and its adjoint.  Kron entries are products, so the defect is the largest
    max|F_{a,k} - F_{a*,k}^H| * max|B_k|; the first factor is the defect of
    [[0, F_{a,k}], [F_{a*,k}, 0]].  An absent ladder counts as zero.
    """
    zero = sp.csr_matrix((basis.fermion_dim,) * 2, dtype=complex)
    defect = 0.0
    for k in sorted({k for _, k in factors}):
        pair = sp.bmat([[None, factors.get(("a", k), zero)], [factors.get(("a*", k), zero), None]])
        scale = np.max(np.abs(boson_block_annihilator(basis, k).data), initial=0.0)
        defect = max(defect, hermiticity_defect(pair) * scale)
    return defect


@dataclass
class Model:
    """All assembled ingredients for one parameter set."""

    params: ModelParams
    algebra: DiracAlgebra
    basis: FockBasis
    f: list
    g: list
    h: DiscreteCoefficients
    h_dirac: sp.csr_matrix   # fermion number-energy, lifted to the product basis
    h_kg: sp.csr_matrix      # boson number-energy, lifted
    h_free: sp.csr_matrix
    h_int: sp.csr_matrix
    terms: List[InteractionTerm]

    @property
    def fermion_lattice(self) -> MomentumLattice:
        return self.basis.fermion_lattice

    @property
    def boson_lattice(self) -> MomentumLattice:
        return self.basis.boson_lattice

    def hamiltonian(self, coupling: Optional[float] = None) -> sp.csr_matrix:
        kappa = self.params.coupling if coupling is None else coupling
        if kappa == 0:
            return self.h_free
        return (self.h_free + kappa * self.h_int).tocsr()

    def kg_sqrt(self) -> sp.csr_matrix:
        return sp.diags(np.sqrt(self.h_kg.diagonal().real), format="csr")


def build_model(
    params: ModelParams,
    algebra: Optional[DiracAlgebra] = None,
    basis: Optional[FockBasis] = None,
) -> Model:
    """Sample coefficients, enumerate the basis, and assemble all operators."""
    algebra = algebra or dirac_algebra()
    if basis is None:
        basis = enumerate_basis(
            params.build_fermion_lattice(),
            params.n_max,
            params.total_boson_cap,
            boson_lattice=params.build_boson_lattice(),
            basis_cap=params.basis_cap,
        )
    f, g = fermion_coefficients(basis.fermion_lattice, params.dirac_mass, params.chi_dirac, algebra)
    h = boson_coefficients(basis.boson_lattice, params.boson_mass, params.chi_kg)

    h_dirac = second_quantization(
        discretize(lambda q: dirac_energy(q, params.dirac_mass), basis.fermion_lattice),
        basis,
        side="fermion",
    ).tocsr()
    h_kg = second_quantization(
        discretize(lambda k: boson_energy(k, params.boson_mass), basis.boson_lattice),
        basis,
        side="boson",
    ).tocsr()
    terms = enumerate_interaction_terms(params, f, g, h, algebra.beta)
    factors = ladder_factors(terms, basis)
    defect = interaction_hermiticity_defect(factors, basis)
    if defect > 1e-12:
        raise AssemblyError(f"interaction matrix hermiticity defect {defect:.3e} exceeds 1e-12")
    h_int = assemble_interaction(factors, basis)
    return Model(
        params=params,
        algebra=algebra,
        basis=basis,
        f=f,
        g=g,
        h=h,
        h_dirac=h_dirac,
        h_kg=h_kg,
        h_free=(h_dirac + h_kg).tocsr(),
        h_int=h_int,
        terms=terms,
    )


# -- field operators at a point and the direct form evaluation ------------------


def dirac_field_component(model: Model, component: int, x: np.ndarray) -> sp.csr_matrix:
    """The field component psi_l(x) as a matrix on the product basis."""
    lat = model.fermion_lattice
    phase = np.exp(-1j * (lat.points @ np.asarray(x, dtype=float)))
    out = sp.csr_matrix((model.basis.dim, model.basis.dim), dtype=complex)
    for si, s in enumerate(SPINS):
        f_x = DiscreteCoefficients(model.f[si][component].values * phase, lat)
        g_x = DiscreteCoefficients(model.g[si][component].values * phase, lat)
        out = out + smeared_fermion(f_x, "b", s, model.basis)
        out = out + smeared_fermion(g_x, "d", s, model.basis, create=True)
    return out


def boson_field(model: Model, x: np.ndarray) -> sp.csr_matrix:
    """The field phi(x) = (a(h_x) + a*(h_x)) / sqrt(2) on the product basis."""
    lat = model.boson_lattice
    phase = np.exp(1j * (lat.points @ np.asarray(x, dtype=float)))
    h_x = DiscreteCoefficients(model.h.values * phase, lat)
    ann = smeared_boson(h_x, model.basis)
    return (ann + ann.conj().T.tocsr()) / math.sqrt(2.0)


def interaction_form_quadrature(
    model: Model,
    phi_vec: np.ndarray,
    psi_vec: np.ndarray,
    n_nodes: int = 40,
    radius_factor: float = 8.0,
    chunk: int = 4096,
) -> complex:
    """Direct x-quadrature of the interaction form between two states.

    Evaluates integral chi_spatial(x) <Phi, psibar psi (x) phi(x) Psi> dx on a
    tensor Gauss-Legendre grid, bypassing the momentum-balance bookkeeping of
    the assembled matrix.  Validation path; cost grows with n_nodes^3.
    """
    basis = model.basis
    lat_f, lat_b = model.fermion_lattice, model.boson_lattice
    root_wf = math.sqrt(lat_f.cell_volume)
    root_wb = math.sqrt(lat_b.cell_volume)
    gamma0 = model.algebra.beta
    phi_vec = np.asarray(phi_vec, dtype=complex)
    psi_vec = np.asarray(psi_vec, dtype=complex)

    # psi_l(x) = sum_j c_j[l] exp(i e_j p_j . x) O_j over elementary ladder ops
    ferm_ops = []
    for si, s in enumerate(SPINS):
        for qi in range(lat_f.n_points):
            c_b = root_wf * np.array([np.conj(model.f[si][l].values[qi]) for l in range(4)])
            ferm_ops.append((c_b, +1.0, lat_f.points[qi], fermion_annihilator(FermionMode("b", s, qi), basis)))
            c_d = root_wf * np.array([model.g[si][l].values[qi] for l in range(4)])
            ferm_ops.append((c_d, -1.0, lat_f.points[qi], fermion_creator(FermionMode("d", s, qi), basis)))

    # phi(x) = sum_r u_r exp(i e_r k_r . x) B_r
    bos_ops = []
    for ki in range(lat_b.n_points):
        u_a = root_wb * np.conj(model.h.values[ki]) / math.sqrt(2.0)
        bos_ops.append((u_a, -1.0, lat_b.points[ki], boson_annihilator(ki, basis)))
        u_c = root_wb * model.h.values[ki] / math.sqrt(2.0)
        bos_ops.append((u_c, +1.0, lat_b.points[ki], boson_creator(ki, basis)))

    bra_vecs = [op @ phi_vec for (_, _, _, op) in ferm_ops]
    bos_vecs = [op @ psi_vec for (_, _, _, op) in bos_ops]

    weights = []
    balances = []
    for jp, (c_jp, e_jp, p_jp, op_jp) in enumerate(ferm_ops):
        ket_vecs = [op_jp @ v for v in bos_vecs]
        for j, (c_j, e_j, p_j, _) in enumerate(ferm_ops):
            gamma_weight = np.conj(c_j) @ gamma0 @ c_jp
            if gamma_weight == 0:
                continue
            for r, (u_r, e_r, k_r, _) in enumerate(bos_ops):
                scalar = gamma_weight * u_r * np.vdot(bra_vecs[j], ket_vecs[r])
                if scalar == 0:
                    continue
                weights.append(scalar)
                balances.append(-e_j * p_j + e_jp * p_jp + e_r * k_r)

    if not weights:
        return 0.0 + 0.0j
    weights = np.asarray(weights)
    balances = np.asarray(balances)

    sigma = model.params.chi_spatial.scale
    half = radius_factor * sigma
    nodes1, w1 = np.polynomial.legendre.leggauss(n_nodes)
    nodes1 = nodes1 * half
    w1 = w1 * half
    xs = np.stack(np.meshgrid(nodes1, nodes1, nodes1, indexing="ij"), axis=-1).reshape(-1, 3)
    wx = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).reshape(-1)
    chi_x = np.exp(-np.sum(xs * xs, axis=1) / (2.0 * sigma * sigma))

    total = 0.0 + 0.0j
    for start in range(0, len(xs), chunk):
        block = xs[start : start + chunk]
        phases = np.exp(1j * (balances @ block.T))  # (n_terms, n_block)
        s_x = weights @ phases
        total += np.sum(wx[start : start + chunk] * chi_x[start : start + chunk] * s_x)
    return complex(total)
