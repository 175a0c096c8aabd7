"""Truncated boson-fermion Fock basis and sparse ladder operators.

The fermionic sector is the full exterior algebra over 4 modes per lattice
point (particle/antiparticle x spin up/down), encoded as occupation bitmasks,
so the anticommutation relations hold exactly as stored matrices.  The
bosonic sector is truncated: at most ``n_max`` quanta per mode and
``total_cap`` in total, which breaks the commutation relations only on
top-occupation states.

Basis ordering is fermion-mask major (mask value ascending), boson occupation
lexicographic minor; the vacuum is index 0.  Full-space operators are
Kronecker products respecting that ordering.  Boson occupations are counted
by a loop over modes, so the cap is checked before any allocation on any lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, LatticeMismatchError, ParameterError, size_text
from .lattice import DiscreteCoefficients, MomentumLattice
from .spinor import SPINS

DEFAULT_BASIS_CAP = 2_000_000

SPECIES = ("b", "d")  # particle, antiparticle


def same_lattice(a: MomentumLattice, b: MomentumLattice) -> bool:
    return (
        a is b
        or (
            a.spacing_parameter == b.spacing_parameter
            and np.array_equal(a.integer_points, b.integer_points)
        )
    )


@dataclass(frozen=True)
class FermionMode:
    """One fermionic mode: species, spin, and lattice point index."""

    species: str
    spin: float
    point: int

    def __post_init__(self):
        if self.species not in SPECIES:
            raise ParameterError(f"species must be 'b' or 'd', got {self.species!r}")
        if self.spin not in SPINS:
            raise ParameterError(f"spin must be +-0.5, got {self.spin}")

    def family(self) -> int:
        return 2 * SPECIES.index(self.species) + SPINS.index(self.spin)

    def index(self, n_points: int) -> int:
        """Global mode index: families are contiguous blocks of lattice points."""
        return self.family() * n_points + self.point


@dataclass(frozen=True)
class FockState:
    """One product-basis state: fermion bitmask and boson occupation tuple."""

    fermion_mask: int
    boson_occupation: Tuple[int, ...]


def _completions(n_modes: int, n_max: int, total_cap: int) -> List[List[int]]:
    """ways[m][r]: occupation vectors of m modes, each at most n_max, with total at most r."""
    cap = min(total_cap, n_modes * n_max)  # no occupation vector holds more
    ways = [[1] * (cap + 1)]
    for _ in range(n_modes):
        fewer = ways[-1]
        ways.append([sum(fewer[r - n] for n in range(min(n_max, r) + 1)) for r in range(cap + 1)])
    return ways


def count_boson_occupations(n_modes: int, n_max: int, total_cap: int) -> int:
    """Number of occupation vectors with per-mode cap and total cap (an exact int)."""
    return _completions(n_modes, n_max, total_cap)[n_modes][-1]


def _enumerate_boson_occupations(n_modes: int, n_max: int, total_cap: int) -> np.ndarray:
    """Occupation vectors in lexicographic order, filled one mode (column) at a time.

    The rows sharing occupations of modes 0..i-1 are contiguous; with r quanta
    left, occupation n of mode i covers the next ways[n_modes - i - 1][r - n] of them.
    """
    ways = np.array(_completions(n_modes, n_max, total_cap), dtype=np.int64)
    out = np.zeros((ways[n_modes, -1], n_modes), dtype=np.int64)
    left = np.array([ways.shape[1] - 1])  # quanta left, one entry per shared prefix
    for i in range(n_modes):
        branches = np.minimum(n_max, left) + 1
        n = np.arange(branches.sum()) - np.repeat(np.cumsum(branches) - branches, branches)
        left = np.repeat(left, branches) - n
        out[:, i] = np.repeat(n, ways[n_modes - i - 1, left])
    return out


class FockBasis:
    """Enumerated product basis of fermion bitmasks and boson occupations."""

    def __init__(
        self,
        fermion_lattice: MomentumLattice,
        n_max: int,
        total_cap: Optional[int] = None,
        boson_lattice: Optional[MomentumLattice] = None,
        basis_cap: int = DEFAULT_BASIS_CAP,
    ):
        if n_max < 0:
            raise ParameterError(f"n_max must be >= 0, got {n_max}")
        total_cap = n_max if total_cap is None else total_cap
        if total_cap < 0:
            raise ParameterError(f"total boson cap must be >= 0, got {total_cap}")
        boson_lattice = boson_lattice or fermion_lattice

        self.fermion_lattice = fermion_lattice
        self.boson_lattice = boson_lattice
        self.n_max = n_max
        self.total_cap = total_cap
        self.n_fermion_modes = 4 * fermion_lattice.n_points
        self.n_boson_modes = boson_lattice.n_points
        self.fermion_dim = 1 << self.n_fermion_modes

        n_bos = count_boson_occupations(self.n_boson_modes, n_max, total_cap)
        projected = self.fermion_dim * n_bos
        if projected > basis_cap:
            raise CapacityError(
                f"projected Fock dimension {size_text(projected)} exceeds cap {basis_cap}",
                projected=projected,
                cap=basis_cap,
            )
        self.boson_occupations = _enumerate_boson_occupations(self.n_boson_modes, n_max, total_cap)
        self.boson_dim = len(self.boson_occupations)
        self.boson_index = {tuple(row): i for i, row in enumerate(self.boson_occupations)}
        self.dim = self.fermion_dim * self.boson_dim
        # (row, col, value, mode) of every entry of every block annihilator a_k|n> = sqrt(n_k)|n - e_k>
        cols, mode = np.nonzero(self.boson_occupations)
        target = self.boson_occupations[cols]
        target[np.arange(len(cols)), mode] -= 1
        rows = np.array([self.boson_index[occ] for occ in map(tuple, target.tolist())], dtype=np.int64)
        self.boson_lowering = (rows, cols, np.sqrt(self.boson_occupations[cols, mode].astype(float)), mode)

        masks = np.arange(self.fermion_dim, dtype=np.int64)
        n = fermion_lattice.n_points
        b_bits = (1 << (2 * n)) - 1          # families 0,1 occupy the low 2n bits
        d_bits = ((1 << (4 * n)) - 1) ^ b_bits
        # fermion number and charge of each mask; the per-state labels repeat them
        self.mask_fermion_number = np.bitwise_count(masks)
        self.mask_charge = (
            np.bitwise_count(masks & b_bits).astype(np.int64)
            - np.bitwise_count(masks & d_bits).astype(np.int64)
        )

    # -- state access -------------------------------------------------------

    def state(self, i: int) -> FockState:
        mask, bos = divmod(i, self.boson_dim)
        return FockState(int(mask), tuple(int(x) for x in self.boson_occupations[bos]))

    def index_of(self, state: FockState) -> int:
        return state.fermion_mask * self.boson_dim + self.boson_index[state.boson_occupation]

    def mode_index(self, mode: FermionMode) -> int:
        if mode.point >= self.fermion_lattice.n_points:
            raise ParameterError(f"point index {mode.point} outside lattice")
        return mode.index(self.fermion_lattice.n_points)

    # -- per-state diagnostics ----------------------------------------------

    def fermion_number(self) -> np.ndarray:
        """Total fermion occupation (particles + antiparticles) per basis state."""
        return np.repeat(self.mask_fermion_number, self.boson_dim)

    def charge(self) -> np.ndarray:
        """Particle minus antiparticle number per basis state (conserved by the coupling)."""
        return np.repeat(self.mask_charge, self.boson_dim)


def enumerate_basis(
    lattice: MomentumLattice,
    n_max: int,
    total_cap: Optional[int] = None,
    boson_lattice: Optional[MomentumLattice] = None,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> FockBasis:
    """Full fermionic exterior algebra times truncated boson occupations."""
    return FockBasis(lattice, n_max, total_cap, boson_lattice, basis_cap)


# -- mask-space fermion operators (2^n dimensional factor) -------------------


def smeared_mask_ladder(n_modes: int, modes: Sequence[int], weights: np.ndarray, create: Sequence[bool]) -> sp.csr_matrix:
    """sum_j weights[j] c_{modes[j]} (its adjoint where ``create[j]``) on the bitmask space as one COO; c_m has
    the Jordan-Wigner sign (-1)^(occupied modes below m), and row xor column names an entry's mode."""
    keep = np.asarray(weights) != 0  # zero weights are skipped; real weights give a real operator
    modes, weights, create = (np.asarray(a)[keep] for a in (modes, weights, create))
    term, cols = np.nonzero((np.arange(1 << n_modes, dtype=np.int64) >> modes[:, None]) & 1)
    bit = 1 << modes[term]
    rows = cols ^ bit
    data = weights[term] * (1.0 - 2.0 * (np.bitwise_count(cols & (bit - 1)) & 1))
    up = create[term]
    rows[up], cols[up], data[up] = cols[up], rows[up], np.conj(data[up])
    return sp.csr_matrix((data, (rows, cols)), shape=(1 << n_modes,) * 2)


def mask_annihilator(n_modes: int, mode: int) -> sp.csr_matrix:
    """The annihilator c_mode on the bitmask space, real (see ``smeared_mask_ladder``)."""
    if not 0 <= mode < n_modes:
        raise ParameterError(f"mode {mode} outside [0, {n_modes})")
    return smeared_mask_ladder(n_modes, [mode], [1.0], [False])


# -- boson-block operators ----------------------------------------------------


def boson_block_annihilator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Annihilator on the boson occupation block: a|n> = sqrt(n)|n-1>.

    The adjoint (creation) is truncated by construction: raising out of the
    enumerated occupation set gives zero.
    """
    if not 0 <= mode < basis.n_boson_modes:
        raise ParameterError(f"boson mode {mode} outside [0, {basis.n_boson_modes})")
    rows, cols, values, modes = basis.boson_lowering
    at = modes == mode
    return sp.csr_matrix((values[at], (rows[at], cols[at])), shape=(basis.boson_dim,) * 2)


# -- full-space operators ------------------------------------------------------


def lift_fermion(basis: FockBasis, mask_op: sp.spmatrix) -> sp.csr_matrix:
    return sp.kron(mask_op, sp.identity(basis.boson_dim, format="csr"), format="csr")


def lift_boson(basis: FockBasis, block: sp.spmatrix) -> sp.csr_matrix:
    return sp.kron(sp.identity(basis.fermion_dim, format="csr"), block, format="csr")


def fermion_annihilator(mode: FermionMode, basis: FockBasis) -> sp.csr_matrix:
    return lift_fermion(basis, mask_annihilator(basis.n_fermion_modes, basis.mode_index(mode)))


def fermion_creator(mode: FermionMode, basis: FockBasis) -> sp.csr_matrix:
    return fermion_annihilator(mode, basis).conj().T.tocsr()


def boson_annihilator(mode: int, basis: FockBasis) -> sp.csr_matrix:
    return lift_boson(basis, boson_block_annihilator(basis, mode))


def boson_creator(mode: int, basis: FockBasis) -> sp.csr_matrix:
    return boson_annihilator(mode, basis).conj().T.tocsr()


def smeared_fermion(
    xi: DiscreteCoefficients,
    species: str,
    spin: float,
    basis: FockBasis,
    create: bool = False,
) -> sp.csr_matrix:
    """Coefficient-smeared fermion ladder operator.

    The annihilator is antilinear in the coefficients,
    sum_q conj(xi(q)) sqrt(cell_volume) c_{s,q}; the creator is its adjoint.
    Its operator norm equals the discrete L2 norm of ``xi``.
    """
    if not same_lattice(xi.lattice, basis.fermion_lattice):
        raise LatticeMismatchError("coefficients sampled on a different lattice than the basis")
    root_w = np.sqrt(basis.fermion_lattice.cell_volume)
    n = basis.fermion_lattice.n_points
    modes = FermionMode(species, spin, 0).family() * n + np.arange(n)
    mask_op = smeared_mask_ladder(basis.n_fermion_modes, modes, np.conj(xi.values) * root_w, [create] * n)
    return lift_fermion(basis, mask_op)


def smeared_boson_block(eta: DiscreteCoefficients, basis: FockBasis) -> sp.csr_matrix:
    """a(eta) on the boson block as one COO (a_k shifts by -e_k: modes share no entry)."""
    if not same_lattice(eta.lattice, basis.boson_lattice):
        raise LatticeMismatchError("coefficients sampled on a different lattice than the basis")
    rows, cols, values, mode = basis.boson_lowering
    weights = np.conj(eta.values) * np.sqrt(basis.boson_lattice.cell_volume)
    out = sp.csr_matrix((weights[mode] * values, (rows, cols)), shape=(basis.boson_dim,) * 2)
    out.eliminate_zeros()  # the entries of modes with zero weight
    return out


def smeared_boson(eta: DiscreteCoefficients, basis: FockBasis, create: bool = False) -> sp.csr_matrix:
    """Coefficient-smeared boson ladder operator (same conventions as fermions)."""
    op = lift_boson(basis, smeared_boson_block(eta, basis))
    return op.conj().T.tocsr() if create else op


# -- second quantization -------------------------------------------------------


def _check_energies(values: np.ndarray) -> np.ndarray:
    vals = np.asarray(values)
    if np.iscomplexobj(vals) and np.max(np.abs(vals.imag), initial=0.0) > 1e-12:
        raise ParameterError("mode energies must be real")
    real = np.real(vals).astype(float)
    if np.any(real < 0):
        raise ParameterError("mode energies must be non-negative")
    return real


def fermion_number_diagonal(basis: FockBasis, point_energies: np.ndarray) -> np.ndarray:
    """Per-mask sum of occupation * energy; one energy per lattice point."""
    energies = _check_energies(point_energies)
    if energies.shape != (basis.fermion_lattice.n_points,):
        raise ParameterError("need one energy per fermion lattice point")
    masks = np.arange(basis.fermion_dim, dtype=np.int64)
    diag = np.zeros(basis.fermion_dim)
    for mode in range(basis.n_fermion_modes):  # family-major: point = mode % n_points
        diag += energies[mode % len(energies)] * ((masks >> mode) & 1)
    return diag


def boson_number_diagonal(basis: FockBasis, mode_energies: np.ndarray) -> np.ndarray:
    energies = _check_energies(mode_energies)
    if energies.shape != (basis.n_boson_modes,):
        raise ParameterError("need one energy per boson mode")
    return basis.boson_occupations @ energies


def second_quantization(
    energies: DiscreteCoefficients, basis: FockBasis, side: str
) -> sp.csr_matrix:
    """Lift one-particle energies to the additive number operator dGamma.

    ``side`` selects the tensor factor: "fermion" applies one energy per
    lattice point to all four modes there; "boson" one energy per mode.
    Diagonal in the occupation basis.
    """
    if side == "fermion":
        if not same_lattice(energies.lattice, basis.fermion_lattice):
            raise LatticeMismatchError("energies sampled on a different lattice than the basis")
        diag = np.repeat(fermion_number_diagonal(basis, energies.values), basis.boson_dim)
    elif side == "boson":
        if not same_lattice(energies.lattice, basis.boson_lattice):
            raise LatticeMismatchError("energies sampled on a different lattice than the basis")
        diag = np.tile(boson_number_diagonal(basis, energies.values), basis.fermion_dim)
    else:
        raise ParameterError(f"side must be 'fermion' or 'boson', got {side!r}")
    return sp.diags(diag, format="csr")
