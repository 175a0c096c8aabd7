"""Assembly of the free and interacting Hamiltonians; ``build_model`` is the only entry.

The interaction is the spatially-weighted coupling of the fermion density to
the scalar field: integral chi_spatial(x) * psibar(x) psi(x) (x) phi(x) dx.
On finite lattices every field operator is a finite sum of ladder operators
with plane-wave phases, so the x-integral collapses to the Fourier transform
of the spatial cutoff evaluated at the signed momentum balance of each term.
Only gaussian spatial cutoffs are supported, for which that transform is
closed-form.

The expansion is one numpy record table with a row per monomial
(``enumerate_interaction_terms``): every coefficient is a product of separable
factors, so the table comes from one broadcast over the term axes.  Each row
is a fermion bilinear times one boson ladder operator B_r, r one of a_k or
a*_k, so the assembled interaction is H_int = sum_r F_r (x) B_r with F_r on
the 2^(4 N_f) fermion-mask space.  ``ladder_factors`` builds every F_r in one
pass: the bilinears' entries come from bit arithmetic on the masks, one sort
orders them for every ladder, and every ladder sums only the diagonal runs,
into one ``FactorTable``: U, the entries any ladder keeps, stored once as
CSR, and a row of ``data`` on U per ladder.  B_r moves the boson occupation
by -e_k or +e_k, a shift no other ladder shares, so distinct blocks occupy
disjoint entries.

``build_model`` enumerates the basis from the parameters (the model reads
its lattices there), samples omega(k) once (``Model.omega``), keeps the
table on the model (``Model.factors``, checked for hermiticity on U) and
the free diagonal (``Model.free``), and never assembles the full space.
``assemble_interaction`` writes the CSR of sum_r F_r (x) B_r from U and
``data`` in one chunked pass over the mask rows' row groups when it is
needed: ``Model.h_int`` on first access, and ``Model.hamiltonian(kappa)``
with the coupling and ``Model.free`` merged in, without ``h_int``;
``hamiltonian(0)`` is the CSR of ``free`` alone.  Its chunks hold at most
``CHUNK_ENTRIES`` entries per scratch array, so its scratch is bounded by
that budget and its largest row group, not by the operator it writes.
Entries that come out zero are dropped by scipy's ``eliminate_zeros`` on
the result, and its ``data`` and ``indices`` hold exactly their nnz
entries.

The ladder, number and identity operators are real, so the F_r alone decide
the field: ``ladder_factors`` keeps them float64 when their summed
coefficients are exactly real, which holds on every on-axis lattice, and
``h_int`` and ``hamiltonian(kappa)`` follow.  Off-axis points
give complex coefficients and complex operators.

Fermion modes are read off the basis's table ``FockBasis.modes`` (species,
spin, point), the amplitudes ``Model.f`` and ``Model.g`` on its axes.

No normal ordering is applied: the antiparticle bilinear is kept in the d d*
order in which the density is written, so the assembled matrix contains the
induced one-boson (tadpole) contribution.

The validation quadratures integrate x over a cube of half-width
``QUADRATURE_RADIUS`` cutoff scales (the gaussian is below 1e-13 outside it),
``fourier_quadrature`` with ``FOURIER_NODES`` nodes per axis and
``interaction_form_quadrature`` in blocks of ``QUADRATURE_CHUNK`` x points,
which bounds its memory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ParameterError, is_finite_real
from .fock import (
    DEFAULT_BASIS_CAP,
    SPECIES,
    FermionMode,
    FockBasis,
    boson_annihilator,
    boson_creator,
    boson_number_diagonal,
    enumerate_basis,
    fermion_annihilator,
    fermion_creator,
    fermion_number_diagonal,
    lift_boson,
    lift_fermion,
    smeared_boson_block,
    smeared_mask_ladder,
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
# entries one chunk's scratch arrays may hold: the assembly's tables and the
# solver's reads of stored entries
CHUNK_ENTRIES = 1 << 18


def chunks(ends: np.ndarray, budget: int) -> Iterator[Tuple[int, int]]:
    """Consecutive item ranges [start, stop) whose entries ends[start]:ends[stop] number at most
    ``budget``; an item with more is a chunk of its own.  ``ends`` is nondecreasing, like ``indptr``."""
    start = 0
    while start < len(ends) - 1:
        stop = max(start + 1, int(np.searchsorted(ends, int(ends[start]) + budget, "right")) - 1)
        yield start, stop
        start = stop


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
        for f in fields(self):  # masses, coupling, V, L and chi_hat_floor; None where the field is optional
            value = getattr(self, f.name)
            if (f.type == "float" or f.type == "Optional[float]" and value is not None) and not is_finite_real(value):
                raise ParameterError(f"{f.name} must be a finite real number, got {value!r}")
        counts = {"n_max": self.n_max, "point_cap": self.point_cap, "basis_cap": self.basis_cap}
        if self.total_boson_cap is not None:
            counts["total_boson_cap"] = self.total_boson_cap
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
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


def chi_spatial_fourier(xi: np.ndarray, profile: CutoffProfile) -> np.ndarray:
    """Closed-form integral of chi(x) exp(-i xi.x) dx for a gaussian profile.

    Real and positive: (2 pi sigma^2)^(3/2) exp(-sigma^2 |xi|^2 / 2), taken
    over the last axis of ``xi`` (shape (..., 3)).
    """
    if profile.kind != "gaussian":
        raise ParameterError("closed-form transform requires a gaussian spatial cutoff")
    sigma2 = profile.scale * profile.scale
    xi = np.asarray(xi, dtype=float)
    return (2.0 * math.pi * sigma2) ** 1.5 * np.exp(-0.5 * sigma2 * np.sum(xi * xi, axis=-1))


def chi_spatial_l1_norm(profile: CutoffProfile) -> float:
    """L1 norm of the spatial cutoff; equals its transform at zero."""
    return float(chi_spatial_fourier(np.zeros(3), profile))


# validation quadratures (module docstring)
QUADRATURE_RADIUS = 8.0
FOURIER_NODES = 48
QUADRATURE_CHUNK = 4096


def fourier_quadrature(profile: CutoffProfile, xi: np.ndarray) -> complex:
    """Tensor Gauss-Legendre quadrature of the cutoff transform (validation only)."""
    half = QUADRATURE_RADIUS * profile.scale
    nodes, weights = np.polynomial.legendre.leggauss(FOURIER_NODES)
    nodes = nodes * half
    weights = weights * half
    out = 1.0 + 0.0j
    for axis in range(3):
        vals = np.exp(-(nodes**2) / (2.0 * profile.scale**2)) * np.exp(-1j * xi[axis] * nodes)
        out *= np.sum(weights * vals)
    return complex(out)


# One row per ladder-operator monomial of the expanded interaction.  The
# components are the density indices contracted against gamma0 from the
# conjugated and the plain field; they coincide in the standard representation
# where gamma0 is diagonal.  ``coefficient`` is the full scalar multiplying the
# operator product, cell-volume weights and the momentum-balance transform
# included.
TERM_DTYPE = np.dtype(
    [("fermion_kind", "U4"), ("boson_kind", "U2"), ("spin", float), ("spin_p", float)]
    + [(name, int) for name in ("component", "component_p", "q_index", "qp_index", "k_index")]
    + [("momentum_balance", float, 3), ("coefficient", complex)]
)
# broadcast axes of the coefficient tensor, in row order of the term table
TERM_AXES = ("spin", "spin_p", "q_index", "qp_index", "component", "component_p", "fermion_kind", "k_index", "boson_kind")
AXIS_LABELS = {"spin": SPINS, "spin_p": SPINS, "fermion_kind": FERMION_KINDS, "boson_kind": BOSON_KINDS}


def enumerate_interaction_terms(
    params: ModelParams,
    fermion_lattice: MomentumLattice,
    f: np.ndarray,
    g: np.ndarray,
    h: DiscreteCoefficients,
    gamma0: np.ndarray,
) -> np.recarray:
    """Expand the interaction into a table of ladder-operator monomials.

    A coefficient is a product of separable factors (gamma0, one spinor
    amplitude per fermion leg, the boson amplitude, the transform at the
    momentum balance), so it is evaluated once by broadcasting over
    ``TERM_AXES``; rows come in that axis order.  Terms with exactly zero
    coefficient are dropped, as are terms whose momentum-balance transform
    falls below ``chi_hat_floor`` relative to its peak.  The surviving set is
    closed under taking adjoints with conjugated coefficients, which keeps
    the assembled matrix Hermitian.
    """
    lat_f, lat_b = fermion_lattice, h.lattice
    floor = params.chi_hat_floor * chi_spatial_l1_norm(params.chi_spatial)
    base = lat_f.cell_volume * math.sqrt(lat_b.cell_volume) / math.sqrt(2.0)

    def leg(species: str, create: bool) -> Tuple[np.ndarray, float]:
        """(spin, component, q) amplitudes and momentum sign of one fermion ladder factor."""
        amp = f if species == "b" else g
        return (amp, -1.0) if create else (amp.conj(), 1.0)

    # left factor from the conjugated field, right factor from the plain one
    left = [leg(*pair[0]) for pair in BILINEAR_FACTORS.values()]
    right = [leg(*pair[1]) for pair in BILINEAR_FACTORS.values()]
    bra = np.stack([amp for amp, _ in left]).transpose(1, 3, 2, 0)[:, None, :, None, :, None, :, None, None]
    ket = np.stack([amp for amp, _ in right]).transpose(1, 3, 2, 0)[None, :, None, :, None, :, :, None, None]
    bos = np.stack([np.conj(h.values), h.values], axis=-1)  # (k, boson kind)

    # momentum balance over (q, q', fermion kind, k, boson kind, xyz); -k for a, +k for a*
    q, k = lat_f.points, lat_b.points
    bra_sign = np.array([sign for _, sign in left])[:, None, None, None]
    ket_sign = np.array([sign for _, sign in right])[:, None, None, None]
    fermions = bra_sign * q[:, None, None, None, None] + ket_sign * q[None, :, None, None, None]
    balance = fermions + np.array([-1.0, 1.0])[:, None] * k[:, None]
    hat = chi_spatial_fourier(balance, params.chi_spatial)[:, :, None, None]

    coefficient = gamma0[:, :, None, None, None] * (bra * ket) * bos * hat * base
    idx = np.nonzero((coefficient != 0) & (hat >= floor))
    terms = np.recarray(len(idx[0]), dtype=TERM_DTYPE)
    for name, i in zip(TERM_AXES, idx):
        terms[name] = np.asarray(AXIS_LABELS[name])[i] if name in AXIS_LABELS else i
    terms.momentum_balance = balance[idx[2:4] + idx[6:]]
    terms.coefficient = coefficient[idx]
    return terms


Ladder = Tuple[str, int]  # (boson_kind, k_index)


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class FactorTable:
    """The factors F_r of every ladder on U, the union of the entries any of them keeps.

    U is stored once as CSR ``indptr`` and ``indices``; row r of ``data``
    holds F_r on U for the r-th of ``ladders``, zero where F_r has no entry.
    """

    ladders: Tuple[Ladder, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray  # (len(ladders), nnz U)


# an F_r entry at most this multiple of the summed magnitudes of its
# contributions is the rounding residue of a sum that vanishes exactly
RESIDUE_TOL = 64 * np.finfo(float).eps


def _distinct(table: np.ndarray, names: Tuple[str, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(table[list(names)], return_inverse=True)``, from one code per row of its fields' ranks."""
    values, ranks = zip(*(np.unique(table[name], return_inverse=True) for name in names))
    _, first, inverse = np.unique(np.ravel_multi_index(ranks, [len(v) for v in values]), return_index=True,
                                  return_inverse=True)
    return table[list(names)][first], inverse


def _bilinear_runs(keys: np.ndarray, live: np.ndarray, basis: FockBasis) -> Tuple[np.ndarray, ...]:
    """The entries of every bilinear key on the mask space, sorted by (row, column), ties in key order.

    c_i c_j (either one a creator) has an entry in the rows with bit i as c_i
    leaves it and, for j != i, bit j as c_j does; column row ^ bit_i ^ bit_j,
    with the Jordan-Wigner signs of the occupied modes below j on the column m
    and below i on m ^ bit_j.  The keys fixing one bit, then the ``live`` ones
    fixing two (any other only adds runs every factor drops), are written a
    group at a time and sorted at once.  Returns each entry's ``slot`` (2 b,
    2 b + 1 if negative, for key b), the ``starts`` of the runs of one
    position, their columns and the row pointer.
    """
    dim, n_modes, table = basis.fermion_dim, basis.n_fermion_modes, basis.modes
    modes = np.array([(table[SPECIES.index(left), SPINS.index(spin), qi],
                       table[SPECIES.index(right), SPINS.index(spin_p), qpi], left_create, right_create)
                      for kind, spin, spin_p, qi, qpi in keys.tolist()
                      for (left, left_create), (right, right_create) in [BILINEAR_FACTORS[kind]]])
    fixed = np.where(modes[:, 0] == modes[:, 1], 1, np.where(live, 2, 0))  # row bits each key fixes; 0: left out
    shift = (2 * len(keys) - 1).bit_length()  # (row, column, slot) in one int64, for up to six fermion points
    parts = []
    for n_fixed in (1, 2):
        at = np.flatnonzero(fixed == n_fixed)
        i, j, create_i, create_j = modes[at].T[..., None]
        row = np.arange(dim >> n_fixed)
        for p in np.sort(modes[at, :2], axis=1)[:, 2 - n_fixed:].T[..., None]:  # ascending bit positions
            row = (row >> p << (p + 1)) | (row & ((1 << p) - 1)) | (np.where(p == i, create_i, create_j) << p)
        col = row ^ (1 << i) ^ (1 << j)
        sign = (np.bitwise_count(col & (((1 << i) - 1) ^ ((1 << j) - 1))) & 1) ^ (j < i)
        parts.append(((((row << n_modes) | col) << shift) | (2 * at[:, None] + sign)).ravel())
    entry = np.sort(np.concatenate(parts))
    slot, entry = entry & ((1 << shift) - 1), entry >> shift
    starts = np.flatnonzero(np.concatenate(([True], entry[1:] != entry[:-1])))
    index = np.promote_types(np.int32, np.min_scalar_type(-dim))  # scipy's index dtype on this shape
    head = entry[starts]
    return slot, starts, (head & (dim - 1)).astype(index), np.searchsorted(head >> n_modes, np.arange(dim + 1))


def ladder_factors(terms: np.recarray, basis: FockBasis) -> FactorTable:
    """The table of the mask-space factors F_r of the boson ladders r = (boson_kind, k_index).

    F_r sums the coefficient-weighted bilinears of the ladder's rows over the
    runs of ``_bilinear_runs``, a bilinear it lacks adding zeros.  That is its
    own sum in key order: a run holds one entry off the diagonal, and the
    diagonal bilinears all balance momentum at +-k, so a ladder has all or none
    of them.  Exact zeros and rounding residues (``RESIDUE_TOL``) are zeros on
    every ladder alike; a run of one entry is tested once, as its (ladder,
    bilinear) sum.  U is the runs some ladder keeps, the ladders come in
    (k_index, boson_kind) order, and ``data`` is float64 when every summed
    (ladder, bilinear) coefficient is exactly real, complex otherwise.
    """
    if len(terms) == 0:
        return FactorTable((), np.zeros(basis.fermion_dim + 1, int), np.zeros(0, np.int32), np.zeros((0, 0)))
    ladders, ladder_of = _distinct(terms, ("k_index", "boson_kind"))
    keys, key_of = _distinct(terms, ("fermion_kind", "spin", "spin_p", "q_index", "qp_index"))

    # rows of one ladder that share a bilinear b sum their coefficients and
    # magnitudes, into the ladder's slots 2 b (times +1) and 2 b + 1 (times -1)
    pair_of, n_pairs = ladder_of * len(keys) + key_of, len(ladders) * len(keys)
    coefficient = np.bincount(pair_of, terms.coefficient.real, n_pairs)
    imag = np.bincount(pair_of, terms.coefficient.imag, n_pairs)
    if np.any(imag):
        coefficient = coefficient + 1j * imag
    signed = (coefficient[:, None] * np.array([1.0, -1.0])).reshape(len(ladders), -1)
    magnitude = np.repeat(np.bincount(pair_of, np.abs(terms.coefficient), n_pairs), 2).reshape(len(ladders), -1)
    single = np.where(np.abs(signed) > RESIDUE_TOL * magnitude, signed, 0)
    slot, starts, cols, row_ptr = _bilinear_runs(keys, np.any(single, axis=0)[::2], basis)

    lengths = np.diff(starts, append=len(slot))
    several = np.flatnonzero(lengths > 1)
    first, summed = slot[starts], slot[np.repeat(lengths > 1, lengths)]
    summed_starts = np.cumsum(lengths[several]) - lengths[several]
    values = np.empty((len(ladders), len(starts)), signed.dtype)
    for r, total in enumerate(values):
        single[r].take(first, out=total, mode="clip")
        sums = np.add.reduceat(signed[r][summed], summed_starts)
        total[several] = np.where(np.abs(sums) > RESIDUE_TOL * np.add.reduceat(magnitude[r][summed], summed_starts),
                                  sums, 0)
    keep = np.any(values, axis=0)  # U: the runs some ladder keeps
    indptr = row_ptr - np.searchsorted(np.flatnonzero(~keep), row_ptr)
    return FactorTable(tuple((bkind, k) for k, bkind in ladders.tolist()), indptr, cols[keep], values[:, keep])


def _boson_slots(ladders: Sequence[Ladder], basis: FockBasis) -> Tuple[np.ndarray, ...]:
    """Every entry of every B_r as (row, col, value, ladder position r), sorted by (row, col)."""
    rows, cols, values, mode = basis.boson_lowering
    parts = [(np.zeros(0, int),) * 4]
    for r, (bkind, k) in enumerate(ladders):
        at = mode == k
        row, col = (rows[at], cols[at]) if bkind == "a" else (cols[at], rows[at])
        parts.append((row, col, values[at], np.full(len(row), r)))
    row, col, value, ladder = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((col, row))
    return row[order], col[order], value[order], ladder[order]


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers starts[k] + arange(lengths[k]), back to back."""
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(out.size)
    return out


def assemble_interaction(
    factors: FactorTable,
    basis: FockBasis,
    coupling: float = 1.0,
    diagonal: Optional[np.ndarray] = None,
) -> sp.csr_matrix:
    """The canonical CSR of diagonal + coupling * sum_r F_r (x) B_r on the product basis, in one pass.

    Every entry is (F_r * b) * coupling, exactly F_r * b at the default 1.0,
    and ``diagonal`` (one value per basis state; zeros are left out) is
    merged in: the result is ``(diags(diagonal) + coupling * H_int).tocsr()``
    to the last bit, without its intermediate matrices.

    U and ``data`` are read straight from the table.  The blocks are
    disjoint (module docstring), every row of a B_r has at most one entry
    and none on the diagonal.  So row (i, beta) is (j in U_i) x (the slots
    of beta, sorted by target), which fixes the sorted layout before any
    value exists: the row group of mask row i (its rows (i, beta)) holds
    |U_i| * nnz(B) entries plus its diagonal count, and ``indptr``, ``data``
    and ``indices`` are allocated once.

    One loop walks the row groups in kind order (|U_i|, diagonal position,
    diagonal pattern), in chunks whose scratch arrays hold at most
    ``CHUNK_ENTRIES`` entries each, a larger row group being a chunk of its
    own.  A chunk writes its states' ``indptr``, each row group by two
    gathers, from U_i times each distinct (ladder, slot value) product and
    from U_i's columns, and its diagonal by a scatter.  The gathers read the
    current kind's templates, cut from a table of the largest row group
    when the kind changes.  Entries that come out zero (a ladder's zero on
    U) are dropped last by scipy's in-place ``eliminate_zeros``; when over
    half survive it leaves ``data`` and ``indices`` views of the full-length
    buffers, so they are copied to their nnz entries.  So the scratch beyond
    the result is bounded by the budget and the largest row group (or, when
    pruned, by that copy), plus arrays of one entry per mask row or per
    entry of U or B; a small model is one chunk.
    """
    n_f, n_b = basis.fermion_dim, basis.boson_dim
    u_ptr, u_col, values = factors.indptr, factors.indices, factors.data
    u_len = np.diff(u_ptr)
    u_row = np.repeat(np.arange(n_f), u_len)

    # slot t of a boson row reads column s_pair[t] of a chunk's ``products``: one
    # column per distinct (ladder, value), F * b then * coupling, as a sparse product has it
    s_row, s_col, s_val, s_ladder = _boson_slots(factors.ladders, basis)
    s_len = np.bincount(s_row, minlength=n_b)
    s_start = np.cumsum(s_len) - s_len  # of each boson row's slots
    b_values, b_of = np.unique(s_val, return_inverse=True)
    pairs, s_pair = np.unique(s_ladder * len(b_values) + b_of, return_inverse=True)
    pair_ladder, pair_value = (pairs // len(b_values)).tolist(), b_values[pairs % len(b_values)]

    if diagonal is None:  # a zero diagonal, which stores nothing
        diagonal = np.broadcast_to(0.0, basis.dim)
    on_count = np.count_nonzero(diagonal.reshape(n_f, n_b), axis=1)
    starts = np.concatenate(([0], np.cumsum(u_len * len(s_row) + on_count)))  # of each row group
    index = np.int32 if max(int(starts[-1]), basis.dim) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(basis.dim + 1, index)
    dtype = np.result_type(s_val.dtype, values.dtype, diagonal.dtype)
    data = np.empty(starts[-1], dtype)
    indices = np.empty(starts[-1], index)

    # the diagonal entry of row (i, beta) follows the entries (j, gamma) with
    # j < i, or j == i and gamma < beta
    some = on_count > 0
    lt = np.bincount(u_row[u_col < u_row], minlength=n_f) * some
    eq = np.bincount(u_row[u_col == u_row], minlength=n_f) * some
    s_below = np.bincount(s_row[s_col < s_row], minlength=n_b)
    # a kind's diagonal pattern is all or none of its rows; any other is its own kind
    pattern = np.where(on_count == n_b, 0, np.where(some, 2 + np.arange(n_f), 1))
    kind = ((pattern * (n_f + 1) + u_len) * (n_f + 1) + lt) * 2 + eq
    order = np.argsort(kind, kind="stable")

    # the gathers of a row group with |U_i| = top and no diagonal entry, in
    # (beta, j, gamma) order, each with a final 0 for the diagonal's place:
    # block beta holds top * S_beta entries, j over U_i, gamma over the slots of beta
    top = int(u_len.max(initial=0))
    length = np.repeat(s_len, top)  # of the run (beta, j)
    j = np.repeat(np.tile(np.arange(top), n_b), length)
    slot = _runs(np.repeat(s_start, top), length)
    table_values = np.append(s_pair[slot] + j * len(pairs), 0)
    table_columns = np.append(s_col[slot] + j * n_b, 0)
    current, pruned = -1, False
    # kind-ordered row groups, in chunks whose tables hold at most CHUNK_ENTRIES entries
    for c0, c1 in chunks(np.concatenate(([0], np.cumsum(np.maximum(u_len[order], 1)))) * max(n_b, len(pairs)),
                         CHUNK_ENTRIES):
        rows = order[c0:c1]
        lens = u_len[rows]
        on = diagonal.reshape(n_f, n_b)[rows] != 0
        below = np.outer(lt[rows], s_len) + np.outer(eq[rows], s_below)
        sizes = np.outer(lens, s_len)
        ends = np.cumsum(sizes + on, axis=1) + starts[rows, None]  # of each state's row
        indptr[1:].reshape(n_f, n_b)[rows] = ends

        offsets = np.cumsum(lens) - lens  # of each row group in the chunk's tables
        u = _runs(u_ptr[rows], lens)
        products = np.zeros((len(u), 0)) if not pair_ladder else np.stack([values[r][u] for r in pair_ladder], -1)
        products *= pair_value
        products *= coupling
        products += 0  # signed zeros read +0.0, as after a sparse sum
        pruned = pruned or not products.all()
        products = products.ravel()
        columns = np.add.outer(u_col[u].astype(index) * n_b, np.arange(n_b, dtype=index)).ravel()
        for r, (i, n, lo, a) in enumerate(zip(kind[rows].tolist(), lens.tolist(), starts[rows].tolist(),
                                              offsets.tolist())):
            if n == 0:  # diagonal entries only
                continue
            if i != current:  # per block, the table's first |U_i| * S_beta entries, the final 0 after below of them
                take = _runs(top * s_start, sizes[r])
                take = np.insert(take, (np.cumsum(sizes[r]) - sizes[r] + below[r])[on[r]], len(slot))
                take_v, take_c, width, current = table_values[take], table_columns[take], len(take), i
            # mode="clip": under the default mode numpy buffers ``out``
            products[a * len(pairs):].take(take_v, out=data[lo:lo + width], mode="clip")
            columns[a * n_b:].take(take_c, out=indices[lo:lo + width], mode="clip")

        at = (ends - sizes - on + below)[on]
        states = np.add.outer(rows * n_b, np.arange(n_b))[on]
        data[at] = diagonal[states]
        indices[at] = states
    h = sp.csr_matrix((data, indices, indptr), shape=(basis.dim, basis.dim))
    if pruned:
        h.eliminate_zeros()
        if h.data.base is not None:  # scipy keeps views of the full buffers when over half survive
            h.data, h.indices = h.data.copy(), h.indices.copy()
    return h


def hermiticity_defect(mat: sp.spmatrix) -> float:
    diff = (mat - mat.conj().T).tocoo()
    return 0.0 if diff.nnz == 0 else float(np.max(np.abs(diff.data)))


def interaction_hermiticity_defect(factors: FactorTable, basis: FockBasis) -> float:
    """``hermiticity_defect`` of H_int, checked on the factor table.

    The a_k and a*_k blocks of H_int - H_int^H are (F_{a,k} - F_{a*,k}^H) (x) B_k
    and its adjoint.  Kron entries are products, so the defect is the largest
    max|F_{a,k} - F_{a*,k}^H| * max|B_k|.  Each entry (i, j) of U is compared
    with its mirror (j, i), found once for every ladder; an entry without a
    mirror in U is compared with zero in both factors.  An absent ladder
    counts as zero.
    """
    n, nnz = len(factors.indptr) - 1, len(factors.indices)
    # U valued above every position, plus its transpose valued by position + 1, in one scipy sum: U's
    # entries keep their order and gain the position of their mirror (j, i), or -1 without one
    own = sp.csr_matrix((np.full(nnz, nnz + 1), factors.indices, factors.indptr), shape=(n, n))
    both = own + sp.csr_matrix((np.arange(1, nnz + 1), factors.indices, factors.indptr), shape=(n, n)).T
    at = both.data[both.data > nnz] - nnz - 2
    lone = np.flatnonzero(at < 0)
    row_of, zero = dict(zip(factors.ladders, factors.data)), np.zeros(nnz, factors.data.dtype)
    _, _, lowering, mode = basis.boson_lowering
    defect = 0.0
    for k in sorted({k for _, k in factors.ladders}):
        f_a, f_c = row_of.get(("a", k), zero), row_of.get(("a*", k), zero)
        diff = f_a - f_c.take(at, mode="clip").conj()
        diff[lone] = f_a[lone]
        diff = np.concatenate((diff, f_c[lone]))
        scale = np.max(lowering[mode == k], initial=0.0)
        defect = max(defect, float(np.max(np.abs(diff), initial=0.0) * scale))
    return defect


@dataclass
class Model:
    """All ingredients of one parameter set; the interaction is kept factored.

    The lattices are read through ``basis`` alone.  ``omega`` holds the
    boson mode energies omega(k) on ``basis.boson_lattice`` as float64.
    ``free`` is the diagonal dGamma(Dirac) + dGamma(omega), one float64 per
    basis state, and ``hamiltonian(0)`` its CSR.  No H_KG is kept: the
    bounds read dGamma(omega) off the basis occupations as a diagonal.
    ``factors`` is the ``FactorTable`` of the boson ladders' mask-space
    factors F_r on their shared pattern U, so
    H_int = sum_r F_r (x) B_r is never stored by ``build_model``:
    ``assemble_interaction`` writes it on demand, as ``h_int`` (built on
    first access, then cached) or straight into ``hamiltonian(kappa)``.
    """

    params: ModelParams
    algebra: DiracAlgebra
    basis: FockBasis
    f: np.ndarray            # (spin, component, point) amplitudes of the b modes
    g: np.ndarray            # the same of the d modes
    h: DiscreteCoefficients
    omega: np.ndarray
    free: np.ndarray
    factors: FactorTable
    terms: np.recarray       # one row per interaction monomial (TERM_DTYPE)

    @cached_property
    def h_int(self) -> sp.csr_matrix:
        return assemble_interaction(self.factors, self.basis)

    def hamiltonian(self, coupling: Optional[float] = None) -> sp.csr_matrix:
        """diags(free) + coupling * h_int in one assembly pass; the CSR of ``free`` alone at coupling 0."""
        kappa = self.params.coupling if coupling is None else coupling
        if not math.isfinite(kappa):
            raise ParameterError(f"coupling must be finite, got {kappa}")
        if kappa == 0:
            return sp.diags(self.free, format="csr")
        return assemble_interaction(self.factors, self.basis, kappa, self.free)


def build_model(params: ModelParams, algebra: Optional[DiracAlgebra] = None) -> Model:
    """Enumerate the basis, sample coefficients and energies, sum the free diagonal, build the checked factors."""
    algebra = algebra or dirac_algebra()
    basis = enumerate_basis(params.build_fermion_lattice(), params.n_max, params.total_boson_cap,
                            boson_lattice=params.build_boson_lattice(), basis_cap=params.basis_cap)
    f, g = fermion_coefficients(basis.fermion_lattice, params.dirac_mass, params.chi_dirac, algebra)
    h = boson_coefficients(basis.boson_lattice, params.boson_mass, params.chi_kg)

    dirac = discretize(lambda q: dirac_energy(q, params.dirac_mass), basis.fermion_lattice)
    omega = discretize(lambda k: boson_energy(k, params.boson_mass), basis.boson_lattice).values.real
    # one diagonal, fermion-mask major as the basis is ordered
    free = np.add.outer(fermion_number_diagonal(basis, dirac.values), boson_number_diagonal(basis, omega))
    terms = enumerate_interaction_terms(params, basis.fermion_lattice, f, g, h, algebra.beta)
    factors = ladder_factors(terms, basis)
    defect = interaction_hermiticity_defect(factors, basis)
    if defect > 1e-12:
        raise AssemblyError(f"interaction matrix hermiticity defect {defect:.3e} exceeds 1e-12")
    return Model(params=params, algebra=algebra, basis=basis, f=f, g=g, h=h, omega=omega,
                 free=free.ravel(), factors=factors, terms=terms)


# -- field operators at a point and the direct form evaluation ------------------


def dirac_field_mask(model: Model, component: int, x: np.ndarray) -> sp.csr_matrix:
    """psi_l(x) on the fermion-mask factor: b(f_x) + d*(g_x) summed over spins, as one COO."""
    basis, lat = model.basis, model.basis.fermion_lattice
    phase = np.exp(-1j * (lat.points @ np.asarray(x, dtype=float)))
    # the amplitudes of b and d on the axes of basis.modes: (species, spin, point)
    weights = np.conj(np.stack((model.f, model.g))[:, :, component] * phase) * np.sqrt(lat.cell_volume)
    create = np.broadcast_to(np.asarray(SPECIES)[:, None, None] == "d", basis.modes.shape)  # d creators
    return smeared_mask_ladder(basis.n_fermion_modes, basis.modes.ravel(), weights.ravel(), create.ravel())


def dirac_field_component(model: Model, component: int, x: np.ndarray) -> sp.csr_matrix:
    """The field component psi_l(x) as a matrix on the product basis."""
    return lift_fermion(model.basis, dirac_field_mask(model, component, x))


def boson_field_block(model: Model, x: np.ndarray) -> sp.csr_matrix:
    """The field phi(x) = (a(h_x) + a*(h_x)) / sqrt(2) on the boson block."""
    lat = model.basis.boson_lattice
    phase = np.exp(1j * (lat.points @ np.asarray(x, dtype=float)))
    ann = smeared_boson_block(DiscreteCoefficients(model.h.values * phase, lat), model.basis)
    return (ann + ann.conj().T.tocsr()) / math.sqrt(2.0)


def boson_field(model: Model, x: np.ndarray) -> sp.csr_matrix:
    """The field phi(x) on the product basis."""
    return lift_boson(model.basis, boson_field_block(model, x))


def interaction_form_quadrature(
    model: Model,
    phi_vec: np.ndarray,
    psi_vec: np.ndarray,
    n_nodes: int = 40,
) -> complex:
    """Direct x-quadrature of the interaction form between two states.

    Evaluates integral chi_spatial(x) <Phi, psibar psi (x) phi(x) Psi> dx on a
    tensor Gauss-Legendre grid, bypassing the momentum-balance bookkeeping of
    the assembled matrix.  Validation path; cost grows with n_nodes^3.
    """
    basis = model.basis
    lat_f, lat_b = model.basis.fermion_lattice, model.basis.boson_lattice
    root_wf = math.sqrt(lat_f.cell_volume)
    root_wb = math.sqrt(lat_b.cell_volume)
    gamma0 = model.algebra.beta
    phi_vec = np.asarray(phi_vec, dtype=complex)
    psi_vec = np.asarray(psi_vec, dtype=complex)

    # psi_l(x) = sum_j c_j[l] exp(i e_j p_j . x) O_j over elementary ladder ops
    ferm_ops = []
    for si, s in enumerate(SPINS):
        for qi in range(lat_f.n_points):
            c_b = root_wf * np.conj(model.f[si, :, qi])
            ferm_ops.append((c_b, +1.0, lat_f.points[qi], fermion_annihilator(FermionMode("b", s, qi), basis)))
            c_d = root_wf * model.g[si, :, qi]
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
    half = QUADRATURE_RADIUS * sigma
    nodes1, w1 = np.polynomial.legendre.leggauss(n_nodes)
    nodes1 = nodes1 * half
    w1 = w1 * half
    xs = np.stack(np.meshgrid(nodes1, nodes1, nodes1, indexing="ij"), axis=-1).reshape(-1, 3)
    wx = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).reshape(-1)
    chi_x = np.exp(-np.sum(xs * xs, axis=1) / (2.0 * sigma * sigma))

    total = 0.0 + 0.0j
    for start in range(0, len(xs), QUADRATURE_CHUNK):
        block = slice(start, start + QUADRATURE_CHUNK)
        phases = np.exp(1j * (balances @ xs[block].T))  # (n_terms, n_block)
        s_x = weights @ phases
        total += np.sum(wx[block] * chi_x[block] * s_x)
    return complex(total)
