"""Explicit relative-bound constants and numerical inequality verification.

All constants are computed from the same discrete coefficient vectors and
boson energies (``Model.omega``) the operators are built from, so every
inequality checked here is a theorem of the discrete model: a worst-case
ratio above 1 + 1e-9 falsifies the build, not the sampling.  The states
are random, so each worst ratio is only a lower bound on its operator's
sup (the sampled interaction-relative ratio can sit far below the exact
one).  The free-relative check runs over the epsilons ``EPS_GRID``.  The
field and ladder operators A (x) I and I (x) B are checked on their factor
A or B, never on the lift.

Sampling contract: every batch of states is drawn as its real block and
then its imaginary block, each ``standard_normal((count, dim))``, and the
interaction loop draws the real and then the imaginary half of each sample's
phi after them.  That order fixes every ratio for a given seed, so the
``verify`` output is reproducible byte for byte.  The ladder, field and
interaction batches all go through ``_state_blocks`` in blocks of
``max(1, CHUNK_ENTRIES // (2 * dim))`` states, so a complex block holds
``CHUNK_ENTRIES`` float64 values.  A batch of one block is drawn straight
from the generator, with no copy of it; for a longer one, one copy of the
generator reads the real block and a second the imaginary one, while the
generator itself skips both, so every draw keeps its value.  The scratch
is a few arrays of that size, whatever ``n_samples`` is.  Each operator
acts on a whole block in one sparse product through ``_apply`` (a
boson-block operator B as I (x) B, on the block's ``(-1, boson_dim)``
view), and the elementwise and ratio arithmetic runs over the block and
``EPS_GRID`` at once; every norm and ``vdot`` is still one 1-D call per
sample on a contiguous complex row, so each sample's sums are rounded as
before.
``n_samples * dim`` above ``SAMPLE_CAP`` raises ``CapacityError`` before
anything is drawn.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CapacityError, as_integer, check_seed, size_text
from .fock import boson_number_diagonal, smeared_boson_block
from .hamiltonian import CHUNK_ENTRIES, Model, boson_field_block, chi_spatial_l1_norm, dirac_field_mask
from .lattice import DiscreteCoefficients

RATIO_TOL = 1e-9
# draws in the interaction batch, n_samples * dim: a bound on the sampling work
SAMPLE_CAP = 10**8
# the epsilons of the free_relative check, 1e-3 to 10
EPS_GRID = tuple(10.0 ** e for e in range(-3, 2))


@dataclass
class InequalityCheck:
    name: str
    worst_ratio: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0 + RATIO_TOL

    def to_dict(self) -> Dict:
        return {**asdict(self), "passed": self.passed}


@dataclass
class BoundReport:
    """Computed constants and inequality outcomes for one model.

    The square-root interpolation uses the sharp scalar rule
    c(eps) = 1 / (4 eps); relative boundedness of the interaction against
    the free Hamiltonian needs eps below ``epsilon_ceiling``.
    """

    dirac_field_norms: List[float]       # one bound per density component
    kg_weighted_norms: Dict[int, float]  # boson coefficient over sqrt(energy^j)
    chi_spatial_l1: float
    form_bound_slope: float              # multiplies ||sqrt(H_KG) Psi||
    form_bound_offset: float             # multiplies ||Psi||
    epsilon_ceiling: float               # relative-bound margin: epsilon must stay below this
    eps_grid: List[float] = field(default_factory=list)
    checks: Dict[str, InequalityCheck] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks.values())

    def worst_ratios(self) -> Dict[str, float]:
        return {name: check.worst_ratio for name, check in self.checks.items()}

    def to_dict(self) -> Dict:
        data = asdict(self)
        data.update(
            kg_weighted_norms={str(j): v for j, v in self.kg_weighted_norms.items()},
            c_epsilon_rule="1/(4*eps)",
            admissible_eps=[e for e in self.eps_grid if e * self.form_bound_slope < 1.0],
            checks={name: check.to_dict() for name, check in self.checks.items()},
            all_passed=self.all_passed,
        )
        return data


def compute_constants(model: Model) -> BoundReport:
    """Discrete-norm versions of all bound constants.

    The norms are taken on the model's lattices, so the constants describe
    this truncated model rather than the continuum.
    """
    lattice = model.basis.fermion_lattice
    # per component, the b plus d norm of each spin, summed in spin order
    dirac_norms = [sum(sum(DiscreteCoefficients(c[si, l], lattice).norm for c in (model.f, model.g))
                       for si in range(len(model.f))) for l in range(4)]

    kg_norms = {}
    for j in (0, 1, 2):
        weighted = DiscreteCoefficients(model.h.values / model.omega ** (j / 2.0), model.basis.boson_lattice)
        kg_norms[j] = weighted.norm

    l1 = chi_spatial_l1_norm(model.params.chi_spatial)
    gamma_weight = 0.0
    gamma0 = model.algebra.beta
    for lb in range(4):
        for lk in range(4):
            gamma_weight += abs(gamma0[lb, lk]) * dirac_norms[lb] * dirac_norms[lk]
    slope = math.sqrt(2.0) * l1 * gamma_weight * kg_norms[1]
    offset = l1 * gamma_weight * kg_norms[0] / math.sqrt(2.0)
    ceiling = math.inf if slope == 0 else 1.0 / slope
    return BoundReport(
        dirac_field_norms=dirac_norms,
        kg_weighted_norms=kg_norms,
        chi_spatial_l1=l1,
        form_bound_slope=slope,
        form_bound_offset=offset,
        epsilon_ceiling=ceiling,
    )


def _largest_singular_value(op: sp.spmatrix, seed: int) -> float:
    dim = min(op.shape)
    if dim <= 128:  # on one core a dense SVD beats svds up to 128 and loses from 160
        return float(np.linalg.svd(op.toarray(), compute_uv=False)[0])
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(op.shape[1])
    return float(spla.svds(op.tocsc(), k=1, v0=v0, return_singular_vectors=False)[0])


def _apply(op: sp.spmatrix, psi: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``op @ psi``, or ``op`` on each row of a block of states, written to ``out`` in C order.

    The states go through one sparse product as columns, copied into
    ``out``'s memory, which then takes the result.  A real operator acts on
    the real and imaginary parts of complex states separately (as the
    columns of their float view), so its data is never cast to complex.
    scipy's multi-vector CSR kernel sums each row in its single-vector order,
    so each row of the result is bitwise ``op @ row``.
    """
    if out is None:
        out = np.empty(psi.shape, np.result_type(op.dtype, psi.dtype))
    x = out.reshape(psi.shape[::-1])
    np.copyto(x, psi.T)
    if np.iscomplexobj(x) and not np.iscomplexobj(op):
        y = (op @ x.view(float).reshape(len(x), -1)).view(complex).reshape(x.shape)
    else:
        y = op @ x
    np.copyto(out, y.T)
    return out


def _state_blocks(rng: np.random.Generator, dim: int, count: int, rows: int) -> Iterator[np.ndarray]:
    """``count`` states as complex blocks of ``rows`` rows, from two draws ``standard_normal((count, dim))``.

    The first draw gives the real parts and the second the imaginary ones.
    A batch of one block is drawn straight from ``rng``.  For a longer one,
    one copy of ``rng`` reads the real block and a second the imaginary one,
    while ``rng`` itself skips both before the first block is yielded.
    Either way ``rng`` then stands where the two draws leave it.  Each block
    is overwritten by the next.
    """
    sizes = [min(rows, count - start) for start in range(0, count, rows)]
    scratch, sources = np.empty((sizes[0], dim)), [rng, rng]
    if len(sizes) > 1:
        for i in range(2):  # the real block, then the imaginary one
            sources[i] = copy.deepcopy(rng)
            for size in sizes:
                rng.standard_normal(out=scratch[:size])
    states = np.empty((sizes[0], dim), complex)
    for size in sizes:
        block = states[:size]
        block.real = sources[0].standard_normal(out=scratch[:size])
        block.imag = sources[1].standard_normal(out=scratch[:size])
        yield block


def _row_norms(block: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, one 1-D call per row: batched sums round differently."""
    return np.array([np.linalg.norm(row) for row in block])


def _ratio(lhs, rhs) -> float:
    """The largest ``lhs / rhs`` over nonnegative numbers or arrays: 0 where ``lhs`` is, inf where only ``rhs`` is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(np.equal(lhs, 0.0), 0.0, np.divide(lhs, rhs))))


def verify_inequalities(
    model: Model,
    report: Optional[BoundReport] = None,
    n_samples: int = 1000,
    n_field_points: int = 10,
    seed: int = 0,
) -> BoundReport:
    """Check every stated operator inequality on random states.

    Failures are recorded in the report rather than raised: a worst ratio
    above 1 + 1e-9 falsifies the build, and the caller (test suite, CLI)
    decides how loudly to fail.
    """
    n_samples, n_field_points = as_integer(n_samples, "n_samples", 1), as_integer(n_field_points, "n_field_points", 1)
    seed = check_seed(seed)
    dim = model.basis.dim
    if n_samples * dim > SAMPLE_CAP:
        raise CapacityError(
            f"{n_samples} sample states of dimension {dim} need {size_text(n_samples * dim)} draws, "
            f"over the cap of {SAMPLE_CAP}",
            projected=n_samples * dim,
            cap=SAMPLE_CAP,
        )
    report = report or compute_constants(model)
    rng = np.random.default_rng(seed)
    report.eps_grid = list(EPS_GRID)

    h_int, omega, boson_lattice = model.h_int, model.omega, model.basis.boson_lattice
    # the free parts are diagonal and act elementwise; H_KG = dGamma(omega) repeats over the masks
    kg = np.tile(boson_number_diagonal(model.basis, omega), model.basis.fermion_dim)
    free = model.free
    sqrt_kg = np.sqrt(kg)
    slope, offset = report.form_bound_slope, report.form_bound_offset
    m_kg0, m_kg1 = report.kg_weighted_norms[0], report.kg_weighted_norms[1]

    worst: Dict[str, float] = {}  # each check's largest ratio, in the order the checks first run

    def note(name: str, lhs, rhs) -> None:
        worst[name] = max(worst.get(name, 0.0), _ratio(lhs, rhs))

    def lifted_norms(op: sp.spmatrix, block: np.ndarray) -> np.ndarray:
        """The norm of ``(I (x) op) @ psi`` for each state: ``op`` acts on the ``(-1, boson_dim)`` view."""
        return _row_norms(_apply(op, block.reshape(-1, op.shape[1])).reshape(block.shape))

    # every batch is read in blocks of `rows` states, so a complex block holds CHUNK_ENTRIES float64 values
    rows = max(1, CHUNK_ENTRIES // (2 * dim))

    # smeared ladder bounds on random coefficient vectors and states
    for _ in range(max(1, n_samples // 20)):
        eta = DiscreteCoefficients(rng.standard_normal(len(omega)) + 1j * rng.standard_normal(len(omega)),
                                   boson_lattice)
        weighted = DiscreteCoefficients(eta.values / np.sqrt(omega), boson_lattice)
        ann = smeared_boson_block(eta, model.basis)
        cre = ann.conj().T.tocsr()
        for block in _state_blocks(rng, dim, 5, rows):
            kg_bound = weighted.norm * _row_norms(sqrt_kg * block)
            note("annihilator_relative", lifted_norms(ann, block), kg_bound)
            note("creator_relative", lifted_norms(cre, block), kg_bound + eta.norm * _row_norms(block))

    # field operators at random spatial points
    for i in range(n_field_points):
        x = rng.normal(scale=2.0 * model.params.chi_spatial.scale, size=3)
        for l in range(4):
            sigma = _largest_singular_value(dirac_field_mask(model, l, x), seed=seed + 13 * i + l)
            note("dirac_field_norm", sigma, report.dirac_field_norms[l])
        phi_op = boson_field_block(model, x)
        for block in _state_blocks(rng, dim, 3, rows):
            rhs = math.sqrt(2.0) * m_kg1 * _row_norms(sqrt_kg * block) + m_kg0 * _row_norms(block) / math.sqrt(2.0)
            note("boson_field_vector", lifted_norms(phi_op, block), rhs)

    # quadratic form and vector bounds on the interaction;
    # ``products`` holds the block times each free diagonal in turn, then h_int on it
    products = np.empty((min(rows, n_samples), dim), complex)
    eps = np.array(EPS_GRID)[:, None]
    phi = np.empty(dim, dtype=complex)
    for block in _state_blocks(rng, dim, n_samples, rows):
        scaled = products[: len(block)]
        norm_psi = _row_norms(block)
        sqrt_term, kg_term, free_term = (_row_norms(np.multiply(d, block, out=scaled)) for d in (sqrt_kg, kg, free))
        int_psi = _apply(h_int, block, out=scaled)
        int_norm = _row_norms(int_psi)
        rhs_int = slope * sqrt_term + offset * norm_psi
        lhs, norm_phi = np.empty(len(block)), np.empty(len(block))
        for i, row in enumerate(int_psi):
            phi.real = rng.standard_normal(dim)
            phi.imag = rng.standard_normal(dim)
            lhs[i], norm_phi[i] = abs(np.vdot(phi, row)), np.linalg.norm(phi)
        note("form_bound", lhs, rhs_int * norm_phi)
        note("interaction_relative", int_norm, rhs_int)
        note("sqrt_interpolation", sqrt_term, eps * kg_term + norm_psi / (4.0 * eps))
        note("free_relative", int_norm, eps * slope * free_term + (slope / (4.0 * eps) + offset) * norm_psi)

    # the vacuum carries no boson energy, so the offset alone must bound it
    vacuum = np.zeros(dim, dtype=complex)
    vacuum[0] = 1.0
    note("vacuum_interaction", float(np.linalg.norm(_apply(h_int, vacuum))), offset)

    for name, ratio in worst.items():
        report.checks[name] = InequalityCheck(name=name, worst_ratio=float(ratio), samples=n_samples)
    return report
