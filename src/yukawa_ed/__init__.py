"""Exact-diagonalization spectral solver for a lattice-truncated Yukawa model.

A Dirac field coupled to a Klein-Gordon field through a cutoff density
coupling, realized on finite momentum lattices and truncated Fock spaces as
sparse Hermitian matrices, with eigensolvers and a verification suite for
the operator inequalities the construction satisfies exactly.
"""

from .bounds import BoundReport, compute_constants, verify_inequalities
from .errors import (
    AssemblyError,
    CapacityError,
    ConfigError,
    ConvergenceError,
    EvaluationError,
    LatticeMismatchError,
    ParameterError,
)
from .fock import (
    FermionMode,
    FockBasis,
    FockState,
    boson_annihilator,
    boson_creator,
    enumerate_basis,
    fermion_annihilator,
    fermion_creator,
    second_quantization,
    smeared_boson,
    smeared_fermion,
)
from .hamiltonian import (
    Model,
    ModelParams,
    assemble_interaction,
    boson_field,
    build_model,
    chi_spatial_fourier,
    chi_spatial_l1_norm,
    dirac_field_component,
    enumerate_interaction_terms,
    interaction_form_quadrature,
    ladder_factors,
)
from .lattice import DiscreteCoefficients, MomentumLattice, build_lattice, discretize
from .solver import (
    ConvergenceReport,
    SpectralResult,
    converge_scan,
    dense_lowest,
    lanczos_lowest,
    operator_norm_dense,
    sector_minima,
    solve_lowest,
)
from .spinor import (
    CutoffProfile,
    DiracAlgebra,
    SpinorPair,
    boson_coefficients,
    boson_energy,
    dirac_algebra,
    dirac_energy,
    fermion_coefficients,
    spinors_at,
)

__version__ = "0.1.0"
