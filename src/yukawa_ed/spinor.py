"""Dirac algebra, energy spinors, and one-particle coefficient functions.

The 4x4 matrix alpha.p + beta*M has eigenvalues +-E(p) with E(p) =
sqrt(p^2 + M^2), each twice degenerate.  The positive-energy pair u_s(p) and
the negative-energy pair (stored as v_s evaluated at -p, which is what the
coefficient functions need at argument p) are fixed deterministically by
projecting canonical basis vectors onto the eigenspaces and orthonormalizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EvaluationError, ParameterError
from .lattice import DiscreteCoefficients, MomentumLattice, discretize

# spin order of the spinor columns, the fermion modes and the term table's spin axis
SPINS = (0.5, -0.5)

_PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


@dataclass(frozen=True, eq=False)
class DiracAlgebra:
    """The anticommuting matrices alpha[0..2] and beta (= gamma0)."""

    alpha: tuple
    beta: np.ndarray
    name: str = "dirac"

    def contraction(self, p: np.ndarray, mass: float) -> np.ndarray:
        """alpha.p + beta*M as a dense Hermitian 4x4."""
        out = mass * self.beta.astype(complex)
        for j in range(3):
            out = out + p[j] * self.alpha[j]
        return out


def dirac_algebra(representation: str = "dirac") -> DiracAlgebra:
    """Standard representations of the Dirac matrices.

    "dirac": beta = diag(1, 1, -1, -1), alpha^j with Pauli blocks off the
    diagonal.  "chiral" is unitarily equivalent and exists so spectra can be
    checked for representation independence.
    """
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    if representation == "dirac":
        beta = np.block([[eye, zero], [zero, -eye]])
        alpha = tuple(np.block([[zero, s], [s, zero]]) for s in _PAULI)
    elif representation == "chiral":
        beta = np.block([[zero, eye], [eye, zero]])
        alpha = tuple(np.block([[-s, zero], [zero, s]]) for s in _PAULI)
    else:
        raise ParameterError(f"unknown Dirac representation {representation!r}")
    return DiracAlgebra(alpha=alpha, beta=beta, name=representation)


def dirac_energy(p: np.ndarray, mass: float) -> float:
    return float(np.sqrt(np.dot(p, p) + mass * mass))


def boson_energy(k: np.ndarray, mass: float) -> float:
    return float(np.sqrt(np.dot(k, k) + mass * mass))


@dataclass(frozen=True, eq=False)
class SpinorPair:
    """Orthonormal eigenbasis of alpha.p + beta*M at one momentum.

    ``u[i]`` is the positive-energy spinor with spin SPINS[i]; ``v[i]`` is the
    negative-energy spinor, indexed so that v[i] is the value at argument -p
    of the spin-SPINS[i] negative-energy family.  Together the four columns
    are orthonormal and complete.
    """

    momentum: np.ndarray
    mass: float
    energy: float
    u: np.ndarray  # (2, 4) complex
    v: np.ndarray  # (2, 4) complex


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude component is real positive."""
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    return vec * (np.conj(pivot) / np.abs(pivot))


def _snap_zeros(vec: np.ndarray) -> np.ndarray:
    """Restore the representation's structural zeros lost to BLAS rounding.

    Components below 1e-14 of the peak are exactly zero in the projected
    eigenvectors; keeping them exact makes coefficient supports reproducible.
    """
    cleaned = np.where(np.abs(vec) < 1e-14 * np.max(np.abs(vec)), 0.0, vec)
    return cleaned / np.linalg.norm(cleaned)


def _project_pair(projector: np.ndarray, seeds) -> np.ndarray:
    """Orthonormal pair from projecting canonical seed vectors onto an eigenspace."""
    first = projector[:, seeds[0]].copy()
    n1 = np.linalg.norm(first)
    if n1 < 1e-12:
        raise ParameterError("degenerate seed projection; unexpected for positive mass")
    first /= n1
    second = projector[:, seeds[1]].copy()
    second -= first * np.vdot(first, second)
    n2 = np.linalg.norm(second)
    if n2 < 1e-12:
        raise ParameterError("seed vectors collapsed in eigenspace projection")
    second /= n2
    return np.stack([_fix_phase(_snap_zeros(first)), _fix_phase(_snap_zeros(second))])


def spinors_at(p: np.ndarray, mass: float, algebra: Optional[DiracAlgebra] = None) -> SpinorPair:
    """Deterministic positive/negative-energy spinors at momentum p.

    Uses the spectral projectors (E +- D)/(2E) of D = alpha.p + beta*M rather
    than a generic eigensolver, so the result is continuous in p and exactly
    reproducible.
    """
    if mass <= 0:
        raise ParameterError(f"Dirac mass must be positive, got {mass}")
    algebra = algebra or dirac_algebra()
    p = np.asarray(p, dtype=float)
    energy = dirac_energy(p, mass)
    if not np.isfinite(energy):
        raise EvaluationError(f"non-finite Dirac energy {energy} at momentum {p.tolist()}")
    dmat = algebra.contraction(p, mass)
    plus = (energy * np.eye(4) + dmat) / (2.0 * energy)
    minus = (energy * np.eye(4) - dmat) / (2.0 * energy)
    u = _project_pair(plus, (0, 1))
    v = _project_pair(minus, (2, 3))
    return SpinorPair(momentum=p, mass=mass, energy=energy, u=u, v=v)


@dataclass(frozen=True)
class CutoffProfile:
    """Momentum- or position-space damping profile.

    kind "sharp-ball": indicator of |p| <= scale.  kind "gaussian":
    exp(-|p|^2 / (2 scale^2)).  kind "zero" switches a field off entirely
    (diagnostics and tests).  The spatial cutoff must be gaussian so its
    Fourier transform is closed-form.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("sharp-ball", "gaussian", "zero"):
            raise ParameterError(f"unknown cutoff kind {self.kind!r}")
        if not np.isfinite(self.scale) or (self.kind != "zero" and self.scale <= 0):
            raise ParameterError(f"cutoff scale must be finite and positive, got {self.scale}")

    @classmethod
    def gaussian(cls, scale: float) -> "CutoffProfile":
        return cls("gaussian", scale)

    @classmethod
    def sharp_ball(cls, radius: float) -> "CutoffProfile":
        return cls("sharp-ball", radius)

    @classmethod
    def zero(cls) -> "CutoffProfile":
        return cls("zero")

    def __call__(self, p: np.ndarray) -> float:
        if self.kind == "zero":
            return 0.0
        r2 = float(np.dot(p, p))
        if self.kind == "sharp-ball":
            return 1.0 if r2 <= self.scale * self.scale else 0.0
        return float(np.exp(-r2 / (2.0 * self.scale * self.scale)))


def fermion_coefficients(
    lattice: MomentumLattice,
    mass: float,
    cutoff: CutoffProfile,
    algebra: Optional[DiracAlgebra] = None,
):
    """Sample the particle and antiparticle coefficient functions on a lattice.

    Returns (f, g): each a (2, 4) nested list over (spin, component) of
    DiscreteCoefficients, with

        f[s][l](p) = cutoff(p) * u_s^l(p)   / sqrt((2 pi)^3 E(p))
        g[s][l](p) = cutoff(p) * v_s^l(-p)  / sqrt((2 pi)^3 E(p))
    """
    pref = (2.0 * np.pi) ** 1.5
    pairs = [spinors_at(p, mass, algebra) for p in lattice.points]
    scales = np.array([cutoff(p) / (pref * np.sqrt(sp.energy)) for p, sp in zip(lattice.points, pairs)])
    f = [[None] * 4 for _ in range(2)]
    g = [[None] * 4 for _ in range(2)]
    for si in range(2):
        for l in range(4):
            fu = np.array([sp.u[si][l] for sp in pairs]) * scales
            gv = np.array([sp.v[si][l] for sp in pairs]) * scales
            f[si][l] = DiscreteCoefficients(fu, lattice)
            g[si][l] = DiscreteCoefficients(gv, lattice)
    return f, g


def boson_coefficients(lattice: MomentumLattice, mass: float, cutoff: CutoffProfile) -> DiscreteCoefficients:
    """Sample h(k) = cutoff(k) / sqrt((2 pi)^3 omega(k)) on a lattice."""
    if mass <= 0:
        raise ParameterError(f"boson mass must be positive, got {mass}")
    pref = (2.0 * np.pi) ** 1.5
    return discretize(lambda k: cutoff(k) / (pref * np.sqrt(boson_energy(k, mass))), lattice)
