"""Finite momentum lattices and piecewise-constant discretization.

A lattice is the set of points q = (2*pi/V) * n, n integer, whose cubic cell
of side 2*pi/V overlaps the box [-L, L]^3 with positive volume.  One-particle
functions are discretized by sampling at the lattice points; the discrete L2
norm carries the cell volume as weight, which embeds the coefficient vectors
isometrically into L2(R^3) as piecewise-constant functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, EvaluationError, ParameterError

DEFAULT_POINT_CAP = 250_000


@dataclass(frozen=True, eq=False)
class MomentumLattice:
    """Ordered finite subset of the cubic momentum lattice with spacing 2*pi/V.

    Points are ordered lexicographically by their integer indices (n1, n2, n3)
    so mode numbering downstream is deterministic.
    """

    spacing_parameter: float          # V; lattice spacing is 2*pi/V per axis
    box_half_width: float             # L
    integer_points: np.ndarray        # (n_points, 3) int64, lex-sorted
    points: np.ndarray = field(init=False)  # (n_points, 3) float momenta

    def __post_init__(self):
        ipts = np.array(self.integer_points, dtype=np.int64, copy=True).reshape(-1, 3)
        pts = (2.0 * np.pi / self.spacing_parameter) * ipts.astype(float)
        ipts.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "integer_points", ipts)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.integer_points.shape[0]

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.spacing_parameter

    @property
    def cell_volume(self) -> float:
        return self.spacing ** 3

    def __len__(self) -> int:
        return self.n_points

    @classmethod
    def from_integer_points(
        cls, V: float, L: float, integer_points: Sequence[Sequence[int]]
    ) -> "MomentumLattice":
        """Build a lattice from an explicit list of integer triples.

        Used for hand-picked mode sets (nested refinement studies, tests)
        where the box-intersection rule would produce too many points.
        """
        if V <= 0 or L <= 0:
            raise ParameterError(f"lattice parameters must be positive, got V={V}, L={L}")
        try:
            pts = np.asarray(integer_points, dtype=np.int64)
        except (TypeError, ValueError) as err:
            raise ParameterError(f"lattice points must be integer triples: {err}") from err
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ParameterError(f"lattice points must be integer triples, got shape {pts.shape}")
        order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
        pts = pts[order]
        if len(pts) > 1 and np.any(np.all(np.diff(pts, axis=0) == 0, axis=1)):
            raise ParameterError("duplicate lattice points")
        return cls(spacing_parameter=V, box_half_width=L, integer_points=pts)


def build_lattice(V: float, L: float, point_cap: int = DEFAULT_POINT_CAP) -> MomentumLattice:
    """Enumerate all lattice points whose cell overlaps the box [-L, L]^3.

    A cell [q_j - pi/V, q_j + pi/V) is counted as overlapping when the
    intersection has positive volume, i.e. q_j - pi/V < L and q_j + pi/V > -L
    on every axis.  A cell that merely touches the box boundary contributes
    zero L2 weight and is excluded.
    """
    if V <= 0 or L <= 0:
        raise ParameterError(f"lattice parameters must be positive, got V={V}, L={L}")
    half_cell = np.pi / V
    spacing = 2.0 * np.pi / V
    # per-axis integer range is symmetric: |spacing * n| < L + half_cell, strictly
    n_hi = int(np.floor((L + half_cell) / spacing))
    while n_hi * spacing >= L + half_cell:
        n_hi -= 1
    n_axis = np.arange(-n_hi, n_hi + 1, dtype=np.int64)
    projected = len(n_axis) ** 3
    if projected > point_cap:
        raise CapacityError(
            f"lattice would contain {projected} points (cap {point_cap})",
            projected=projected,
            cap=point_cap,
        )
    grid = np.stack(np.meshgrid(n_axis, n_axis, n_axis, indexing="ij"), axis=-1).reshape(-1, 3)
    order = np.lexsort((grid[:, 2], grid[:, 1], grid[:, 0]))
    return MomentumLattice(spacing_parameter=V, box_half_width=L, integer_points=grid[order])


@dataclass(frozen=True, eq=False)
class DiscreteCoefficients:
    """Complex amplitudes sampled at the points of a lattice."""

    values: np.ndarray
    lattice: MomentumLattice

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex, copy=True)
        if vals.shape != (self.lattice.n_points,):
            raise ParameterError(
                f"expected {self.lattice.n_points} values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def norm(self) -> float:
        """Discrete L2 norm: sqrt(cell_volume * sum |value|^2)."""
        return float(np.sqrt(self.lattice.cell_volume * np.sum(np.abs(self.values) ** 2)))


def discretize(f: Callable[[np.ndarray], complex], lattice: MomentumLattice) -> DiscreteCoefficients:
    """Sample ``f`` at every lattice point.

    The sample is taken at the cell center q even when q itself lies outside
    the box; only the cell-box overlap decided membership.
    """
    values = np.empty(lattice.n_points, dtype=complex)
    for i, q in enumerate(lattice.points):
        v = complex(f(q))
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise EvaluationError(f"non-finite sample {v} at lattice point {q.tolist()}")
        values[i] = v
    return DiscreteCoefficients(values, lattice)
