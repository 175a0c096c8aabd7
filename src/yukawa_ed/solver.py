"""Lowest eigenvalues, spectral gaps, sector minima, and refinement scans.

Two routes to the bottom of the spectrum, chosen by size alone.  LAPACK's
subset driver (dense; only the lowest k eigenpairs) runs up to
``DEFAULT_DENSE_CAP``, the measured break-even dimension.  The dense route
doubles as the oracle up to ``ORACLE_DENSE_CAP``, which also caps
``operator_norm_dense``.  ``sector_minima`` cuts a sector's rows once and,
when its coupling to the rest is at most ``INVARIANCE_TOL``, solves scipy's
column cut of them with ``solve_lowest``'s defaults.  The dense and Lanczos
solves work in the matrix's own dtype: ``build_model`` assembles float64
operators for real models, which get a real start vector, Krylov block and
subset driver, and complex ones for off-axis models.

Above the dense cap ``solve_lowest`` splits the matrix into the connected
components of its pattern, its invariant blocks (method ``"blocks"``; a
connected matrix is one block, a diagonal one a block per state).  It
solves them densely up to the cap and by Lanczos with partial
reorthogonalization above it, in increasing Gershgorin bound, until a bound
reaches the k-th value merged so far.  A Lanczos block stops once a round is
decided above that value; a dense block is decided above it, with no
eigensolve, when its Cholesky factorization shifted just above the value
completes.  A block decided at once adds no pairs but counts in
``blocks_solved``.  A single state's bound and dense solve are both its
diagonal entry, so the block route reads a diagonal matrix (the free
Hamiltonian above the cap) off exactly.  The search reads the matrix once,
in chunks of whole rows of at most ``hamiltonian.CHUNK_ENTRIES`` stored
entries, for the components' closure test and the Gershgorin row sums, so
its scratch does not grow with nnz.  Every route reads its matrix through
``_as_operator``, which rejects an empty or non-square matrix and a
non-finite entry with ``ParameterError``, naming its shape or row.

Lanczos restarts in the orthogonal complement of converged eigenvectors, so
degenerate levels keep their multiplicities and the routes can be compared
eigenvalue by eigenvalue.  One Krylov block per solve holds the vectors of
every sweep.  Simon's recurrence (Math. Comp. 42, 1984) estimates each new
vector's overlaps with the block from the tridiagonal entries in a few
O(j) flops; the vector is projected against the block only when an
estimate passes sqrt(eps), at that step and the next, which keeps the
basis semi-orthogonal and the Ritz values as accurate as under full
reorthogonalization.  A step computes only the lowest Ritz pairs it
checks, by LAPACK's bisection and inverse iteration.  Accepted Ritz vectors
are orthonormalized against the deflation vectors before they join them.

A completeness probe, or a block's round above the merged k-th value, ends
once decided: its lowest Ritz pair has residual r_0 <= sqrt(tol) and
theta_0 - r_0 above the limit plus the tie tolerance.  Values are accepted
only at ``tol``, so no reported value depends on the looser test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import CapacityError, ConvergenceError, ParameterError, as_integer, check_iteration, check_seed
from .fock import FockBasis
from .hamiltonian import CHUNK_ENTRIES, ModelParams, build_model, chunks

# dense route at or below this dimension, invariant blocks above (measured break-even)
DEFAULT_DENSE_CAP = 680
# memory guard of the dense oracle routes, whatever the route choice
ORACLE_DENSE_CAP = 4096
DEGENERACY_TOL = 1e-10
# a label sector coupled to its complement beyond this has no restricted minimum
INVARIANCE_TOL = 1e-12
EPS = float(np.finfo(float).eps)
# Lanczos projects against its Krylov block once an estimated overlap of the
# new vector with an earlier one passes this (Simon's semi-orthogonality)
SEMI_ORTHOGONAL = math.sqrt(EPS)
# SpectralResult fields that say how a solve went (route and work done)
SOLVE_STATS = ("method", "iterations", "matvecs", "reorthogonalizations", "blocks", "blocks_solved")
LANCZOS_WORK = ("iterations", "matvecs", "reorthogonalizations")


@dataclass
class SpectralResult:
    """Lowest eigenvalues and ground-state diagnostics of one matrix."""

    eigenvalues: np.ndarray
    ground_vector: Optional[np.ndarray]
    residual: float
    method: str
    iterations: int = 0
    matvecs: int = 0
    reorthogonalizations: int = 0
    blocks: int = 0  # connected components found (0: no search, at or below the dense cap)
    blocks_solved: int = 0

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_multiplicity(self) -> int:
        return int(np.sum(self.eigenvalues - self.eigenvalues[0] < DEGENERACY_TOL))

    @property
    def gap(self) -> float:
        """First excitation energy; exactly 0.0 when the ground level is degenerate."""
        if len(self.eigenvalues) < 2:
            return 0.0
        raw = float(self.eigenvalues[1] - self.eigenvalues[0])
        return 0.0 if raw < DEGENERACY_TOL else raw

    def stats(self) -> Dict:
        return {key: getattr(self, key) for key in SOLVE_STATS}


def _as_operator(h):
    """CSR or ndarray of ``h`` in its own dtype (float64 for integer input).

    Raises ``ParameterError`` naming the shape of a matrix that is not
    square or is empty, and the row of the first non-finite stored entry.
    The entries are summed first; only a sum that is not finite (a
    non-finite entry, or finite ones that overflow) is followed by a search,
    in chunks of at most ``CHUNK_ENTRIES`` entries of whole rows.
    """
    h = h.tocsr() if sp.issparse(h) else np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise ParameterError(f"need a non-empty square matrix, got shape {h.shape}")
    h = h if np.iscomplexobj(h) else h.astype(float, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        total = (h.data if sp.issparse(h) else h).sum()
    if not np.isfinite(total):
        ends = h.indptr if sp.issparse(h) else np.arange(h.shape[0] + 1) * h.shape[1]
        for start, stop in chunks(ends, CHUNK_ENTRIES):
            entries = h.data[ends[start]:ends[stop]] if sp.issparse(h) else h[start:stop].ravel()
            bad = np.flatnonzero(~np.isfinite(entries))
            if bad.size:
                row = np.searchsorted(ends, int(ends[start]) + bad[0], "right") - 1
                raise ParameterError(f"matrix entry {entries[bad[0]]} in row {row} is not finite")
    return h


def _dense(what: str, h, cap: int) -> np.ndarray:
    """``_as_operator(h)`` as an ndarray, its first dimension checked against ``cap`` first, for a nested list too."""
    dim = np.shape(h)[0] if np.ndim(h) else 0
    if dim > cap:
        raise CapacityError(f"{what} of dimension {dim} exceeds cap {cap}", projected=dim, cap=cap)
    h = _as_operator(h)
    return h.toarray() if sp.issparse(h) else h


def check_dense_cap(dense_cap) -> int:
    """``dense_cap`` as int; one that is not integral, is negative or passes ``ORACLE_DENSE_CAP`` raises."""
    dense_cap = as_integer(dense_cap, "dense_cap", 0)
    if dense_cap > ORACLE_DENSE_CAP:
        raise ParameterError(f"dense_cap must be <= {ORACLE_DENSE_CAP}, got {dense_cap}")
    return dense_cap


def dense_lowest(h, k: int, dense_cap: int = ORACLE_DENSE_CAP) -> SpectralResult:
    """Lowest ``k`` eigenpairs by LAPACK's subset driver; the oracle route under the cap."""
    k = as_integer(k, "k", 1)
    dense = _dense("dense diagonalization", h, check_dense_cap(dense_cap))
    vals, vecs = sla.eigh(dense, subset_by_index=[0, min(k, len(dense)) - 1])
    ground = vecs[:, 0]
    residual = float(np.linalg.norm(dense @ ground - vals[0] * ground))
    return SpectralResult(
        eigenvalues=vals,
        ground_vector=ground,
        residual=residual,
        method="dense",
    )


class _LanczosState:
    """Converged eigenpairs plus iteration counters across deflation rounds.

    Two arrays of ``h``'s dtype serve the whole solve.  Every round writes
    its Lanczos vectors into the rows of the Krylov block, which is replaced
    only when a round needs more rows; the converged vectors are the rows of
    ``vectors``, to which each accepted round appends its own.  The three-term
    recurrence builds each new vector in place in the next Krylov row, and
    every step projects it against the converged vectors.  Against the
    Krylov block it is projected only when Simon's estimate of its largest
    overlap with an earlier row passes ``SEMI_ORTHOGONAL``, at that step and
    the next, which keeps the basis semi-orthogonal;
    ``reorthogonalizations`` counts those projections.
    """

    def __init__(self, h, rng):
        self.h = h
        self.rng = rng
        self.values: List[float] = []
        self.iterations = 0
        self.matvecs = 0
        self.reorthogonalizations = 0
        self.best_residual = math.inf
        dtype = complex if np.iscomplexobj(h) else float
        self.krylov = np.empty((0, h.shape[0]), dtype=dtype)
        self.vectors = np.empty((0, h.shape[0]), dtype=dtype)  # converged, one per row

    def run_round(self, need: int, tol: float, max_iter: int, bar: float = math.inf) -> Optional[float]:
        """One Lanczos sweep in the complement of the converged vectors.

        Accepts the lowest Ritz pairs whose residual estimates pass ``tol``
        and returns the smallest value accepted this round, or None when
        nothing converged (either a residual failure or an exhausted
        complement; the caller distinguishes via the remaining dimension).
        A round is decided above ``bar`` once its lowest Ritz pair has a
        residual r_0 <= sqrt(tol) and theta_0 - r_0 > bar: it ends at once,
        accepting nothing, and returns theta_0.
        """
        dim = self.h.shape[0]
        steps = min(max_iter, dim - len(self.values))
        if len(self.krylov) < steps + 1:
            self.krylov = np.empty((steps + 1, dim), dtype=self.krylov.dtype)
        krylov = self.krylov
        axpy = sla.get_blas_funcs("axpy", (krylov,))
        alphas = np.zeros(steps)
        betas = np.zeros(steps)
        ritz_drivers = sla.get_lapack_funcs(("stebz", "stein"), (alphas, betas))
        loose = math.sqrt(tol)
        deflate = self.vectors if self.values else None

        start = krylov[0]
        if np.iscomplexobj(start):
            start.real = self.rng.standard_normal(dim)
            start.imag = self.rng.standard_normal(dim)
        else:
            self.rng.standard_normal(out=start)
        if deflate is not None:
            _project_out(deflate, start)
        nrm = float(np.linalg.norm(start))
        if nrm < 1e-10:
            return None
        start /= nrm

        # rows j-1, j and j+1 of Simon's estimates omega[j, k] ~ q_j . q_k
        prev, cur, nxt = np.zeros((3, steps + 1))
        cur[0] = 1.0
        again = False
        for j in range(steps):
            self.iterations += 1
            q, w = krylov[j], krylov[j + 1]
            w[...] = self.h @ q
            self.matvecs += 1
            alpha = alphas[j] = float(np.vdot(q, w).real)
            axpy(q, w, a=-alpha)
            if j > 0:
                axpy(krylov[j - 1], w, a=-betas[j - 1])
            if deflate is not None:
                _project_out(deflate, w)
            beta = float(np.linalg.norm(w))
            if beta > 0.0 and (again or _omega_step(prev, cur, nxt, alphas, betas, j, beta) > SEMI_ORTHOGONAL):
                # a projection triggered by the estimate repeats once at the next step
                again = not again
                _project_out(krylov[: j + 1], w)
                self.reorthogonalizations += 1
                beta = float(np.linalg.norm(w))
                nxt[: j + 1] = EPS
                nxt[j + 1] = 1.0
            prev, cur, nxt = cur, nxt, prev

            # the lowest `need` Ritz pairs for the residual estimates
            ritz = (alphas[: j + 1], betas[:j])
            theta, smat = _lowest_ritz(*ritz_drivers, *ritz, min(need, j + 1))
            residuals = np.abs(beta * smat[-1, :])
            self.best_residual = min(self.best_residual, float(residuals[0]))
            if residuals[0] <= loose and theta[0] - residuals[0] > bar:
                return float(theta[0])
            converged = residuals <= tol
            exhausted = beta < 1e-13 * max(1.0, float(np.max(np.abs(alphas[: j + 1]))))
            if converged.all() or exhausted or j == steps - 1:
                # every Ritz pair now: on an exhausted Krylov space each one is
                # exact, else the whole leading run of converged pairs is accepted
                theta, smat = sla.eigh_tridiagonal(*ritz)
                converged = np.abs(beta * smat[-1, :]) <= tol
                take = len(theta) if exhausted else int(np.logical_and.accumulate(converged).sum())
                if take == 0:
                    return None
                self._accept(theta[:take], smat[:, :take], krylov[: j + 1])
                return float(theta[0])
            betas[j] = beta
            w /= beta
        return None

    def _accept(self, values: np.ndarray, coeffs: np.ndarray, basis: np.ndarray) -> None:
        """Append the Ritz pairs (vectors ``coeffs.T @ basis``) to ``vectors``.

        Each vector is projected against every converged vector before it
        and normalized, so the rows stay orthonormal to rounding.
        """
        found = len(self.vectors)
        self.vectors = np.concatenate((self.vectors, coeffs.T @ basis))
        for row in range(found, len(self.vectors)):
            vec = self.vectors[row]
            if row:
                _project_out(self.vectors[:row], vec)
            vec /= np.linalg.norm(vec)
        self.values.extend(float(value) for value in values)


def _lowest_ritz(stebz, stein, alphas: np.ndarray, betas: np.ndarray, count: int):
    """The lowest ``count`` eigenpairs of a real symmetric tridiagonal matrix, ascending.

    Bit for bit what ``eigh_tridiagonal(alphas, betas, select="i",
    select_range=(0, count - 1))`` returns: bisection (``stebz``, block
    order) and inverse iteration (``stein``), called with the arguments
    scipy passes them but without its per-call validation.  The 1x1 matrix,
    which scipy answers without LAPACK, goes through scipy.
    """
    if len(alphas) == 1:
        return sla.eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
    found, values, blocks, splits, info = stebz(alphas, betas, 2, 0.0, 1.0, 1, count, 0.0, "B")
    values = values[:found]
    if info == 0:
        vectors, info = stein(alphas, betas, values, blocks, splits)
    if info != 0:
        raise sla.LinAlgError(f"tridiagonal Ritz pairs failed (LAPACK info {info})")
    order = np.argsort(values)
    return values[order], vectors[:, order]


def _omega_step(prev, cur, nxt, alphas, betas, j: int, beta: float) -> float:
    """Simon's estimates of q_{j+1} . q_k for k <= j into ``nxt``; returns their largest size.

    ``prev`` and ``cur`` hold the estimates omega[j-1, :] and omega[j, :].
    The three-term recurrence for q_{j+1}, taken against q_k, and the one
    for q_k, taken against q_j, give beta_j omega[j+1, k] = beta_k omega[j, k+1]
    + (alpha_k - alpha_j) omega[j, k] + beta_{k-1} omega[j, k-1]
    - beta_{j-1} omega[j-1, k].  Rounding adds about
    eps (|alpha_k| + beta_k + |alpha_j| + beta_j), taken with the sign that
    grows the estimate; a new vector is orthogonal to its predecessor up to eps.
    """
    if j > 0:
        a, b = alphas[:j], betas[:j]
        est = b * cur[1 : j + 1] + (a - alphas[j]) * cur[:j] - betas[j - 1] * prev[:j]
        est[1:] += b[:-1] * cur[: j - 1]
        noise = EPS * (np.abs(a) + b + abs(alphas[j]) + beta)
        nxt[:j] = (est + np.copysign(noise, est)) / beta
    nxt[j] = EPS
    nxt[j + 1] = 1.0
    return float(np.max(np.abs(nxt[: j + 1])))


def _project_out(rows: np.ndarray, w: np.ndarray) -> None:
    """Remove from ``w`` (in place) its components along the orthonormal rows.

    Two BLAS gemv calls on the Fortran-ordered view ``rows.T``: the
    coefficients conj(rows) @ w, then w -= rows.T @ coeffs with no copy of
    ``rows`` or ``w``.
    """
    gemv = sla.get_blas_funcs("gemv", (rows, w))
    coeffs = gemv(1.0, rows.T, w, trans=2)
    gemv(-1.0, rows.T, coeffs, beta=1.0, y=w, overwrite_y=True)


def lanczos_lowest(
    h,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 400,
    seed: int = 0,
    above: float = math.inf,
) -> SpectralResult:
    """Lowest ``k`` eigenpairs by Lanczos with partial reorthogonalization.

    Every sweep keeps its basis semi-orthogonal in one Krylov block shared
    by the whole solve (see ``_LanczosState``).  Converged eigenvectors are
    deflated and the iteration restarts in their orthogonal complement,
    which resolves degenerate levels one copy at a time.  Once ``k`` pairs
    are in hand, extra probe rounds continue until the complement's lowest
    eigenvalue lies above the k-th found value, so no degenerate copy
    hiding below the k-th level can be missed; a round whose lowest value
    lies above ``above`` (the block route's merged k-th value) ends it too.
    Such a round ends once it is decided above its limit (residual of its
    lowest Ritz pair at most sqrt(tol), see ``_LanczosState.run_round``),
    accepting nothing: when that is the first round, the result has no
    eigenvalues and ``ground_vector`` None.  Deterministic for a fixed seed.
    """
    k, seed, max_iter = as_integer(k, "k", 1), check_seed(seed), check_iteration(tol, max_iter)
    h = _as_operator(h)
    dim = h.shape[0]
    k = min(k, dim)
    state = _LanczosState(h, np.random.default_rng(seed))
    tie_tol = 10.0 * tol

    max_rounds = 4 * k + 16
    complete = False
    for _ in range(max_rounds):
        if len(state.values) >= dim:
            complete = True
            break
        need = k - len(state.values)
        limit = above if need > 0 else min(above, float(np.sort(state.values)[k - 1]))
        lowest = state.run_round(max(need, 1), tol, max_iter, limit + tie_tol)
        if lowest is None:
            what = (f"failed to converge within {max_iter} iterations" if need > 0
                    else "completeness probe failed to converge")
            raise ConvergenceError(
                f"Lanczos {what} (best residual {state.best_residual:.3e}, tol {tol:.3e})",
                best_residual=state.best_residual,
            )
        if lowest > limit + tie_tol:
            complete = True
            break
    if not complete:
        raise ConvergenceError(
            f"Lanczos found {len(state.values)} pairs but could not certify the "
            f"lowest {k} within {max_rounds} deflation rounds "
            f"(best residual {state.best_residual:.3e})",
            best_residual=state.best_residual,
        )

    work = {key: getattr(state, key) for key in LANCZOS_WORK}
    if not state.values:  # the first round was decided above `above`
        return SpectralResult(np.empty(0), None, math.nan, "lanczos", **work)
    order = np.argsort(state.values)[:k]
    vals = np.array([state.values[i] for i in order])
    ground = state.vectors[order[0]].copy()
    del state  # frees both arrays before the residual check allocates
    residual = float(np.linalg.norm(h @ ground - vals[0] * ground))
    return SpectralResult(
        eigenvalues=vals, ground_vector=ground, residual=residual, method="lanczos", **work
    )


def _sweep(h: sp.csr_matrix, labels: np.ndarray) -> Tuple[bool, np.ndarray]:
    """Whether every stored entry of ``h`` stays in its row's label, and each row's sum of |h_ij|.

    Reads the rows in chunks of at most ``CHUNK_ENTRIES`` stored entries (a
    longer row is a chunk of its own), so the scratch does not grow with
    nnz.
    """
    indptr, closed, row_sums = h.indptr, True, np.zeros(h.shape[0])
    for start, stop in chunks(indptr, CHUNK_ENTRIES):
        lo, hi = indptr[start], indptr[stop]
        counts = np.diff(indptr[start : stop + 1])
        filled = np.flatnonzero(counts)  # reduceat from one filled row's start to the next sums that row
        row_sums[start + filled] = np.add.reduceat(np.abs(h.data[lo:hi]), indptr[start + filled] - lo)
        closed = closed and np.array_equal(np.take(labels, h.indices[lo:hi]), np.repeat(labels[start:stop], counts))
    return closed, row_sums


def solve_lowest(
    h,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 400,
    seed: int = 0,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> SpectralResult:
    """Dense up to the cap, else one solve per invariant block that can hold the lowest ``k`` levels.

    The blocks are the strong components of the directed pattern (for a
    Hermitian pattern the connected ones, found without a transpose), or
    the weak ones when an entry stored on one side only joins two strong
    components.  One chunked sweep over the rows (``_sweep``) makes that
    test and sums each row's |h_ij| for the floors.  Each block is cut
    from ``h`` by its rows, whose columns stay inside it, and solved densely
    up to the cap, by Lanczos above it.  Once ``k`` values are merged, a
    dense block is first factored by Cholesky, shifted just above the k-th
    value, and skips its eigensolve when that completes; a Lanczos block is
    asked only for as many pairs as merged values lie above its floor.  A
    block decided above the k-th value adds none but counts as solved.  The
    blocks are invariant, so the residual reported is the winning block's
    own, that of the zero-padded ground vector on the whole matrix.
    """
    k, seed, max_iter = as_integer(k, "k", 1), check_seed(seed), check_iteration(tol, max_iter)
    dense_cap = check_dense_cap(dense_cap)
    h = _as_operator(h)
    if h.shape[0] <= dense_cap:
        return dense_lowest(h, k, dense_cap)
    # imported here: csgraph adds ~1.5 MB of RSS to processes that never need it
    from scipy.sparse.csgraph import connected_components
    h = sp.csr_matrix(h)
    pattern = sp.csr_matrix((h.data.real, h.indices, h.indptr), shape=h.shape) if np.iscomplexobj(h) else h
    n_blocks, labels = connected_components(pattern, connection="strong")
    closed, row_sums = _sweep(h, labels)
    if not closed:
        n_blocks, labels = connected_components(pattern, connection="weak")
    counts = np.bincount(labels)
    starts = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(labels, kind="stable")
    local = np.empty(h.shape[0], h.indices.dtype)  # each state's index inside its block
    local[order] = np.arange(h.shape[0]) - np.repeat(starts[:-1], counts)
    # Gershgorin: Re h_ii - sum_{j != i} |h_ij| bounds the levels of row i's block from below
    diag = h.diagonal()
    floors = np.minimum.reduceat((diag.real + np.abs(diag) - row_sums)[order], starts[:-1])
    values, kth, solved, work = np.empty(0), math.inf, 0, dict.fromkeys(LANCZOS_WORK, 0)
    for block in np.argsort(floors, kind="stable"):
        if floors[block] >= kth:  # no level of this block or a later one lies below the k-th
            break
        states = order[starts[block] : starts[block + 1]]
        sub, size = h, len(states)
        if size < h.shape[0]:
            rows = h[states]  # a copy, renumbered in place: h[states][:, states] raised ground-w2 peak RSS 2.6-3.5 MB
            np.take(local, rows.indices, out=rows.indices, mode="clip")
            sub = sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=(size, size))
        solved += 1
        if size <= dense_cap:
            sub = sub.toarray()  # one cut, for the certificate and the eigensolve
            if len(values) == k:
                # Cholesky of C = sub - (kth + delta) I completes only if every level lies above kth: in floating
                # point it is exact for a matrix within (n+1)u tr(C) of C in norm, to first order (Demmel 1989;
                # Rump, BIT 46, 2006), and forming C rounds each diagonal by u |sub_ii - kth - delta|.  The row
                # sums bound sum_i |sub_ii|, so delta covers both twice over (eps = 2u), complex arithmetic too.
                shifted = np.array(sub, order="F")  # potrf's layout, factored in place
                shifted[np.diag_indices(size)] -= kth + (size + 2) * EPS * (row_sums[states].sum() + size * abs(kth))
                if sla.get_lapack_funcs("potrf", (shifted,))(shifted, lower=True, overwrite_a=True, clean=0)[1] == 0:
                    continue  # decided above the k-th value: nothing to merge
            part = dense_lowest(sub, k, dense_cap)
        else:  # once k values are merged, only those above this block's floor can be displaced
            need = int(np.sum(values > floors[block])) if len(values) == k else k
            part = lanczos_lowest(sub, need, tol, max_iter, seed, above=kth)
        work = {key: count + getattr(part, key) for key, count in work.items()}
        if not len(part.eigenvalues):  # decided above the k-th value: nothing to merge
            continue
        if not len(values) or part.eigenvalues[0] < values[0]:
            ground_states, ground, residual = states, part.ground_vector, part.residual
        values = np.sort(np.concatenate((values, part.eigenvalues)))[:k]
        kth = float(values[-1]) if len(values) == k else math.inf
    vector = np.zeros(h.shape[0], dtype=h.dtype)
    vector[ground_states] = ground
    return SpectralResult(values, vector, residual, "blocks", blocks=n_blocks, blocks_solved=solved, **work)


def operator_norm_dense(h) -> float:
    """Spectral norm via dense Hermitian eigenvalues, up to ``ORACLE_DENSE_CAP``."""
    vals = np.linalg.eigvalsh(_dense("dense norm", h, ORACLE_DENSE_CAP))
    return float(max(abs(vals[0]), abs(vals[-1])))


# -- invariant sectors ----------------------------------------------------------


@dataclass
class SectorResult:
    """Minimum of the restricted quadratic form on one label sector."""

    label: str
    value: int
    dimension: int
    invariant: bool
    mixing: float
    energy: Optional[float]


def sector_minima(
    h,
    basis: FockBasis,
    n: int,
    label: str = "charge",
    seed: int = 0,
) -> SectorResult:
    """Lowest energy in the sector with label value ``n``.

    The sector is the boson blocks of the fermion masks with that label, read
    off the per-mask labels of ``basis``.  Its rows are cut from ``h`` once.
    An entry whose column leaves the sector, found by one gather of the
    states' membership, is measured: the largest is ``mixing``, how strongly
    the Hamiltonian couples the sector to its complement.  A sector mixed
    beyond ``INVARIANCE_TOL`` has no well-defined restricted minimum and is
    reported with ``energy=None``; otherwise scipy's column cut of those
    rows drops such entries (stored zeros among them) and ``solve_lowest``
    solves the rest, the matrix ``h[inside][:, inside]``.  A non-integral
    ``n`` or a non-finite entry in the sector's rows raises ``ParameterError``.
    """
    if np.shape(h) != (basis.dim, basis.dim):
        raise ParameterError(f"matrix of shape {np.shape(h)} does not act on the basis of dimension {basis.dim}")
    if label not in ("charge", "number"):
        raise ParameterError(f"unknown sector label {label!r}")
    seed, n = check_seed(seed), as_integer(n, "n")
    member = np.repeat((basis.mask_charge if label == "charge" else basis.mask_fermion_number) == n, basis.boson_dim)
    inside = np.flatnonzero(member)
    if inside.size == 0:
        raise ParameterError(f"no basis states with {label} = {n}")
    rows = sp.csr_matrix(h)[inside]
    mixing = float(np.max(np.abs(rows.data[~member[rows.indices]]), initial=0.0))
    if not math.isfinite(mixing):
        raise ParameterError(f"a non-finite entry couples the {label} = {n} sector to its complement")
    invariant = mixing <= INVARIANCE_TOL
    energy = solve_lowest(rows[:, inside], 1, seed=seed).ground_energy if invariant else None
    return SectorResult(
        label=label,
        value=n,
        dimension=inside.size,
        invariant=invariant,
        mixing=mixing,
        energy=energy,
    )


# -- refinement scans -------------------------------------------------------------


# scan axis -> (ModelParams field, cast); "fermion_modes" keeps a prefix of
# the explicit fermion points
STEP_FIELDS = {
    "n_max": ("n_max", as_integer),
    "total_cap": ("total_boson_cap", as_integer),
    "boson_V": ("boson_V", float),
    "boson_L": ("boson_L", float),
    "fermion_V": ("fermion_V", float),
    "fermion_L": ("fermion_L", float),
    "fermion_modes": ("fermion_points", as_integer),
}
SCAN_AXES = tuple(STEP_FIELDS)


@dataclass
class ScanRow:
    value: float
    dimension: int
    ground_energy: float
    gap: float
    residual: float
    method: str


@dataclass
class ConvergenceReport:
    """Ground energy and gap along one refinement axis.

    The successive-difference column is a convergence diagnostic, not a
    proof: coarse and fine model spaces differ, so only the spectra are
    compared.  ``solves`` holds each row's ``SpectralResult.stats()``; it is
    not part of ``to_dict``.
    """

    axis: str
    rows: List[ScanRow] = field(default_factory=list)
    solves: List[Dict] = field(default_factory=list)

    @property
    def deltas(self) -> List[float]:
        energies = [row.ground_energy for row in self.rows]
        return [abs(b - a) for a, b in zip(energies, energies[1:])]

    @property
    def ground_energies(self) -> List[float]:
        return [row.ground_energy for row in self.rows]

    @property
    def e0_monotone_nonincreasing(self) -> bool:
        energies = self.ground_energies
        return all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    @property
    def tail_deltas_nonincreasing(self) -> bool:
        d = self.deltas
        if len(d) < 2:
            return True
        return d[-1] <= d[-2] * (1 + 1e-9)

    def to_dict(self) -> Dict:
        return {
            "axis": self.axis,
            "rows": [vars(row) for row in self.rows],
            "abs_delta_e0": self.deltas,
            "e0_monotone_nonincreasing": self.e0_monotone_nonincreasing,
            "tail_deltas_nonincreasing": self.tail_deltas_nonincreasing,
            "note": "spectrum comparison across refinement levels; diagnostic, not a proof",
        }


def _params_for_step(params: ModelParams, axis: str, value) -> ModelParams:
    if axis not in STEP_FIELDS:
        raise ParameterError(f"unknown scan axis {axis!r}; expected one of {SCAN_AXES}")
    name, cast = STEP_FIELDS[axis]
    try:
        step = cast(value)
    except (TypeError, ValueError) as err:
        raise ParameterError(f"bad {axis} value {value!r}: {err}") from err
    if axis == "fermion_modes":
        if params.fermion_points is None:
            raise ParameterError("fermion_modes scan needs explicit fermion_points")
        if step > len(params.fermion_points):
            raise ParameterError(
                f"fermion_modes value {step} exceeds available points {len(params.fermion_points)}"
            )
        step = tuple(params.fermion_points[:step])
    return replace(params, **{name: step})


def converge_scan(
    params: ModelParams,
    axis: str,
    values: Sequence,
    k: int = 2,
    tol: float = 1e-10,
    max_iter: int = 400,
    seed: int = 0,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> ConvergenceReport:
    """Solve the model along one refinement axis and report E0/gap sequences.

    Aborts with the partial report attached on the first non-converged step.
    """
    k, seed, max_iter = as_integer(k, "k", 1), check_seed(seed), check_iteration(tol, max_iter)
    dense_cap = check_dense_cap(dense_cap)
    values = list(values)
    if not values:
        raise ParameterError("refinement list is empty")
    steps = [_params_for_step(params, axis, value) for value in values]  # every value checked before any solve
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterError("refinement list must be strictly increasing")
    report = ConvergenceReport(axis=axis)
    for value, step_params in zip(values, steps):
        model = build_model(step_params)
        h = model.hamiltonian()
        try:
            result = solve_lowest(h, k, tol=tol, max_iter=max_iter, seed=seed, dense_cap=dense_cap)
        except ConvergenceError as err:
            err.partial = report
            raise
        report.rows.append(
            ScanRow(
                value=float(value),
                dimension=int(h.shape[0]),
                ground_energy=result.ground_energy,
                gap=result.gap,
                residual=result.residual,
                method=result.method,
            )
        )
        report.solves.append(result.stats())
    return report
