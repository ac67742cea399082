"""Finite-difference spectral oracle for the patchy diffusion operator.

Discretizes the operator in divergence form on a grid whose nodes coincide
with the zone interfaces, so the flux-continuity gluing condition
``a y'_ben = b y'_nb`` is structural rather than an extra constraint row.
Each zone gets its own uniform spacing (integer cell counts per zone at every
refinement level).

The assembled problem is generalized, ``K y = E B y`` with diagonal mass
``B`` (half boxes at reflecting ends).  The scalar stiffness is exactly
symmetric: one tridiagonal solve gives the top eigenvalue of ``B^-1/2 K
B^-1/2``, on a ring after assembling one period and folding it onto half a
period (the discrete half-period reduction behind the tan(R/2)/tanh(r/2)
criterion).  Staged systems are block-coupled and nonsymmetric and are solved
on the whole ring; their rightmost eigenvalue is found densely for small
systems and otherwise by shift-invert Arnoldi on ``B^-1 K`` with 20 Krylov
vectors and the shift above the Gershgorin bound, with no fallback to another
method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.linalg import eigsh, splu  # noqa: F401  (eigsh, splu: looked up here by the benchmark tracer)

from .linalg import expanding_root
from .model import (
    BoundaryCondition,
    PatchLayout,
    ScalarZone,
    SpectralMethod,
    SpectralReport,
    Verdict,
    validate_layout,
)


class NoConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution: cells per unit length, per-zone minimum, refinement depth."""

    cells_per_unit_length: float = 64
    refinement_levels: int = 3
    min_cells_per_zone: int = 16

    def __post_init__(self):
        if not math.isfinite(self.cells_per_unit_length) or self.cells_per_unit_length <= 0:
            raise ValueError("cells_per_unit_length must be finite and > 0")
        for name in ("refinement_levels", "min_cells_per_zone"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 2:
                raise ValueError(f"{name} must be an integer >= 2")


@dataclass(frozen=True)
class _ZoneCells:
    width: float
    cells: int
    diffusion: np.ndarray  # per-stage diffusion, shape (n_stages,)
    reaction: np.ndarray  # reaction matrix, shape (n_stages, n_stages)

    @property
    def h(self) -> float:
        return self.width / self.cells


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled generalized eigenproblem ``K y = E B y``.

    ``stiffness`` holds fluxes plus box-weighted reaction terms; ``mass`` is
    the diagonal box-size vector.  For scalar layouts the stiffness is exactly
    symmetric.  Unknown ordering is node-major (stage index fastest).
    """

    stiffness: sparse.csr_matrix
    mass: np.ndarray
    x: np.ndarray
    n_stages: int
    bc: BoundaryCondition
    level: int

    @property
    def n_unknowns(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.x)

    def symmetric_form(self) -> sparse.csr_matrix:
        """Similarity-transformed symmetric matrix (same spectrum as B^-1 K)."""
        w = 1.0 / np.sqrt(self.mass)
        return sparse.diags(w) @ self.stiffness @ sparse.diags(w)

    def gershgorin_upper(self) -> float:
        """Upper bound on real parts of eigenvalues of ``B^-1 K``."""
        K = self.stiffness.tocsr()
        absK = abs(K)
        radii = np.asarray(absK.sum(axis=1)).ravel() - np.abs(K.diagonal())
        return float(((K.diagonal() + radii) / self.mass).max())


def _zone_sequence(layout: PatchLayout) -> list[tuple[float, np.ndarray, np.ndarray]]:
    def unpack(zone):
        if isinstance(zone, ScalarZone):
            return np.array([zone.diffusion]), np.array([[zone.growth]])
        return zone.diffusion_diag, zone.reaction

    a_ben, m_ben = unpack(layout.beneficial)
    a_nb, m_nb = unpack(layout.control)
    pair = []
    if layout.R > 0:
        pair.append((layout.R, a_ben, m_ben))
    if layout.r > 0:
        pair.append((layout.r, a_nb, m_nb))
    reps = int(layout.K) if layout.bc is BoundaryCondition.PERIODIC else 1
    return pair * reps


def _zone_cells(layout: PatchLayout, grid: GridSpec, level: int) -> list[_ZoneCells]:
    factor = 2**level
    out = []
    for width, diff, reac in _zone_sequence(layout):
        base = max(grid.min_cells_per_zone, int(round(width * grid.cells_per_unit_length)))
        out.append(_ZoneCells(width=width, cells=base * factor, diffusion=diff, reaction=reac))
    return out


def assemble(layout: PatchLayout, grid: GridSpec, level: int = 0) -> DiscreteOperator:
    """Divergence-form discretization of the layout at one refinement level.

    Node ``i`` receives ``(a_{i+1/2}(y_{i+1}-y_i)/h_R - a_{i-1/2}(y_i-y_{i-1})/h_L)
    / box_i + mean(reaction of the two adjacent cells) * y_i``, with half boxes
    at reflecting ends and interior-only unknowns for absorbing ends.
    """
    validate_layout(layout)
    zones = _zone_cells(layout, grid, level)
    if not zones:
        raise ValueError("layout has no zones of positive width")
    n_stages = zones[0].diffusion.shape[0]

    # Per-cell arrays in spatial order.
    h = np.concatenate([np.full(z.cells, z.h) for z in zones])
    a_cell = np.vstack([np.tile(z.diffusion, (z.cells, 1)) for z in zones])
    m_cell = np.concatenate([np.tile(z.reaction, (z.cells, 1, 1)) for z in zones])
    n_cells = len(h)
    x_all = np.concatenate([[0.0], np.cumsum(h)])

    periodic = layout.bc is BoundaryCondition.PERIODIC
    if periodic:
        nodes = np.arange(n_cells)  # node n_cells is identified with node 0
        x = x_all[:-1]
    elif layout.bc is BoundaryCondition.DIRICHLET:
        nodes = np.arange(1, n_cells)
        x = x_all[1:-1]
    else:
        nodes = np.arange(0, n_cells + 1)
        x = x_all

    n_nodes = len(nodes)

    # With one cell padded at each end, node k has left cell k and right cell k + 1.
    w_cell = a_cell / h[:, None]
    h_pad, w_pad, m_pad = (_pad_ends(v, periodic) for v in (h, w_cell, m_cell))
    box = h_pad[nodes] / 2 + h_pad[nodes + 1] / 2
    n_adj = 2 if periodic else 2 - (nodes == 0) - (nodes == n_cells)
    reac = (m_pad[nodes] + m_pad[nodes + 1]) / np.reshape(n_adj, (-1, 1, 1))
    w_l, w_r = w_pad[nodes], w_pad[nodes + 1]
    diag = -w_l - w_r
    mass = np.repeat(box, n_stages)

    # Triplets grouped by kind; within each row they keep the per-node order
    # (left flux, right flux, diagonal, reaction), so summing duplicates adds
    # them in that order too.
    i = np.arange(n_nodes)
    row = i[:, None] * n_stages + np.arange(n_stages)
    col_l = row[(i - 1) % n_nodes]
    col_r = row[(i + 1) % n_nodes]
    has_l = periodic | (i > 0)  # the neighbour is an unknown
    has_r = periodic | (i < n_nodes - 1)
    block = box[:, None, None] * reac
    nz = block != 0.0
    rows = np.concatenate([
        row[has_l].ravel(), row[has_r].ravel(), row.ravel(),
        np.broadcast_to(row[:, :, None], block.shape)[nz],
    ])
    cols = np.concatenate([
        col_l[has_l].ravel(), col_r[has_r].ravel(), row.ravel(),
        np.broadcast_to(row[:, None, :], block.shape)[nz],
    ])
    data = np.concatenate([w_l[has_l].ravel(), w_r[has_r].ravel(), diag.ravel(), block[nz]])

    K = sparse.coo_matrix(
        (data, (rows, cols)), shape=(n_nodes * n_stages, n_nodes * n_stages)
    ).tocsr()
    K.sum_duplicates()
    return DiscreteOperator(
        stiffness=K,
        mass=mass,
        x=x,
        n_stages=n_stages,
        bc=layout.bc,
        level=level,
    )


def _pad_ends(v: np.ndarray, periodic: bool) -> np.ndarray:
    """``v`` with one cell added at each end: the wrap-around cells on a ring, zeros otherwise."""
    if periodic:
        return np.concatenate([v[-1:], v, v[:1]])
    zero = np.zeros_like(v[:1])
    return np.concatenate([zero, v, zero])


# ---------------------------------------------------------------------------
# Eigenvalue extraction
# ---------------------------------------------------------------------------

def _scalar_top_eigenvalue(op: DiscreteOperator, layout: PatchLayout, grid: GridSpec) -> float:
    """Top eigenvalue of ``B^-1 K`` for a scalar layout, by one tridiagonal solve.

    On a ring the mirror ``i -> c - i`` about the middle of the first zone (of
    ``c`` cells) is a symmetry, and the top eigenvector, the positive Perron
    vector, is even under it.  One unit vector per orbit folds the ring onto
    the path between the two fixed points: entry ``(o, o')`` is
    ``sqrt(|o|/|o'|)`` times a representative's row summed over orbit ``o'``,
    each stored entry once (a two-node ring merges its two edges into one).
    """
    K, w = op.stiffness, 1.0 / np.sqrt(op.mass)
    n = K.shape[0]
    c, lo, hi = 0, 0, n - 1  # off a ring every node is its own orbit
    if op.bc is BoundaryCondition.PERIODIC:
        c = _zone_cells(layout, grid, op.level)[0].cells
        lo, hi = (c + 1) // 2, (c + n) // 2
    q = (np.arange(n) - lo) % n + lo
    orbit = np.where(q > hi, c + n - q, q) - lo  # path position of each node's orbit
    size = np.bincount(orbit)
    m = len(size)
    rows = K[np.arange(lo, hi + 1) % n].tocoo()
    i, j = rows.row, orbit[rows.col]
    v = rows.data * w[(rows.row + lo) % n] * w[rows.col] * np.sqrt(size[i] / size[j])
    d = np.bincount(i[j == i], v[j == i], minlength=m)
    e = np.bincount(i[j > i], v[j > i], minlength=m)[: m - 1]
    return float(eigvalsh_tridiagonal(d, e, select="i", select_range=(m - 1, m - 1))[0])


def _staged_rightmost_eigenvalue(op: DiscreteOperator) -> tuple[float, str]:
    """Rightmost eigenvalue of ``B^-1 K``, dense below 200 unknowns, else by
    shift-invert Arnoldi; ``NoConvergenceError`` unless it is real and converged.

    With the shift above the Gershgorin bound, the eigenvalue of the inverted
    operator largest in magnitude is exactly the rightmost one (any imaginary
    part only increases the distance to the shift).
    """
    K = op.stiffness.tocsc()
    B = op.mass
    n = K.shape[0]

    if n < 200:
        vals = np.linalg.eigvals(K.toarray() / B[:, None])
        theta, path = complex(vals[np.argmax(vals.real)]), "dense"
    else:
        # B is diagonal: the standard problem for B^-1 K (row i of K over B_i;
        # the CSC indices are row numbers) needs no mass-matrix products.
        try:
            vals, vecs = sparse.linalg.eigs(
                sparse.csc_matrix((K.data / B[K.indices], K.indices, K.indptr), shape=K.shape),
                k=1,
                sigma=op.gershgorin_upper() + 1.0,
                which="LM",
                v0=np.ones(n),
                ncv=min(n - 2, 20),
                maxiter=1000,
            )
        except (sparse.linalg.ArpackNoConvergence, sparse.linalg.ArpackError, RuntimeError) as exc:
            raise NoConvergenceError(f"shift-invert Arnoldi failed: {exc}") from exc
        theta, path, v = complex(vals[0]), "shift-invert-arnoldi", vecs[:, 0]
        Kv, Bv = K @ v, B * v
        res = float(np.linalg.norm(Kv - theta * Bv))
        if not res <= 1e-6 * (float(np.linalg.norm(Kv)) + abs(theta) * float(np.linalg.norm(Bv)) + 1e-300):
            raise NoConvergenceError(f"shift-invert Arnoldi residual {res:.3g} is too large")
    if abs(theta.imag) > 1e-8 * (1.0 + abs(theta.real)):
        raise NoConvergenceError(f"rightmost eigenvalue {theta:.6g} is complex (non-cooperative stages)")
    return theta.real, path


def _top_eigenvalue_level(layout: PatchLayout, grid: GridSpec, level: int) -> tuple[float, str]:
    """Top eigenvalue at one refinement level.

    A scalar ring of ``K`` periods is solved on one period, as its top
    eigenvector, the positive Perron vector, repeats every period.
    """
    if layout.is_scalar:
        op = assemble(replace(validate_layout(layout), K=1), grid, level)
        return _scalar_top_eigenvalue(op, layout, grid), "symmetric"
    return _staged_rightmost_eigenvalue(assemble(layout, grid, level))


def top_eigenvalue_fd(layout: PatchLayout, grid: GridSpec | None = None) -> SpectralReport:
    """Top eigenvalue with a Richardson error estimate from the finest grid pair.

    The reported value is the 2nd-order Richardson extrapolation of the two
    finest levels; ``error_estimate`` is their raw difference ``|E(h)-E(h/2)|``.
    """
    grid = grid or GridSpec()
    values = []
    how = ""
    for level in range(grid.refinement_levels):
        val, how = _top_eigenvalue_level(layout, grid, level)
        values.append(val)
    e_coarse, e_fine = values[-2], values[-1]
    extrapolated = e_fine + (e_fine - e_coarse) / 3.0
    return SpectralReport(
        top_eigenvalue=float(extrapolated),
        method=SpectralMethod.FINITE_DIFFERENCE,
        error_estimate=abs(e_fine - e_coarse),
        grid_or_step=(
            f"cells/unit={grid.cells_per_unit_length:g}x2^{grid.refinement_levels - 1},{how}"
        ),
    )


def refinement_history(layout: PatchLayout, grid: GridSpec) -> list[float]:
    """Per-level top eigenvalues (for convergence-order diagnostics)."""
    return [_top_eigenvalue_level(layout, grid, lvl)[0] for lvl in range(grid.refinement_levels)]


def verdict_fd(layout: PatchLayout, grid: GridSpec | None = None) -> Verdict:
    """Verdict from the sign of the finite-difference top eigenvalue.

    The marginal band is ten times the Richardson error estimate; the margin
    is the negated eigenvalue so that positive margin means eradication.
    """
    report = top_eigenvalue_fd(layout, grid)
    return Verdict.from_margin(
        -report.top_eigenvalue,
        "fd-top-eigenvalue-sign",
        marginal_tol=10.0 * report.error_estimate,
    )


# ---------------------------------------------------------------------------
# Oracle-adjudicated inverse design (Brent's method on the eigenvalue's sign change)
# ---------------------------------------------------------------------------


def _first_eradicating(layout: PatchLayout, grid: GridSpec | None, with_value, cap: float, what: str) -> float:
    """Smallest ``x`` in ``[0, cap]`` at which the oracle top eigenvalue of the
    scalar layout ``with_value(x)`` is nonpositive."""
    if not layout.is_scalar:
        raise ValueError(f"oracle {what} search supports scalar layouts only")
    grid = grid or GridSpec()

    def top(x: float) -> float:
        return top_eigenvalue_fd(with_value(x), grid).top_eigenvalue

    if top(0.0) <= 0:
        return 0.0
    failure = NoConvergenceError(f"no eradicating {what} below {cap:g} (oracle)")
    return expanding_root(lambda x: -top(x), cap, failure, xtol=1e-9, rtol=1e-5)


def _with_control_mortality(layout: PatchLayout, mu: float) -> PatchLayout:
    return replace(layout, control=replace(layout.control, growth=-mu))


def min_mortality_fd(layout: PatchLayout, grid: GridSpec | None = None) -> float:
    """Smallest scalar control mortality with a nonpositive oracle top eigenvalue."""
    return _first_eradicating(layout, grid, partial(_with_control_mortality, layout), 1e12, "mortality")


def min_zone_width_fd(layout: PatchLayout, grid: GridSpec | None = None) -> float:
    """Smallest scalar control-zone width with a nonpositive oracle top eigenvalue."""
    return _first_eradicating(layout, grid, lambda r: replace(layout, r=r), 1e3, "width")
