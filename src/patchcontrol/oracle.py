"""Finite-difference spectral oracle for the patchy diffusion operator.

Discretizes the operator in divergence form on a grid whose nodes coincide
with the zone interfaces, so the flux-continuity gluing condition
``a y'_ben = b y'_nb`` is structural rather than an extra constraint row.
Each zone gets its own uniform spacing (integer cell counts per zone at every
refinement level).

The problem is generalized, ``K y = E B y`` with diagonal mass ``B`` (half
boxes at reflecting ends).  Scalar levels assemble no matrix: the bands of the
symmetric tridiagonal ``B^-1/2 K B^-1/2`` are built straight from the per-node
coefficients (on a ring, of one period folded onto half a period, the discrete
half-period reduction behind the tan(R/2)/tanh(r/2) criterion), and tridiagonal
bisection gives the top eigenvalue: by index on the coarsest level, and on each
finer level in a window from the coarser level's value up to the largest growth.
Staged levels and the simulator assemble ``K`` as CSR.  Staged systems are
block-coupled and nonsymmetric and are solved on the whole ring; their
rightmost eigenvalue is found densely for small systems and otherwise by
shift-invert Arnoldi on ``B^-1 K`` with 20 Krylov vectors and the shift above
the Gershgorin bound, with no fallback.
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

    @property
    def n_unknowns(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.x)

    def gershgorin_upper(self) -> float:
        """Upper bound on real parts of eigenvalues of ``B^-1 K``."""
        K = self.stiffness.tocsr()
        absK = abs(K)
        radii = np.asarray(absK.sum(axis=1)).ravel() - np.abs(K.diagonal())
        return float(((K.diagonal() + radii) / self.mass).max())


def _zone_cells(layout: PatchLayout, grid: GridSpec, level: int) -> list[_ZoneCells]:
    """The zones in spatial order (``K`` pairs on a ring) with their cell counts at ``level``."""
    def unpack(zone):
        if isinstance(zone, ScalarZone):
            return np.array([zone.diffusion]), np.array([[zone.growth]])
        return zone.diffusion_diag, zone.reaction

    pair = [(layout.R, *unpack(layout.beneficial))]  # R > 0 on a validated layout
    if layout.r > 0:
        pair.append((layout.r, *unpack(layout.control)))
    reps = int(layout.K) if layout.bc is BoundaryCondition.PERIODIC else 1
    out = []
    for width, diff, reac in pair * reps:
        base = max(grid.min_cells_per_zone, int(round(width * grid.cells_per_unit_length)))
        out.append(_ZoneCells(width=width, cells=base * 2**level, diffusion=diff, reaction=reac))
    return out


def _node_coefficients(layout: PatchLayout, grid: GridSpec, level: int):
    """Per-node coefficients ``(x, box, w_l, w_r, reac)`` of the scheme, one row per unknown node.

    Node ``i`` receives ``(w_r (y_{i+1}-y_i) - w_l (y_i-y_{i-1})) / box + reac y_i``:
    ``w = a / h`` of the cell on each side (shape (n, n_stages)) and ``reac`` the mean
    reaction of the adjacent cells (shape (n, n_stages, n_stages)), with half boxes at
    reflecting ends and interior-only unknowns for absorbing ends.
    """
    zones = _zone_cells(layout, grid, level)

    # Per-cell arrays in spatial order, indexed from the per-zone ones.
    zone = np.repeat(np.arange(len(zones)), [z.cells for z in zones])
    h = np.array([z.h for z in zones])[zone]
    a_cell = np.array([z.diffusion for z in zones])[zone]
    m_cell = np.array([z.reaction for z in zones])[zone]
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

    # With one cell padded at each end, node k has left cell k and right cell k + 1.
    w_cell = a_cell / h[:, None]
    h_pad, w_pad, m_pad = (_pad_ends(v, periodic) for v in (h, w_cell, m_cell))
    box = h_pad[nodes] / 2 + h_pad[nodes + 1] / 2
    n_adj = 2 if periodic else 2 - (nodes == 0) - (nodes == n_cells)
    reac = (m_pad[nodes] + m_pad[nodes + 1]) / np.reshape(n_adj, (-1, 1, 1))
    return x, box, w_pad[nodes], w_pad[nodes + 1], reac


def assemble(layout: PatchLayout, grid: GridSpec, level: int = 0) -> DiscreteOperator:
    """Divergence-form discretization of the layout at one refinement level (the
    scheme is written out in ``_node_coefficients``)."""
    validate_layout(layout)
    x, box, w_l, w_r, reac = _node_coefficients(layout, grid, level)
    n_nodes, n_stages = w_l.shape
    periodic = layout.bc is BoundaryCondition.PERIODIC
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
    return DiscreteOperator(stiffness=K, mass=mass, x=x, n_stages=n_stages)


def _pad_ends(v: np.ndarray, periodic: bool) -> np.ndarray:
    """``v`` with one cell added at each end: the wrap-around cells on a ring, zeros otherwise."""
    if periodic:
        return np.concatenate([v[-1:], v, v[:1]])
    zero = np.zeros_like(v[:1])
    return np.concatenate([zero, v, zero])


# ---------------------------------------------------------------------------
# Eigenvalue extraction
# ---------------------------------------------------------------------------

def _scalar_bands(layout: PatchLayout, grid: GridSpec, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Bands ``(d, e)`` of a symmetric tridiagonal matrix whose top eigenvalue is that of
    ``B^-1 K`` for a scalar layout, built from the node coefficients without assembling ``K``.

    Off a ring they are the diagonal and superdiagonal of ``B^-1/2 K B^-1/2``.  On a ring
    the mirror ``i -> c - i`` about the middle of the first zone (of ``c`` cells) is a
    symmetry, and the top eigenvector, the positive Perron vector, is even under it.  One
    unit vector per orbit folds the ring onto the path between the two fixed points, nodes
    ``lo = (c+1)//2`` to ``hi = (c+n)//2``: an entry takes ``sqrt(|o|/|o'|)`` for orbit sizes
    ``|o|`` (1 at a fixed node, else 2), and the edge mirrored at an end is added to the end
    coupling (fixed node) or to the end diagonal (fixed cell midpoint).
    """
    _, box, w_l, w_r, reac = _node_coefficients(layout, grid, level)
    w_l, w_r, w = w_l[:, 0], w_r[:, 0], 1.0 / np.sqrt(box)
    n = len(box)
    c, lo, hi = 0, 0, n - 1  # off a ring the path is the whole layout
    if layout.bc is BoundaryCondition.PERIODIC:
        c = _zone_cells(layout, grid, level)[0].cells
        lo, hi = (c + 1) // 2, (c + n) // 2
    p = np.arange(lo, hi + 1) % n
    d = ((-w_l - w_r) + box * reac[:, 0, 0])[p] * w[p] * w[p]
    e = w_r[p[:-1]] * w[p[:-1]] * w[p[1:]]
    if layout.bc is BoundaryCondition.PERIODIC:
        size = np.full(len(p), 2.0)  # orbit sizes
        size[0], size[-1] = 1 + c % 2, 1 + (c + n) % 2
        e *= np.sqrt(size[:-1] / size[1:])
        mirrored = w_l[lo] * w[lo] * w[lo - 1]  # the edge (lo - 1, lo)
        if c % 2:
            d[0] += mirrored
        else:
            e[0] += mirrored * np.sqrt(size[0] / size[1])
        if (c + n) % 2:
            d[-1] += w_r[hi] * w[hi] * w[(hi + 1) % n]
    return d, e


def _staged_rightmost_eigenvalue(op: DiscreteOperator) -> tuple[float, str]:
    """Rightmost eigenvalue of ``B^-1 K``, dense below 200 unknowns, else by
    shift-invert Arnoldi; ``NoConvergenceError`` unless it is real and converged,
    that is with the pair's backward error ``|Kv - theta Bv| / ((|K|_1 + |theta| max B) |v|)``
    at most 1e-6.

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
        res = float(np.linalg.norm(K @ v - theta * (B * v)))
        norm1 = float(np.add.reduceat(np.abs(K.data), K.indptr[:-1]).max())  # every column holds its diagonal
        scale = (norm1 + abs(theta) * float(B.max())) * float(np.linalg.norm(v))
        if not res <= 1e-6 * scale:
            raise NoConvergenceError(f"shift-invert Arnoldi backward error {res / scale:.3g} is too large")
    if abs(theta.imag) > 1e-8 * (1.0 + abs(theta.real)):
        raise NoConvergenceError(f"rightmost eigenvalue {theta:.6g} is complex (non-cooperative stages)")
    return theta.real, path


def _top_eigenvalue_level(
    layout: PatchLayout, grid: GridSpec, level: int, near: float | None = None
) -> tuple[float, str]:
    """Top eigenvalue at one refinement level; ``near`` is the coarser level's value.

    A scalar ring of ``K`` periods is solved on one period, as its top
    eigenvector, the positive Perron vector, repeats every period.  A scalar
    level is bisected by index, or with ``near`` in the window
    ``(near - delta, upper]``: every Gershgorin row of ``B^-1 K`` has centre plus
    radius equal to the node's mean reaction, so the largest growth bounds the
    top (padded for Sturm-count rounding).  ``delta`` grows 16-fold while the
    window is empty; once the window holds the whole spectrum, an empty window
    raises ``NoConvergenceError``.
    """
    if not layout.is_scalar:
        return _staged_rightmost_eigenvalue(assemble(layout, grid, level))
    layout = replace(validate_layout(layout), K=1)
    d, e = _scalar_bands(layout, grid, level)
    if near is None:
        top = len(d) - 1
        return float(eigvalsh_tridiagonal(d, e, select="i", select_range=(top, top))[0]), "symmetric"
    upper = max(layout.beneficial.growth, layout.control.growth) + 1e-12 * float(np.abs(d).max())
    delta = 1e-6 * (1.0 + abs(near))
    while True:
        vals = eigvalsh_tridiagonal(d, e, select="v", select_range=(near - delta, upper))
        if len(vals):
            return float(vals[-1]), "symmetric"
        radius = np.abs(np.append(e, 0.0)) + np.abs(np.insert(e, 0, 0.0))
        if near - delta < (d - radius).min():
            raise NoConvergenceError(f"no eigenvalue below the growth bound {upper:.6g}")
        delta *= 16.0


def _level_chain(layout: PatchLayout, grid: GridSpec) -> list[tuple[float, str]]:
    """Top eigenvalue per refinement level, each level after the first windowed at the one before."""
    levels: list[tuple[float, str]] = []
    for level in range(grid.refinement_levels):
        levels.append(_top_eigenvalue_level(layout, grid, level, levels[-1][0] if levels else None))
    return levels


def top_eigenvalue_fd(layout: PatchLayout, grid: GridSpec | None = None) -> SpectralReport:
    """Top eigenvalue with a Richardson error estimate from the finest grid pair.

    The reported value is the 2nd-order Richardson extrapolation of the two
    finest levels; ``error_estimate`` is their raw difference ``|E(h)-E(h/2)|``.
    """
    grid = grid or GridSpec()
    (e_coarse, _), (e_fine, how) = _level_chain(layout, grid)[-2:]
    extrapolated = e_fine + (e_fine - e_coarse) / 3.0
    return SpectralReport(
        top_eigenvalue=float(extrapolated),
        method=SpectralMethod.FINITE_DIFFERENCE,
        error_estimate=abs(e_fine - e_coarse),
        grid_or_step=f"cells/unit={grid.cells_per_unit_length:g}x2^{grid.refinement_levels - 1},{how}",
    )


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


def _first_eradicating(layout: PatchLayout, grid: GridSpec | None, with_value, cap: float, what: str, guess) -> float:
    """Smallest ``x`` in ``[0, cap]`` at which the oracle top eigenvalue of the scalar layout
    ``with_value(x)`` is nonpositive, one FD solve per ``x``, searched from ``guess`` if given."""
    if not layout.is_scalar:
        raise ValueError(f"oracle {what} search supports scalar layouts only")
    grid = grid or GridSpec()

    def top(x: float) -> float:
        return top_eigenvalue_fd(with_value(x), grid).top_eigenvalue

    failure = NoConvergenceError(f"no eradicating {what} below {cap:g} (oracle)")
    return expanding_root(lambda x: -top(x), cap, failure, xtol=1e-9, rtol=1e-5, start=guess)


def _with_control_mortality(layout: PatchLayout, mu: float) -> PatchLayout:
    return replace(layout, control=replace(layout.control, growth=-mu))


def min_mortality_fd(layout: PatchLayout, grid: GridSpec | None = None, guess: float | None = None) -> float:
    """Smallest scalar control mortality with a nonpositive oracle top eigenvalue, searched from ``guess`` if given."""
    return _first_eradicating(layout, grid, partial(_with_control_mortality, layout), 1e12, "mortality", guess)


def min_zone_width_fd(layout: PatchLayout, grid: GridSpec | None = None, guess: float | None = None) -> float:
    """Smallest scalar control-zone width with a nonpositive oracle top eigenvalue, searched from ``guess`` if given."""
    return _first_eradicating(layout, grid, lambda r: replace(layout, r=r), 1e3, "width", guess)
