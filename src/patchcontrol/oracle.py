"""Finite-difference spectral oracle for the patchy diffusion operator.

Discretizes the operator in divergence form on a grid whose nodes coincide with the zone interfaces,
so the flux-continuity gluing condition ``a y'_ben = b y'_nb`` is structural rather than an extra
constraint row.  Each zone gets its own uniform spacing (integer cell counts per zone at every
refinement level), so the scheme is stated once per run of identical nodes: zone interiors,
interfaces, reflecting ends and a ring's wrap node.

The problem is generalized, ``K y = E B y`` with diagonal mass ``B`` (half boxes at reflecting
ends) and box-weighted reaction masses.  Every zone is read through its ``diffusion_diag`` and
``reaction``, a scalar zone as the one-stage system, and the solver follows the stage count.
One-stage levels assemble no matrix: the bands of the symmetric tridiagonal ``B^-1/2 K B^-1/2`` are
computed per run and repeated (a ring's on its reflecting half-period of widths ``R/2``, ``r/2``,
the reduction behind the tan(R/2)/tanh(r/2) criterion, exact for the whole ring's grid when its
zones have even cell counts), and tridiagonal bisection gives the top eigenvalue: by index on the
coarsest level, and on each finer level in a window from the coarser level's value up to the
largest growth.  Levels of two or more stages are block-coupled and nonsymmetric; cooperative
(Metzler) rings are cut to the same half-period.  These levels and the simulator expand ``K`` per
node into one table of rows, ``2 n_stages + 1`` entries about the diagonal, that feeds both matrix
formats.  A cooperative level with irreducible stage coupling reads it as a LAPACK band, and inverse
iteration on its band LU brackets the top (Collatz-Wielandt).  Other levels, and the simulator, read
it as CSR; shift-invert Arnoldi, shifted above the zones' growth bound, takes more eigenvalues until
none can hide right of the rightmost found (no fallback), and refuses levels below 3 unknowns with
``GridTooSmall``.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import eigsh, splu  # noqa: F401  (eigsh, splu: looked up here by the benchmark tracer)

from .linalg import expanding_root
from .model import (
    BoundaryCondition,
    LayoutError,
    PatchLayout,
    ScalarZone,
    SpectralMethod,
    SpectralReport,
    Verdict,
    stage_coupling,
    validate_layout,
)


# Most unknowns (cells times stages) of a level that is built: past it the arrays would need gigabytes.
_MAX_UNKNOWNS = 2**22


class NoConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution: cells per unit length, per-zone minimum, refinement depth."""

    cells_per_unit_length: float = 64
    refinement_levels: int = 3
    min_cells_per_zone: int = 16

    def __post_init__(self):
        cells = self.cells_per_unit_length  # the chained comparison is exact: nan and huge integers fail it
        if isinstance(cells, bool) or not isinstance(cells, numbers.Real) or not 0 < cells <= sys.float_info.max:
            raise ValueError("cells_per_unit_length must be a finite real number > 0")
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

    ``stiffness`` holds fluxes plus box-weighted reaction terms, the rows of
    ``_node_coefficients`` as CSR with every diagonal stored; ``mass`` is the
    diagonal box-size vector.  For one-stage layouts the stiffness is exactly
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


def _zone_cells(layout: PatchLayout, grid: GridSpec, level: int) -> list[_ZoneCells]:
    """The zones in spatial order (``K`` pairs on a ring) with their cell counts at ``level``."""
    pair = [(layout.R, layout.beneficial)]  # R > 0 on a validated layout
    if layout.r > 0:
        pair.append((layout.r, layout.control))
    reps = int(layout.K) if layout.bc is BoundaryCondition.PERIODIC else 1
    cells = [max(grid.min_cells_per_zone, int(round(w * grid.cells_per_unit_length))) * 2**level for w, _ in pair]
    if sum(cells) * reps * layout.dimension > _MAX_UNKNOWNS:  # cells x stages
        raise LayoutError("GridTooLarge", f"level {level} would have more than {_MAX_UNKNOWNS} unknowns")
    return [_ZoneCells(width=width, cells=n, diffusion=z.diffusion_diag, reaction=z.reaction)
            for (width, z), n in zip(pair, cells)] * reps


def _node_runs(layout: PatchLayout, zones) -> list[tuple]:
    """The scheme's node rule, stated once per run of identical nodes, in spatial order.

    Node ``i`` receives ``(w_r (y_{i+1}-y_i) - w_l (y_i-y_{i-1}) + mass y_i) / box``: ``w = a / h``
    of the cell on each side, ``box`` half of each and ``mass = h_l/2 m_l + h_r/2 m_r`` the reaction
    over those halves (midpoint quadrature: second order also where the spacing changes).  A
    reflecting end has a zero pad cell beyond it, an absorbing end no unknown.  The runs ``(count,
    w_l, w_r, box, mass)`` are zone interiors, interfaces, reflecting ends and a ring's wrap node
    (the last zone to its left); ``zones`` holds ``(cells, h, a, m)`` per zone of ``_zone_cells``."""
    cells = [(n - 1, h, a / h, m) for n, h, a, m in zones]
    if layout.bc is BoundaryCondition.PERIODIC:
        cells.insert(0, (0, *cells[-1][1:]))
    elif layout.bc is BoundaryCondition.NEUMANN:
        pad = (0, 0.0, np.zeros_like(cells[0][2]), np.zeros_like(cells[0][3]))
        cells = [pad, *cells, pad]
    runs = []
    for i, (count, h, w, m) in enumerate(cells):
        if i:
            _, h_l, w_l, m_l = cells[i - 1]
            runs.append((1, w_l, w, h_l / 2 + h / 2, h_l / 2 * m_l + h / 2 * m))
        if count:
            runs.append((count, w, w, h, h * m))
    return runs


def _node_coefficients(layout: PatchLayout, grid: GridSpec, level: int):
    """``(x, B, rows)`` per unknown, node-major, from the runs of ``_node_runs`` repeated: the nodes,
    the diagonal mass, and row ``p`` of ``K`` at columns ``p - s .. p + s`` for ``s`` stages.  Its
    diagonal is the summed flux, then the reaction; off a ring an end node's outer neighbour is zero."""
    zones = _zone_cells(layout, grid, level)
    runs = _node_runs(layout, [(z.cells, z.h, z.diffusion, z.reaction) for z in zones])
    counts = np.array([run[0] for run in runs], dtype=np.intp)
    box, w_l, w_r, block = (np.repeat(np.array([run[k] for run in runs]), counts, axis=0) for k in (3, 1, 2, 4))
    x = np.concatenate([[0.0], np.cumsum(np.repeat([z.h for z in zones], [z.cells for z in zones]))])
    first = 1 if layout.bc is BoundaryCondition.DIRICHLET else 0  # a ring's last node is its first
    n_nodes, s = w_l.shape
    stage = np.arange(s)
    rows = np.zeros((n_nodes, s, 2 * s + 1))
    rows[:, stage[:, None], s - stage[:, None] + stage] = block
    rows[:, stage, s] = (-w_l - w_r) + block[:, stage, stage]
    rows[:, :, 0], rows[:, :, 2 * s] = w_l, w_r
    if layout.bc is not BoundaryCondition.PERIODIC:  # an end node's outer neighbour is no unknown
        rows[0, :, 0] = rows[-1, :, 2 * s] = 0.0
    return x[first : first + n_nodes], np.repeat(box, s), rows.reshape(-1, 2 * s + 1)


def assemble(layout: PatchLayout, grid: GridSpec, level: int = 0) -> DiscreteOperator:
    """Divergence-form discretization of the layout at one refinement level: the rows of
    ``_node_coefficients`` (the scheme is written out in ``_node_runs``) written as CSR."""
    validate_layout(layout)
    x, mass, rows = _node_coefficients(layout, grid, level)
    n, s = len(mass), layout.dimension
    keep = rows != 0.0
    keep[:, s] = True  # every row stores its diagonal, also where flux and reaction cancel
    cols = (np.arange(n)[:, None] + np.arange(-s, s + 1))[keep] % n  # a ring's columns wrap
    K = sparse.csr_matrix((rows[keep], cols, np.append(0, np.cumsum(keep.sum(axis=1)))), shape=(n, n))
    K.sum_duplicates()  # sorts a ring's wrapped columns; a two-node ring's neighbours are one node
    return DiscreteOperator(stiffness=K, mass=mass, x=x, n_stages=s)


# ---------------------------------------------------------------------------
# Eigenvalue extraction
# ---------------------------------------------------------------------------

def _scalar_bands(layout: PatchLayout, grid: GridSpec, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Bands ``(d, e)`` of ``B^-1/2 K B^-1/2`` for a one-stage layout off a ring, its diagonal and
    superdiagonal, computed per run of ``_node_runs`` and repeated, without assembling ``K``."""
    # numpy scalars: a width whose cells underflow gives inf and a warning, as arrays do
    zones = [(z.cells, np.float64(z.h), float(z.diffusion[0]), float(z.reaction[0, 0]))
             for z in _zone_cells(layout, grid, level)]
    runs = _node_runs(layout, zones)
    counts = [run[0] for run in runs]
    w = [1.0 / np.sqrt(box) for _, _, _, box, _ in runs]
    d = np.repeat([((-w_l - w_r) + mass) * wj * wj for (_, w_l, w_r, _, mass), wj in zip(runs, w)], counts)
    # a run of k nodes has k - 1 couplings inside and 1 onward, the last run none (its count is 0)
    onward = [*w[1:], w[-1]]
    e = np.repeat([w_r * wj * wt for (_, _, w_r, _, _), wj, wn in zip(runs, w, onward) for wt in (wj, wn)],
                  [*[r for k in counts for r in (k - 1, 1)][:-1], 0])
    return d, e


def _growth_bound(layout: PatchLayout) -> float:
    """Largest Gershgorin row bound ``M_ss + sum_{j != s} |M_sj|`` of the two zones' reaction
    matrices, a scalar zone's growth.  It bounds the real part of every eigenvalue of ``B^-1 K`` at
    every level: in a node's centre plus radius the fluxes cancel (a Dirichlet node loses the outer
    one), and its reaction mass over its box is a convex combination of the two zones' rows."""
    def row_bound(m) -> float:
        return float((np.diag(m) + np.abs(m - np.diag(np.diag(m))).sum(axis=1)).max())
    return max(row_bound(layout.beneficial.reaction), row_bound(layout.control.reaction))


def _imag_bound(layout: PatchLayout) -> float:
    """Largest 2-norm of the two zones' skew parts ``(M - M^T) / 2``.  The fluxes are symmetric, so the
    skew part of ``B^-1/2 K B^-1/2`` is per node a convex combination of these, and by Bendixson's
    theorem it bounds the imaginary part of every eigenvalue of ``B^-1 K`` at every level."""
    return max(float(np.linalg.norm(z.reaction - z.reaction.T, 2)) / 2 for z in (layout.beneficial, layout.control))


def _staged_band(layout: PatchLayout, grid: GridSpec, level: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``(band, B, |B^-1 K|_inf)`` of a staged line: ``-K`` as a ``dgbtrf`` band, node-major, ``kl = ku = n_stages``."""
    (_, mass, rows), s = _node_coefficients(layout, grid, level), layout.dimension
    n = len(mass)
    band = np.zeros((3 * s + 1, n))
    for d in range(2 * s + 1):  # entries (p, p + d - s) of K, in band row 3s - d
        band[3 * s - d, max(d - s, 0) : n + min(d - s, 0)] = -rows[max(s - d, 0) : n - max(d - s, 0), d]
    return band, mass, float((np.abs(rows).sum(axis=1) / mass).max())


def _perron_bracket(layout: PatchLayout, grid: GridSpec, level: int) -> tuple[float, str]:
    """Top of a cooperative, irreducible staged line by inverse iteration ``w = (sigma B - K)^-1 B v`` from ``v = 1``:
    a positive ``w`` proves ``sigma`` above the top, in ``[sigma - 1/min(w/v), sigma - 1/max(w/v)]`` (Collatz-Wielandt).
    ``sigma`` starts at ``_growth_bound + 1`` and drops to 1 width above the bracket when over 4 above; the midpoint
    is returned at width ``4 eps |B^-1 K|_inf``.  A singular factor, a non-positive ``w`` or 100 solves raise."""
    (band, mass, scale), s = _staged_band(layout, grid, level), layout.dimension
    sigma, lu, v = _growth_bound(layout) + 1.0, None, np.ones(len(mass))
    for _ in range(100):
        if lu is None:
            lu, piv, info = dgbtrf(np.vstack([band[: 2 * s], band[2 * s] + sigma * mass, band[2 * s + 1 :]]), s, s)
            if info:
                raise NoConvergenceError(f"banded factor of sigma B - K is singular at sigma = {sigma:.6g}")
        w, _ = dgbtrs(lu, s, s, mass * v, piv)
        if not w.min() > 0:
            raise NoConvergenceError(f"inverse iterate is not positive at sigma = {sigma:.6g}")
        lo, hi = sigma - 1.0 / np.min(w / v), sigma - 1.0 / np.max(w / v)
        if hi - lo <= 4 * np.finfo(float).eps * scale:
            return float(lo + hi) / 2, "perron-bracket"
        if sigma - hi > 4 * (hi - lo):
            sigma, lu = hi + (hi - lo), None
        v = w / w.max()
    raise NoConvergenceError(f"Perron bracket [{lo:.6g}, {hi:.6g}] did not close in 100 solves")


def _staged_rightmost_eigenvalue(op: DiscreteOperator, sigma: float, imag: float) -> tuple[float, str]:
    """Rightmost eigenvalue of ``B^-1 K`` by shift-invert Arnoldi at ``sigma``, above every real part,
    on non-cooperative and reducible levels.  Of the ``k`` eigenvalues nearest ``sigma``, ``theta`` is
    the rightmost.  A real one right of it would be nearer and found; a complex one lies within
    ``hypot(sigma - theta, imag)``, ``imag`` bounding the imaginary parts (0 on a Metzler level, whose
    rightmost eigenvalue is real).  So ``k`` grows 4-fold, to at most 64, until the farthest found is
    that far, or to ``n - 2`` (ARPACK's most), where the trace gives the mean of the two left out.
    ``NoConvergenceError`` unless then ``theta`` is real with backward error ``|Kv - theta Bv| /
    ((|K|_1 + |theta| max B) |v|)`` at most 1e-6.  ``min(n, max(20, 2k + 1))`` Krylov vectors span the
    whole space below 21 unknowns, so the Ritz values are exact there; ARPACK needs 3 unknowns (else
    ``GridTooSmall``)."""
    K, B, n = op.stiffness.tocsc(), op.mass, op.n_unknowns
    if n < 3:
        raise LayoutError("GridTooSmall", f"a staged level needs at least 3 unknowns, this one has {n}")
    # B is diagonal: the standard problem for B^-1 K (row i of K over B_i;
    # the CSC indices are row numbers) needs no mass-matrix products.
    A = sparse.csc_matrix((K.data / B[K.indices], K.indices, K.indptr), shape=K.shape)
    k = 1
    while True:
        try:
            vals, vecs = sparse.linalg.eigs(
                A, k=k, sigma=sigma, which="LM", v0=np.ones(n), ncv=min(n, max(20, 2 * k + 1)), maxiter=1000
            )
        except (sparse.linalg.ArpackNoConvergence, sparse.linalg.ArpackError, RuntimeError) as exc:
            raise NoConvergenceError(f"shift-invert Arnoldi failed: {exc}") from exc
        top = int(np.argmax(vals.real))
        theta, v = complex(vals[top]), vecs[:, top]
        pair = abs(theta.imag) > 1e-8 * (1.0 + abs(theta.real))
        if pair or np.abs(sigma - vals).max() >= np.hypot(sigma - theta.real, imag):
            break
        if k == n - 2:
            mean = float((A.diagonal().sum() - vals.sum()).real) / 2
            if mean <= theta.real + 1e-12 * abs(A).max():
                break
            raise NoConvergenceError(f"rightmost eigenvalues are a complex pair of real part {mean:.6g}")
        if k == 64:
            raise NoConvergenceError(f"64 eigenvalues nearest the shift cannot rule out one right of {theta.real:.6g}")
        k = min(4 * k, n - 2, 64)
    res = float(np.linalg.norm(K @ v - theta * (B * v)))
    norm1 = float(np.add.reduceat(np.abs(K.data), K.indptr[:-1]).max())  # every column holds its diagonal
    scale = (norm1 + abs(theta) * float(B.max())) * float(np.linalg.norm(v))
    if not res <= 1e-6 * scale:
        raise NoConvergenceError(f"shift-invert Arnoldi backward error {res / scale:.3g} is too large")
    if pair:
        raise NoConvergenceError(f"rightmost eigenvalue {theta:.6g} is complex (non-cooperative stages)")
    return theta.real, "shift-invert-arnoldi"


def _top_eigenvalue_level(
    layout: PatchLayout, grid: GridSpec, level: int, near: float | None = None
) -> tuple[float, str]:
    """Top eigenvalue at one refinement level; ``near`` is the coarser level's value.

    A cooperative ring of ``K`` periods (``stage_coupling`` Metzler on the zones present: the control
    zone if ``r > 0``) is solved on one half-period with reflecting ends, widths ``R/2``, ``r/2`` and half
    the per-zone cell floor: ``B^-1 K`` is Metzler, so its rightmost eigenvalue has a nonnegative
    eigenvector, and averaging that over the ring's translations and mirrors gives one that repeats every
    period and is even about each zone's middle.  Other rings stay whole: their growing mode can span two
    periods.  A staged level that is also irreducible is bracketed by ``_perron_bracket``, others go to
    Arnoldi.  A one-stage level is bisected by index, or with ``near`` in the window ``(near - delta,
    upper]`` below the ``_growth_bound`` (padded for Sturm-count rounding); ``delta`` grows 16-fold while
    the window is empty, and once it holds the whole spectrum, an empty window raises ``NoConvergenceError``.
    """
    layout = validate_layout(layout)
    present = layout.control if layout.r > 0 else layout.beneficial  # the control zone counts where it has cells
    metzler, irreducible = (True, True) if layout.dimension == 1 else stage_coupling(
        layout.beneficial.reaction, present.reaction)
    if layout.bc is BoundaryCondition.PERIODIC and metzler:
        layout = replace(layout, R=layout.R / 2, r=layout.r / 2, K=1, bc=BoundaryCondition.NEUMANN)
        grid = replace(grid, min_cells_per_zone=max(2, grid.min_cells_per_zone // 2))
    if layout.dimension > 1 and metzler and irreducible:
        return _perron_bracket(layout, grid, level)
    if layout.dimension > 1:
        imag = 0.0 if metzler else _imag_bound(layout)
        return _staged_rightmost_eigenvalue(assemble(layout, grid, level), _growth_bound(layout) + 1.0, imag)
    d, e = _scalar_bands(layout, grid, level)
    try:  # LAPACK's bisection can fail on finite bands near the float range, as ARPACK can
        if near is None:
            top = len(d) - 1
            return float(eigvalsh_tridiagonal(d, e, select="i", select_range=(top, top))[0]), "symmetric"
        upper = _growth_bound(layout) + 1e-12 * float(np.abs(d).max())
        delta = 1e-6 * (1.0 + abs(near))
        while True:
            vals = eigvalsh_tridiagonal(d, e, select="v", select_range=(near - delta, upper))
            if len(vals):
                return float(vals[-1]), "symmetric"
            radius = np.abs(np.append(e, 0.0)) + np.abs(np.insert(e, 0, 0.0))
            if near - delta < (d - radius).min():
                raise NoConvergenceError(f"no eigenvalue below the growth bound {upper:.6g}")
            delta *= 16.0
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"tridiagonal bisection failed: {exc}") from exc


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
        grid_or_step=f"cells/unit={float(grid.cells_per_unit_length):g}x2^{grid.refinement_levels - 1},{how}",
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
    failure = NoConvergenceError(f"no eradicating {what} below {cap:g} (oracle)")
    return expanding_root(lambda x: -top_eigenvalue_fd(with_value(x), grid).top_eigenvalue, cap, failure,
                          xtol=1e-9, rtol=1e-5, start=guess)


def _with_control_mortality(layout: PatchLayout, mu: float) -> PatchLayout:
    """The one-stage ``layout`` at control mortality ``mu``: both zones ``ScalarZone``, built from their view."""
    ben, ctl = (ScalarZone(float(z.diffusion_diag[0]), float(z.reaction[0, 0])) for z in (layout.beneficial, layout.control))
    return replace(layout, beneficial=ben, control=replace(ctl, growth=-mu))


def min_mortality_fd(layout: PatchLayout, grid: GridSpec | None = None, guess: float | None = None) -> float:
    """Smallest scalar control mortality with a nonpositive oracle top eigenvalue, searched from ``guess`` if given."""
    return _first_eradicating(layout, grid, lambda mu: _with_control_mortality(layout, mu), 1e12, "mortality", guess)


def min_zone_width_fd(layout: PatchLayout, grid: GridSpec | None = None, guess: float | None = None) -> float:
    """Smallest scalar control-zone width with a nonpositive oracle top eigenvalue, searched from ``guess`` if given."""
    return _first_eradicating(layout, grid, lambda r: replace(layout, r=r), 1e3, "width", guess)
