"""Finite-difference spectral oracle for the patchy diffusion operator.

Discretizes the operator in divergence form on a grid whose nodes coincide with the zone interfaces,
so the flux-continuity gluing condition ``a y'_ben = b y'_nb`` is structural rather than an extra
constraint row.  Each zone gets its own uniform spacing (integer cell counts per zone at every
refinement level), so the scheme is stated once per run of identical nodes: zone interiors,
interfaces, reflecting ends and a ring's wrap node.

The problem is generalized, ``K y = E B y`` with diagonal mass ``B`` (half boxes at reflecting
ends) and box-weighted reaction masses.  Every zone is read through its ``diffusion_diag`` and
``reaction``, a scalar zone as the one-stage system.  The oracle and the simulator expand ``K`` per
node into one table of rows, ``2 n_stages + 1`` entries about the diagonal, that feeds both matrix
formats.  ``_level_chain`` reads a layout once per chain: it validates it, reads its stage coupling and
cuts it into lines, each with its growth bound.  A cooperative (Metzler) ring, every one-stage ring
among them, is cut to its reflecting half-period of widths ``R/2``, ``r/2`` (the reduction behind the
tan(R/2)/tanh(r/2) criterion, exact for the whole ring's grid when its zones have even cell counts),
and a cooperative level is block triangular over its strongly connected stage classes, one line each,
so its top is the largest class top.  ``_perron_bracket``, a kernel on one class's LAPACK band alone,
brackets it by inverse iteration on its LU (Collatz-Wielandt): a symmetric tridiagonal LDL^T for one
stage, a band LU for more, each finer level started just above the coarser level's value.  A layout
whose stage coupling is not cooperative is refused with ``NonCooperativeStages``.  The simulator reads
the rows as CSR (``assemble``).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal  # noqa: F401  (looked up here by the benchmark tracer)
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs
from scipy.sparse.linalg import eigsh, splu  # noqa: F401  (looked up here by the benchmark tracer)

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


class _ZoneCells(NamedTuple):
    cells: int
    h: float  # cell width
    diffusion: np.ndarray  # per-stage diffusion, shape (n_stages,)
    reaction: np.ndarray  # reaction matrix, shape (n_stages, n_stages)


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
    return [_ZoneCells(n, width / n, z.diffusion_diag, z.reaction) for (width, z), n in zip(pair, cells)] * reps


def _node_runs(layout: PatchLayout, zones) -> list[tuple]:
    """The scheme's node rule, stated once per run of identical nodes, in spatial order.

    Node ``i`` receives ``(w_r (y_{i+1}-y_i) - w_l (y_i-y_{i-1}) + mass y_i) / box``: ``w = a / h``
    of the cell on each side, ``box`` half of each and ``mass = h_l/2 m_l + h_r/2 m_r`` the reaction
    over those halves (midpoint quadrature: second order also where the spacing changes).  A
    reflecting end has a zero pad cell beyond it, an absorbing end no unknown.  The runs ``(count,
    w_l, w_r, box, mass)`` are zone interiors, interfaces, reflecting ends and a ring's wrap node
    (the last zone to its left); ``zones`` are the ``(cells, h, a, m)`` of ``_zone_cells``."""
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
    runs = _node_runs(layout, zones)
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

def _growth_bound(layout: PatchLayout) -> float:
    """Largest Gershgorin row bound ``M_ss + sum_{j != s} |M_sj|`` of the two zones' reaction
    matrices, a scalar zone's growth.  It bounds the real part of every eigenvalue of ``B^-1 K`` at
    every level: in a node's centre plus radius the fluxes cancel (a Dirichlet node loses the outer
    one), and its reaction mass over its box is a convex combination of the two zones' rows."""
    def row_bound(m) -> float:
        return float((np.diag(m) + np.abs(m - np.diag(np.diag(m))).sum(axis=1)).max())
    return max(row_bound(layout.beneficial.reaction), row_bound(layout.control.reaction))


def _staged_band(layout: PatchLayout, grid: GridSpec, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(band, B, |B^-1 K| 1)`` of a line: ``-K`` as a ``dgbtrf`` band, node-major, ``kl = ku = n_stages``."""
    (_, mass, rows), s = _node_coefficients(layout, grid, level), layout.dimension
    n = len(mass)
    band, weight = np.zeros((3 * s + 1, n)), np.zeros(n)
    for d in range(2 * s + 1):  # entries (p, p + d - s) of K, in band row 3s - d
        entries = rows[max(s - d, 0) : n - max(d - s, 0), d]
        band[3 * s - d, max(d - s, 0) : n + min(d - s, 0)] = -entries
        weight[max(s - d, 0) : n - max(d - s, 0)] += np.abs(entries)
    with np.errstate(over="ignore"):  # an overflowed row weighs +inf: the stop width only if the iterate weighs it
        return band, mass, weight / mass


def _perron_bracket(band: np.ndarray, mass: np.ndarray, weight: np.ndarray, bound: float,
                    near: float | None = None) -> float:
    """Top of a cooperative, irreducible line from its band alone: ``(band, B, |B^-1 K| 1)`` of ``_staged_band``, with
    ``(len(band) - 1) // 3`` stages.  Inverse iteration ``w = (sigma B - K)^-1 B v`` from ``v = 1``: a positive ``w``
    proves ``sigma`` above the top, in ``[sigma - 1/min(w/v), sigma - 1/max(w/v)]`` (Collatz-Wielandt).  One stage
    factors the symmetric tridiagonal ``sigma B - K`` by ``dpttrf``, whose failure proves ``sigma`` at or below the top,
    more stages its band by ``dgbtrf``.  ``sigma`` starts at ``bound`` (the line's ``_growth_bound + 1``), or just above
    ``near``, the coarser level's value; a failed factor or a non-positive ``w`` there raises it to ``near + 16 (sigma -
    near)``, at most to ``bound``, and starts again.  Each bracket moves ``sigma`` toward its upper end, at most the
    bracket's width above it and at least ``64 eps live``, clear of rounding at the top; the midpoint is returned at
    width ``4 eps live``.  ``live`` is the largest row weight over the entries where the new iterate ``w`` is at least a
    thousandth of its largest: rounding in rows the Perron vector does not weigh, such as a deadly or thin control
    zone's, moves the top by far less than their size.

    Deep in a wide, deadly control zone the iterate lags far above the Perron vector, and ``min(w/v)`` there would
    hold the lower end down for hundreds of solves.  So once some ``w/v`` falls below a thousandth of the largest, the
    next solve also takes ``B v`` kept only on the entries that did not: on its solution ``x`` the entries left out give
    exactly ``sigma`` in the Collatz-Wielandt minimum, and the lower end is ``sigma - 1/min(x/v)`` over the kept ones.
    Left-out entries of ``w`` may underflow to 0; ``v`` holds them at the smallest normal float, so ``w/v`` stays
    finite.  A failure at the bound or once bracketed, a kept ratio that underflows to 0, or 100 solves raise
    ``NoConvergenceError``."""
    s, n, eps = (len(band) - 1) // 3, len(mass), np.finfo(float).eps
    tridiagonal = s == 1 and n > 1  # scipy's dpttrf refuses one unknown
    sigma = bound if near is None else min(near + 1e-3 * (1.0 + abs(near)), bound)
    v, lu, bracketed, kept = np.ones(n), None, False, None
    for _ in range(100):
        if lu is None:
            if tridiagonal:
                *lu, info = dpttrf(band[2] + sigma * mass, band[1, 1:])
            else:
                *lu, info = dgbtrf(np.vstack([band[: 2 * s], band[2 * s] + sigma * mass, band[2 * s + 1 :]]), s, s)
        if not info:
            rhs = mass * v if kept is None else np.column_stack([mass * v, mass * v * kept])
            out = dpttrs(*lu, rhs)[0] if tridiagonal else dgbtrs(lu[0], s, s, rhs, lu[1])[0]
            w, x = (out, None) if kept is None else out.T
        if info or not w.min() >= 0:  # sigma at or below the top
            if sigma == bound or bracketed:
                what = "sigma B - K is singular or indefinite" if info else "inverse iterate is not positive"
                raise NoConvergenceError(f"{what} at sigma = {sigma:.6g}")
            sigma, v, lu, kept = min(near + 16.0 * (sigma - near), bound), np.ones(n), None, None
            continue
        ratio = w / v
        least, most = ratio.min(), ratio.max()
        low = least if kept is None else (x / v)[kept].min()
        if not low > 0:
            raise NoConvergenceError(f"the Perron vector left the float range at sigma = {sigma:.6g}")
        lo, hi = sigma - 1.0 / low, sigma - 1.0 / most
        live = weight[w >= 1e-3 * w.max()].max()  # the rows the new iterate weighs
        if hi - lo <= 4 * eps * live:
            return float(lo + hi) / 2
        kept = None if least >= 1e-3 * most else ratio >= 1e-3 * most
        v, bracketed = np.maximum(w / w.max(), np.finfo(float).tiny), True
        shift = hi + max(min(hi - lo, (sigma - hi) / 8), 64 * eps * live)
        if shift < sigma:
            sigma, lu = shift, None
    raise NoConvergenceError(f"Perron bracket [{lo:.6g}, {hi:.6g}] did not close in 100 solves")


def _level_chain(layout: PatchLayout, grid: GridSpec) -> list[tuple[float, str]]:
    """Top eigenvalue per refinement level, each level after the first started near the one before.

    The layout is read once per chain: validated, ``stage_coupling`` read on the zones present (the control
    zone if ``r > 0``), cut into lines and each line's growth bound taken.  A ring of ``K`` periods is cut to
    one half-period with reflecting ends, widths ``R/2``, ``r/2`` and half the per-zone cell floor: ``B^-1 K``
    is Metzler, so averaging its nonnegative top eigenvector over the ring's translations and mirrors gives
    one that repeats every period and is even about each zone's middle.  A Metzler layout is block
    triangular over its stage classes, one line each (the layout restricted to the class's stages in both
    zones), and a level's top is the largest ``_perron_bracket`` of their bands.  A layout that is not
    Metzler is refused with ``NonCooperativeStages`` before any band is built: its rightmost eigenvalue can
    be complex, and on a ring its growing mode can span two periods.
    """
    layout = validate_layout(layout)
    present = layout.control if layout.r > 0 else layout.beneficial  # the control zone counts where it has cells
    metzler, classes = (True, ((0,),)) if layout.dimension == 1 else stage_coupling(
        layout.beneficial.reaction, present.reaction)
    if not metzler:
        raise LayoutError("NonCooperativeStages", "a stage matrix has a negative off-diagonal entry: the FD oracle "
                          "solves cooperative (Metzler) couplings only; the closed form and the simulator take it")
    if layout.bc is BoundaryCondition.PERIODIC:
        layout = replace(layout, R=layout.R / 2, r=layout.r / 2, K=1, bc=BoundaryCondition.NEUMANN)
        grid = replace(grid, min_cells_per_zone=max(2, grid.min_cells_per_zone // 2))
    lines = [layout]
    if len(classes) > 1:  # block triangular over its stage classes, each irreducible
        lines = []
        for c in map(list, classes):
            ben, ctl = (replace(z, diffusion_diag=z.diffusion_diag[c], reaction=z.reaction[np.ix_(c, c)])
                        for z in (layout.beneficial, layout.control))
            lines.append(replace(layout, beneficial=ben, control=ctl))
    bounds = [_growth_bound(line) + 1.0 for line in lines]
    levels: list[tuple[float, str]] = []
    for level in range(grid.refinement_levels):
        near = levels[-1][0] if levels else None
        top = max(_perron_bracket(*_staged_band(line, grid, level), bound, near) for line, bound in zip(lines, bounds))
        levels.append((top, "perron-bracket"))
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
