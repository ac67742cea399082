"""Crank-Nicolson time integration of the patchy diffusion systems.

Advances ``B dy/dt = K y`` with the divergence-form operator assembled by
:mod:`patchcontrol.oracle`, records the L2-norm trajectory and snapshot
profiles, and extracts the asymptotic growth/decay exponent, which must match
the spectral verdicts in sign and the top eigenvalue in value.

Each Crank-Nicolson step is taken as an implicit half-step followed by
extrapolation: ``z = 2 (B - dt/2 K)^-1 B y_n``, then ``y_{n+1} = z - y_n``.
This is the theta = 1/2 scheme itself (``(B - dt/2 K) y_{n+1} = (B + dt/2 K)
y_n``), so one factored solve and one dot product make a step; no explicit
right-hand-side matrix is formed. Off a ring a one-stage layout's matrix is
symmetric tridiagonal: while it is positive definite, ``dpttrs`` solves it on
``B y_n``. Every other matrix is folded by the mass, ``(I - dt/2 B^-1 K) / 2``,
so no step multiplies by ``B``. LAPACK factors its band (``dgbtrf``, node-major,
``kl = ku = n_stages``); a ring's wrap entries beyond the band, a term of rank
``2 n_stages``, are applied by the Sherman-Morrison-Woodbury identity. One-stage
rings stay on SuperLU, as the benchmark tracer's ``simulate.factor`` expects;
``dpttrf`` with a rank-one Sherman-Morrison term waits for that tracer to move.

Growing modes are renormalized once the norm exceeds 1e100 (decaying ones once
it falls below 1e-100); the accumulated log scale is folded into the reported
log-norm series, so exponents remain exact while the stored profiles are
defined up to a positive factor. The other diagnostics (log norm, total mass,
per-stage norms, positivity ratio) are computed with numpy over blocks of
stored states, the log norm from each step's own squared norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import splu

from .model import BoundaryCondition, PatchLayout, validate_layout
from .oracle import DiscreteOperator, GridSpec, _zone_cells, assemble

_RENORM_SQ = 1e200  # rescale a state once its norm leaves [1e-100, 1e100]
# States held between diagnostic passes. 256 rows ran no faster and cost ~6 MB
# more peak memory on the criterion-9 designs.
_BLOCK_ROWS = 64
_MAX_STEPS = 2**22  # most steps round(T / dt) of a run: the per-step records of a count like 1e13 cannot be allocated


class InstabilityError(RuntimeError):
    pass


class TransientNotResolvedError(RuntimeError):
    """The norm trajectory is not yet affine in log scale; advise a longer horizon."""


@dataclass(frozen=True)
class SimulationRun:
    """One integration: layout, step, horizon, snapshot schedule, grid."""

    layout: PatchLayout
    dt: float | None = None
    T: float | None = None
    snapshot_times: tuple[float, ...] = ()
    grid: GridSpec = field(default_factory=GridSpec)
    level: int = 0
    initial_profile: np.ndarray | None = None


@dataclass(frozen=True)
class Snapshot:
    t: float
    x: np.ndarray
    values: np.ndarray  # shape (n_nodes, n_stages), internal scale
    log_scale: float  # add to log of values for absolute densities


@dataclass(frozen=True)
class SimulationResult:
    times: np.ndarray
    log_l2: np.ndarray  # log of the solution L2 norm, renormalization folded in
    total_mass: np.ndarray  # in absolute scale (may overflow to inf for strong growth)
    stage_log_l2: np.ndarray | None  # (n_times, n_stages) for runs of two or more stages
    snapshots: tuple[Snapshot, ...]
    x: np.ndarray
    final_profile: np.ndarray  # (n_nodes, n_stages), internal scale
    final_log_scale: float
    min_density_ratio: float  # the most negative y / max|y| over nodes and stored times, or 0 when none is negative
    dt: float
    n_stages: int


def _reaction_scale(layout: PatchLayout) -> float:
    return max(float(np.abs(z.reaction).max()) for z in (layout.beneficial, layout.control))


def default_horizon(layout: PatchLayout) -> float:
    """Default horizon: 20 e-folding times of the fastest reaction rate."""
    return 20.0 / max(_reaction_scale(layout), 0.1)


def default_initial_profile(layout: PatchLayout, x: np.ndarray, n_stages: int) -> np.ndarray:
    """Unit-norm Gaussian bump of width R/8 centered in the first beneficial zone.

    Absorbing ends taper the bump with a half-sine so the initial data is
    boundary-compatible; an incompatible jump would feed the undamped stiff
    modes of the theta = 1/2 scheme and ring at the boundary for many steps.
    """
    center = layout.R / 2.0
    sigma = layout.R / 8.0
    bump = np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
    if layout.bc is BoundaryCondition.DIRICHLET:
        bump = bump * np.sin(math.pi * x / layout.total_length)
    profile = np.tile(bump[:, None], (1, n_stages))
    return profile / np.linalg.norm(profile)


def max_diffusion(layout: PatchLayout) -> float:
    return max(float(z.diffusion_diag.max()) for z in (layout.beneficial, layout.control))


def curvature_resolving_dt(layout: PatchLayout) -> float:
    """Step small enough that the default bump's diffusive transient is resolved.

    The bump's stiffest content decays on the scale ``sigma^2 / a``; steps much
    larger than that put the theta = 1/2 amplification factor near -1 and the
    bump center oscillates in sign for many steps.
    """
    sigma = layout.R / 8.0
    return 0.2 * sigma**2 / max_diffusion(layout)


def _absolute_scale(values, log_scale):
    """``values * e**log_scale`` without a spurious overflow or underflow.

    While ``|log_scale| < 700`` this is the plain product. Beyond it the value
    is formed as ``sign(v) * exp(log|v| + log_scale)``, which is finite and
    correct whenever the true value is representable and +-inf (or 0) only
    when it is not. ``log_scale`` may be a scalar or broadcast against
    ``values``.
    """
    values = np.asarray(values, dtype=float)
    log_scale = np.asarray(log_scale, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        direct = values * np.exp(log_scale)
        logged = np.sign(values) * np.exp(np.log(np.abs(values)) + log_scale)
    return np.where(np.abs(log_scale) < 700.0, direct, logged)


def _checked_norm(y: np.ndarray, t: float) -> float:
    norm = math.sqrt(float(y @ y))
    if not (0.0 < norm < math.inf):
        raise InstabilityError(f"solution norm became {norm} at t={t:.6g}")
    return norm


def _half_step_solver(op: DiscreteOperator, dt: float, periodic: bool):
    """The half-step map ``y -> 2 (B - dt/2 K)^-1 B y``, factored once; it leaves ``y`` intact.  Off a ring a
    one-stage step is ``dpttrs`` on ``B y``; other steps solve with the mass-folded ``C = (I - dt/2 B^-1 K) / 2``:
    SuperLU on a one-stage ring, else the ``dgbtrf`` band ``T`` of ``C`` (two ``dtbsv``, or ``dgbtrs`` after
    interchanges), with a ring's wrap ``C - T = U diag(v) V^T`` applied by Woodbury.  Raises ``RuntimeError`` on a
    factor pivot of at most ``n eps max|matrix|``, an exact zero included, or a capacitance singular by that rule."""
    K, B, n, s = op.stiffness, op.mass, op.n_unknowns, op.n_stages
    tiny = n * np.finfo(float).eps  # times max|matrix|: the pivot floor (a singular ring Laplacian pivots at round-off)
    if s == 1 and not periodic and n > 1:  # scipy's dpttrf refuses one unknown
        half, off = 0.5 * (B - (dt / 2.0) * K.diagonal()), -(dt / 4.0) * K.diagonal(1)
        d, e, info = lapack.dpttrf(half, off)
        if not info:  # else not positive definite: the band below takes it
            if d.min() <= tiny * max(np.abs(half).max(), np.abs(off).max()):
                raise RuntimeError("Factor is exactly singular")
            By = np.empty(n)
            return lambda y: lapack.dpttrs(d, e, np.multiply(B, y, out=By), overwrite_b=1)[0]
    C = (sparse.identity(n) * 0.5 - sparse.diags((dt / 4.0) / B) @ K).tocoo()
    if s == 1 and periodic:
        lu = splu(C.tocsc())
        if np.abs(lu.U.diagonal()).min() <= tiny * np.abs(C.data).max():
            raise RuntimeError("Factor is exactly singular")
        return lu.solve
    band = np.abs(C.row - C.col) <= s
    ab = np.zeros((3 * s + 1, n), order="F")
    ab[2 * s + C.row[band] - C.col[band], C.col[band]] = C.data[band]
    lu, piv, info = lapack.dgbtrf(ab, s, s)
    if info > 0 or np.abs(lu[2 * s]).min() <= tiny * np.abs(C.data).max():
        raise RuntimeError("Factor is exactly singular")
    if (piv == np.arange(n)).all():  # no interchanges: L and U keep the band
        lower, upper = np.asfortranarray(lu[2 * s :]), np.asfortranarray(lu[s : 2 * s + 1])
        solve_band = lambda y: blas.dtbsv(s, upper, blas.dtbsv(s, lower, y, lower=1, diag=1), overwrite_x=1)
    else:
        solve_band = lambda y: lapack.dgbtrs(lu, s, s, y, piv)[0]
    if band.all():  # off a ring, or a ring of two nodes
        return solve_band
    r, c, v = C.row[~band], C.col[~band], C.data[~band]  # U and V hold the identity's columns r and c
    QT = np.array([solve_band(np.eye(1, n, k)[0]) for k in r])  # (T^-1 U)^T, row-major for the step's product
    cap = np.eye(len(r)) + v[:, None] * QT[:, c].T
    cap_lu, cap_piv, info = lapack.dgetrf(cap)
    if info > 0 or np.abs(np.diag(cap_lu)).min() <= tiny * np.abs(cap).max():
        raise RuntimeError("Woodbury capacitance is singular")
    PT = lapack.dgetrs(cap_lu, cap_piv, np.diag(v))[0].T @ QT  # (T^-1 U (I + diag(v) V^T T^-1 U)^-1 diag(v))^T

    def solve(y):
        x = solve_band(y)
        x -= x[c] @ PT
        return x
    return solve


def checked_run(run: SimulationRun) -> tuple[PatchLayout, float, float]:
    """The run's ``(layout, T, dt)``, or the ``ValueError`` or ``LayoutError`` refusing it before any array is built."""
    layout = validate_layout(run.layout)
    T = run.T if run.T is not None else default_horizon(layout)
    if not math.isfinite(T):
        raise ValueError(f"horizon T must be finite, got {T}")
    dt = run.dt if run.dt is not None else min(T / 2048.0, curvature_resolving_dt(layout))
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if T < 10 * dt:
        raise ValueError("horizon T must cover at least 10 steps")
    if T / dt > _MAX_STEPS + 0.5:
        raise ValueError(f"horizon T / dt = {T / dt:.3g} steps exceeds the limit of {_MAX_STEPS}")
    if not all(math.isfinite(t) for t in run.snapshot_times):
        raise ValueError(f"snapshot times must be finite, got {run.snapshot_times}")
    if min(run.snapshot_times, default=0.0) < 0:
        raise ValueError(f"snapshot times must be nonnegative, got {run.snapshot_times}")
    level, levels = run.level, run.grid.refinement_levels
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool) or not 0 <= level < levels:
        raise ValueError(f"level must be an integer in [0, {levels}), got {level!r}")
    _zone_cells(layout, run.grid, level)  # GridTooLarge, before assemble allocates
    return layout, T, dt


def simulate(run: SimulationRun) -> SimulationResult:
    """Integrate the layout with the theta = 1/2 scheme (unconditionally stable,
    second order in dt) and record norms, masses and requested snapshots."""
    layout, T, dt = checked_run(run)
    op = assemble(layout, run.grid, run.level)
    n_stages = op.n_stages
    n_nodes = op.n_nodes

    if run.initial_profile is None:
        y0 = default_initial_profile(layout, op.x, n_stages)
    else:
        y0 = np.asarray(run.initial_profile, dtype=float)
        if y0.shape == (n_nodes * n_stages,):
            y0 = y0.reshape(n_nodes, n_stages)
        if y0.shape != (n_nodes, n_stages):
            raise ValueError(
                f"initial profile must have shape ({n_nodes}, {n_stages}) on this grid, got {y0.shape}"
            )
        if not np.all(np.isfinite(y0)):
            raise ValueError("initial profile must be finite")
        if np.any(y0 < 0):
            raise ValueError("initial profile must be nonnegative")
        if not np.any(y0 > 0):
            raise ValueError("initial profile must not be identically zero")

    B = op.mass
    try:
        solve = _half_step_solver(op, dt, layout.bc is BoundaryCondition.PERIODIC)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise InstabilityError(f"Crank-Nicolson matrix is singular at dt={dt:.6g}: {exc}") from exc

    steps = int(round(T / dt))  # at least 10: checked_run refuses T < 10 dt
    times = dt * np.arange(steps + 1)

    log_l2 = np.empty(steps + 1)
    total_mass = np.empty(steps + 1)
    stage_log = np.empty((steps + 1, n_stages)) if n_stages > 1 else None
    snapshots: list[Snapshot] = []
    pending = sorted(run.snapshot_times)
    snap_tol = 1e-12 * max(dt, 1.0)

    # states[j] is the state at step first + j, offsets[j] its log scale, squares[j] its squared norm.
    states = np.empty((_BLOCK_ROWS, n_nodes * n_stages))
    offsets = np.zeros(_BLOCK_ROWS)  # refilled per block, and from a renormalised row on
    squares = np.empty(_BLOCK_ROWS)
    min_ratio = 0.0

    def record_block(first: int, rows: int) -> None:
        nonlocal min_ratio
        Y = states[:rows]
        off = offsets[:rows]
        block = slice(first, first + rows)
        log_l2[block] = off + 0.5 * np.log(squares[:rows])
        total_mass[block] = _absolute_scale(Y @ B, off)
        if stage_log is not None:
            Y3 = Y.reshape(rows, n_nodes, n_stages)
            with np.errstate(divide="ignore"):
                stage_log[block] = off[:, None] + 0.5 * np.log(np.einsum("rns,rns->rs", Y3, Y3))
        # Every stored state has a positive finite norm, so its peak is positive.
        min_ratio = min(min_ratio, float((Y.min(axis=1) / np.abs(Y).max(axis=1)).min()))

    y = states[0]
    y[:] = y0.reshape(-1)
    squares[0] = _checked_norm(y, 0.0) ** 2
    offset = 0.0
    while pending and pending[0] <= 0.0:
        pending.pop(0)
        snapshots.append(Snapshot(0.0, op.x, y.reshape(n_nodes, n_stages).copy(), offset))

    first = row = 0
    rows, subtract, low = list(states), np.subtract, 1.0 / _RENORM_SQ
    for k in range(1, steps + 1):
        row += 1
        if row == _BLOCK_ROWS:
            record_block(first, row)
            first, row = k, 0
            offsets.fill(offset)
        y = subtract(solve(y), y, out=rows[row])
        squares[row] = sq = y.dot(y)
        if not low <= sq <= _RENORM_SQ:  # also catches 0, inf and nan
            norm = _checked_norm(y, times[k])
            offset += math.log(norm)
            y /= norm
            squares[row] = 1.0  # unit norm, to round-off
            offsets[row:] = offset
        while pending and times[k] >= pending[0] - snap_tol:
            pending.pop(0)
            snapshots.append(
                Snapshot(float(times[k]), op.x, y.reshape(n_nodes, n_stages).copy(), offset)
            )
    record_block(first, row + 1)

    final = y.reshape(n_nodes, n_stages).copy()
    for t_req in pending:  # requested beyond the horizon: report the final state
        snapshots.append(Snapshot(float(times[-1]), op.x, final.copy(), offset))

    return SimulationResult(
        times=times,
        log_l2=log_l2,
        total_mass=total_mass,
        stage_log_l2=stage_log,
        snapshots=tuple(snapshots),
        x=op.x,
        final_profile=final,
        final_log_scale=offset,
        min_density_ratio=min_ratio,
        dt=dt,
        n_stages=n_stages,
    )


def growth_exponent(result: SimulationResult, fit_residual_tol: float = 1e-3) -> float:
    """Least-squares slope of the log norm over the second half of the horizon.

    Raises ``TransientNotResolvedError`` when the windowed series is not affine
    within the residual tolerance (RMS of the linear-fit residual, log units):
    subdominant modes have not decayed yet and a longer horizon is needed.
    """
    n = len(result.times)
    half = n // 2
    t = result.times[half:]
    z = result.log_l2[half:]
    slope, intercept = np.polyfit(t, z, 1)
    rms = float(np.sqrt(np.mean((z - (slope * t + intercept)) ** 2)))
    if rms > fit_residual_tol:
        raise TransientNotResolvedError(
            f"affine-fit residual {rms:.3g} exceeds {fit_residual_tol:.3g}; increase T"
        )
    return float(slope)


# ---------------------------------------------------------------------------
# CSV emission (6 significant digits, deterministic)
# ---------------------------------------------------------------------------


def write_trajectory_csv(result: SimulationResult, path: str) -> None:
    """Columns: t, log_l2_norm, total_mass (+ log_l2_stage_<j> for two or more stages)."""
    header = ["t", "log_l2_norm", "total_mass"]
    columns = [result.times, result.log_l2, result.total_mass]
    if result.stage_log_l2 is not None:
        header += [f"log_l2_stage_{s + 1}" for s in range(result.n_stages)]
        columns += list(result.stage_log_l2.T)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.6g", delimiter=",", header=",".join(header), comments="")


def write_snapshot_csv(snapshot: Snapshot, path: str) -> None:
    """Columns: x, stage_index, density (absolute scale; +-inf or 0 where out of range)."""
    density = _absolute_scale(snapshot.values, snapshot.log_scale)
    n_nodes, n_stages = density.shape  # rows stage-major: every node of stage 0, then of stage 1, ...
    rows = np.column_stack([np.tile(snapshot.x, n_stages), np.repeat(np.arange(n_stages), n_nodes), density.T.ravel()])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=["%.6g", "%d", "%.6g"], delimiter=",", header="x,stage_index,density", comments="")
