"""Crank-Nicolson time integration of the patchy diffusion systems.

Advances ``B dy/dt = K y`` with the divergence-form operator assembled by
:mod:`patchcontrol.oracle`, records the L2-norm trajectory and snapshot
profiles, and extracts the asymptotic growth/decay exponent, which must match
the spectral verdicts in sign and the top eigenvalue in value.

Each Crank-Nicolson step is taken as an implicit half-step followed by
extrapolation: solve ``(B - dt/2 K) z = B y_n``, then ``y_{n+1} = 2 z - y_n``.
This is the theta = 1/2 scheme itself (``(B - dt/2 K) y_{n+1} = (B + dt/2 K)
y_n``), so one factored solve, one diagonal scaling and one norm make a step;
no explicit right-hand-side matrix is formed.

Growing modes are renormalized once the norm exceeds 1e100 (decaying ones once
it falls below 1e-100); the accumulated log scale is folded into the reported
log-norm series, so exponents remain exact while the stored profiles are
defined up to a positive factor. The other diagnostics (log norm, total mass,
per-stage norms, positivity ratio) are computed with numpy over blocks of
stored states rather than step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .model import BoundaryCondition, PatchLayout, validate_layout
from .oracle import GridSpec, assemble

_RENORM_THRESHOLD = 1e100
# States held between diagnostic passes. 256 rows ran no faster and cost ~6 MB
# more peak memory on the criterion-9 designs.
_BLOCK_ROWS = 64


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
    stage_log_l2: np.ndarray | None  # (n_times, n_stages) for staged runs
    snapshots: tuple[Snapshot, ...]
    x: np.ndarray
    final_profile: np.ndarray  # (n_nodes, n_stages), internal scale
    final_log_scale: float
    min_density_ratio: float  # min over nodes/times of y / max|y|, for positivity checks
    dt: float
    n_stages: int


def _reaction_scale(layout: PatchLayout) -> float:
    if layout.is_scalar:
        return max(abs(layout.beneficial.growth), abs(layout.control.growth))
    return max(
        float(np.abs(layout.beneficial.reaction).max()),
        float(np.abs(layout.control.reaction).max()),
    )


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
    if layout.is_scalar:
        return max(layout.beneficial.diffusion, layout.control.diffusion)
    return max(
        float(layout.beneficial.diffusion_diag.max()),
        float(layout.control.diffusion_diag.max()),
    )


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


def simulate(run: SimulationRun) -> SimulationResult:
    """Integrate the layout with the theta = 1/2 scheme (unconditionally stable,
    second order in dt) and record norms, masses and requested snapshots."""
    layout = validate_layout(run.layout)
    op = assemble(layout, run.grid, run.level)
    n_stages = op.n_stages
    n_nodes = op.n_nodes

    T = run.T if run.T is not None else default_horizon(layout)
    if not math.isfinite(T):
        raise ValueError(f"horizon T must be finite, got {T}")
    dt = run.dt if run.dt is not None else min(T / 2048.0, curvature_resolving_dt(layout))
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if T < 10 * dt:
        raise ValueError("horizon T must cover at least 10 steps")
    if not all(math.isfinite(t) for t in run.snapshot_times):
        raise ValueError(f"snapshot times must be finite, got {run.snapshot_times}")

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
        if np.any(y0 < 0):
            raise ValueError("initial profile must be nonnegative")
        if not np.any(y0 > 0):
            raise ValueError("initial profile must not be identically zero")

    K = op.stiffness.tocsc()
    B = op.mass
    try:
        lhs = splu((sparse.diags(B) - (dt / 2.0) * K).tocsc())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise InstabilityError(f"Crank-Nicolson matrix is singular at dt={dt:.6g}: {exc}") from exc

    steps = max(int(round(T / dt)), 10)
    times = dt * np.arange(steps + 1)

    log_l2 = np.empty(steps + 1)
    total_mass = np.empty(steps + 1)
    stage_log = np.empty((steps + 1, n_stages)) if n_stages > 1 else None
    snapshots: list[Snapshot] = []
    pending = sorted(t for t in run.snapshot_times if 0.0 <= t)
    snap_tol = 1e-12 * max(dt, 1.0)

    # states[j] is the state at step first + j, offsets[j] its log scale.
    states = np.empty((_BLOCK_ROWS, n_nodes * n_stages))
    offsets = np.empty(_BLOCK_ROWS)
    min_ratio = 0.0

    def record_block(first: int, rows: int) -> None:
        nonlocal min_ratio
        Y = states[:rows]
        off = offsets[:rows]
        block = slice(first, first + rows)
        log_l2[block] = off + np.log(np.linalg.norm(Y, axis=1))
        total_mass[block] = _absolute_scale(Y @ B, off)
        if stage_log is not None:
            with np.errstate(divide="ignore"):
                norms = np.linalg.norm(Y.reshape(rows, n_nodes, n_stages), axis=1)
                stage_log[block] = off[:, None] + np.log(norms)
        # Every stored state has a positive finite norm, so its peak is positive.
        min_ratio = min(min_ratio, float((Y.min(axis=1) / np.abs(Y).max(axis=1)).min()))

    y = states[0]
    y[:] = y0.reshape(-1)
    _checked_norm(y, 0.0)
    offset = offsets[0] = 0.0
    while pending and pending[0] <= 0.0:
        pending.pop(0)
        snapshots.append(Snapshot(0.0, op.x, y.reshape(n_nodes, n_stages).copy(), offset))

    first = row = 0
    for k in range(1, steps + 1):
        row += 1
        if row == _BLOCK_ROWS:
            record_block(first, row)
            first, row = k, 0
        z = lhs.solve(B * y)
        y = np.subtract(2.0 * z, y, out=states[row])
        norm = _checked_norm(y, times[k])
        if norm > _RENORM_THRESHOLD or norm < 1.0 / _RENORM_THRESHOLD:
            offset += math.log(norm)
            y /= norm
        offsets[row] = offset
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
    """Columns: t, log_l2_norm, total_mass (+ log_l2_stage_<j> for staged runs)."""
    header = ["t", "log_l2_norm", "total_mass"]
    if result.stage_log_l2 is not None:
        header += [f"log_l2_stage_{s + 1}" for s in range(result.n_stages)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(result.times)):
            row = [
                f"{result.times[k]:.6g}",
                f"{result.log_l2[k]:.6g}",
                f"{result.total_mass[k]:.6g}",
            ]
            if result.stage_log_l2 is not None:
                row += [f"{result.stage_log_l2[k, s]:.6g}" for s in range(result.n_stages)]
            fh.write(",".join(row) + "\n")


def write_snapshot_csv(snapshot: Snapshot, path: str) -> None:
    """Columns: x, stage_index, density (absolute scale; +-inf or 0 where out of range)."""
    density = _absolute_scale(snapshot.values, snapshot.log_scale)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,stage_index,density\n")
        n_nodes, n_stages = snapshot.values.shape
        for s in range(n_stages):
            for i in range(n_nodes):
                fh.write(f"{snapshot.x[i]:.6g},{s},{density[i, s]:.6g}\n")
