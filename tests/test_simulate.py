import importlib
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from patchcontrol import (
    BoundaryCondition,
    GridSpec,
    PatchLayout,
    ScalarProblem,
    ScalarZone,
    SimulationRun,
    StageZone,
    TransientNotResolvedError,
    critical_patch_dirichlet,
    get_preset,
    growth_exponent,
    simulate,
)
from patchcontrol.model import validate_layout
from patchcontrol.oracle import assemble, top_eigenvalue_fd
from patchcontrol.simulate import (
    InstabilityError,
    SimulationResult,
    Snapshot,
    _absolute_scale,
    _MAX_STEPS,
    _half_step_solver,
    checked_run,
    default_initial_profile,
    write_snapshot_csv,
    write_trajectory_csv,
)

from sweeps import BCS, loguniform

FAST = GridSpec(cells_per_unit_length=64, refinement_levels=2)
COARSE = GridSpec(cells_per_unit_length=4, refinement_levels=2, min_cells_per_zone=8)


def kiss_problem(ratio: float) -> ScalarProblem:
    a, lam = 1.0, 1.0
    R = ratio * critical_patch_dirichlet(a, lam)
    return ScalarProblem(a=a, lam=lam, b=a, mu=0.0, R=R, r=0.0, bc=BoundaryCondition.DIRICHLET)


class TestSimulate:
    def test_decaying_layout_decays_monotonically(self):
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=3.0, R=7.0, r=1.0,
                          bc=BoundaryCondition.DIRICHLET)
        run = SimulationRun(layout=p.to_layout(), T=6.0, dt=0.005, grid=FAST)
        result = simulate(run)
        assert growth_exponent(result) < 0
        tail = result.log_l2[len(result.log_l2) // 2 :]
        assert np.all(np.diff(tail) < 0)

    def test_kiss_threshold_sign_change(self):
        grow = simulate(SimulationRun(layout=kiss_problem(1.01).to_layout(), T=60.0,
                                      dt=0.03, grid=FAST))
        decay = simulate(SimulationRun(layout=kiss_problem(0.99).to_layout(), T=60.0,
                                       dt=0.03, grid=FAST))
        assert growth_exponent(grow) > 0
        assert growth_exponent(decay) < 0

    def test_mass_conservation_neumann(self):
        layout = PatchLayout(ScalarZone(1.0, 0.0), ScalarZone(1.0, 0.0), R=2.0, r=1.0,
                             bc=BoundaryCondition.NEUMANN)
        result = simulate(SimulationRun(layout=layout, T=5.0, dt=0.01, grid=FAST))
        drift = np.abs(result.total_mass - result.total_mass[0]).max()
        assert drift <= 1e-10 * max(1.0, result.total_mass[0]) * 5.0

    def test_positivity_preserved(self):
        p = ScalarProblem(a=1.0, lam=0.5, b=1.0, mu=4.0, R=3.0, r=1.0)
        result = simulate(SimulationRun(layout=p.to_layout(), T=20.0, dt=0.02, grid=FAST))
        assert result.min_density_ratio >= -1e-12

    def test_dt_refinement_stability_of_exponent(self):
        p = ScalarProblem(a=1.0, lam=1.0, b=1.0, mu=3.0, R=2.0, r=0.8)
        coarse = simulate(SimulationRun(layout=p.to_layout(), T=40.0, dt=0.04, grid=FAST))
        fine = simulate(SimulationRun(layout=p.to_layout(), T=40.0, dt=0.02, grid=FAST))
        e1, e2 = growth_exponent(coarse), growth_exponent(fine)
        assert abs(e1 - e2) <= 1e-3 * max(1.0, abs(e1))

    def test_k_periodic_initial_data_stays_periodic(self):
        layout = PatchLayout(ScalarZone(1.0, 0.8), ScalarZone(1.0, -3.0), R=2.0, r=1.0, K=2,
                             bc=BoundaryCondition.PERIODIC)
        from patchcontrol.oracle import assemble

        op = assemble(layout, FAST, 0)
        period = layout.R + layout.r
        phase = np.mod(op.x, period)
        y0 = np.exp(-((phase - 1.0) ** 2) / 0.125)
        result = simulate(
            SimulationRun(layout=layout, T=6.0, dt=0.01, grid=FAST,
                          initial_profile=y0)
        )
        profile = result.final_profile[:, 0]
        n = len(profile) // 2
        np.testing.assert_allclose(profile[:n], profile[n:], rtol=0, atol=1e-9 * profile.max())

    def test_growing_mode_renormalizes_without_overflow(self):
        p = ScalarProblem(a=1.0, lam=30.0, b=1.0, mu=0.0, R=50.0, r=0.0,
                          bc=BoundaryCondition.NEUMANN)
        result = simulate(SimulationRun(layout=p.to_layout(), T=20.0, dt=0.001,
                                        grid=GridSpec(cells_per_unit_length=4,
                                                      refinement_levels=2,
                                                      min_cells_per_zone=8)))
        assert np.all(np.isfinite(result.log_l2))
        assert growth_exponent(result) == pytest.approx(30.0, abs=0.01)

    def test_exponent_matches_oracle_eigenvalue(self):
        cases = [
            ScalarProblem(a=1.0, lam=1.0, b=1.0, mu=3.0, R=2.0, r=0.8),
            ScalarProblem(a=2.0, lam=0.3, b=0.5, mu=2.0, R=4.0, r=0.5,
                          bc=BoundaryCondition.NEUMANN),
            ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=10.0, R=14.0, r=1.0),
        ]
        for p in cases:
            fd = top_eigenvalue_fd(p.to_layout(), FAST)
            scale = max(abs(fd.top_eigenvalue), 0.1)
            result = simulate(
                SimulationRun(layout=p.to_layout(), T=30.0 / scale,
                              dt=min(0.05 / scale, 0.05), grid=FAST, level=1)
            )
            exponent = growth_exponent(result)
            assert abs(exponent - fd.top_eigenvalue) <= 10 * (fd.error_estimate + 1e-3)

    def test_staged_simulation_runs(self):
        layout = PatchLayout(
            beneficial=StageZone([1.0, 1.0], [[-0.91, 2.24], [0.01, -0.02]]),
            control=StageZone([1.0, 1.0], [[-1.7, 0.56], [0.0025, -0.8]]),
            R=40.0,
            r=1.0,
        )
        result = simulate(SimulationRun(layout=layout, T=300.0, dt=0.5, grid=FAST))
        assert result.stage_log_l2 is not None
        assert growth_exponent(result, fit_residual_tol=5e-3) < 0

    def test_transient_not_resolved(self):
        # Narrow off-center spike: several modes with comparable weight, so the
        # log norm is still curved over a short horizon.
        from patchcontrol.oracle import assemble

        p = ScalarProblem(a=1.0, lam=0.0, b=1.0, mu=0.0, R=math.pi, r=0.0,
                          bc=BoundaryCondition.DIRICHLET)
        op = assemble(p.to_layout(), FAST, 0)
        y0 = np.exp(-((op.x - math.pi / 6) ** 2) / (2 * (math.pi / 40) ** 2))
        result = simulate(SimulationRun(layout=p.to_layout(), T=0.6, dt=0.002, grid=FAST,
                                        initial_profile=y0))
        with pytest.raises(TransientNotResolvedError):
            growth_exponent(result)

    def test_negative_snapshot_time_refused(self):
        run = SimulationRun(layout=get_preset("lone-star"), T=2.0, dt=0.01, snapshot_times=(-1.0, 1.0))
        with pytest.raises(ValueError, match=r"snapshot times must be nonnegative, got \(-1.0, 1.0\)"):
            simulate(run)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_initial_profile_refused(self, bad):
        # NaN passes a ``< 0`` test; it used to surface as an instability at t = 0.
        layout = ScalarProblem(a=1.0, lam=1.0, b=1.0, mu=1.0, R=2.0, r=1.0, bc=BoundaryCondition.NEUMANN).to_layout()
        y0 = np.ones(assemble(layout, COARSE, 0).n_nodes)
        y0[3] = bad
        run = SimulationRun(layout=layout, T=1.0, dt=0.01, grid=COARSE, initial_profile=y0)
        with pytest.raises(ValueError, match="initial profile must be finite"):
            simulate(run)

    @pytest.mark.parametrize("level", [-1, 1.5, 40, True, 2])
    def test_level_outside_the_grid_refused(self, level):
        # FAST has levels 0 and 1; True must not pass as level 1.
        run = SimulationRun(layout=get_preset("lone-star"), T=2.0, dt=0.01, grid=FAST, level=level)
        with pytest.raises(ValueError, match=r"level must be an integer in \[0, 2\), got "):
            simulate(run)

    def test_step_limit_is_inclusive(self):
        # Checked before any array is built; dt is a power of two, so T / dt is exact.
        dt = 2.0**-10
        checked_run(SimulationRun(layout=get_preset("lone-star"), T=_MAX_STEPS * dt, dt=dt))
        with pytest.raises(ValueError, match=r"horizon T / dt = 4.19e\+06 steps exceeds the limit of 4194304"):
            checked_run(SimulationRun(layout=get_preset("lone-star"), T=(_MAX_STEPS + 1) * dt, dt=dt))


class TestAbsoluteScale:
    """Quantities kept in internal scale are reported as ``value * e**log_scale``."""

    LOG_MAX = math.log(np.finfo(float).max)  # 709.78

    @staticmethod
    def pure_growth_run(T: float, snapshot_times=()) -> SimulationRun:
        # Uniform growth 30 on a reflecting segment: diffusion conserves mass, so
        # each CN step multiplies the total mass by exactly (1 + 15 dt) / (1 - 15 dt).
        p = ScalarProblem(a=1.0, lam=30.0, b=1.0, mu=0.0, R=50.0, r=0.0,
                          bc=BoundaryCondition.NEUMANN)
        return SimulationRun(layout=p.to_layout(), T=T, dt=0.001, grid=COARSE,
                             snapshot_times=snapshot_times)

    @pytest.fixture(scope="class")
    def past_overflow(self):
        """Log scale reaches ~930: far beyond what a float can hold."""
        return simulate(self.pure_growth_run(35.0, snapshot_times=(34.9,)))

    @staticmethod
    def predicted_log_mass(result: SimulationResult) -> np.ndarray:
        g = (1.0 + 15.0 * result.dt) / (1.0 - 15.0 * result.dt)
        return math.log(result.total_mass[0]) + np.arange(len(result.times)) * math.log(g)

    def test_total_mass_below_offset_700_unchanged(self):
        result = simulate(self.pure_growth_run(20.0))
        assert result.final_log_scale > math.log(1e100)
        assert self.predicted_log_mass(result).max() < 700.0
        assert np.all(np.isfinite(result.total_mass))
        np.testing.assert_allclose(np.log(result.total_mass), self.predicted_log_mass(result),
                                   rtol=0, atol=1e-9)

    def test_total_mass_is_inf_once_not_representable(self, past_overflow):
        mass = past_overflow.total_mass
        predicted = self.predicted_log_mass(past_overflow)
        k = 31000  # t = 31: the log norm is ~930
        assert past_overflow.log_l2[k] == pytest.approx(929.83, abs=0.01)
        assert mass[k] == math.inf
        below = predicted < self.LOG_MAX - 1e-6
        above = predicted > self.LOG_MAX + 1e-6
        assert below.sum() > 20000 and above.sum() > 10000
        np.testing.assert_allclose(np.log(mass[below]), predicted[below], rtol=0, atol=1e-9)
        assert np.all(mass[above] == math.inf)

    def test_helper_is_the_plain_product_below_700(self):
        values = np.array([-3.5, 0.0, 1e-300, 2.0, 1e-100])
        for log_scale in (-699.0, -230.3, 0.0, 1.0, 230.3, 699.0):
            np.testing.assert_allclose(_absolute_scale(values, log_scale),
                                       values * math.exp(log_scale), rtol=1e-15, atol=0)

    def test_helper_beyond_700(self):
        got = _absolute_scale(np.array([1e-300, -2e-300, 0.0, 2.0, -2.0]), 710.0)
        want = [1e-300 * math.exp(355.0) * math.exp(355.0),
                -2e-300 * math.exp(355.0) * math.exp(355.0), 0.0, math.inf, -math.inf]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        got = _absolute_scale(np.array([1e100, 1e-100]), -720.0)
        np.testing.assert_allclose(got, [1e100 * math.exp(-360.0) * math.exp(-360.0), 0.0],
                                   rtol=1e-12)

    def test_snapshot_csv_past_log_scale_700(self, past_overflow, tmp_path):
        snap = past_overflow.snapshots[0]
        assert snap.t == pytest.approx(34.9) and snap.log_scale > 900
        path = tmp_path / "snap.csv"
        write_snapshot_csv(snap, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,stage_index,density"
        assert len(lines) == len(past_overflow.x) + 1
        assert {row.split(",")[2] for row in lines[1:]} == {"inf"}

        # Internal values that only come back into range with the scale.
        values = np.array([[1e-300], [-2e-300], [0.0]])
        write_snapshot_csv(Snapshot(1.0, np.array([0.0, 0.5, 1.0]), values, 710.0), str(path))
        densities = [float(row.split(",")[2]) for row in path.read_text().splitlines()[1:]]
        half = math.exp(355.0)  # e**710 itself is not representable
        np.testing.assert_allclose(densities, [1e-300 * half * half, -2e-300 * half * half, 0.0],
                                   rtol=1e-5)


class TestCsvOutputs:
    def test_trajectory_csv_columns(self, tmp_path):
        p = ScalarProblem(a=1.0, lam=0.5, b=1.0, mu=2.0, R=2.0, r=0.5)
        result = simulate(SimulationRun(layout=p.to_layout(), T=1.0, dt=0.01, grid=FAST))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,log_l2_norm,total_mass"
        assert len(lines) == len(result.times) + 1

    def test_staged_trajectory_has_stage_columns(self, tmp_path):
        layout = PatchLayout(
            beneficial=StageZone([1.0, 1.0], [[-0.91, 2.24], [0.01, -0.02]]),
            control=StageZone([1.0, 1.0], [[-1.7, 0.56], [0.0025, -0.8]]),
            R=10.0,
            r=1.0,
        )
        result = simulate(SimulationRun(layout=layout, T=2.0, dt=0.05, grid=FAST))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "t,log_l2_norm,total_mass,log_l2_stage_1,log_l2_stage_2"

    def test_snapshot_csv(self, tmp_path):
        p = ScalarProblem(a=1.0, lam=0.5, b=1.0, mu=2.0, R=2.0, r=0.5)
        result = simulate(
            SimulationRun(layout=p.to_layout(), T=1.0, dt=0.01, grid=FAST,
                          snapshot_times=(0.5,))
        )
        assert len(result.snapshots) == 1
        path = tmp_path / "snap.csv"
        write_snapshot_csv(result.snapshots[0], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,stage_index,density"
        assert len(lines) == len(result.x) + 1

    def test_deterministic_bytes(self, tmp_path):
        p = ScalarProblem(a=1.0, lam=0.5, b=1.0, mu=2.0, R=2.0, r=0.5)
        outputs = []
        for name in ("a.csv", "b.csv"):
            result = simulate(SimulationRun(layout=p.to_layout(), T=1.0, dt=0.01, grid=FAST))
            path = tmp_path / name
            write_trajectory_csv(result, str(path))
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


def _loop_simulate(run: SimulationRun) -> SimulationResult:
    """Reference: the per-step loop ``simulate`` was built from, kept to pin its results.

    Each step multiplies by an explicit ``B + dt/2 K`` matrix, solves with the
    factored ``B - dt/2 K`` and records every diagnostic for that state alone.
    Only the total mass differs from the original loop: it goes through the
    module's overflow rule, where the loop had clamped the log scale at 700.
    Takes runs with explicit ``T`` and ``dt``.
    """
    layout = validate_layout(run.layout)
    op = assemble(layout, run.grid, run.level)
    n_stages, n_nodes = op.n_stages, op.n_nodes
    T, dt = run.T, run.dt
    if run.initial_profile is None:
        y0 = default_initial_profile(layout, op.x, n_stages)
    else:
        y0 = np.asarray(run.initial_profile, dtype=float).reshape(n_nodes, n_stages)

    K = op.stiffness.tocsc()
    B = op.mass
    lhs = splu((sparse.diags(B) - (dt / 2.0) * K).tocsc())
    rhs = (sparse.diags(B) + (dt / 2.0) * K).tocsr()

    y = y0.reshape(-1).copy()
    steps = max(int(round(T / dt)), 10)
    times = dt * np.arange(steps + 1)
    log_l2 = np.empty(steps + 1)
    total_mass = np.empty(steps + 1)
    stage_log = np.empty((steps + 1, n_stages)) if n_stages > 1 else None
    snapshots = []
    pending = sorted(t for t in run.snapshot_times if 0.0 <= t)
    offset = 0.0
    min_ratio = 0.0

    def record(k):
        nonlocal min_ratio
        norm = float(np.linalg.norm(y))
        if not np.isfinite(norm) or norm == 0.0:
            raise InstabilityError(f"solution norm became {norm} at t={times[k]:.6g}")
        log_l2[k] = offset + math.log(norm)
        total_mass[k] = _absolute_scale(float(B @ y), offset)
        if stage_log is not None:
            mat = y.reshape(n_nodes, n_stages)
            for s in range(n_stages):
                ns = float(np.linalg.norm(mat[:, s]))
                stage_log[k, s] = offset + (math.log(ns) if ns > 0 else -math.inf)
        peak = float(np.abs(y).max())
        if peak > 0:
            min_ratio = min(min_ratio, float(y.min()) / peak)

    record(0)
    while pending and pending[0] <= 0.0:
        pending.pop(0)
        snapshots.append(Snapshot(0.0, op.x, y.reshape(n_nodes, n_stages).copy(), offset))
    for k in range(1, steps + 1):
        y = lhs.solve(rhs @ y)
        norm = float(np.linalg.norm(y))
        if not np.isfinite(norm):
            raise InstabilityError(f"solution diverged at t={times[k]:.6g}")
        if norm > 1e100 or (0.0 < norm < 1e-100):
            offset += math.log(norm)
            y = y / norm
        record(k)
        while pending and times[k] >= pending[0] - 1e-12 * max(dt, 1.0):
            pending.pop(0)
            snapshots.append(
                Snapshot(float(times[k]), op.x, y.reshape(n_nodes, n_stages).copy(), offset)
            )
    for _ in pending:
        snapshots.append(Snapshot(float(times[-1]), op.x, y.reshape(n_nodes, n_stages).copy(), offset))
    return SimulationResult(
        times=times, log_l2=log_l2, total_mass=total_mass, stage_log_l2=stage_log,
        snapshots=tuple(snapshots), x=op.x, final_profile=y.reshape(n_nodes, n_stages),
        final_log_scale=offset, min_density_ratio=min_ratio, dt=dt, n_stages=n_stages,
    )


def _seeded_run(seed: int) -> SimulationRun:
    """Scalar draw for ``seed``: boundary ``seed % 3``, K in 1-3 on rings, 10-700 steps."""
    rng = np.random.default_rng(4000 + seed)
    bc = BCS[seed % 3]
    layout = PatchLayout(
        ScalarZone(loguniform(rng, 0.3, 5.0), loguniform(rng, 0.1, 3.0)),
        ScalarZone(loguniform(rng, 0.3, 5.0), -loguniform(rng, 0.1, 20.0)),
        R=loguniform(rng, 1.0, 6.0),
        r=loguniform(rng, 0.1, 1.5),
        K=int(rng.integers(1, 4)) if bc is BoundaryCondition.PERIODIC else 1,
        bc=bc,
    )
    dt = loguniform(rng, 1e-3, 2e-2)
    T = int(rng.integers(10, 701)) * dt
    return SimulationRun(layout=layout, T=T, dt=dt, grid=FAST, level=int(rng.integers(2)),
                         snapshot_times=snaps(T))


def snaps(T: float) -> tuple[float, ...]:
    """Snapshot requests at the start, mid-run and beyond the horizon."""
    return (0.0, T / 2, 2 * T)


def _named_runs() -> dict[str, SimulationRun]:
    periodic = dict(bc=BoundaryCondition.PERIODIC)
    spiky = ScalarProblem(a=1.0, lam=1.0, b=1.0, mu=2.0, R=2.0, r=0.5,
                          bc=BoundaryCondition.DIRICHLET).to_layout()
    spike = np.zeros(assemble(spiky, FAST, 0).n_nodes)
    spike[len(spike) // 3] = 1.0
    return {
        # A one-node spike with a large step: the stiff modes flip sign every
        # step, so the state goes negative (min_density_ratio -1).
        "dirichlet-spike-oscillates": SimulationRun(
            layout=spiky, T=1.0, dt=0.05, grid=FAST, initial_profile=spike,
            snapshot_times=snaps(1.0)),
        # 40 steps: fewer than one block of states.
        "dirichlet-40-steps": SimulationRun(
            layout=ScalarProblem(a=1.0, lam=0.5, b=1.0, mu=2.0, R=2.0, r=0.5,
                                 bc=BoundaryCondition.DIRICHLET).to_layout(),
            T=0.4, dt=0.01, grid=FAST, snapshot_times=snaps(0.4)),
        # 127 steps: 128 states, exactly two full blocks.
        "neumann-127-steps": SimulationRun(
            layout=ScalarProblem(a=2.0, lam=0.3, b=0.5, mu=2.0, R=4.0, r=0.5,
                                 bc=BoundaryCondition.NEUMANN).to_layout(),
            T=1.27, dt=0.01, grid=FAST, snapshot_times=snaps(1.27)),
        # Growth rate ~30 for T = 10: the norm passes 1e100 and is renormalised.
        "neumann-renormalised-up": SimulationRun(
            layout=ScalarProblem(a=1.0, lam=30.0, b=1.0, mu=0.0, R=50.0, r=0.0,
                                 bc=BoundaryCondition.NEUMANN).to_layout(),
            T=10.0, dt=0.001, grid=COARSE, snapshot_times=snaps(10.0)),
        # Decay rate ~-39 for T = 8: the norm falls below 1e-100 and is renormalised.
        "dirichlet-renormalised-down": SimulationRun(
            layout=ScalarProblem(a=1.0, lam=0.0, b=1.0, mu=0.0, R=0.5, r=0.0,
                                 bc=BoundaryCondition.DIRICHLET).to_layout(),
            T=8.0, dt=0.002, grid=FAST, snapshot_times=snaps(8.0)),
        "periodic-K2": SimulationRun(
            layout=PatchLayout(ScalarZone(1.0, 0.8), ScalarZone(1.5, -3.0), R=2.0, r=1.0, K=2,
                               **periodic),
            T=3.0, dt=0.01, grid=FAST, snapshot_times=snaps(3.0)),
        "periodic-K3": SimulationRun(
            layout=PatchLayout(ScalarZone(0.7, 1.2), ScalarZone(2.0, -5.0), R=1.5, r=0.7, K=3,
                               **periodic),
            T=2.0, dt=0.005, grid=FAST, level=1, snapshot_times=snaps(2.0)),
        "taiga-two-stage": SimulationRun(
            layout=get_preset("taiga-two-stage"), T=5.0, dt=0.01, grid=FAST,
            snapshot_times=snaps(5.0)),
    }


NAMED_RUNS = _named_runs()


class TestStepLoopMatchesReference:
    """``simulate`` gives the reference loop's results within fixed tolerances.

    The half-step form ``y_{n+1} = 2 z - y_n`` is the same scheme as the
    reference's explicit right-hand side, rounded differently, and the block
    diagnostics sum in another order; both differences stay at round-off.
    """

    LOG_ATOL = 1e-8  # log_l2 and stage_log_l2
    MASS_RTOL = 1e-8  # finite total_mass
    RATIO_ATOL = 1e-12  # min_density_ratio
    PROFILE_RTOL = 1e-8  # profiles, relative to their peak

    def assert_same_run(self, run):
        want = _loop_simulate(run)
        got = simulate(run)
        assert got.times.tobytes() == want.times.tobytes()
        # Equal unless a renormalisation happened: the renormalising norm then
        # differs by round-off (4.6e-13 in log on "dirichlet-renormalised-down"),
        # while a missed or extra renormalisation would move it by ~230.
        assert got.final_log_scale == pytest.approx(want.final_log_scale, rel=0,
                                                    abs=self.LOG_ATOL)
        np.testing.assert_allclose(got.log_l2, want.log_l2, rtol=0, atol=self.LOG_ATOL)
        if want.stage_log_l2 is None:
            assert got.stage_log_l2 is None
        else:
            np.testing.assert_allclose(got.stage_log_l2, want.stage_log_l2, rtol=0,
                                       atol=self.LOG_ATOL)
        finite = np.isfinite(want.total_mass)
        np.testing.assert_array_equal(np.isfinite(got.total_mass), finite)
        np.testing.assert_allclose(got.total_mass[finite], want.total_mass[finite],
                                   rtol=self.MASS_RTOL, atol=0)
        assert got.min_density_ratio == pytest.approx(want.min_density_ratio, rel=0,
                                                      abs=self.RATIO_ATOL)
        self.assert_same_profile(got.final_profile, want.final_profile)
        assert [s.t for s in got.snapshots] == [s.t for s in want.snapshots]
        for g, w in zip(got.snapshots, want.snapshots):
            assert g.log_scale == pytest.approx(w.log_scale, rel=0, abs=self.LOG_ATOL)
            self.assert_same_profile(g.values, w.values)

    def assert_same_profile(self, got, want):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=self.PROFILE_RTOL * float(np.abs(want).max()))

    @pytest.mark.parametrize("name", sorted(NAMED_RUNS))
    def test_named_layouts(self, name):
        self.assert_same_run(NAMED_RUNS[name])

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_layouts(self, seed):
        self.assert_same_run(_seeded_run(seed))

    def test_named_runs_cover_block_edges_and_renormalisation(self):
        steps = {name: int(round(run.T / run.dt)) for name, run in NAMED_RUNS.items()}
        assert steps["dirichlet-40-steps"] < 64
        assert (steps["neumann-127-steps"] + 1) % 64 == 0
        assert all(n % 64 for name, n in steps.items() if name != "neumann-127-steps")
        up = simulate(NAMED_RUNS["neumann-renormalised-up"])
        down = simulate(NAMED_RUNS["dirichlet-renormalised-down"])
        assert up.final_log_scale > math.log(1e100)
        assert down.final_log_scale < math.log(1e-100)
        assert simulate(NAMED_RUNS["taiga-two-stage"]).n_stages == 2
        assert simulate(NAMED_RUNS["dirichlet-spike-oscillates"]).min_density_ratio < -0.5


ODD_GRID = GridSpec(13.3, 3, 5)


def _half_step_draw(seed: int):
    """Scalar Dirichlet or Neumann operator and a step of up to 3 for ``seed``."""
    rng = np.random.default_rng(7000 + seed)
    layout = PatchLayout(
        ScalarZone(loguniform(rng, 0.3, 5.0), loguniform(rng, 0.1, 3.0)),
        ScalarZone(loguniform(rng, 0.3, 5.0), -loguniform(rng, 0.1, 20.0)),
        R=loguniform(rng, 1.0, 6.0),
        r=loguniform(rng, 0.1, 1.5),
        bc=BCS[seed % 2],
    )
    op = assemble(layout, (FAST, ODD_GRID)[seed // 2 % 2], int(rng.integers(2)))
    return op, loguniform(rng, 1e-3, 3.0), rng.standard_normal(op.n_unknowns)


class TestTridiagonalHalfStep:
    """Off a ring a scalar step is solved by LAPACK ``dgttrs``, not SuperLU."""

    def test_matches_superlu(self):
        pivoted = 0
        for seed in range(200):
            op, dt, b = _half_step_draw(seed)
            M = (sparse.diags(op.mass) - (dt / 2.0) * op.stiffness).tocsc()
            want = 2.0 * splu(M).solve(b)
            got = _half_step_solver(op, dt, periodic=False)(b.copy())
            # At most 1.6e-12 over these draws, with condition numbers up to 3e5.
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), seed
            pivoted += bool(lapack.dgttrf(M.diagonal(-1), M.diagonal(), M.diagonal(1))[3].any())
        assert pivoted > 0  # some draws interchange rows (nonzero du2)

    def test_superlu_only_on_rings_and_stages(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("splu called")

        # The package re-exports the function ``simulate`` under the module's name.
        monkeypatch.setattr(importlib.import_module("patchcontrol.simulate"), "splu", refuse)
        for bc in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
            layout = PatchLayout(ScalarZone(1.0, 0.8), ScalarZone(1.5, -3.0), R=2.0, r=1.0, bc=bc)
            assert np.isfinite(simulate(SimulationRun(layout=layout, T=0.5, dt=0.01, grid=FAST)).log_l2).all()
        ring = PatchLayout(ScalarZone(1.0, 0.8), ScalarZone(1.5, -3.0), R=2.0, r=1.0, K=2,
                           bc=BoundaryCondition.PERIODIC)
        for layout in (ring, get_preset("taiga-two-stage")):
            with pytest.raises(AssertionError, match="splu called"):
                simulate(SimulationRun(layout=layout, T=0.5, dt=0.01, grid=FAST))
