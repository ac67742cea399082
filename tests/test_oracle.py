import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from patchcontrol import (
    BoundaryCondition,
    GridSpec,
    PatchLayout,
    ScalarProblem,
    ScalarZone,
    StageZone,
    VerdictStatus,
    min_mortality,
    top_eigenvalue_scalar,
)
from patchcontrol import oracle
from patchcontrol.model import LayoutError, validate_layout
from patchcontrol.oracle import (
    _staged_rightmost_eigenvalue,
    _top_eigenvalue_level,
    _with_control_mortality,
    _zone_cells,
    assemble,
    min_mortality_fd,
    refinement_history,
    top_eigenvalue_fd,
    verdict_fd,
)
from patchcontrol.presets import get_preset

from conftest import BCS, loguniform, random_scalar_problem

FAST = GridSpec(cells_per_unit_length=64, refinement_levels=2)


def single_zone_layout(a=1.0, lam=0.0, R=2.0, bc=BoundaryCondition.DIRICHLET, K=1):
    return PatchLayout(
        beneficial=ScalarZone(a, lam),
        control=ScalarZone(a, -1.0),
        R=R,
        r=0.0,
        K=K,
        bc=bc,
    )


class TestAssembly:
    def test_dirichlet_laplacian_spectrum_exact(self):
        # Uniform grid: all eigenvalues are -4a/h^2 sin^2(k pi h / (2L)).
        layout = single_zone_layout(a=1.0, lam=0.0, R=2.0)
        op = assemble(layout, GridSpec(cells_per_unit_length=32, refinement_levels=2), level=0)
        S = op.symmetric_form().toarray()
        vals = np.sort(np.linalg.eigvalsh(S))[::-1]
        n_cells = 64
        h = 2.0 / n_cells
        expected = np.sort(
            [-4.0 / h**2 * math.sin(k * math.pi * h / (2 * 2.0)) ** 2 for k in range(1, n_cells)]
        )[::-1]
        np.testing.assert_allclose(vals, expected, rtol=1e-10, atol=1e-10)

    def test_neumann_top_mode_is_constant(self):
        layout = single_zone_layout(a=3.0, lam=0.7, R=1.5, bc=BoundaryCondition.NEUMANN)
        op = assemble(layout, FAST, level=0)
        S = op.symmetric_form().toarray()
        top = np.linalg.eigvalsh(S)[-1]
        assert top == pytest.approx(0.7, abs=1e-10)

    def test_periodic_top_mode_is_constant(self):
        layout = single_zone_layout(a=2.0, lam=-0.3, R=1.0, bc=BoundaryCondition.PERIODIC, K=2)
        op = assemble(layout, FAST, level=0)
        S = op.symmetric_form().toarray()
        top = np.linalg.eigvalsh(S)[-1]
        assert top == pytest.approx(-0.3, abs=1e-10)

    def test_two_zone_scalar_matrix_symmetric(self):
        layout = PatchLayout(ScalarZone(2.0, 0.5), ScalarZone(0.3, -4.0), R=3.0, r=0.7, K=2)
        op = assemble(layout, FAST, level=0)
        S = op.symmetric_form()
        asym = np.abs((S - S.T).toarray()).max()
        assert asym <= 1e-14 * max(1.0, np.abs(S.toarray()).max())

    def test_staged_block_structure(self):
        layout = PatchLayout(
            beneficial=StageZone([1.0, 2.0], [[-1.0, 2.0], [0.5, -1.0]]),
            control=StageZone([1.0, 2.0], [[-3.0, 0.2], [0.05, -2.0]]),
            R=2.0,
            r=0.5,
        )
        op = assemble(layout, FAST, level=0)
        K = op.stiffness.tocoo()
        for i, j, v in zip(K.row, K.col, K.data):
            node_i, stage_i = divmod(i, 2)
            node_j, stage_j = divmod(j, 2)
            if node_i != node_j:
                # Spatial coupling never mixes stages.
                assert stage_i == stage_j, (node_i, node_j, stage_i, stage_j, v)

    def test_gershgorin_bounded_by_max_growth(self):
        layout = PatchLayout(ScalarZone(5.0, 1.3), ScalarZone(0.7, -9.0), R=2.0, r=0.4)
        op = assemble(layout, FAST, level=0)
        assert op.gershgorin_upper() <= 1.3 + 1e-9

    def test_whole_float_patch_count_same_as_int(self):
        # validate_layout accepts K = 2.0; the ring must repeat the pair twice.
        whole = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(1.5, -2.0), R=1.2, r=0.4, K=2)
        as_float = replace(whole, K=2.0)
        want, got = assemble(whole, FAST, level=1), assemble(as_float, FAST, level=1)
        for name in ("indptr", "indices", "data"):
            assert getattr(got.stiffness, name).tobytes() == getattr(want.stiffness, name).tobytes()
        assert got.mass.tobytes() == want.mass.tobytes()
        assert got.x.tobytes() == want.x.tobytes()
        assert top_eigenvalue_fd(as_float, FAST).top_eigenvalue == pytest.approx(
            top_eigenvalue_fd(whole, FAST).top_eigenvalue, rel=0, abs=1e-12)
        from patchcontrol.simulate import SimulationRun, simulate

        run = SimulationRun(layout=as_float, T=0.5, dt=0.01, grid=FAST)
        assert simulate(run).log_l2.tobytes() == simulate(replace(run, layout=whole)).log_l2.tobytes()

    def test_interfaces_on_nodes_every_level(self):
        layout = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(1.0, -2.0), R=1.37, r=0.23, K=2)
        for level in range(3):
            op = assemble(layout, FAST, level=level)
            for target in (1.37, 1.6, 2.97):  # zone boundaries of the K = 2 ring
                assert np.min(np.abs(op.x - target)) <= 1e-9


def _loop_assemble(layout: PatchLayout, grid: GridSpec, level: int):
    """Reference: the per-node loop ``assemble`` was built from, kept to pin its matrices.

    Returns the CSR stiffness, the mass vector and the node coordinates.
    """
    validate_layout(layout)
    zones = _zone_cells(layout, grid, level)
    n_stages = zones[0].diffusion.shape[0]
    h = np.concatenate([np.full(z.cells, z.h) for z in zones])
    a_cell = np.vstack([np.tile(z.diffusion, (z.cells, 1)) for z in zones])
    m_cell = np.concatenate([np.tile(z.reaction, (z.cells, 1, 1)) for z in zones])
    n_cells = len(h)
    x_all = np.concatenate([[0.0], np.cumsum(h)])

    periodic = layout.bc is BoundaryCondition.PERIODIC
    if periodic:
        nodes = np.arange(n_cells)
        x = x_all[:-1]
    elif layout.bc is BoundaryCondition.DIRICHLET:
        nodes = np.arange(1, n_cells)
        x = x_all[1:-1]
    else:
        nodes = np.arange(0, n_cells + 1)
        x = x_all

    n_nodes = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    rows, cols, data = [], [], []
    mass = np.zeros(n_nodes * n_stages)

    def add_block(i, j, block):
        for s in range(n_stages):
            for t in range(n_stages):
                v = block[s, t]
                if v != 0.0:
                    rows.append(i * n_stages + s)
                    cols.append(j * n_stages + t)
                    data.append(v)

    def add_diffusion(i, j, coeff):
        for s in range(n_stages):
            rows.append(i * n_stages + s)
            cols.append(j * n_stages + s)
            data.append(coeff[s])

    for i, node in enumerate(nodes):
        left_cell = (node - 1) % n_cells if periodic else node - 1
        right_cell = node % n_cells if periodic else node
        has_left = periodic or left_cell >= 0
        has_right = periodic or right_cell < n_cells

        box = 0.0
        reac = np.zeros((n_stages, n_stages))
        n_adj = 0
        if has_left:
            box += h[left_cell] / 2
            reac = reac + m_cell[left_cell]
            n_adj += 1
        if has_right:
            box += h[right_cell] / 2
            reac = reac + m_cell[right_cell]
            n_adj += 1
        reac = reac / n_adj
        mass[i * n_stages : (i + 1) * n_stages] = box

        diag = np.zeros(n_stages)
        if has_left:
            w = a_cell[left_cell] / h[left_cell]
            diag -= w
            neighbor = (node - 1) % n_cells if periodic else node - 1
            if neighbor in index:
                add_diffusion(i, index[neighbor], w)
        if has_right:
            w = a_cell[right_cell] / h[right_cell]
            diag -= w
            neighbor = (node + 1) % n_cells if periodic else node + 1
            if neighbor in index:
                add_diffusion(i, index[neighbor], w)
        add_diffusion(i, i, diag)
        add_block(i, i, box * reac)

    K = sparse.coo_matrix(
        (data, (rows, cols)), shape=(n_nodes * n_stages, n_nodes * n_stages)
    ).tocsr()
    K.sum_duplicates()
    return K, mass, x


def _random_zone(rng: np.random.Generator, n_stages: int, growth_sign: float):
    if n_stages == 1:
        return ScalarZone(loguniform(rng, 0.1, 100.0), growth_sign * loguniform(rng, 0.01, 100.0))
    reaction = rng.uniform(-3.0, 3.0, size=(n_stages, n_stages))
    reaction[rng.random((n_stages, n_stages)) < 0.3] = 0.0  # sparse blocks exercise the nonzero filter
    return StageZone([loguniform(rng, 0.1, 10.0) for _ in range(n_stages)], reaction)


def _transition_case(seed: int):
    """Seeded (layout, grid, level): every boundary, 1-3 stages, K = 1-3 on rings, levels 0-2."""
    rng = np.random.default_rng(seed)
    bc = BCS[seed % 3]
    n_stages = 1 + (seed // 3) % 3
    level = (seed // 9) % 3
    layout = PatchLayout(
        beneficial=_random_zone(rng, n_stages, 1.0),
        control=_random_zone(rng, n_stages, -1.0),
        R=loguniform(rng, 0.05, 3.0),
        r=loguniform(rng, 0.01, 2.0),
        K=int(rng.integers(1, 4)) if bc is BoundaryCondition.PERIODIC else 1,
        bc=bc,
    )
    grid = GridSpec(cells_per_unit_length=loguniform(rng, 2.0, 40.0), refinement_levels=2,
                    min_cells_per_zone=int(rng.integers(2, 9)))
    return layout, grid, level


def _edge_cases():
    """Zero control width, and the -0.0 control growth that zero mortality produces."""
    # At level 0 this grid gives the r = 0 ring two cells, so both neighbours of a node are one node.
    coarse = GridSpec(cells_per_unit_length=1, refinement_levels=2, min_cells_per_zone=2)
    cases = []
    for bc in BCS:
        base = PatchLayout(ScalarZone(1.3, 0.8), ScalarZone(0.4, -2.0), R=1.1, r=0.3, bc=bc)
        for level in range(3):
            cases.append((replace(base, r=0.0), coarse, level))
            cases.append((_with_control_mortality(base, 0.0), FAST, level))
    return cases


class TestAssemblyMatchesLoop:
    """``assemble`` gives the reference loop's matrices bit for bit."""

    @staticmethod
    def assert_same_operator(layout, grid, level):
        K_ref, mass_ref, x_ref = _loop_assemble(layout, grid, level)
        op = assemble(layout, grid, level)
        K = op.stiffness
        assert K.shape == K_ref.shape
        for name, got, want in (
            ("indptr", K.indptr, K_ref.indptr),
            ("indices", K.indices, K_ref.indices),
            ("data", K.data, K_ref.data),
            ("mass", op.mass, mass_ref),
            ("x", op.x, x_ref),
        ):
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("seed", range(72))
    def test_seeded_layouts(self, seed):
        self.assert_same_operator(*_transition_case(seed))

    @pytest.mark.parametrize("case", range(18))
    def test_zero_width_and_negative_zero_growth(self, case):
        layout, grid, level = _edge_cases()[case]
        if case % 2:
            assert math.copysign(1.0, layout.control.growth) == -1.0
        else:
            assert layout.r == 0.0
        self.assert_same_operator(layout, grid, level)


_M2 = [[-0.5, 1.2], [0.6, -0.4]]
_M3 = [[-0.5, 0.0, 1.5], [0.8, -0.6, 0.0], [0.0, 0.7, -0.4]]


class TestStagedArnoldi:
    """The staged shift-invert Arnoldi solve (20 Krylov vectors) against a dense
    eigensolve of ``B^-1 K`` on periodic rings."""

    @pytest.mark.parametrize(
        "K, diffusion, reaction, R, r, mu, cells, level",
        [
            # Rightmost 3.69, nearest to zero 1.32: a shift below the spectrum would miss it.
            (1, [1.0, 0.5], np.multiply(10, _M2), 3.0, 1.0, 2.0, 40, 0),
            # Top gap 1.4e-4: the copies of the patch barely couple through the control zones.
            (2, [0.5, 0.2], _M2, 2.0, 2.0, 8.0, 24, 1),
            (3, [1.0, 0.5], _M2, 2.0, 2.0, 8.0, 16, 1),
            (3, [1.0, 2.0, 0.5], _M3, 1.5, 0.5, 3.0, 32, 0),
        ],
    )
    def test_matches_dense_rightmost(self, K, diffusion, reaction, R, r, mu, cells, level):
        reaction = np.array(reaction)
        layout = PatchLayout(
            StageZone(diffusion, reaction),
            StageZone(diffusion, reaction - mu * np.eye(len(diffusion))),
            R=R, r=r, K=K, bc=BoundaryCondition.PERIODIC,
        )
        op = assemble(layout, GridSpec(cells_per_unit_length=cells, min_cells_per_zone=8), level)
        assert 200 < op.n_unknowns <= 2500
        value, path = _staged_rightmost_eigenvalue(op)
        assert path == "shift-invert-arnoldi"
        dense = np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])
        rightmost = dense[np.argmax(dense.real)]
        assert abs(rightmost.imag) <= 1e-9 * abs(rightmost)
        assert abs(value - rightmost.real) <= 1e-9 * abs(rightmost.real)


class TestStagedWholeRing:
    """Staged rings are solved on all ``K`` periods.  Without cooperative
    coupling the growing mode can span two periods (a Turing-type instability
    here: the inhibitor diffuses 40 times faster), which one period misses."""

    LAYOUT = PatchLayout(
        StageZone([1.0, 40.0], [[1.0, -1.0], [5.0, -4.0]]),
        StageZone([1.0, 40.0], [[0.5, -1.0], [5.0, -4.5]]),
        R=5.0, r=0.7, K=2, bc=BoundaryCondition.PERIODIC,
    )
    GRID = GridSpec(cells_per_unit_length=8, min_cells_per_zone=4)

    @staticmethod
    def dense_rightmost(layout, grid, level):
        op = assemble(layout, grid, level)
        vals = np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])
        return vals[np.argmax(vals.real)]

    @pytest.mark.parametrize("level, path", [(0, "dense"), (1, "shift-invert-arnoldi")])
    def test_antiperiodic_growth(self, level, path):
        ring = self.dense_rightmost(self.LAYOUT, self.GRID, level)
        period = self.dense_rightmost(replace(self.LAYOUT, K=1), self.GRID, level)
        assert ring.imag == 0.0 and ring.real > 0.3 and period.real < -0.3
        value, how = _top_eigenvalue_level(self.LAYOUT, self.GRID, level)
        assert how == path
        assert abs(value - ring.real) <= 1e-9 * ring.real

    def test_verdict_is_not_eradication(self):
        assert verdict_fd(self.LAYOUT, self.GRID).status is not VerdictStatus.ERADICATION


class TestPatchCountChecked:
    """The caller's ``K`` is validated before a scalar ring is cut to one period."""

    @pytest.mark.parametrize(
        "K, bc",
        [(0, BoundaryCondition.PERIODIC), (2.5, BoundaryCondition.PERIODIC),
         (2, BoundaryCondition.DIRICHLET)],
    )
    def test_refuses(self, K, bc):
        layout = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0, K=K, bc=bc)
        with pytest.raises(LayoutError) as err:
            top_eigenvalue_fd(layout, FAST)
        assert err.value.code == "InvalidPatchCount"


class TestStagedComplexRightmost:
    """A complex rightmost pair (possible only without cooperative coupling)
    raises instead of returning the largest real eigenvalue or a fallback value."""

    @staticmethod
    def layout(reaction):
        reaction = np.array(reaction, dtype=float)
        diffusion = np.ones(len(reaction))
        return PatchLayout(
            StageZone(diffusion, reaction),
            StageZone(diffusion, reaction - 3.0 * np.eye(len(reaction))),
            R=2.0, r=1.0, K=1, bc=BoundaryCondition.PERIODIC,
        )

    def test_dense_branch(self):
        # Rightmost 0.273 + 2.000i; the largest real eigenvalue is -1.727.
        op = assemble(
            self.layout([[1, -2, 0], [2, 1, 0], [0, 0, -1]]),
            GridSpec(cells_per_unit_length=4, min_cells_per_zone=4),
        )
        assert op.n_unknowns < 200
        with pytest.raises(oracle.NoConvergenceError, match="complex"):
            _staged_rightmost_eigenvalue(op)

    def test_arnoldi_branch(self):
        # Rightmost -0.3203 + 2.00i.
        op = assemble(self.layout([[0.5, -2], [2, 0.3]]), GridSpec(cells_per_unit_length=64))
        assert op.n_unknowns == 384
        with pytest.raises(oracle.NoConvergenceError, match="complex"):
            _staged_rightmost_eigenvalue(op)


def _ring(rng: np.random.Generator, K: int, R: float, r: float) -> PatchLayout:
    return PatchLayout(
        ScalarZone(loguniform(rng, 0.1, 10.0), float(rng.uniform(-1.0, 3.0))),
        ScalarZone(loguniform(rng, 0.1, 10.0), -loguniform(rng, 0.1, 30.0)),
        R=R, r=r, K=K, bc=BoundaryCondition.PERIODIC,
    )


def _largest_entry(op) -> float:
    return float(abs(op.symmetric_form()).max())


class TestScalarRingFold:
    """Each scalar ring level is solved on half a period (the folded path) and
    must give the top eigenvalue of the whole ring.

    The bound is relative to the largest entry of the symmetric form rather
    than its largest diagonal entry: on a uniform ring the diagonal
    ``-2a/h^2 + growth`` can nearly cancel while the couplings stay large."""

    # One cell per unit length with a minimum of 2 per zone: at level 0 the
    # zones have 2 or 3 cells (even and odd), r = 0.4 takes the minimum, and
    # K = 1, R = 2, r = 0 is the two-node ring whose two edges share one entry.
    GRID = GridSpec(cells_per_unit_length=1.0, refinement_levels=3, min_cells_per_zone=2)

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("R", [2.0, 3.0])
    @pytest.mark.parametrize("r", [0.0, 0.4, 3.0])
    def test_matches_dense_reference(self, monkeypatch, K, R, r):
        sizes = []
        solve = oracle.eigvalsh_tridiagonal

        def recording_solve(d, e, **kwargs):
            sizes.append(len(d))
            return solve(d, e, **kwargs)

        monkeypatch.setattr(oracle, "eigvalsh_tridiagonal", recording_solve)
        rng = np.random.default_rng(int(100 * K + 10 * R + 10 * r))
        for _ in range(3):
            layout = _ring(rng, K, R, r)
            for level in range(self.GRID.refinement_levels):
                op = assemble(layout, self.GRID, level)
                reference = np.linalg.eigvalsh(op.symmetric_form().toarray())[-1]
                value, _ = _top_eigenvalue_level(layout, self.GRID, level)
                assert abs(value - reference) <= 1e-13 * _largest_entry(op)
                # One period has n / K nodes; the folded path covers half of it.
                assert sizes[-1] <= op.n_unknowns // (2 * K) + 1

    def test_two_node_ring(self):
        layout = _ring(np.random.default_rng(3), 1, 2.0, 0.0)
        op = assemble(layout, self.GRID, 0)
        assert op.n_unknowns == 2 and op.stiffness.nnz == 4
        reference = np.linalg.eigvalsh(op.symmetric_form().toarray())[-1]
        value, _ = _top_eigenvalue_level(layout, self.GRID, 0)
        assert abs(value - reference) <= 1e-13 * _largest_entry(op)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_lone_star_matches_shift_invert(self, level):
        layout = get_preset("lone-star")
        op = assemble(layout, GridSpec(), level)
        assert op.n_unknowns == 960 * 2**level
        S = op.symmetric_form().tocsc()
        reference = eigsh(
            S, k=1, sigma=op.gershgorin_upper() + 1.0, which="LM",
            v0=np.ones(op.n_unknowns), return_eigenvectors=False,
        )[0]
        value, _ = _top_eigenvalue_level(layout, GridSpec(), level)
        assert abs(value - reference) <= 1e-13 * _largest_entry(op)


class TestScalarSinglePath:
    """Every scalar layout is solved by the tridiagonal path alone."""

    @pytest.mark.parametrize(
        "layout",
        [
            single_zone_layout(lam=0.5),
            single_zone_layout(lam=0.5, bc=BoundaryCondition.NEUMANN),
            PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0,
                        bc=BoundaryCondition.DIRICHLET),
            PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0,
                        bc=BoundaryCondition.NEUMANN),
            PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0, K=2),
            get_preset("lone-star"),  # a ring of 960 to 3840 nodes
        ],
    )
    def test_no_dense_or_sparse_eigensolver(self, monkeypatch, layout):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar layouts must not reach this eigensolver")

        monkeypatch.setattr(oracle, "eigsh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert math.isfinite(top_eigenvalue_fd(layout).top_eigenvalue)


class TestGridSpec:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"cells_per_unit_length": math.nan}, "cells_per_unit_length"),
            ({"cells_per_unit_length": math.inf}, "cells_per_unit_length"),
            ({"cells_per_unit_length": 0.0}, "cells_per_unit_length"),
            ({"refinement_levels": 2.5}, "refinement_levels"),
            ({"refinement_levels": 3.0}, "refinement_levels"),
            ({"refinement_levels": True}, "refinement_levels"),
            ({"refinement_levels": 1}, "refinement_levels"),
            ({"min_cells_per_zone": 2.5}, "min_cells_per_zone"),
            ({"min_cells_per_zone": math.nan}, "min_cells_per_zone"),
            ({"min_cells_per_zone": True}, "min_cells_per_zone"),
        ],
    )
    def test_refuses(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GridSpec(**kwargs)

    def test_accepts_numpy_integers(self):
        grid = GridSpec(refinement_levels=np.int64(2), min_cells_per_zone=np.int32(4))
        assert top_eigenvalue_fd(single_zone_layout(lam=0.5), grid).error_estimate >= 0


class TestConvergence:
    def test_second_order_ratio(self):
        p = ScalarProblem(a=1.0, lam=1.0, b=2.0, mu=3.0, R=2.0, r=1.0,
                          bc=BoundaryCondition.DIRICHLET)
        hist = refinement_history(p.to_layout(), GridSpec(cells_per_unit_length=32,
                                                          refinement_levels=4))
        d1 = hist[1] - hist[0]
        d2 = hist[2] - hist[1]
        d3 = hist[3] - hist[2]
        assert 3.0 <= d1 / d2 <= 5.0
        assert 3.0 <= d2 / d3 <= 5.0

    def test_pure_kiss_analytics(self):
        for a, lam, R in ((1.0, 1.0, math.pi), (2.5, 0.8, 4.0), (16.67, 0.65, 10.0)):
            p = ScalarProblem(a=a, lam=lam, b=a, mu=0.0, R=R, r=0.0,
                              bc=BoundaryCondition.DIRICHLET)
            grid = GridSpec(cells_per_unit_length=256.0 / R, refinement_levels=2,
                            min_cells_per_zone=16)
            rep = top_eigenvalue_fd(p.to_layout(), grid)
            exact = lam - a * (math.pi / R) ** 2
            assert rep.top_eigenvalue == pytest.approx(exact, abs=1e-4)

    def test_dispersion_root_agreement(self):
        cases = [
            ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=10, R=14, r=1),
            ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=10, R=14, r=1,
                          bc=BoundaryCondition.DIRICHLET),
            ScalarProblem(a=1, lam=0.2, b=1, mu=2, R=1, r=1, bc=BoundaryCondition.NEUMANN),
            ScalarProblem(a=2, lam=0.9, b=0.5, mu=6, R=3, r=0.6, bc=BoundaryCondition.DIRICHLET),
        ]
        for p in cases:
            rep = top_eigenvalue_scalar(p)
            fd = top_eigenvalue_fd(p.to_layout(), FAST)
            assert abs(fd.top_eigenvalue - rep.top_eigenvalue) <= 10 * fd.error_estimate


class TestEigenvalueProperties:
    def test_monotone_in_mortality(self):
        values = []
        for mu in (0.5, 2.0, 8.0, 32.0):
            layout = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(1.0, -mu), R=2.0, r=0.8)
            values.append(top_eigenvalue_fd(layout, FAST).top_eigenvalue)
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_k_independence(self):
        p = ScalarProblem(a=2.0, lam=0.7, b=1.0, mu=4.0, R=3.0, r=0.8)
        reports = [
            top_eigenvalue_fd(
                PatchLayout(ScalarZone(p.a, p.lam), ScalarZone(p.b, -p.mu), R=p.R, r=p.r, K=K),
                FAST,
            )
            for K in (1, 2, 3)
        ]
        base = reports[0]
        for rep in reports[1:]:
            tol = 10 * (rep.error_estimate + base.error_estimate)
            assert abs(rep.top_eigenvalue - base.top_eigenvalue) <= tol


class TestVerdictFd:
    def test_clause_iii_eradication(self):
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=3.0, R=7.0, r=1.0,
                          bc=BoundaryCondition.DIRICHLET)
        assert verdict_fd(p.to_layout(), FAST).status is VerdictStatus.ERADICATION

    def test_clause_i_survival(self):
        p = ScalarProblem(a=1.0, lam=10.0, b=1.0, mu=50.0, R=math.pi, r=1.0,
                          bc=BoundaryCondition.DIRICHLET)
        assert verdict_fd(p.to_layout(), FAST).status is VerdictStatus.SURVIVAL

    def test_near_threshold_marginal(self):
        mu_star = min_mortality(16.67, 0.65, 14.0, 16.67, 1.0)
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=mu_star, R=14.0, r=1.0)
        assert verdict_fd(p.to_layout(), FAST).status is VerdictStatus.MARGINAL


class TestOracleInverseDesign:
    def test_min_mortality_zero_when_already_eradicated(self):
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=0.0, R=7.0, r=1.0,
                          bc=BoundaryCondition.DIRICHLET)
        assert min_mortality_fd(p.to_layout(), FAST) == 0.0

    def test_min_mortality_brackets_closed_form(self):
        mu_closed = min_mortality(1.0, 0.4, 3.0, 1.0, 1.0)
        p = ScalarProblem(a=1.0, lam=0.4, b=1.0, mu=1.0, R=3.0, r=1.0)
        mu_fd = min_mortality_fd(p.to_layout(), GridSpec(cells_per_unit_length=128,
                                                         refinement_levels=2))
        assert mu_fd == pytest.approx(mu_closed, rel=0.02)


class TestRandomizedAgreementSmoke:
    def test_thirty_random_layouts(self):
        from patchcontrol import scalar_verdict

        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(30):
            p = random_scalar_problem(rng)
            fd = top_eigenvalue_fd(p.to_layout(), FAST)
            if abs(fd.top_eigenvalue) <= 10 * fd.error_estimate:
                continue
            v = scalar_verdict(p)
            if v.status is VerdictStatus.MARGINAL:
                continue
            expected = (
                VerdictStatus.ERADICATION if fd.top_eigenvalue < 0 else VerdictStatus.SURVIVAL
            )
            assert v.status is expected
            checked += 1
        assert checked >= 20
