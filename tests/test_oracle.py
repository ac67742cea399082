import ast
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from patchcontrol import (
    BoundaryCondition,
    GridSpec,
    PatchLayout,
    ScalarProblem,
    ScalarZone,
    StagedProblem,
    StageZone,
    VerdictStatus,
    min_mortality,
    top_eigenvalue_scalar,
)
from patchcontrol import oracle
from patchcontrol.model import LayoutError, validate_layout
from patchcontrol.oracle import (
    _growth_bound,
    _imag_bound,
    _level_chain,
    _staged_rightmost_eigenvalue,
    _top_eigenvalue_level,
    _with_control_mortality,
    _zone_cells,
    assemble,
    min_mortality_fd,
    min_zone_width_fd,
    top_eigenvalue_fd,
    verdict_fd,
)
from patchcontrol.presets import get_preset
from patchcontrol.simulate import SimulationRun, simulate

from sweeps import BCS, imported_names, loguniform, random_scalar_problem, random_supercritical_stage_matrix

FAST = GridSpec(cells_per_unit_length=64, refinement_levels=2)


def symmetric_form(op) -> sparse.csr_matrix:
    """``B^-1/2 K B^-1/2``: symmetric for a scalar layout, with the spectrum of ``B^-1 K``."""
    w = 1.0 / np.sqrt(op.mass)
    return sparse.diags(w) @ op.stiffness @ sparse.diags(w)


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
        S = symmetric_form(op).toarray()
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
        S = symmetric_form(op).toarray()
        top = np.linalg.eigvalsh(S)[-1]
        assert top == pytest.approx(0.7, abs=1e-10)

    def test_periodic_top_mode_is_constant(self):
        layout = single_zone_layout(a=2.0, lam=-0.3, R=1.0, bc=BoundaryCondition.PERIODIC, K=2)
        op = assemble(layout, FAST, level=0)
        S = symmetric_form(op).toarray()
        top = np.linalg.eigvalsh(S)[-1]
        assert top == pytest.approx(-0.3, abs=1e-10)

    def test_two_zone_scalar_matrix_symmetric(self):
        layout = PatchLayout(ScalarZone(2.0, 0.5), ScalarZone(0.3, -4.0), R=3.0, r=0.7, K=2)
        op = assemble(layout, FAST, level=0)
        S = symmetric_form(op)
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
        reac = np.zeros((n_stages, n_stages))  # each adjacent cell's reaction over its half of the box
        if has_left:
            box += h[left_cell] / 2
            reac = reac + h[left_cell] / 2 * m_cell[left_cell]
        if has_right:
            box += h[right_cell] / 2
            reac = reac + h[right_cell] / 2 * m_cell[right_cell]
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
        add_block(i, i, reac)

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


# At level 0 this grid gives an r = 0 ring two cells, so both neighbours of a node are one node.
_COARSE = GridSpec(cells_per_unit_length=1, refinement_levels=2, min_cells_per_zone=2)
# At level 0 this grid gives a = 1 cells of width 1/4: flux -8 and growth 32 cancel on the diagonal.
_QUARTER = GridSpec(cells_per_unit_length=4, refinement_levels=2, min_cells_per_zone=2)


def _edge_cases():
    """Zero control width, and the -0.0 control growth that zero mortality produces (the first 18
    cases); then the layouts of ``_staged_edge_cases`` and ``_zero_diagonal_cases``."""
    cases = []
    for bc in BCS:
        base = PatchLayout(ScalarZone(1.3, 0.8), ScalarZone(0.4, -2.0), R=1.1, r=0.3, bc=bc)
        for level in range(3):
            cases.append((replace(base, r=0.0), _COARSE, level))
            cases.append((_with_control_mortality(base, 0.0), FAST, level))
    return cases + _staged_edge_cases() + _zero_diagonal_cases()


def _staged_edge_cases():
    """Zero-width staged layouts with zero and negative stage couplings, 2 and 3 stages, levels 0-3:
    at level 0 the ring has two nodes, whose two neighbours coincide."""
    reactions = ([[-0.5, 0.0], [-0.7, 0.3]], [[0.4, 0.0, -1.1], [0.8, -0.6, 0.0], [0.0, -0.3, 0.2]])
    cases = []
    for bc in BCS:
        for reaction in map(np.array, reactions):
            diffusion = [1.3, 0.4, 2.1][: len(reaction)]
            control = StageZone(diffusion, reaction - 2.0 * np.eye(len(reaction)))
            layout = PatchLayout(StageZone(diffusion, reaction), control, R=1.1, r=0.0, bc=bc)
            cases += [(layout, _COARSE, level) for level in range(4)]
    return cases


def _zero_diagonal_cases():
    """Scalar and two-stage layouts on every boundary whose beneficial-zone nodes have a zero diagonal at level 0."""
    zones = [(ScalarZone(1.0, 32.0), ScalarZone(0.5, -1.0)),
             (StageZone([1.0, 1.0], [[32.0, 0.5], [0.25, 32.0]]), StageZone([0.5, 2.0], [[-1.0, 0.0], [0.3, -2.0]]))]
    return [(PatchLayout(ben, ctl, R=2.0, r=1.0, bc=bc), _QUARTER, 0) for ben, ctl in zones for bc in BCS]


class TestGrowthBound:
    """``_growth_bound`` is read off the zones alone: it bounds the Gershgorin row bound of
    every assembled level, and it is the scalar window's top and a staged level's shift."""

    @pytest.mark.parametrize("case", [_transition_case(seed) for seed in range(27)] + _edge_cases())
    def test_at_least_the_assembled_gershgorin_bound(self, case):
        layout, grid, level = case
        op = assemble(layout, grid, level)
        K, B = op.stiffness, op.mass
        radius = np.asarray(abs(K).sum(axis=1)).ravel() - np.abs(K.diagonal())
        assembled = float(((K.diagonal() + radius) / B).max())
        assert _growth_bound(layout) >= assembled - 1e-12 * abs(K).max() / B.min()

    @pytest.mark.parametrize("seed", [seed for seed in range(27) if (seed // 3) % 3])
    def test_imag_bound_holds_on_every_staged_level(self, seed):
        # Bendixson on B^-1/2 K B^-1/2: the zones' skew parts bound every eigenvalue's imaginary part.
        layout, grid, _ = _transition_case(seed)
        op = assemble(layout, grid, 0)
        vals = np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])
        assert np.abs(vals.imag).max() <= _imag_bound(layout) * (1 + 1e-12) + 1e-12 * np.abs(vals).max()

    def test_scalar_window_top_is_the_largest_growth(self, monkeypatch):
        tops = []
        solve = oracle.eigvalsh_tridiagonal

        def recording_solve(d, e, **kwargs):
            if kwargs["select"] == "v":
                tops.append((kwargs["select_range"][1], float(np.abs(d).max())))
            return solve(d, e, **kwargs)

        monkeypatch.setattr(oracle, "eigvalsh_tridiagonal", recording_solve)
        rng = np.random.default_rng(26)
        layouts = [replace(random_scalar_problem(rng), bc=bc, K=K).to_layout() for bc in BCS for K in (1, 2)
                   if K == 1 or bc is BoundaryCondition.PERIODIC]
        for layout in layouts + [layout for layout, _, _ in _edge_cases() if layout.is_scalar]:
            tops.clear()
            _level_chain(layout, GridSpec(cells_per_unit_length=16, refinement_levels=3, min_cells_per_zone=4))
            growth = max(layout.beneficial.growth, layout.control.growth)
            assert tops and all(top == growth + 1e-12 * d_max for top, d_max in tops)


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

    @pytest.mark.parametrize("case", _staged_edge_cases() + _zero_diagonal_cases())
    def test_staged_and_zero_diagonal_layouts(self, case):
        layout, grid, level = case
        self.assert_same_operator(layout, grid, level)
        K = assemble(layout, grid, level).stiffness
        on_diagonal = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr)) == K.indices
        assert np.count_nonzero(on_diagonal) == K.shape[0]  # every row stores its diagonal
        if grid is _QUARTER:
            assert np.count_nonzero(K.diagonal() == 0.0) >= 7


_M2 = [[-0.5, 1.2], [0.6, -0.4]]
_M3 = [[-0.5, 0.0, 1.5], [0.8, -0.6, 0.0], [0.0, 0.7, -0.4]]


_RINGS = pytest.mark.parametrize(
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


def _arnoldi_ring(K, diffusion, reaction, R, r, mu) -> PatchLayout:
    reaction = np.array(reaction)
    return PatchLayout(
        StageZone(diffusion, reaction),
        StageZone(diffusion, reaction - mu * np.eye(len(diffusion))),
        R=R, r=r, K=K, bc=BoundaryCondition.PERIODIC,
    )


class TestStagedArnoldi:
    """The staged shift-invert Arnoldi solve (20 Krylov vectors) against a dense
    eigensolve of ``B^-1 K`` on periodic rings."""

    @_RINGS
    def test_matches_dense_rightmost(self, K, diffusion, reaction, R, r, mu, cells, level):
        layout = _arnoldi_ring(K, diffusion, reaction, R, r, mu)
        op = assemble(layout, GridSpec(cells_per_unit_length=cells, min_cells_per_zone=8), level)
        assert 200 < op.n_unknowns <= 2500
        value, path = _staged_rightmost_eigenvalue(op, _growth_bound(layout) + 1.0, _imag_bound(layout))
        assert path == "shift-invert-arnoldi"
        dense = np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])
        rightmost = dense[np.argmax(dense.real)]
        assert abs(rightmost.imag) <= 1e-9 * abs(rightmost)
        assert abs(value - rightmost.real) <= 1e-9 * abs(rightmost.real)


def band_to_dense(band: np.ndarray, n_stages: int) -> np.ndarray:
    """The square matrix held in LAPACK band storage with ``kl = ku = n_stages`` (``dgbtrf`` layout)."""
    i, j = np.indices((band.shape[1],) * 2)
    inside = np.abs(i - j) <= n_stages
    dense = np.zeros(i.shape)
    dense[inside] = band[(2 * n_stages + i - j)[inside], j[inside]]
    return dense


class TestPerronBracket:
    """Cooperative, irreducible levels of two or more stages are bracketed by Collatz-Wielandt
    inverse iteration on a band LU written straight from the node coefficients: no CSR, no Arnoldi.
    Reducible and non-cooperative levels keep assembly and Arnoldi."""

    @staticmethod
    def draw(rng, i):
        """2-4 stages, every boundary in turn, rings of K = 1-3, a fifth without control zone."""
        n_stages = int(rng.integers(2, 5))
        bc = BCS[i % 3]
        M = random_supercritical_stage_matrix(rng, n_stages)  # a birth-death cycle: Metzler, irreducible
        diffusion = [loguniform(rng, 0.1, 10.0) for _ in range(n_stages)]
        layout = PatchLayout(
            StageZone(diffusion, M), StageZone(diffusion, M - loguniform(rng, 0.1, 5.0) * np.eye(n_stages)),
            R=loguniform(rng, 0.5, 4.0), r=0.0 if rng.uniform() < 0.2 else loguniform(rng, 0.1, 3.0),
            K=int(rng.integers(1, 4)) if bc is BoundaryCondition.PERIODIC else 1, bc=bc,
        )
        grid = GridSpec(cells_per_unit_length=loguniform(rng, 0.5, 3.0), min_cells_per_zone=int(rng.integers(2, 7)))
        return layout, grid, int(rng.integers(2))

    def test_cooperative_draws_match_dense(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("assembly or Arnoldi inside a bracketed level")

        rng = np.random.default_rng(2920)
        for i in range(60):
            layout, grid, level = self.draw(rng, i)
            with monkeypatch.context() as m:
                m.setattr(oracle, "assemble", refuse)
                m.setattr(sparse.linalg, "eigs", refuse)
                value, how = _top_eigenvalue_level(layout, grid, level)
            assert how == "perron-bracket"
            line, line_grid = solved_level(layout, grid)
            assert line.bc is not BoundaryCondition.PERIODIC
            op = assemble(line, line_grid, level)
            A = op.stiffness.toarray() / op.mass[:, None]
            assert all(metzler_irreducible(A)) and op.n_unknowns <= 400
            vals = np.linalg.eigvals(A)
            rightmost = vals[np.argmax(vals.real)]
            assert rightmost.imag == 0.0
            assert abs(value - rightmost.real) <= 1e-13 * np.abs(A).max()

            band, mass, scale = oracle._staged_band(line, line_grid, level)
            assert np.array_equal(mass, op.mass) and scale == pytest.approx(np.abs(A).sum(axis=1).max(), rel=1e-14)
            assert not band[: layout.dimension].any()  # the rows dgbtrf fills in
            sigma = _growth_bound(layout) + 1.0
            band[2 * layout.dimension] += sigma * mass
            assert np.array_equal(band_to_dense(band, layout.dimension), sigma * np.diag(op.mass) - op.stiffness.toarray())

    @pytest.mark.parametrize(
        "ben, ctl, r, K, bc",
        [
            ([[0.5, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -2.0]], 1.0, 1, BoundaryCondition.NEUMANN),
            ([[0.5, 0.0], [0.0, 1.0]], [[-1.0, 0.7], [0.4, -2.0]], 0.0, 2, BoundaryCondition.PERIODIC),
            ([[0.5, 0.8], [0.0, 1.0]], [[-1.0, 0.3], [0.0, -2.0]], 1.0, 1, BoundaryCondition.DIRICHLET),
        ],
        ids=["diagonal", "only-absent-control-coupled", "one-way"],
    )
    def test_reducible_levels_keep_arnoldi(self, ben, ctl, r, K, bc):
        layout = PatchLayout(StageZone([1.0, 0.3], ben), StageZone([1.0, 0.3], ctl), R=3.0, r=r, K=K, bc=bc)
        grid = GridSpec(cells_per_unit_length=8, min_cells_per_zone=4)
        for level in range(2):
            value, how = _top_eigenvalue_level(layout, grid, level)
            line, line_grid = solved_level(layout, grid)
            op = assemble(line, line_grid, level)
            assert how == "shift-invert-arnoldi"
            assert (value, how) == _staged_rightmost_eigenvalue(op, _growth_bound(layout) + 1.0, 0.0)
            A = op.stiffness.toarray() / op.mass[:, None]
            assert metzler_irreducible(A) == (True, False)
            vals = np.linalg.eigvals(A)
            assert abs(value - vals.real.max()) <= 1e-13 * np.abs(A).max()

    @pytest.mark.parametrize("r", [0.0, 0.734])
    def test_numpy_widths_take_the_same_path(self, r):
        taiga, grid = get_preset("taiga-two-stage"), GridSpec(refinement_levels=2)
        as_numpy = replace(taiga, R=np.float64(taiga.R), r=np.float64(r))
        assert _top_eigenvalue_level(as_numpy, grid, 0) == _top_eigenvalue_level(replace(taiga, r=r), grid, 0)

    @_RINGS
    def test_arnoldi_rings_agree(self, K, diffusion, reaction, R, r, mu, cells, level):
        layout = _arnoldi_ring(K, diffusion, reaction, R, r, mu)
        grid = GridSpec(cells_per_unit_length=cells, min_cells_per_zone=8)
        value, how = _top_eigenvalue_level(layout, grid, level)
        assert how == "perron-bracket"
        op = assemble(*solved_level(layout, grid), level)
        arnoldi, _ = _staged_rightmost_eigenvalue(op, _growth_bound(layout) + 1.0, 0.0)
        assert abs(value - arnoldi) <= 1e-9 * abs(arnoldi)

    @pytest.mark.parametrize("fault, message", [
        ("negative", "not positive"), ("spread", "did not close in 100 solves"), ("singular", "singular"),
    ])
    def test_failures_raise(self, monkeypatch, fault, message):
        solve, factor, solves = oracle.dgbtrs, oracle.dgbtrf, []

        def faulty_solve(*args, **kwargs):
            w, info = solve(*args, **kwargs)
            solves.append(1)
            return (-w if fault == "negative" else w * (1.0 + (np.arange(len(w)) + len(solves)) % 2)), info

        def singular_factor(*args, **kwargs):
            lu, piv, _ = factor(*args, **kwargs)
            return lu, piv, 1

        monkeypatch.setattr(oracle, "dgbtrs", faulty_solve)
        if fault == "singular":
            monkeypatch.setattr(oracle, "dgbtrf", singular_factor)
        with pytest.raises(oracle.NoConvergenceError, match=message):
            top_eigenvalue_fd(get_preset("taiga-two-stage"), GridSpec(refinement_levels=2))
        assert len(solves) == {"negative": 1, "spread": 100, "singular": 0}[fault]


class TestStagedBackwardError:
    """Staged levels keep their sign at the taiga preset's verdict boundary, where the
    eigenvalue itself is near zero: the Perron bracket's width is a round-off multiple
    of ``|B^-1 K|``.  Arnoldi pairs are accepted by backward error."""

    GRID = GridSpec(refinement_levels=2)

    def test_scan_across_the_verdict_boundary(self):
        taiga = get_preset("taiga-two-stage")
        signs = set()
        for r in np.random.default_rng(16).uniform(0.7335, 0.7345, 8):
            report = top_eigenvalue_fd(replace(taiga, r=float(r)), self.GRID)
            assert "perron-bracket" in report.grid_or_step
            signs.add(np.sign(report.top_eigenvalue))
        assert signs == {-1.0, 1.0}

    def test_perturbed_eigenvector_is_refused(self, monkeypatch):
        eigs = sparse.linalg.eigs

        def perturbed(*args, **kwargs):
            vals, vecs = eigs(*args, **kwargs)
            noise = np.random.default_rng(3).standard_normal(vecs.shape)
            return vals, vecs + 1e-3 * np.linalg.norm(vecs) / np.linalg.norm(noise) * noise

        taiga = get_preset("taiga-two-stage")
        one_way = np.triu(taiga.beneficial.reaction)  # reducible: solved by Arnoldi
        layout = replace(taiga, r=0.734, beneficial=StageZone(taiga.beneficial.diffusion_diag, one_way),
                         control=StageZone(taiga.control.diffusion_diag, np.triu(taiga.control.reaction)))
        assert _top_eigenvalue_level(layout, self.GRID, 0)[1] == "shift-invert-arnoldi"
        monkeypatch.setattr(sparse.linalg, "eigs", perturbed)
        with pytest.raises(oracle.NoConvergenceError, match="backward error"):
            top_eigenvalue_fd(layout, self.GRID)

    @pytest.mark.parametrize("level", [0, 1])
    def test_column_sum_norm_from_the_csc_segments(self, level):
        # The acceptance scale sums |K| per CSC segment; every column holds its
        # diagonal, so no segment is empty and the sums equal abs(K)'s column sums.
        rng = np.random.default_rng(1717)
        for _ in range(12):
            bc = BCS[int(rng.integers(3))]
            M = random_supercritical_stage_matrix(rng, int(rng.integers(2, 4)))
            diffusion = [loguniform(rng, 0.1, 10.0) for _ in range(len(M))]
            layout = PatchLayout(
                StageZone(diffusion, M),
                StageZone(diffusion, M - loguniform(rng, 0.1, 5.0) * np.eye(len(M))),
                R=loguniform(rng, 0.5, 5.0), r=loguniform(rng, 0.1, 3.0),
                K=int(rng.integers(1, 3)) if bc is BoundaryCondition.PERIODIC else 1, bc=bc,
            )
            K = assemble(layout, GridSpec(cells_per_unit_length=16, min_cells_per_zone=8), level).stiffness.tocsc()
            assert np.diff(K.indptr).min() >= 1
            segments = np.add.reduceat(np.abs(K.data), K.indptr[:-1])
            assert np.array_equal(segments, np.asarray(abs(K).sum(axis=0)).ravel())


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
    COARSE = GridSpec(cells_per_unit_length=3, min_cells_per_zone=4)  # 76 unknowns

    @staticmethod
    def dense_rightmost(layout, grid, level):
        op = assemble(layout, grid, level)
        vals = np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])
        return vals[np.argmax(vals.real)]

    @pytest.mark.parametrize("grid, level", [(COARSE, 0), (GRID, 1)], ids=["0-coarse", "1-shift-invert-arnoldi"])
    def test_antiperiodic_growth(self, grid, level):
        ring = self.dense_rightmost(self.LAYOUT, grid, level)
        period = self.dense_rightmost(replace(self.LAYOUT, K=1), grid, level)
        assert ring.imag == 0.0 and ring.real > 0.3 and period.real < -0.3
        value, how = _top_eigenvalue_level(self.LAYOUT, grid, level)
        assert how == "shift-invert-arnoldi"
        assert abs(value - ring.real) <= 1e-9 * ring.real

    def test_verdict_is_not_eradication(self):
        assert verdict_fd(self.LAYOUT, self.GRID).status is not VerdictStatus.ERADICATION


def _cooperative_ring(rng: np.random.Generator, n_stages: int, K: int, R: float, r: float) -> PatchLayout:
    M = random_supercritical_stage_matrix(rng, n_stages)  # births and transitions: a Metzler matrix
    diffusion = [loguniform(rng, 0.1, 10.0) for _ in range(n_stages)]
    return PatchLayout(
        StageZone(diffusion, M), StageZone(diffusion, M - loguniform(rng, 0.1, 5.0) * np.eye(n_stages)),
        R=R, r=r, K=K, bc=BoundaryCondition.PERIODIC,
    )


class TestStagedRingHalfPeriod:
    """A cooperative staged ring is solved on its reflecting half-period, as a scalar
    ring is: with Metzler zone matrices the rightmost eigenvalue of ``B^-1 K`` is real
    with a nonnegative eigenvector, and averaging that vector over the ring's
    translations and mirrors gives one that repeats every period and is even about
    each zone's middle.  Where each ring zone has twice the half-period's cells the
    half-period's dense spectrum holds the whole ring's rightmost eigenvalue."""

    GRID = GridSpec(cells_per_unit_length=4.0, refinement_levels=2, min_cells_per_zone=4)
    HALF_GRID = replace(GRID, min_cells_per_zone=2)

    @staticmethod
    def dense_rightmost(op) -> tuple[complex, float]:
        A = op.stiffness.toarray() / op.mass[:, None]
        vals = np.linalg.eigvals(A)
        return vals[np.argmax(vals.real)], float(np.abs(A).max())

    # Half-period cells (beneficial, control): the control zone is absent, at the
    # floor, or wider; the beneficial zone keeps the half-period at 80+ unknowns.
    @pytest.mark.parametrize("n_stages, c", [(2, 40), (3, 27)])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("r_cells", [0, 2, 5])
    def test_matches_dense_whole_ring(self, n_stages, c, K, r_cells):
        h = 1.0 / self.GRID.cells_per_unit_length
        rng = np.random.default_rng(100 * n_stages + 10 * K + r_cells)
        for _ in range(2):
            layout = _cooperative_ring(rng, n_stages, K, 2 * c * h, 2 * r_cells * h)
            half = replace(layout, R=c * h, r=r_cells * h, K=1, bc=BoundaryCondition.NEUMANN)
            ring_cells = [z.cells for z in _zone_cells(layout, self.GRID, 0)]
            assert ring_cells == [2 * n for n in [c, r_cells] if n] * K
            assert [z.cells for z in _zone_cells(half, self.HALF_GRID, 0)] == [n for n in [c, r_cells] if n]
            ring, scale = self.dense_rightmost(assemble(layout, self.GRID, 0))
            half_op = assemble(half, self.HALF_GRID, 0)
            on_half, _ = self.dense_rightmost(half_op)
            assert ring.imag == 0.0 and on_half.imag == 0.0
            assert abs(on_half.real - ring.real) <= 1e-13 * scale
            value, how = _top_eigenvalue_level(layout, self.GRID, 0)
            assert how == "perron-bracket"
            assert abs(value - ring.real) <= 1e-9 * abs(ring.real)

    def test_only_whole_rings_of_non_cooperative_stages_are_assembled(self, monkeypatch):
        built = []
        for name in ("assemble", "_staged_band"):
            build = getattr(oracle, name)

            def recording(layout, grid, level=0, name=name, build=build):
                built.append((name, layout.bc, layout.K))
                return build(layout, grid, level)

            monkeypatch.setattr(oracle, name, recording)
        top_eigenvalue_fd(replace(get_preset("taiga-two-stage"), K=3), FAST)
        assert built == [("_staged_band", BoundaryCondition.NEUMANN, 1)] * FAST.refinement_levels
        built.clear()
        top_eigenvalue_fd(TestStagedWholeRing.LAYOUT, TestStagedWholeRing.GRID)
        assert built == [("assemble", BoundaryCondition.PERIODIC, 2)] * TestStagedWholeRing.GRID.refinement_levels


class TestPatchCountChecked:
    """The caller's ``K`` is validated before a cooperative ring is cut to one period."""

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

    @pytest.mark.parametrize("K", [0, 2.5])
    def test_refuses_staged_ring(self, K):
        layout = replace(get_preset("taiga-two-stage"), K=K)
        with pytest.raises(LayoutError) as err:
            top_eigenvalue_fd(layout, FAST)
        assert err.value.code == "InvalidPatchCount"


class TestGridTooLarge:
    """A level is refused before any array is built when cells times stages exceed the limit."""

    GRID = GridSpec(cells_per_unit_length=1, refinement_levels=2)

    @staticmethod
    def layout(R, K=1, staged=False, bc=BoundaryCondition.PERIODIC):
        if staged:
            zones = StageZone(np.ones(2), np.eye(2)), StageZone(np.ones(2), -np.eye(2))
        else:
            zones = ScalarZone(1.0, 1.0), ScalarZone(1.0, -1.0)
        return PatchLayout(*zones, R=R, r=16.0, K=K, bc=bc)

    @pytest.mark.parametrize(
        "layout, level",
        [
            (layout(2**22 - 16), 0),
            (layout(2**21 - 16), 1),
            (layout(2**21 - 16, K=2), 0),
            (layout(2**21 - 16, staged=True), 0),
            (layout(2**22 - 16, bc=BoundaryCondition.DIRICHLET), 0),
        ],
        ids=["scalar", "level", "ring", "staged", "dirichlet"],
    )
    def test_limit_is_inclusive(self, layout, level):
        limit = oracle._MAX_UNKNOWNS
        assert limit == 2**22
        zones = _zone_cells(layout, self.GRID, level)
        assert sum(z.cells for z in zones) * len(zones[0].diffusion) == limit
        with pytest.raises(LayoutError) as err:
            _zone_cells(replace(layout, R=layout.R + 1), self.GRID, level)  # one more cell per period
        assert str(err.value) == f"GridTooLarge: level {level} would have more than {limit} unknowns"

    @pytest.mark.parametrize("solve", [top_eigenvalue_fd, assemble])
    def test_huge_width_is_refused_not_allocated(self, solve):
        with pytest.raises(LayoutError) as err:
            solve(replace(get_preset("lone-star"), r=1e15), FAST)
        assert err.value.code == "GridTooLarge"


def scalar_twin(layout: PatchLayout) -> PatchLayout:
    """The ``ScalarZone`` layout of a one-stage ``StageZone`` layout: the same operator."""
    def twin(zone):
        return ScalarZone(float(zone.diffusion_diag[0]), float(zone.reaction[0, 0]))
    return replace(layout, beneficial=twin(layout.beneficial), control=twin(layout.control))


class TestGridTooSmall:
    """ARPACK needs 3 unknowns: a non-cooperative level of two or more stages with fewer (absorbing
    ends, no control zone and under 4 cells) is refused, and one of exactly 3 is solved.  A
    cooperative level is bracketed at any size, and a one-stage level of one unknown is bisected,
    as its scalar twin is."""

    GRID = GridSpec(cells_per_unit_length=1, min_cells_per_zone=2)  # one interior node at level 0

    @staticmethod
    def layout(n_stages, sign=1.0):
        coupling = sign * np.full((n_stages, n_stages), 0.5) + (2 - sign) * np.eye(n_stages)
        return PatchLayout(StageZone(np.ones(n_stages), coupling), StageZone(np.ones(n_stages), -coupling),
                           R=1.0, r=0.0, bc=BoundaryCondition.DIRICHLET)

    @staticmethod
    def dense(layout, grid):
        op = assemble(layout, grid, 0)
        return op.n_unknowns, np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])

    @pytest.mark.parametrize("n_stages", [1, 2])
    def test_refused(self, n_stages):
        layout = self.layout(n_stages)
        n, vals = self.dense(layout, self.GRID)
        assert n == n_stages
        value, how = _top_eigenvalue_level(layout, self.GRID, 0)
        if n_stages == 1:  # solved, bit for bit as the scalar twin
            assert how == "symmetric" and (value, how) == _top_eigenvalue_level(scalar_twin(layout), self.GRID, 0)
            assert top_eigenvalue_fd(layout, self.GRID) == top_eigenvalue_fd(scalar_twin(layout), self.GRID)
            return
        assert how == "perron-bracket" and abs(value - vals.real.max()) <= 1e-13 * abs(vals).max()

    def test_non_cooperative_refused(self):
        layout = self.layout(2, sign=-1.0)
        assert self.dense(layout, self.GRID)[0] == 2
        with pytest.raises(LayoutError) as err:
            top_eigenvalue_fd(layout, self.GRID)
        assert err.value.code == "GridTooSmall"

    def test_three_unknowns_solved(self, sign=1.0, path="perron-bracket"):
        n, vals = self.dense(self.layout(3, sign), self.GRID)
        assert n == 3 and vals.imag.max() == 0.0
        value, how = _top_eigenvalue_level(self.layout(3, sign), self.GRID, 0)
        assert how == path and abs(value - vals.real.max()) <= 1e-13 * abs(vals).max()

    def test_three_non_cooperative_unknowns_solved(self):
        self.test_three_unknowns_solved(sign=-1.0, path="shift-invert-arnoldi")


class TestSmallStagedLevels:
    """Small levels of two or more stages (2-79 unknowns) take the same paths as large ones, and
    no dense eigensolve runs inside the call: a cooperative, irreducible level is bracketed without
    assembly or Arnoldi, others take shift-invert Arnoldi; a one-stage level is its scalar twin.  A
    real rightmost eigenvalue, which every cooperative level has, equals a dense eigensolve's to
    round-off.  Every complex rightmost pair is refused, also one farther from the shift than a
    real eigenvalue left of it."""

    @staticmethod
    def draw(rng):
        """1-3 stages, every boundary, rings of K = 1-3, a fifth without control zone, 70% cooperative."""
        n_stages = int(rng.integers(1, 4))
        bc = BCS[int(rng.integers(3))]
        if rng.uniform() < 0.7:
            M = random_supercritical_stage_matrix(rng, n_stages)  # births and transitions: Metzler
        else:
            M = rng.uniform(-3.0, 3.0, size=(n_stages, n_stages))
        diffusion = [loguniform(rng, 0.1, 10.0) for _ in range(n_stages)]
        layout = PatchLayout(
            StageZone(diffusion, M), StageZone(diffusion, M - loguniform(rng, 0.1, 5.0) * np.eye(n_stages)),
            R=loguniform(rng, 0.5, 5.0), r=0.0 if rng.uniform() < 0.2 else loguniform(rng, 0.1, 3.0),
            K=int(rng.integers(1, 4)) if bc is BoundaryCondition.PERIODIC else 1, bc=bc,
        )
        grid = GridSpec(cells_per_unit_length=loguniform(rng, 0.5, 4.0), min_cells_per_zone=int(rng.integers(2, 7)))
        return layout, grid, int(rng.integers(2))

    def test_matches_dense_rightmost(self, monkeypatch):
        built, arnoldi = [], []
        build, eigs = oracle.assemble, sparse.linalg.eigs
        monkeypatch.setattr(oracle, "assemble", lambda *args: built.append(build(*args)) or built[-1])
        monkeypatch.setattr(sparse.linalg, "eigs", lambda *args, **kwargs: arnoldi.append(1) or eigs(*args, **kwargs))

        def no_dense_solve(*args, **kwargs):
            raise AssertionError("dense eigensolve inside the oracle")

        rng = np.random.default_rng(2612)  # its draws hold 2 complex pairs that a real eigenvalue hides
        checked, complex_pairs, hidden = 0, 0, 0
        while checked < 300:
            layout, grid, level = self.draw(rng)
            built.clear()
            arnoldi.clear()
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigvals", no_dense_solve)
                try:
                    result = _top_eigenvalue_level(layout, grid, level)
                except (oracle.NoConvergenceError, LayoutError) as exc:
                    result = exc
            if layout.dimension == 1:  # bisected, bit for bit as its scalar twin, and not counted
                assert not built and result == _top_eigenvalue_level(scalar_twin(layout), grid, level)
                continue
            if built:
                (op,) = built
                A = op.stiffness.toarray() / op.mass[:, None]
                assert not all(metzler_irreducible(A))
            else:  # the test builds the level the oracle solves
                op = build(*solved_level(layout, grid), level)
                A = op.stiffness.toarray() / op.mass[:, None]
                assert all(metzler_irreducible(A)) and not arnoldi
            if isinstance(result, LayoutError):
                assert result.code == "GridTooSmall" and op.n_unknowns < 3
                continue
            if op.n_unknowns >= 80:
                continue
            vals = np.linalg.eigvals(A)
            rightmost, scale = vals[np.argmax(vals.real)], np.abs(A).max()
            checked += 1
            if abs(rightmost.imag) > 1e-8 * (1.0 + abs(rightmost.real)):
                assert not ((A >= 0) | np.eye(len(A), dtype=bool)).all()  # a Metzler level's rightmost is real
                assert isinstance(result, oracle.NoConvergenceError) and "complex" in str(result), result
                distance = np.abs(_growth_bound(layout) + 1.0 - vals)
                complex_pairs += 1
                hidden += bool(distance.min() < distance[np.argmax(vals.real)])  # not the nearest to the shift
                continue
            assert not isinstance(result, Exception), result
            value, how = result
            assert how == ("shift-invert-arnoldi" if built else "perron-bracket")
            assert abs(value - rightmost.real) <= 1e-13 * scale
        assert complex_pairs > hidden > 0


def metzler_irreducible(A: np.ndarray) -> tuple[bool, bool]:
    """Whether a level's dense ``B^-1 K`` has nonnegative off-diagonals, and a strongly connected digraph."""
    off = A - np.diag(np.diag(A))
    n_components, _ = connected_components(sparse.csr_matrix(off != 0), directed=True, connection="strong")
    return bool((off >= 0).all()), n_components == 1


def solved_level(layout: PatchLayout, grid: GridSpec) -> tuple[PatchLayout, GridSpec]:
    """The layout and grid a level is solved on: a ring whose level-0 ``B^-1 K`` is Metzler is cut to
    its reflecting half-period, with half the per-zone cell floor."""
    op = assemble(layout, grid, 0)
    if layout.bc is BoundaryCondition.PERIODIC and metzler_irreducible(op.stiffness.toarray())[0]:
        return (replace(layout, R=layout.R / 2, r=layout.r / 2, K=1, bc=BoundaryCondition.NEUMANN),
                replace(grid, min_cells_per_zone=max(2, grid.min_cells_per_zone // 2)))
    return layout, grid


class TestOneStageIsScalar:
    """A one-stage ``StageZone`` layout is the operator of its ``ScalarZone`` twin, and the oracle and
    the simulator read both through the same view: their results agree bit for bit.  The seeds cycle
    through the boundaries, rings of K = 1-3 and layouts without a control zone."""

    GRID = GridSpec(cells_per_unit_length=16, refinement_levels=3, min_cells_per_zone=4)

    @staticmethod
    def draw(seed):
        rng = np.random.default_rng(seed)
        bc = BCS[seed % 3]
        growth, mu = float(rng.uniform(-1.0, 3.0)), loguniform(rng, 0.1, 30.0)
        return PatchLayout(
            StageZone([loguniform(rng, 0.1, 10.0)], [[growth]]), StageZone([loguniform(rng, 0.1, 10.0)], [[-mu]]),
            R=loguniform(rng, 0.5, 5.0), r=0.0 if seed % 5 == 0 else loguniform(rng, 0.1, 3.0),
            K=1 + seed // 3 % 3 if bc is BoundaryCondition.PERIODIC else 1, bc=bc,
        )

    @pytest.mark.parametrize("seed", range(60))
    def test_oracle_and_simulator_match_the_scalar_twin(self, seed):
        layout = self.draw(seed)
        twin = scalar_twin(layout)
        assert top_eigenvalue_fd(layout, self.GRID) == top_eigenvalue_fd(twin, self.GRID)
        assert verdict_fd(layout, self.GRID) == verdict_fd(twin, self.GRID)
        runs = [simulate(SimulationRun(z, dt=0.05, T=2.0, grid=self.GRID)) for z in (layout, twin)]
        for field in ("log_l2", "final_profile"):
            assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()


class TestOneStageProblems:
    """Above the oracle, too, a one-stage ``StageZone`` layout is its ``ScalarZone`` twin: the criteria's
    problems read from both are equal, and the oracle's inverse searches agree bit for bit."""

    COARSE = GridSpec(cells_per_unit_length=8, refinement_levels=2, min_cells_per_zone=4)

    @staticmethod
    def outcome(search, layout, grid):
        try:
            return float(search(layout, grid)).hex()
        except oracle.NoConvergenceError as exc:
            return f"NoConvergenceError: {exc}"

    @pytest.mark.parametrize("seed", range(60))
    def test_problems_match_the_scalar_twin(self, seed):
        layout = TestOneStageIsScalar.draw(seed)
        twin = scalar_twin(layout)
        assert ScalarProblem.from_layout(layout) == ScalarProblem.from_layout(twin)
        staged, from_twin = StagedProblem.from_layout(layout), StagedProblem.from_layout(twin)
        for field in fields(StagedProblem):
            x, y = getattr(staged, field.name), getattr(from_twin, field.name)
            assert type(x) is type(y) and np.array_equal(x, y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()

    @pytest.mark.parametrize("seed", range(0, 60, 7))
    def test_inverse_searches_match_the_scalar_twin(self, seed):
        layout = TestOneStageIsScalar.draw(seed)
        twin = scalar_twin(layout)
        for search in (min_mortality_fd, min_zone_width_fd):
            assert self.outcome(search, layout, self.COARSE) == self.outcome(search, twin, self.COARSE)

    def test_multi_stage_layouts_are_refused(self):
        layout = get_preset("taiga-two-stage")
        with pytest.raises(LayoutError, match="UnknownZoneType"):
            ScalarProblem.from_layout(layout)
        with pytest.raises(ValueError, match="supports scalar layouts only"):
            min_mortality_fd(layout, self.COARSE)


class TestOneZoneForm:
    """A layout's stage count alone decides "scalar", and above validation a zone is read only through
    ``diffusion_diag`` and ``reaction``: only ``model.py`` tests a zone's type, the simulator names no
    zone type, and the oracle names one only where the mortality search rebuilds its layout."""

    @staticmethod
    def source(module: str) -> str:
        return Path(oracle.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")

    def mentions(self, module: str) -> list[tuple[int, str]]:
        lines = self.source(module).splitlines()
        names = r"ScalarZone|StageZone|is_scalar"
        return [(i, name) for i, line in enumerate(lines, 1) for name in re.findall(names, line)]

    def test_only_model_tests_zone_types(self):
        sites = []
        for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
                    types = {name.id for arg in node.args[1:] for name in ast.walk(arg) if isinstance(name, ast.Name)}
                    if types & {"ScalarZone", "StageZone"}:
                        sites.append(path.name)
        assert sites and set(sites) == {"model.py"}

    def test_simulate_names_no_zone_type(self):
        assert self.mentions("simulate") == []

    def test_oracle_tests_is_scalar_only_in_the_inverse_search(self):
        tree = ast.parse(self.source("oracle"))
        spans = {node.name: (node.lineno, node.end_lineno) for node in tree.body if hasattr(node, "name")}
        (imports,) = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "model"]
        spans["import"] = (imports.lineno, imports.end_lineno)
        where = {"is_scalar": ("_first_eradicating",), "ScalarZone": ("import", "_with_control_mortality")}
        mentions = self.mentions("oracle")
        assert {name for _, name in mentions} == set(where)
        assert all(any(spans[site][0] <= i <= spans[site][1] for site in where.get(name, ())) for i, name in mentions)


class TestStagedComplexRightmost:
    """A complex rightmost pair (possible only without cooperative coupling) raises
    instead of returning the largest real eigenvalue or a fallback value, also when
    a real eigenvalue left of it is nearer the shift."""

    @staticmethod
    def layout(reaction):
        reaction = np.array(reaction, dtype=float)
        diffusion = np.ones(len(reaction))
        return PatchLayout(
            StageZone(diffusion, reaction),
            StageZone(diffusion, reaction - 3.0 * np.eye(len(reaction))),
            R=2.0, r=1.0, K=1, bc=BoundaryCondition.PERIODIC,
        )

    def test_small_level(self):
        # Rightmost 0.273 + 2.000i; the largest real eigenvalue is -1.727.
        layout = self.layout([[1, -2, 0], [2, 1, 0], [0, 0, -1]])
        op = assemble(layout, GridSpec(cells_per_unit_length=4, min_cells_per_zone=4))
        assert op.n_unknowns == 36
        with pytest.raises(oracle.NoConvergenceError, match="complex"):
            _staged_rightmost_eigenvalue(op, _growth_bound(layout) + 1.0, _imag_bound(layout))

    @pytest.mark.parametrize("cells", [4, 64])
    def test_pair_farther_from_the_shift_than_a_real_eigenvalue(self, cells):
        # Rightmost -0.727 + 4i at 36 and 576 unknowns; the real -1.227 is nearer the shift 5.
        layout = self.layout([[0, -4, 0], [4, 0, 0], [0, 0, -0.5]])
        with pytest.raises(oracle.NoConvergenceError, match="complex"):
            _top_eigenvalue_level(layout, GridSpec(cells_per_unit_length=cells, min_cells_per_zone=4), 0)

    @pytest.mark.parametrize("a, refused", [(0.01, False), (0.001, True)])
    def test_real_top_shown_rightmost_or_refused(self, a, refused):
        # Triangular stages: a real spectrum, but zone skew parts of norm 5 allow pairs up to 5i.  At
        # a = 0.001 more than 64 eigenvalues lie within hypot(sigma - top, 5) of the shift.
        M = np.array([[1.0, -10.0], [0.0, -1.0]])
        layout = PatchLayout(StageZone([a, a], M), StageZone([a, a], M - 3 * np.eye(2)),
                             R=10.0, r=1.0, bc=BoundaryCondition.NEUMANN)
        grid = GridSpec(cells_per_unit_length=16, min_cells_per_zone=4)
        op = assemble(layout, grid, 0)
        vals = np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])
        assert op.n_unknowns == 354 and np.abs(vals.imag).max() == 0.0 and _imag_bound(layout) == 5.0
        if refused:
            with pytest.raises(oracle.NoConvergenceError, match="64 eigenvalues nearest the shift cannot rule out"):
                _top_eigenvalue_level(layout, grid, 0)
        else:
            value, _ = _top_eigenvalue_level(layout, grid, 0)
            assert abs(value - vals.real.max()) <= 1e-9 * abs(value)

    def test_arnoldi_branch(self):
        # Rightmost -0.3203 + 2.00i.
        layout = self.layout([[0.5, -2], [2, 0.3]])
        op = assemble(layout, GridSpec(cells_per_unit_length=64))
        assert op.n_unknowns == 384
        with pytest.raises(oracle.NoConvergenceError, match="complex"):
            _staged_rightmost_eigenvalue(op, _growth_bound(layout) + 1.0, _imag_bound(layout))


def _ring(rng: np.random.Generator, K: int, R: float, r: float) -> PatchLayout:
    return PatchLayout(
        ScalarZone(loguniform(rng, 0.1, 10.0), float(rng.uniform(-1.0, 3.0))),
        ScalarZone(loguniform(rng, 0.1, 10.0), -loguniform(rng, 0.1, 30.0)),
        R=R, r=r, K=K, bc=BoundaryCondition.PERIODIC,
    )


def _largest_entry(op) -> float:
    return float(abs(symmetric_form(op)).max())


class TestScalarRingHalfPeriod:
    """Each scalar ring level is solved on its reflecting half-period and, where
    the ring's zones have twice the half-period's cells, must give the top
    eigenvalue of the whole assembled ring.

    The bound is relative to the largest entry of the symmetric form rather
    than its largest diagonal entry: on a uniform ring the diagonal
    ``-2a/h^2 + growth`` can nearly cancel while the couplings stay large."""

    # Two cells per unit length with a floor of 4 per zone (2 on the half-period):
    # every width below is a whole number of half-period cells at every level,
    # r = 0.4 takes the floor, and the zones have even and odd half-period counts.
    GRID = GridSpec(cells_per_unit_length=2.0, refinement_levels=3, min_cells_per_zone=4)

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
            half = replace(layout, R=R / 2, r=r / 2, K=1, bc=BoundaryCondition.NEUMANN)
            for level in range(self.GRID.refinement_levels):
                ring_cells = [z.cells for z in _zone_cells(layout, self.GRID, level)]
                half_cells = [z.cells for z in _zone_cells(half, replace(self.GRID, min_cells_per_zone=2), level)]
                assert ring_cells == [2 * n for n in half_cells] * K
                op = self.assert_matches_dense(layout, self.GRID, level)
                # One period has n / K nodes; the half-period has half of them plus one.
                assert sizes[-1] == op.n_unknowns // (2 * K) + 1

    @staticmethod
    def assert_matches_dense(layout, grid, level):
        op = assemble(layout, grid, level)
        reference = np.linalg.eigvalsh(symmetric_form(op).toarray())[-1]
        value, _ = _top_eigenvalue_level(layout, grid, level)
        assert abs(value - reference) <= 1e-13 * _largest_entry(op)
        return op

    # A ring zone of 2c cells mirrors about its midpoint, a node, so the half-period
    # holds c cells of it: c and r_cells each even or odd.  The default grid doubles
    # every count above level 0, so its odd cases exist at level 0 only.
    @pytest.mark.parametrize("grid, base", [(GridSpec(1.0, 3, 4), 2), (GridSpec(), 32)], ids=["1-cell", "default"])
    @pytest.mark.parametrize("c_odd", [0, 1])
    @pytest.mark.parametrize("r_cells_odd", [0, 1])
    def test_every_end_case(self, grid, base, c_odd, r_cells_odd):
        c, r_cells = base + c_odd, base + r_cells_odd
        h = 1.0 / grid.cells_per_unit_length
        half_grid = replace(grid, min_cells_per_zone=max(2, grid.min_cells_per_zone // 2))
        rng = np.random.default_rng(10 * base + 2 * c_odd + r_cells_odd)
        for K in (1, 2):
            layout = _ring(rng, K, 2 * c * h, 2 * r_cells * h)
            half = replace(layout, R=c * h, r=r_cells * h, K=1, bc=BoundaryCondition.NEUMANN)
            assert [z.cells for z in _zone_cells(layout, grid, 0)[:2]] == [2 * c, 2 * r_cells]
            assert [z.cells for z in _zone_cells(half, half_grid, 0)] == [c, r_cells]
            self.assert_matches_dense(layout, grid, 0)

    def test_two_node_ring(self):
        # One zone of 2 cells: its two edges share one entry, and its half-period (1
        # cell) is under the floor.  The reaction is uniform, so on the ring and on
        # any reflecting half-period the constant vector is the top, at the growth.
        layout = _ring(np.random.default_rng(3), 1, 2.0, 0.0)
        grid = GridSpec(cells_per_unit_length=1.0, refinement_levels=3, min_cells_per_zone=2)
        op = assemble(layout, grid, 0)
        assert op.n_unknowns == 2 and op.stiffness.nnz == 4
        reference = np.linalg.eigvalsh(symmetric_form(op).toarray())[-1]
        value, _ = _top_eigenvalue_level(layout, grid, 0)
        assert abs(value - reference) <= 1e-13 * _largest_entry(op)
        assert abs(reference - layout.beneficial.growth) <= 1e-13 * _largest_entry(op)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_lone_star_matches_shift_invert(self, level):
        layout = get_preset("lone-star")
        op = assemble(layout, GridSpec(), level)
        assert op.n_unknowns == 960 * 2**level
        S = symmetric_form(op).tocsc()
        reference = eigsh(
            S, k=1, sigma=_growth_bound(layout) + 1.0, which="LM",
            v0=np.ones(op.n_unknowns), return_eigenvectors=False,
        )[0]
        value, _ = _top_eigenvalue_level(layout, GridSpec(), level)
        assert abs(value - reference) <= 1e-13 * _largest_entry(op)


class TestScalarBands:
    """Off a ring the scalar bands are the diagonal and superdiagonal of the
    assembled ``symmetric_form`` exactly, at every level and on an odd-cell grid."""

    @pytest.mark.parametrize("grid", [GridSpec(), GridSpec(13.3, 3, 5)], ids=["default", "13.3-cells"])
    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN])
    def test_equal_to_symmetric_form(self, grid, bc):
        rng = np.random.default_rng(7 if bc is BoundaryCondition.DIRICHLET else 8)
        for _ in range(4):
            layout = replace(random_scalar_problem(rng), bc=bc).to_layout()
            for level in range(grid.refinement_levels):
                d, e = oracle._scalar_bands(layout, grid, level)
                S = symmetric_form(assemble(layout, grid, level))
                assert np.array_equal(d, S.diagonal())
                assert np.array_equal(e, S.diagonal(1))


# Reference: the per-node coefficients the scalar bands were built from before
# they were computed per run of identical nodes, kept to pin the bands.

def _node_coefficients(layout: PatchLayout, grid: GridSpec, level: int):
    """Per-node coefficients ``(x, box, w_l, w_r, mass)`` of the scheme off a ring, one row per unknown node.

    Node ``i`` receives ``(w_r (y_{i+1}-y_i) - w_l (y_i-y_{i-1}) + mass y_i) / box``:
    ``w = a / h`` of the cell on each side (shape (n, n_stages)) and ``mass`` each adjacent
    cell's reaction over its half of the box (shape (n, n_stages, n_stages)), with half boxes
    at reflecting ends and interior-only unknowns for absorbing ends.
    """
    zones = _zone_cells(layout, grid, level)

    # Per-cell arrays in spatial order, indexed from the per-zone ones.
    zone = np.repeat(np.arange(len(zones)), [z.cells for z in zones])
    h = np.array([z.h for z in zones])[zone]
    a_cell = np.array([z.diffusion for z in zones])[zone]
    m_cell = np.array([z.reaction for z in zones])[zone]
    n_cells = len(h)
    x_all = np.concatenate([[0.0], np.cumsum(h)])

    if layout.bc is BoundaryCondition.DIRICHLET:
        nodes = np.arange(1, n_cells)
        x = x_all[1:-1]
    else:
        nodes = np.arange(0, n_cells + 1)
        x = x_all

    # With a zero cell padded at each end, node k has left cell k and right cell k + 1.
    w_cell = a_cell / h[:, None]
    h_pad, w_pad, m_pad = (np.concatenate([np.zeros_like(v[:1]), v, np.zeros_like(v[:1])])
                           for v in (h, w_cell, m_cell))
    box = h_pad[nodes] / 2 + h_pad[nodes + 1] / 2
    half_l, half_r = (np.reshape(h_pad[k] / 2, (-1, 1, 1)) for k in (nodes, nodes + 1))
    mass = half_l * m_pad[nodes] + half_r * m_pad[nodes + 1]
    return x, box, w_pad[nodes], w_pad[nodes + 1], mass


def _scalar_bands(layout: PatchLayout, grid: GridSpec, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Bands ``(d, e)`` of ``B^-1/2 K B^-1/2`` for a scalar layout off a ring, its diagonal and
    superdiagonal, built from the node coefficients without assembling ``K``."""
    _, box, w_l, w_r, mass = _node_coefficients(layout, grid, level)
    w_l, w_r, w = w_l[:, 0], w_r[:, 0], 1.0 / np.sqrt(box)
    d = ((-w_l - w_r) + mass[:, 0, 0]) * w * w
    e = w_r[:-1] * w[:-1] * w[1:]
    return d, e


class TestScalarBandsMatchPerNode:
    """``_scalar_bands`` gives the per-node reference's bands bit for bit at every
    level: both boundaries off a ring, zero control width, four grids."""

    @staticmethod
    def draw(rng, bc, grid):
        R = loguniform(rng, 0.05, 30.0 / grid.cells_per_unit_length ** 0.5)  # wider on coarser grids
        r = 0.0 if rng.random() < 0.25 else loguniform(rng, 0.01, 5.0)
        return PatchLayout(
            ScalarZone(loguniform(rng, 0.1, 100.0), float(rng.uniform(-1.0, 5.0))),
            ScalarZone(loguniform(rng, 0.1, 100.0), -loguniform(rng, 0.01, 100.0)),
            R=R, r=r, bc=bc,
        )

    @pytest.mark.parametrize(
        "grid",
        [GridSpec(), GridSpec(13.3, 3, 5), GridSpec(1.0, 2, 2), GridSpec(0.5, 4, 2)],
        ids=["default", "13.3-cells", "1-cell", "half-cell"],
    )
    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN])
    def test_byte_equal(self, grid, bc):
        rng = np.random.default_rng(60 + 3 * BCS.index(bc) + int(2 * grid.cells_per_unit_length))
        layouts = [self.draw(rng, bc, grid) for _ in range(8)]
        layouts.append(replace(layouts[0], r=0.0))
        for layout in layouts:
            for level in range(grid.refinement_levels):
                got = oracle._scalar_bands(layout, grid, level)
                want = _scalar_bands(layout, grid, level)
                for g, w in zip(got, want):
                    assert (g.dtype, g.shape) == (w.dtype, w.shape)
                    assert g.tobytes() == w.tobytes()


class TestScalarWithoutAssembly:
    """Scalar oracle work builds its bands per run and never assembles a matrix or
    expands the runs into per-node arrays; staged layouts expand them, and only
    non-cooperative or reducible ones assemble."""

    GRID = GridSpec(cells_per_unit_length=16, refinement_levels=2, min_cells_per_zone=4)

    @pytest.fixture(autouse=True)
    def refuse_assembly(self, monkeypatch):
        def refusing(what):
            def refuse(*args, **kwargs):
                raise AssertionError(f"{what} reached")

            return refuse

        monkeypatch.setattr(oracle, "assemble", refusing("assemble"))
        monkeypatch.setattr(oracle, "_node_coefficients", refusing("per-node expansion"))

    @pytest.mark.parametrize("bc", list(BoundaryCondition))
    def test_scalar_entry_points(self, bc):
        # Growth 0.1 keeps a reflecting end controllable by width as well as by mortality.
        layout = PatchLayout(ScalarZone(1.0, 0.1), ScalarZone(2.0, -3.0), R=2.0, r=1.0, bc=bc)
        assert math.isfinite(top_eigenvalue_fd(layout, self.GRID).top_eigenvalue)
        verdict_fd(layout, self.GRID)
        assert math.isfinite(min_mortality_fd(layout, self.GRID))
        assert math.isfinite(oracle.min_zone_width_fd(layout, self.GRID))

    def test_staged_reaches_assemble(self, coupling=-0.5, reached="assemble"):
        layout = PatchLayout(
            StageZone(np.array([1.0, 1.0]), np.array([[-0.5, 1.0], [coupling, -0.2]])),
            StageZone(np.array([1.0, 1.0]), np.array([[-3.0, 0.0], [0.0, -3.0]])),
            R=2.0, r=1.0,
        )
        with pytest.raises(AssertionError, match=f"{reached} reached"):
            top_eigenvalue_fd(layout, self.GRID)

    def test_cooperative_staged_reaches_only_the_node_expansion(self):
        self.test_staged_reaches_assemble(coupling=0.5, reached="per-node expansion")


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


class TestWindowedLevels:
    """Levels after the first are bisected in a window from the coarser level's
    value up to the largest growth; the index solve on the same bands is the
    reference, and ``stebz`` agrees with itself to a few ``eps max|d|``."""

    GRID = GridSpec(cells_per_unit_length=16, refinement_levels=3, min_cells_per_zone=4)

    @pytest.fixture
    def windows(self, monkeypatch):
        """Record ``(select, number of values)`` for every tridiagonal solve."""
        calls = []
        solve = oracle.eigvalsh_tridiagonal

        def recording_solve(d, e, **kwargs):
            vals = solve(d, e, **kwargs)
            calls.append((kwargs["select"], len(vals)))
            return vals

        monkeypatch.setattr(oracle, "eigvalsh_tridiagonal", recording_solve)
        return calls

    @staticmethod
    def assert_matches_index_solve(layout, grid, level, near):
        windowed, how = _top_eigenvalue_level(layout, grid, level, near)
        indexed, _ = _top_eigenvalue_level(layout, grid, level)
        d, _ = oracle._scalar_bands(replace(layout, K=1), grid, level)
        assert how == "symmetric"
        assert abs(windowed - indexed) <= 4 * np.finfo(float).eps * np.abs(d).max()
        return windowed

    @pytest.mark.parametrize("bc", BCS)
    def test_matches_index_solve(self, bc):
        rng = np.random.default_rng(40 + BCS.index(bc))
        for K in (1, 2, 3) if bc is BoundaryCondition.PERIODIC else (1,):
            layout = replace(random_scalar_problem(rng), bc=bc, K=K).to_layout()
            near = _top_eigenvalue_level(layout, self.GRID, 0)[0]
            for level in (1, 2):
                near = self.assert_matches_index_solve(layout, self.GRID, level, near)

    @pytest.mark.parametrize("bc", [BoundaryCondition.NEUMANN, BoundaryCondition.PERIODIC])
    def test_top_equal_to_the_bound(self, bc):
        # Uniform growth with reflecting ends or on a ring: the constant vector
        # is the top eigenvector and the top equals the growth bound exactly.
        K = 2 if bc is BoundaryCondition.PERIODIC else 1
        layout = PatchLayout(ScalarZone(1.0, 0.7), ScalarZone(3.0, 0.7), R=2.0, r=1.0, K=K, bc=bc)
        history = [value for value, _ in _level_chain(layout, self.GRID)]
        for level in (1, 2):
            value = self.assert_matches_index_solve(layout, self.GRID, level, history[level - 1])
            assert value == history[level]
            assert abs(value - 0.7) <= 1e-12

    def test_empty_first_window_widens(self, windows):
        # Two cells per zone at level 0: the next level moves the top by far
        # more than the first window's 1e-6 (1 + |near|).
        grid = GridSpec(cells_per_unit_length=1.0, refinement_levels=2, min_cells_per_zone=2)
        layout = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0,
                             bc=BoundaryCondition.DIRICHLET)
        near = _top_eigenvalue_level(layout, grid, 0)[0]
        del windows[:]
        self.assert_matches_index_solve(layout, grid, 1, near)
        assert windows[0] == ("v", 0) and windows[-2:] == [("v", 1), ("i", 1)]

    def test_wide_window_returns_the_largest(self, windows):
        layout = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0,
                             bc=BoundaryCondition.NEUMANN)
        d, e = oracle._scalar_bands(layout, self.GRID, 1)
        third = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[-3]
        self.assert_matches_index_solve(layout, self.GRID, 1, third)
        assert windows[0][0] == "v" and windows[0][1] >= 3

    def test_no_eigenvalue_below_the_bound_raises(self, monkeypatch, windows):
        # A bound below the whole spectrum: the window widens past the
        # Gershgorin lower bound of the bands and then raises.
        layout = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0,
                             bc=BoundaryCondition.DIRICHLET)
        solve = oracle.eigvalsh_tridiagonal
        monkeypatch.setattr(
            oracle, "eigvalsh_tridiagonal",
            lambda d, e, **kwargs: solve(d, e, **{**kwargs, "select_range": (-2e9, -1e9)}),
        )
        with pytest.raises(oracle.NoConvergenceError, match="growth bound"):
            _top_eigenvalue_level(layout, self.GRID, 1, 0.5)
        assert 1 < len(windows) < 20 and all(count == 0 for _, count in windows)

    @pytest.mark.parametrize("bc", BCS)
    def test_history_is_the_extrapolated_chain(self, bc):
        layout = replace(random_scalar_problem(np.random.default_rng(50 + BCS.index(bc))), bc=bc).to_layout()
        history = [value for value, _ in _level_chain(layout, self.GRID)]
        report = top_eigenvalue_fd(layout, self.GRID)
        assert len(history) == self.GRID.refinement_levels
        assert report.top_eigenvalue == history[-1] + (history[-1] - history[-2]) / 3.0
        assert report.error_estimate == abs(history[-1] - history[-2])


class TestGridSpec:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"cells_per_unit_length": math.nan}, "cells_per_unit_length"),
            ({"cells_per_unit_length": math.inf}, "cells_per_unit_length"),
            ({"cells_per_unit_length": 0.0}, "cells_per_unit_length"),
            ({"cells_per_unit_length": -1}, "cells_per_unit_length"),
            ({"cells_per_unit_length": True}, "cells_per_unit_length"),
            ({"cells_per_unit_length": np.True_}, "cells_per_unit_length"),
            ({"cells_per_unit_length": "64"}, "cells_per_unit_length"),
            ({"cells_per_unit_length": 1j}, "cells_per_unit_length"),
            ({"cells_per_unit_length": None}, "cells_per_unit_length"),
            ({"cells_per_unit_length": 10**400}, "cells_per_unit_length"),
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

    @pytest.mark.parametrize("cells", [np.float64(13.3), np.int64(8), Fraction(17, 2), 10**300, 1e308])
    def test_accepts_finite_reals(self, cells):
        assert GridSpec(cells_per_unit_length=cells).cells_per_unit_length == cells

    def test_any_real_type_gives_the_float_report(self):
        layout = single_zone_layout(lam=0.5)
        want = top_eigenvalue_fd(layout, GridSpec(8.5, 2, 4))
        assert top_eigenvalue_fd(layout, GridSpec(Fraction(17, 2), 2, 4)) == want
        assert want.grid_or_step.startswith("cells/unit=8.5x2^1,")


class TestConvergence:
    def test_second_order_ratio(self):
        p = ScalarProblem(a=1.0, lam=1.0, b=2.0, mu=3.0, R=2.0, r=1.0,
                          bc=BoundaryCondition.DIRICHLET)
        hist = [value for value, _ in _level_chain(p.to_layout(), GridSpec(cells_per_unit_length=32,
                                                                           refinement_levels=4))]
        d1 = hist[1] - hist[0]
        d2 = hist[2] - hist[1]
        d3 = hist[3] - hist[2]
        assert 3.0 <= d1 / d2 <= 5.0
        assert 3.0 <= d2 / d3 <= 5.0

    @staticmethod
    def draws(seed, bc, n):
        """``n`` seeded criterion-6 draws on one boundary; rings with K = 1-3."""
        rng = np.random.default_rng(seed)
        return [replace(random_scalar_problem(rng), bc=bc,
                        K=1 + k % 3 if bc is BoundaryCondition.PERIODIC else 1) for k in range(n)]

    @pytest.mark.parametrize("bc", BCS)
    def test_observed_order_on_seeded_draws(self, monkeypatch, bc):
        # The order is read from the last three levels where the finest-pair
        # difference stands above the bisection's round-off, 1e3 eps max|d|.
        largest = []
        solve = oracle.eigvalsh_tridiagonal

        def recording_solve(d, e, **kwargs):
            largest.append(float(np.abs(d).max()))
            return solve(d, e, **kwargs)

        monkeypatch.setattr(oracle, "eigvalsh_tridiagonal", recording_solve)
        orders = []
        for p in self.draws(16 + BCS.index(bc), bc, 45):
            hist = [value for value, _ in _level_chain(p.to_layout(), GridSpec(16, 4))]
            coarse, fine = hist[2] - hist[1], hist[3] - hist[2]
            if abs(fine) > 1e3 * np.finfo(float).eps * largest[-1]:
                orders.append(math.log2(abs(coarse / fine)))
        assert len(orders) >= 10
        assert min(orders) >= 1.9, orders

    @pytest.mark.parametrize("bc", BCS)
    def test_richardson_estimate_bounds_the_error(self, bc):
        for p in self.draws(26 + BCS.index(bc), bc, 60):
            rep = top_eigenvalue_fd(p.to_layout())
            root = top_eigenvalue_scalar(p).top_eigenvalue
            assert abs(rep.top_eigenvalue - root) <= max(rep.error_estimate, 1e-6), p

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
    def test_oracle_module_imports_nothing_from_scalar(self):
        # The oracle checks the closed form; a search guess is the caller's input.
        imported = imported_names(oracle)
        assert imported
        assert not [name for name in imported if "scalar" in name.split(".")]

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
