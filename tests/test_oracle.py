import ast
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal
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
    _level_chain,
    _with_control_mortality,
    _zone_cells,
    assemble,
    min_mortality_fd,
    min_zone_width_fd,
    top_eigenvalue_fd,
    verdict_fd,
)
from patchcontrol.presets import get_preset
from patchcontrol.simulate import SimulationRun, growth_exponent, simulate

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
    every assembled level, and one above it is where a Perron bracket starts and its shift stops."""

    @pytest.mark.parametrize("case", [_transition_case(seed) for seed in range(27)] + _edge_cases())
    def test_at_least_the_assembled_gershgorin_bound(self, case):
        layout, grid, level = case
        op = assemble(layout, grid, level)
        K, B = op.stiffness, op.mass
        radius = np.asarray(abs(K).sum(axis=1)).ravel() - np.abs(K.diagonal())
        assembled = float(((K.diagonal() + radius) / B).max())
        assert _growth_bound(layout) >= assembled - 1e-12 * abs(K).max() / B.min()

    @pytest.mark.parametrize("seed", [seed for seed in range(27) if (seed // 3) % 3])
    def test_above_every_real_part_on_every_staged_level(self, seed):
        # The shift the Perron bracket starts at, and ``shift_invert_top``'s, lie right of the whole
        # spectrum of B^-1 K, complex eigenvalues of non-cooperative couplings included.
        layout, grid, _ = _transition_case(seed)
        op = assemble(layout, grid, 0)
        vals = np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])
        assert vals.real.max() <= _growth_bound(layout) + 1e-12 * np.abs(vals).max()

    def test_scalar_start_is_the_largest_growth(self, monkeypatch):
        # The diagonal handed to dpttrf is sigma B - diag K: level 0 starts at the largest growth + 1
        # exactly, and no level of the chain factors above it.
        diagonals = []
        factor = oracle.dpttrf

        def recording_factor(d, e):
            diagonals.append(d)
            return factor(d, e)

        monkeypatch.setattr(oracle, "dpttrf", recording_factor)
        rng = np.random.default_rng(26)
        layouts = [replace(random_scalar_problem(rng), bc=bc, K=K).to_layout() for bc in BCS for K in (1, 2)
                   if K == 1 or bc is BoundaryCondition.PERIODIC]
        grid = GridSpec(cells_per_unit_length=16, refinement_levels=3, min_cells_per_zone=4)
        for layout in layouts + [layout for layout, _, _ in _edge_cases() if layout.is_scalar]:
            diagonals.clear()
            _level_chain(layout, grid)
            bound = max(layout.beneficial.growth, layout.control.growth) + 1.0
            line, line_grid = solved_level(layout, grid)
            at_bound = {}
            for level in range(grid.refinement_levels):
                band, mass, _ = oracle._staged_band(line, line_grid, level)
                at_bound[len(mass)] = band[2] + bound * mass
            assert len(at_bound) == grid.refinement_levels
            assert np.array_equal(diagonals[0], at_bound[len(diagonals[0])])
            assert all((d <= at_bound[len(d)]).all() for d in diagonals)


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


def shift_invert_top(op, sigma: float) -> float:
    """Test-side reference for a Metzler level: the eigenvalue of ``B^-1 K`` nearest a real shift ``sigma`` above
    every real part, by one shift-invert Arnoldi call.  Every eigenvalue has real part at most the Perron root, so
    it is at least ``sigma`` minus the root from the shift: the Perron root is the nearest, and it is real."""
    A = sparse.csc_matrix(sparse.diags(1.0 / op.mass) @ op.stiffness)
    (value,) = sparse.linalg.eigs(A, k=1, sigma=sigma, which="LM", v0=np.ones(op.n_unknowns))[0]
    assert value.imag == 0.0
    return float(value.real)


class TestPerronRingsMatchDense:
    """The Perron chain on cooperative periodic rings, solved on their half-periods, against a dense
    eigensolve of the whole ring's ``B^-1 K``."""

    @_RINGS
    def test_matches_dense_rightmost(self, K, diffusion, reaction, R, r, mu, cells, level):
        layout = _arnoldi_ring(K, diffusion, reaction, R, r, mu)
        grid = GridSpec(cells_per_unit_length=cells, refinement_levels=2, min_cells_per_zone=8)
        op = assemble(layout, grid, level)
        assert 200 < op.n_unknowns <= 2500
        value, how = _level_chain(layout, grid)[level]
        assert how == "perron-bracket"
        dense = np.linalg.eigvals(op.stiffness.toarray() / op.mass[:, None])
        rightmost = dense[np.argmax(dense.real)]
        assert abs(rightmost.imag) <= 1e-9 * abs(rightmost)
        assert abs(value - rightmost.real) <= 1e-9 * abs(rightmost.real)


def refuse_solver(*args, **kwargs):
    raise AssertionError("a matrix, band or Arnoldi solve reached where none belongs")


def reducible_stage_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """A reducible Metzler stage matrix: 2-n irreducible diagonal blocks (birth-death cycles), some
    nonnegative one-way coupling between them, and the stages permuted."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False))
    sizes = np.diff([0, *cuts, n])
    block = np.repeat(np.arange(len(sizes)), sizes)
    M = np.zeros((n, n))
    for b, k in enumerate(sizes):
        M[np.ix_(block == b, block == b)] = random_supercritical_stage_matrix(rng, int(k))
    M += rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6) * (block[:, None] < block)
    perm = rng.permutation(n)
    return M[np.ix_(perm, perm)]


def band_to_dense(band: np.ndarray, n_stages: int) -> np.ndarray:
    """The square matrix held in LAPACK band storage with ``kl = ku = n_stages`` (``dgbtrf`` layout)."""
    i, j = np.indices((band.shape[1],) * 2)
    inside = np.abs(i - j) <= n_stages
    dense = np.zeros(i.shape)
    dense[inside] = band[(2 * n_stages + i - j)[inside], j[inside]]
    return dense


class TestPerronBracket:
    """Cooperative (Metzler) levels of two or more stages are bracketed by Collatz-Wielandt inverse
    iteration on a band LU written straight from the node coefficients, one strongly connected stage
    class at a time: no CSR, no Arnoldi.  The tests' references are dense, or ``shift_invert_top``."""

    @staticmethod
    def draw(rng, i, stage_matrix=random_supercritical_stage_matrix):
        """2-4 stages, every boundary in turn, rings of K = 1-3, a fifth without control zone."""
        n_stages = int(rng.integers(2, 5))
        bc = BCS[i % 3]
        M = stage_matrix(rng, n_stages)  # by default a birth-death cycle: Metzler, irreducible
        diffusion = [loguniform(rng, 0.1, 10.0) for _ in range(n_stages)]
        layout = PatchLayout(
            StageZone(diffusion, M), StageZone(diffusion, M - loguniform(rng, 0.1, 5.0) * np.eye(n_stages)),
            R=loguniform(rng, 0.5, 4.0), r=0.0 if rng.uniform() < 0.2 else loguniform(rng, 0.1, 3.0),
            K=int(rng.integers(1, 4)) if bc is BoundaryCondition.PERIODIC else 1, bc=bc,
        )
        grid = GridSpec(cells_per_unit_length=loguniform(rng, 0.5, 3.0), min_cells_per_zone=int(rng.integers(2, 7)))
        return layout, grid, int(rng.integers(2))

    def test_cooperative_draws_match_dense(self, monkeypatch):
        rng = np.random.default_rng(2920)
        for i in range(60):
            layout, grid, level = self.draw(rng, i)
            with monkeypatch.context() as m:
                m.setattr(oracle, "assemble", refuse_solver)
                m.setattr(sparse.linalg, "eigs", refuse_solver)
                value, how = _level_chain(layout, replace(grid, refinement_levels=2))[level]
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

            band, mass, weight = oracle._staged_band(line, line_grid, level)
            assert np.array_equal(mass, op.mass) and weight == pytest.approx(np.abs(A).sum(axis=1), rel=1e-14)
            assert not band[: layout.dimension].any()  # the rows dgbtrf fills in
            sigma = _growth_bound(layout) + 1.0
            band[2 * layout.dimension] += sigma * mass
            assert np.array_equal(band_to_dense(band, layout.dimension), sigma * np.diag(op.mass) - op.stiffness.toarray())

    def test_reducible_draws_match_dense(self, monkeypatch):
        # Each stage class is bracketed alone, every level after the first started near the one before.
        rng = np.random.default_rng(3600)
        for i in range(60):
            layout, grid, _ = self.draw(rng, i, reducible_stage_matrix)
            with monkeypatch.context() as m:
                m.setattr(oracle, "assemble", refuse_solver)
                m.setattr(sparse.linalg, "eigs", refuse_solver)
                chain = _level_chain(layout, grid)
            line, line_grid = solved_level(layout, grid)
            for level, (value, how) in enumerate(chain):
                assert how == "perron-bracket"
                op = assemble(line, line_grid, level)
                A = op.stiffness.toarray() / op.mass[:, None]
                assert metzler_irreducible(A) == (True, False) and op.n_unknowns <= 400
                assert abs(value - np.linalg.eigvals(A).real.max()) <= 1e-13 * np.abs(A).max()

    @pytest.mark.parametrize(
        "ben, ctl, r, K, bc",
        [
            ([[0.5, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -2.0]], 1.0, 1, BoundaryCondition.NEUMANN),
            ([[0.5, 0.0], [0.0, 1.0]], [[-1.0, 0.7], [0.4, -2.0]], 0.0, 2, BoundaryCondition.PERIODIC),
            ([[0.5, 0.8], [0.0, 1.0]], [[-1.0, 0.3], [0.0, -2.0]], 1.0, 1, BoundaryCondition.DIRICHLET),
        ],
        ids=["diagonal", "only-absent-control-coupled", "one-way"],
    )
    def test_reducible_levels_by_stage_classes(self, monkeypatch, ben, ctl, r, K, bc):
        layout = PatchLayout(StageZone([1.0, 0.3], ben), StageZone([1.0, 0.3], ctl), R=3.0, r=r, K=K, bc=bc)
        grid = GridSpec(cells_per_unit_length=8, refinement_levels=2, min_cells_per_zone=4)
        with monkeypatch.context() as m:
            m.setattr(oracle, "assemble", refuse_solver)
            m.setattr(sparse.linalg, "eigs", refuse_solver)
            chain = _level_chain(layout, grid)
        for level, (value, how) in enumerate(chain):
            line, line_grid = solved_level(layout, grid)
            op = assemble(line, line_grid, level)
            assert how == "perron-bracket"
            A = op.stiffness.toarray() / op.mass[:, None]
            assert metzler_irreducible(A) == (True, False)
            vals = np.linalg.eigvals(A)
            assert abs(value - vals.real.max()) <= 1e-13 * np.abs(A).max()

    @pytest.mark.parametrize("bc", BCS)
    def test_uncoupled_stages_report_the_dominant_stage(self, bc):
        # Two stage classes of one stage each: each is bracketed as its one-stage layout is, and the
        # larger top, stage 0's on every level, is the level's; so the whole report is stage 0's.
        K = 2 if bc is BoundaryCondition.PERIODIC else 1
        grid = GridSpec(cells_per_unit_length=8, min_cells_per_zone=4)
        layout = PatchLayout(StageZone([1.0, 0.3], np.diag([1.0, 0.2])), StageZone([1.0, 0.3], np.diag([-1.0, -2.0])),
                             R=3.0, r=1.0, K=K, bc=bc)
        dominant = PatchLayout(StageZone([1.0], [[1.0]]), StageZone([1.0], [[-1.0]]), R=3.0, r=1.0, K=K, bc=bc)
        other = PatchLayout(StageZone([0.3], [[0.2]]), StageZone([0.3], [[-2.0]]), R=3.0, r=1.0, K=K, bc=bc)
        report = top_eigenvalue_fd(layout, grid)
        assert report == top_eigenvalue_fd(dominant, grid)
        assert report.grid_or_step.endswith(",perron-bracket")
        assert top_eigenvalue_fd(other, grid).top_eigenvalue < report.top_eigenvalue

    @pytest.mark.parametrize("r", [0.0, 0.734])
    def test_numpy_widths_take_the_same_path(self, r):
        taiga, grid = get_preset("taiga-two-stage"), GridSpec(refinement_levels=2)
        as_numpy = replace(taiga, R=np.float64(taiga.R), r=np.float64(r))
        assert _level_chain(as_numpy, grid) == _level_chain(replace(taiga, r=r), grid)

    @_RINGS
    def test_arnoldi_rings_agree(self, K, diffusion, reaction, R, r, mu, cells, level):
        layout = _arnoldi_ring(K, diffusion, reaction, R, r, mu)
        grid = GridSpec(cells_per_unit_length=cells, refinement_levels=2, min_cells_per_zone=8)
        value, how = _level_chain(layout, grid)[level]
        assert how == "perron-bracket"
        arnoldi = shift_invert_top(assemble(*solved_level(layout, grid), level), _growth_bound(layout) + 1.0)
        assert abs(value - arnoldi) <= 1e-9 * abs(arnoldi)

    @pytest.mark.parametrize("cells", [1, 64])
    @pytest.mark.parametrize("bc", BCS)
    def test_wide_control_zones_close(self, bc, cells):
        # Far into a control zone of width r the Perron vector is about exp(-0.5 x) of its peak, so
        # the bracket's lower end waits for that tail; the shift follows the upper end meanwhile.
        ben = StageZone([1.0, 0.5], [[-0.91, 2.24], [0.01, -0.02]])
        ctl = StageZone([1.0, 0.5], [[-0.3, 0.2], [0.01, -0.2]])
        grid = GridSpec(cells_per_unit_length=cells)
        for r in (1.0, 10.0, 100.0, 1000.0):
            layout = PatchLayout(ben, ctl, R=40.0, r=r, bc=bc)
            line, line_grid = layout, grid
            if bc is BoundaryCondition.PERIODIC:  # the half-period, built without solved_level's dense check
                line = replace(layout, R=20.0, r=r / 2, bc=BoundaryCondition.NEUMANN)
                line_grid = replace(grid, min_cells_per_zone=grid.min_cells_per_zone // 2)
            value = oracle._perron_bracket(*oracle._staged_band(line, line_grid, 0), _growth_bound(layout) + 1.0)
            reference = shift_invert_top(assemble(line, line_grid, 0), _growth_bound(layout) + 1.0)
            assert abs(value - reference) <= 1e-9 * abs(reference), r

    @pytest.mark.parametrize("bc", BCS)
    def test_deadly_wide_taiga_lines_close(self, bc):
        # taiga-two-stage at r = 300 and 1000: the Perron vector's tail falls below the smallest float.
        taiga, grid = get_preset("taiga-two-stage"), GridSpec(cells_per_unit_length=4, refinement_levels=2)
        for r in (300.0, 1000.0):
            layout = replace(taiga, r=r, bc=bc)
            line, line_grid = layout, grid
            if bc is BoundaryCondition.PERIODIC:  # the half-period, built without solved_level's dense check
                line = replace(layout, R=layout.R / 2, r=r / 2, K=1, bc=BoundaryCondition.NEUMANN)
                line_grid = replace(grid, min_cells_per_zone=grid.min_cells_per_zone // 2)
            value = oracle._perron_bracket(*oracle._staged_band(line, line_grid, 1), _growth_bound(layout) + 1.0)
            reference = shift_invert_top(assemble(line, line_grid, 1), _growth_bound(layout) + 1.0)
            assert abs(value - reference) <= 1e-9 * abs(reference), r

    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("mu, r", [(10.0, 300.0), (1e4, 30.0), (1e12, 1.0), (1e16, 1.0), (1e280, 1.0)])
    def test_deadly_wide_scalar_lines_close(self, bc, mu, r):
        # sqrt(mu / b) r of about 950, 3000 and 1e6 and more: the tail of the iterate lags the Perron
        # vector's far below the float range, and the lower end is read off the entries that do not lag.
        # The bound is 4 eps |B^-1 K|_inf of the line without the control mortality: it does not grow
        # with the deadly rows, which the Perron vector does not weigh.
        layout = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(1.0, -mu), R=10.0, r=r, bc=bc)
        grid = GridSpec(cells_per_unit_length=4, refinement_levels=2)
        for level, (value, how) in enumerate(_level_chain(layout, grid)):
            line, line_grid = layout, grid
            if bc is BoundaryCondition.PERIODIC:
                line = replace(layout, R=5.0, r=r / 2, bc=BoundaryCondition.NEUMANN)
                line_grid = replace(grid, min_cells_per_zone=grid.min_cells_per_zone // 2)
            band, mass, _ = oracle._staged_band(line, line_grid, level)
            d = band[2] / mass  # -K over B: the symmetric form's diagonal and off-diagonal, negated
            e = band[1, 1:] / np.sqrt(mass[:-1] * mass[1:])
            reference = -eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0), tol=4 * np.finfo(float).tiny)[0]
            calm = oracle._staged_band(replace(line, control=ScalarZone(1.0, 1.0)), line_grid, level)[2].max()
            assert how == "perron-bracket"
            assert abs(value - reference) <= 4 * np.finfo(float).eps * calm, level

    def test_perron_vector_below_the_float_range_closes(self):
        # Control mortality 10 over r = 300: the Perron vector falls to about exp(-950) of its peak.
        # Shift-invert Arnoldi on the assembled levels gives -1.2146841.
        layout = PatchLayout(StageZone([1.0, 1.0], [[0.1, 0.1], [0.1, 0.1]]),
                             StageZone([1.0, 1.0], [[-10.0, 0.01], [0.01, -10.0]]),
                             R=1.0, r=300.0, bc=BoundaryCondition.NEUMANN)
        grid = GridSpec(4, 2)
        for level, (value, how) in enumerate(_level_chain(layout, grid)):
            reference = shift_invert_top(assemble(layout, grid, level), _growth_bound(layout) + 1.0)
            assert how == "perron-bracket" and abs(value - reference) <= 1e-9 * abs(reference)
        assert top_eigenvalue_fd(layout, grid).top_eigenvalue == pytest.approx(-1.2146841, abs=5e-8)

    @pytest.mark.parametrize("bc", BCS)
    def test_mortality_near_the_float_range_closes(self, monkeypatch, bc):
        # Mortality 1e308: entries of the full solution left out of the lower end underflow to 0, and
        # v holds them at the smallest normal float.
        solve, band_of, masses, held = oracle.dpttrs, oracle._staged_band, [], []

        def recording(d, e, b):
            held.append(float(np.min(np.atleast_2d(b.T)[0] / masses[-1])))  # B v, first of one or two columns
            return solve(d, e, b)

        def band_recording(*args):
            band, mass, weight = band_of(*args)
            masses.append(mass)
            return band, mass, weight

        monkeypatch.setattr(oracle, "dpttrs", recording)
        monkeypatch.setattr(oracle, "_staged_band", band_recording)
        layout = PatchLayout(ScalarZone(16.67, 0.65), ScalarZone(16.67, -1e308), R=14.0, r=1.0, bc=bc)
        report = top_eigenvalue_fd(layout)
        assert report.grid_or_step.endswith(",perron-bracket") and math.isfinite(report.top_eigenvalue)
        assert min(held) == np.finfo(float).tiny
        root = top_eigenvalue_scalar(ScalarProblem.from_layout(layout)).top_eigenvalue
        assert abs(report.top_eigenvalue - root) <= report.error_estimate

    @staticmethod
    def assert_matches_zoneless(layout) -> float:
        """Every level within the FD error estimate of the layout without control zone; returns that estimate."""
        zoneless = replace(layout, r=0.0)
        estimate = top_eigenvalue_fd(zoneless).error_estimate
        for (value, how), (reference, _) in zip(_level_chain(layout, GridSpec()), _level_chain(zoneless, GridSpec())):
            assert how == "perron-bracket" and abs(value - reference) <= estimate
        return estimate

    @pytest.mark.parametrize("r", [1e-10, 1e-20, 1e-100, 1e-300])
    @pytest.mark.parametrize("R", [14.0, 30.0])
    def test_thin_zones_at_absorbing_ends_match_the_zoneless_line(self, R, r):
        # A thin control zone's rows weigh about 2b / h^2, 1.7e44 at r = 1e-20, and the Perron vector
        # vanishes there at the absorbing end.  Read off the start v = 1, those rows set a stop width
        # wider than the first bracket, whose midpoint was returned: -1.6e22 at R = 14, r = 1e-20.
        layout = PatchLayout(ScalarZone(16.67, 0.65), ScalarZone(16.67, -10.0), R=R, r=r, bc=BoundaryCondition.DIRICHLET)
        estimate = self.assert_matches_zoneless(layout)
        if r >= 1e-100:  # at 1e-300 the root's poles (pi / 2r)^2 leave the float range
            root = top_eigenvalue_scalar(ScalarProblem.from_layout(layout)).top_eigenvalue
            assert abs(top_eigenvalue_fd(layout).top_eigenvalue - root) <= 10 * estimate

    @pytest.mark.parametrize("r", [1e-12, 1e-30])
    def test_thin_taiga_zone_at_absorbing_ends_matches_the_zoneless_line(self, r):
        # taiga-two-stage's second level read -1.6e11 at r = 1e-12, and every level about -1e31 at 1e-30.
        self.assert_matches_zoneless(replace(get_preset("taiga-two-stage"), r=r, bc=BoundaryCondition.DIRICHLET))

    @pytest.mark.parametrize("bc", [BoundaryCondition.NEUMANN, BoundaryCondition.PERIODIC])
    def test_inverse_searches_reach_their_caps(self, bc):
        # R = 10 with growth 1 survives beside any control zone: each search runs its probes out to
        # its cap (mortality 1e12, width 1e3), every one a deadly or wide zone, and reports the cap.
        layout = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(1.0, -100.0), R=10.0, r=1.0, bc=bc)
        grid = GridSpec(cells_per_unit_length=8, refinement_levels=2)
        with pytest.raises(oracle.NoConvergenceError, match="no eradicating mortality below 1e"):
            min_mortality_fd(layout, grid)
        with pytest.raises(oracle.NoConvergenceError, match="no eradicating width below 1000"):
            min_zone_width_fd(layout, grid)

    @pytest.mark.parametrize("fault, message", [
        ("negative", "not positive"), ("spread", "did not close in 100 solves"), ("singular", "singular"),
        ("underflow", "the Perron vector left the float range"),
    ])
    def test_failures_raise(self, monkeypatch, fault, message):
        solve, factor, solves = oracle.dgbtrs, oracle.dgbtrf, []

        def faulty_solve(*args, **kwargs):
            w, info = solve(*args, **kwargs)
            solves.append(1)
            if fault == "underflow":
                w[-1] = 0.0
            spread = 1.0 + (np.arange(len(w)) + len(solves)) % 2
            return (-w if fault == "negative" else (w.T * spread).T if fault == "spread" else w), info

        def singular_factor(*args, **kwargs):
            lu, piv, _ = factor(*args, **kwargs)
            return lu, piv, 1

        monkeypatch.setattr(oracle, "dgbtrs", faulty_solve)
        if fault == "singular":
            monkeypatch.setattr(oracle, "dgbtrf", singular_factor)
        with pytest.raises(oracle.NoConvergenceError, match=message):
            top_eigenvalue_fd(get_preset("taiga-two-stage"), GridSpec(refinement_levels=2))
        assert len(solves) == {"negative": 1, "spread": 100, "singular": 0, "underflow": 1}[fault]


class TestTaigaVerdictBoundary:
    """Staged levels keep their sign at the taiga preset's verdict boundary, where the
    eigenvalue itself is near zero: the Perron bracket's width is a round-off multiple
    of ``|B^-1 K|``."""

    GRID = GridSpec(refinement_levels=2)

    @staticmethod
    def non_cooperative_taiga() -> PatchLayout:
        taiga = get_preset("taiga-two-stage")
        negative = taiga.control.reaction * [[1.0, 1.0], [-1.0, 1.0]]  # not Metzler: refused
        return replace(taiga, r=0.734, control=StageZone(taiga.control.diffusion_diag, negative))

    def test_scan_across_the_verdict_boundary(self):
        taiga = get_preset("taiga-two-stage")
        signs = set()
        for r in np.random.default_rng(16).uniform(0.7335, 0.7345, 8):
            report = top_eigenvalue_fd(replace(taiga, r=float(r)), self.GRID)
            assert "perron-bracket" in report.grid_or_step
            signs.add(np.sign(report.top_eigenvalue))
        assert signs == {-1.0, 1.0}


class TestChainReadsLayoutOnce:
    """A chain reads its layout once, however many levels it solves: one validation, one ``stage_coupling``
    for two or more stages and one growth bound per stage-class line.  A non-cooperative layout is refused
    after its one validation and one ``stage_coupling``, before any growth bound."""

    GRID = GridSpec(cells_per_unit_length=8, refinement_levels=3, min_cells_per_zone=4)

    @pytest.mark.parametrize("layout, counts, refused", [
        (PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0, K=2), (1, 0, 1), False),
        (get_preset("taiga-two-stage"), (1, 1, 1), False),
        (PatchLayout(StageZone([1.0, 0.3], np.diag([1.0, 0.2])), StageZone([1.0, 0.3], np.diag([-1.0, -2.0])),
                     R=3.0, r=1.0, bc=BoundaryCondition.NEUMANN), (1, 1, 2), False),
        (TestTaigaVerdictBoundary.non_cooperative_taiga(), (1, 1, 0), True),
    ], ids=["scalar-ring", "taiga", "two-classes", "non-cooperative"])
    def test_layout_read_once_per_chain(self, monkeypatch, layout, counts, refused):
        calls = dict.fromkeys(("validate_layout", "stage_coupling", "_growth_bound"), 0)
        for name in calls:
            def counting(*args, name=name, call=getattr(oracle, name)):
                calls[name] += 1
                return call(*args)

            monkeypatch.setattr(oracle, name, counting)
        if refused:
            with pytest.raises(LayoutError, match="^NonCooperativeStages: "):
                top_eigenvalue_fd(layout, self.GRID)
        else:
            top_eigenvalue_fd(layout, self.GRID)
        assert tuple(calls.values()) == counts


class TestStagedWholeRing:
    """Without cooperative coupling a ring's growing mode can span two periods (a
    Turing-type instability here: the inhibitor diffuses 40 times faster), which
    one period misses.  The FD oracle refuses such a ring; the simulator integrates
    it, and its Crank-Nicolson growth reads the whole ring's rightmost eigenvalue."""

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

    @pytest.mark.parametrize("grid, level", [(COARSE, 0), (GRID, 1)], ids=["0-coarse", "1-fine"])
    def test_antiperiodic_growth(self, grid, level):
        ring = self.dense_rightmost(self.LAYOUT, grid, level)
        period = self.dense_rightmost(replace(self.LAYOUT, K=1), grid, level)
        assert ring.imag == 0.0 and ring.real > 0.3 and period.real < -0.3

    @pytest.mark.parametrize("solve", [top_eigenvalue_fd, verdict_fd])
    def test_oracle_refuses_the_ring(self, solve):
        with pytest.raises(LayoutError) as err:
            solve(self.LAYOUT, self.GRID)
        assert err.value.code == "NonCooperativeStages"

    def test_simulator_growth_reads_the_rightmost_eigenvalue(self):
        # theta = 1/2 multiplies the dominant mode by (1 + dt E/2) / (1 - dt E/2) per step, so the log norm's
        # slope is (2/dt) artanh(dt E/2); inverted, it gave the dense top within 9e-15 at these 76 unknowns.
        dt = 0.01
        slope = growth_exponent(simulate(SimulationRun(layout=self.LAYOUT, dt=dt, T=40.0, grid=self.COARSE)))
        ring = self.dense_rightmost(self.LAYOUT, self.COARSE, 0)
        assert abs(2 / dt * math.tanh(dt * slope / 2) - ring.real) <= 1e-12


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
            value, how = _level_chain(layout, self.GRID)[0]
            assert how == "perron-bracket"
            assert abs(value - ring.real) <= 1e-9 * abs(ring.real)

    def test_rings_build_only_half_period_bands(self, monkeypatch):
        # A cooperative ring builds one band of its half-period per level; a ring without cooperative
        # coupling is refused before anything is built.
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
        with pytest.raises(LayoutError, match="^NonCooperativeStages: "):
            top_eigenvalue_fd(TestStagedWholeRing.LAYOUT, TestStagedWholeRing.GRID)
        assert built == []


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
    """No level is too small: a level of 1-3 unknowns (absorbing ends, no control zone and under 4
    cells) is bracketed, one stage class at a time, reducible ones too; a one-stage level (or class)
    of one unknown by ``dgbtrf`` (scipy's ``dpttrf`` refuses it), as its scalar twin is."""

    GRID = GridSpec(cells_per_unit_length=1, min_cells_per_zone=2)  # one interior node at level 0
    CHAIN = replace(GRID, refinement_levels=2)  # the shortest chain, read at level 0

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
        value, how = _level_chain(layout, self.CHAIN)[0]
        if n_stages == 1:  # solved, bit for bit as the scalar twin
            assert how == "perron-bracket"
            assert _level_chain(layout, self.CHAIN) == _level_chain(scalar_twin(layout), self.CHAIN)
            assert abs(value - vals.real.max()) <= 1e-13 * abs(vals).max()
            assert top_eigenvalue_fd(layout, self.GRID) == top_eigenvalue_fd(scalar_twin(layout), self.GRID)
            return
        assert how == "perron-bracket" and abs(value - vals.real.max()) <= 1e-13 * abs(vals).max()

    def test_two_unknown_reducible_level_solved(self):
        # One-way coupling: stage 1 feeds stage 0, and the level's two classes are one unknown each.
        layout = PatchLayout(StageZone(np.ones(2), [[1.5, 0.5], [0.0, 1.5]]), StageZone(np.ones(2), -np.eye(2)),
                             R=1.0, r=0.0, bc=BoundaryCondition.DIRICHLET)
        n, vals = self.dense(layout, self.GRID)
        assert n == 2 and vals.real.max() == -6.5
        assert _level_chain(layout, self.CHAIN)[0] == (-6.5, "perron-bracket")

    def test_three_unknowns_solved(self):
        n, vals = self.dense(self.layout(3), self.GRID)
        assert n == 3 and vals.imag.max() == 0.0
        value, how = _level_chain(self.layout(3), self.CHAIN)[0]
        assert how == "perron-bracket" and abs(value - vals.real.max()) <= 1e-13 * abs(vals).max()


class TestSmallStagedLevels:
    """Small levels of two or more stages (2-79 unknowns) take the same path as large ones, and no
    assembly, Arnoldi or dense eigensolve runs inside the call: a cooperative level is bracketed, and
    its rightmost eigenvalue, which is real, equals a dense eigensolve's to round-off; a one-stage
    level is its scalar twin.  A draw whose zones present are not Metzler is refused."""

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
        def no_solver(*args, **kwargs):
            raise AssertionError("assembly, Arnoldi or a dense eigensolve inside the oracle")

        rng = np.random.default_rng(2612)
        checked, refused = 0, 0
        while checked < 300:
            layout, grid, level = self.draw(rng)
            grid = replace(grid, refinement_levels=2)
            with monkeypatch.context() as m:
                for owner, name in ((oracle, "assemble"), (sparse.linalg, "eigs"), (np.linalg, "eigvals")):
                    m.setattr(owner, name, no_solver)
                try:
                    result = _level_chain(layout, grid)[level]
                except LayoutError as exc:
                    result = exc
            if layout.dimension == 1:  # bracketed, bit for bit as its scalar twin, and not counted
                assert result == _level_chain(scalar_twin(layout), grid)[level]
                continue
            op = assemble(*solved_level(layout, grid), level)  # the test builds the level the oracle solves
            A = op.stiffness.toarray() / op.mass[:, None]
            if isinstance(result, LayoutError):  # refused exactly where the level is not Metzler
                assert result.code == "NonCooperativeStages" and not metzler_irreducible(A)[0]
                refused += 1
                continue
            assert metzler_irreducible(A)[0]
            if op.n_unknowns >= 80:
                continue
            value, how = result
            assert how == "perron-bracket"
            assert abs(value - np.linalg.eigvals(A).real.max()) <= 1e-13 * np.abs(A).max()
            checked += 1
        assert refused > 0


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


def bracket(layout: PatchLayout, grid: GridSpec, level: int, near: float | None = None, bound: float | None = None):
    """``_perron_bracket`` on one level of a one-class layout's solved line: started at ``bound``, by default the
    growth bound plus 1, or just above ``near``."""
    band = oracle._staged_band(*solved_level(layout, grid), level)
    return oracle._perron_bracket(*band, _growth_bound(layout) + 1.0 if bound is None else bound, near)


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


def _cycle(reaction, a=1.0, bc=BoundaryCondition.PERIODIC, R=2.0) -> PatchLayout:
    reaction = np.array(reaction, dtype=float)
    diffusion = np.full(len(reaction), a)
    return PatchLayout(StageZone(diffusion, reaction), StageZone(diffusion, reaction - 3.0 * np.eye(len(reaction))),
                       R=R, r=1.0, bc=bc)


class TestNonCooperativeRefused:
    """A layout whose zones present (the control zone only where ``r > 0``) are not Metzler is refused with
    ``NonCooperativeStages`` by every oracle entry point, before any band or matrix is built: its rightmost
    eigenvalue can be complex, also farther from a real shift than a real eigenvalue left of it."""

    GRID = GridSpec(cells_per_unit_length=4, refinement_levels=2, min_cells_per_zone=4)

    @pytest.mark.parametrize("layout", [
        _cycle([[1, -2, 0], [2, 1, 0], [0, 0, -1]]),  # rightmost 0.273 + 2.000i, largest real -1.727
        _cycle([[0, -4, 0], [4, 0, 0], [0, 0, -0.5]]),  # rightmost -0.727 + 4i; the real -1.227 is nearer the shift
        _cycle([[0.5, -2], [2, 0.3]]),  # rightmost -0.3203 + 2.00i
        _cycle([[1.0, -10.0], [0.0, -1.0]], a=0.01, bc=BoundaryCondition.NEUMANN, R=10.0),  # a real spectrum
        _cycle([[1.0, -10.0], [0.0, -1.0]], a=0.001, bc=BoundaryCondition.NEUMANN, R=10.0),
        TestTaigaVerdictBoundary.non_cooperative_taiga(),
        TestGridTooSmall.layout(2, sign=-1.0),  # 2 and 3 unknowns on TestGridTooSmall.GRID
        TestGridTooSmall.layout(3, sign=-1.0),
    ], ids=["complex", "pair-beyond-a-real", "two-stage-complex", "triangular", "triangular-slow", "taiga",
            "two-unknowns", "three-unknowns"])
    def test_every_entry_point_refuses(self, monkeypatch, layout):
        for owner, name in ((oracle, "assemble"), (oracle, "_staged_band"), (sparse.linalg, "eigs")):
            monkeypatch.setattr(owner, name, refuse_solver)
        for solve in (_level_chain, top_eigenvalue_fd, verdict_fd):
            with pytest.raises(LayoutError, match="^NonCooperativeStages: ") as err:
                solve(layout, self.GRID)
            assert err.value.code == "NonCooperativeStages"

    def test_an_absent_control_zone_is_not_read(self):
        # At r = 0 the control zone has no cells: its negative coupling couples nothing, and the level is bracketed.
        layout = replace(TestTaigaVerdictBoundary.non_cooperative_taiga(), r=0.0)
        assert _level_chain(layout, self.GRID) == _level_chain(replace(get_preset("taiga-two-stage"), r=0.0), self.GRID)


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
        factor = oracle.dpttrf

        def recording_factor(d, e):
            sizes.append(len(d))
            return factor(d, e)

        monkeypatch.setattr(oracle, "dpttrf", recording_factor)
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
        value = bracket(layout, grid, level)
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
        value = bracket(layout, grid, 0)
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
        value = bracket(layout, GridSpec(), level)
        assert abs(value - reference) <= 1e-13 * _largest_entry(op)


class TestScalarBands:
    """Off a ring a one-stage band holds ``-K``'s three diagonals exactly, symmetric, at every level and
    on an odd-cell grid: ``dpttrf`` reads its diagonal (row 2) and superdiagonal (row 1)."""

    @pytest.mark.parametrize("grid", [GridSpec(), GridSpec(13.3, 3, 5)], ids=["default", "13.3-cells"])
    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN])
    def test_equal_to_the_assembled_stiffness(self, grid, bc):
        rng = np.random.default_rng(7 if bc is BoundaryCondition.DIRICHLET else 8)
        for _ in range(4):
            layout = replace(random_scalar_problem(rng), bc=bc).to_layout()
            for level in range(grid.refinement_levels):
                band, mass, _ = oracle._staged_band(layout, grid, level)
                op = assemble(layout, grid, level)
                assert np.array_equal(mass, op.mass)
                assert np.array_equal(band[2], -op.stiffness.diagonal())
                assert np.array_equal(band[1, 1:], -op.stiffness.diagonal(1))
                assert np.array_equal(band[3, :-1], band[1, 1:])
                assert not band[0].any() and band[1, 0] == band[3, -1] == 0.0


class TestScalarWithoutAssembly:
    """Oracle work reads the node rows as a band and never assembles a matrix or calls Arnoldi,
    scalar or staged; a non-cooperative layout is refused before either."""

    GRID = GridSpec(cells_per_unit_length=16, refinement_levels=2, min_cells_per_zone=4)

    @pytest.fixture(autouse=True)
    def refuse_assembly(self, monkeypatch):
        def refusing(what):
            def refuse(*args, **kwargs):
                raise AssertionError(f"{what} reached")

            return refuse

        monkeypatch.setattr(oracle, "assemble", refusing("assemble"))
        monkeypatch.setattr(sparse.linalg, "eigs", refusing("Arnoldi"))

    @pytest.mark.parametrize("bc", list(BoundaryCondition))
    def test_scalar_entry_points(self, bc):
        # Growth 0.1 keeps a reflecting end controllable by width as well as by mortality.
        layout = PatchLayout(ScalarZone(1.0, 0.1), ScalarZone(2.0, -3.0), R=2.0, r=1.0, bc=bc)
        assert math.isfinite(top_eigenvalue_fd(layout, self.GRID).top_eigenvalue)
        verdict_fd(layout, self.GRID)
        assert math.isfinite(min_mortality_fd(layout, self.GRID))
        assert math.isfinite(oracle.min_zone_width_fd(layout, self.GRID))

    @staticmethod
    def staged(coupling):
        return PatchLayout(
            StageZone(np.array([1.0, 1.0]), np.array([[-0.5, 1.0], [coupling, -0.2]])),
            StageZone(np.array([1.0, 1.0]), np.array([[-3.0, 0.0], [0.0, -3.0]])),
            R=2.0, r=1.0,
        )

    def test_seeded_scan_reaches_neither(self):
        # 1-3 stages, cooperative and not, every boundary, rings of K = 1-3: each draw is bracketed or refused.
        rng = np.random.default_rng(4300)
        outcomes, rings = set(), 0
        for _ in range(80):
            layout, grid, _ = TestSmallStagedLevels.draw(rng)
            rings += layout.bc is BoundaryCondition.PERIODIC
            try:
                outcomes.add(verdict_fd(layout, replace(grid, refinement_levels=2)).deciding_rule)
            except LayoutError as err:
                outcomes.add(err.code)
        assert outcomes == {"fd-top-eigenvalue-sign", "NonCooperativeStages"} and rings >= 10
        with pytest.raises(LayoutError, match="^NonCooperativeStages: "):
            top_eigenvalue_fd(self.staged(-0.5), self.GRID)

    def test_cooperative_staged_reaches_only_the_band(self):
        assert math.isfinite(top_eigenvalue_fd(self.staged(0.5), self.GRID).top_eigenvalue)


class TestScalarSinglePath:
    """Every scalar layout is solved by the Perron bracket alone."""

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
        monkeypatch.setattr(sparse.linalg, "eigs", refuse)
        report = top_eigenvalue_fd(layout)
        assert math.isfinite(report.top_eigenvalue) and report.grid_or_step.endswith(",perron-bracket")


class TestNearStartedLevels:
    """Levels after the first start the Perron bracket just above the coarser level's value.  The
    start from the growth bound is the reference, within the stop width ``4 eps |B^-1 K|_inf``.  A
    start at or below the top (a failed ``dpttrf``, or a staged iterate that is not positive) is
    raised to ``near + 16 (sigma - near)`` and solved again from ``v = 1``; at the bound it raises."""

    GRID = GridSpec(cells_per_unit_length=16, refinement_levels=3, min_cells_per_zone=4)
    SCALAR = PatchLayout(ScalarZone(1.0, 1.0), ScalarZone(2.0, -3.0), R=2.0, r=1.0, bc=BoundaryCondition.DIRICHLET)

    @staticmethod
    def record(monkeypatch, name, fault=lambda calls, result: result):
        """Record every call's first argument and result of ``oracle.<name>``; ``fault`` may alter the result."""
        calls, call = [], getattr(oracle, name)

        def recording(*args):
            calls.append((args[0], call(*args)))
            return fault(calls, calls[-1][1])

        monkeypatch.setattr(oracle, name, recording)
        return calls

    @staticmethod
    def stop_width(layout, grid, level):
        return 4 * np.finfo(float).eps * oracle._staged_band(*solved_level(layout, grid), level)[2].max()

    @classmethod
    def assert_matches_bound_start(cls, layout, grid, level, near):
        started = bracket(layout, grid, level, near)
        reference = bracket(layout, grid, level)
        assert abs(started - reference) <= cls.stop_width(layout, grid, level)
        return started

    @staticmethod
    def shift(diagonal, layout, grid, level):
        """The ``sigma`` of a one-stage ``sigma B - K`` diagonal handed to ``dpttrf``, read at the first node."""
        band, mass, _ = oracle._staged_band(*solved_level(layout, grid), level)
        return (diagonal[0] - band[2, 0]) / mass[0]

    @pytest.mark.parametrize("bc", BCS)
    def test_matches_bound_start(self, bc):
        rng = np.random.default_rng(40 + BCS.index(bc))
        for K in (1, 2, 3) if bc is BoundaryCondition.PERIODIC else (1,):
            layout = replace(random_scalar_problem(rng), bc=bc, K=K).to_layout()
            near = bracket(layout, self.GRID, 0)
            for level in (1, 2):
                near = self.assert_matches_bound_start(layout, self.GRID, level, near)

    @pytest.mark.parametrize("bc", [BoundaryCondition.NEUMANN, BoundaryCondition.PERIODIC])
    def test_top_equal_to_the_bound(self, bc):
        # Uniform growth with reflecting ends or on a ring: the constant vector
        # is the top eigenvector and the top equals the growth bound exactly.
        K = 2 if bc is BoundaryCondition.PERIODIC else 1
        layout = PatchLayout(ScalarZone(1.0, 0.7), ScalarZone(3.0, 0.7), R=2.0, r=1.0, K=K, bc=bc)
        history = [value for value, _ in _level_chain(layout, self.GRID)]
        for level in (1, 2):
            value = self.assert_matches_bound_start(layout, self.GRID, level, history[level - 1])
            assert value == history[level]
            assert abs(value - 0.7) <= 1e-12

    def test_failed_factor_restarts(self, monkeypatch):
        # The first factor is made to fail: sigma is raised 16-fold from near, and the level lands on
        # the bound start's value.
        near, top = (bracket(self.SCALAR, self.GRID, level) for level in (0, 1))
        calls = self.record(monkeypatch, "dpttrf", lambda calls, result: (*result[:2], len(calls) == 1 or result[2]))
        value = bracket(self.SCALAR, self.GRID, 1, near)
        assert abs(value - top) <= self.stop_width(self.SCALAR, self.GRID, 1)
        sigma = [self.shift(d, self.SCALAR, self.GRID, 1) for d, _ in calls]
        assert sigma[0] == pytest.approx(near + 1e-3 * (1 + abs(near)), rel=1e-12)
        assert sigma[1] - near == pytest.approx(16 * (sigma[0] - near), rel=1e-9)
        assert all(info == 0 for _, (_, _, info) in calls[1:])

    def test_start_below_the_top_fails_the_factor(self, monkeypatch):
        # Started from the level's third eigenvalue, sigma B - K is indefinite: dpttrf fails until
        # sigma is raised past the top.
        calls = self.record(monkeypatch, "dpttrf")
        S = symmetric_form(assemble(self.SCALAR, self.GRID, 1)).toarray()
        third = np.linalg.eigvalsh(S)[-3]
        self.assert_matches_bound_start(self.SCALAR, self.GRID, 1, third)
        infos = [info for _, (_, _, info) in calls]
        assert infos[0] > 0 and 0 in infos

    def test_staged_non_positive_start_restarts(self, monkeypatch):
        # A staged start below the top gives an iterate that is not positive: sigma is raised and
        # the level lands on the bound start's value.
        taiga, grid = get_preset("taiga-two-stage"), GridSpec(cells_per_unit_length=2, refinement_levels=2)
        top = bracket(taiga, grid, 1)
        calls = self.record(monkeypatch, "dgbtrs")
        value = bracket(taiga, grid, 1, top - 0.05)
        assert abs(value - top) <= self.stop_width(taiga, grid, 1)
        positive = [bool(w.min() > 0) for _, (w, _) in calls]
        assert not positive[0] and positive[-1]

    @pytest.mark.parametrize("name, layout, grid", [
        ("dpttrf", SCALAR, GRID), ("dgbtrs", get_preset("taiga-two-stage"), GridSpec(2, 2)),
    ], ids=["one-stage", "staged"])
    def test_failure_at_the_bound_raises(self, monkeypatch, name, layout, grid):
        # A bound below the top: every start fails, up to the bound, where the level raises.
        top = bracket(layout, grid, 1)
        calls = self.record(monkeypatch, name)
        with pytest.raises(oracle.NoConvergenceError, match="singular|not positive") as err:
            bracket(layout, grid, 1, top - 2.0, bound=top - 0.5)
        assert f"sigma = {top - 0.5:.6g}" in str(err.value)
        assert 1 < len(calls) < 10

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
        # difference stands above 250 stop widths of the finest level's bracket,
        # 1e3 eps |B^-1 K|_inf: 51, 24 and 16 of the 70 draws per boundary.
        scales = []
        band = oracle._staged_band

        def recording_band(*args):
            result = band(*args)
            scales.append(result[2].max())
            return result

        monkeypatch.setattr(oracle, "_staged_band", recording_band)
        orders = []
        for p in self.draws(16 + BCS.index(bc), bc, 70):
            hist = [value for value, _ in _level_chain(p.to_layout(), GridSpec(16, 4))]
            coarse, fine = hist[2] - hist[1], hist[3] - hist[2]
            if abs(fine) > 1e3 * np.finfo(float).eps * scales[-1]:
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
