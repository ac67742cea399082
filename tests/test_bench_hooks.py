"""The benchmark tracer wraps program functions and library kernels by name.

``bench/tracing.py`` is loaded from its path, unchanged, and every name it
patches must resolve on the imported package, so that a rename which would
break a traced benchmark run fails here first.
"""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import patchcontrol.cli  # noqa: F401  (the tracer patches the imported package, cli.main included)
from patchcontrol import BoundaryCondition, GridSpec, get_preset, oracle

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, name", tracing._PROGRAM_FUNCTIONS)
def test_program_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"patchcontrol.{module}"), name))


@pytest.mark.parametrize("owner, attr", [site[:2] for site in tracing._KERNEL_SITES])
def test_kernel_site_resolves(owner, attr):
    assert callable(getattr(importlib.import_module(owner), attr))


def test_scalar_levels_traced_on_the_perron_path():
    # Scalar levels are bracketed on the band as staged ones are: the traced solve holds no
    # tridiagonal bisection, no assembly and no Arnoldi solve, and its time stays with the top-level span.
    tracer = tracing.Tracer()
    with tracer.installed():
        oracle.top_eigenvalue_fd(get_preset("lone-star"), GridSpec(cells_per_unit_length=8, refinement_levels=3))
    names = {s.name for s in tracer.spans}
    assert "oracle.top_eigenvalue_fd" in names
    assert not names & {"oracle.solve.tridiagonal", "oracle.assemble", "oracle.solve.arnoldi"}


@pytest.mark.parametrize(
    "grid, unknowns",
    [
        (GridSpec(refinement_levels=2), [2626, 5250]),
        (GridSpec(cells_per_unit_length=0.5, refinement_levels=2), [38, 74]),
    ],
    ids=["default", "small-levels"],
)
def test_staged_levels_traced_on_the_half_period(grid, unknowns):
    # The staged path is solved on the half-period's band, small level or not: the traced solve
    # holds no assembly, no Arnoldi solve and no dense staged solve, and its time stays with the
    # top-level span.
    taiga = get_preset("taiga-two-stage")
    half = replace(taiga, R=taiga.R / 2, r=taiga.r / 2, K=1, bc=BoundaryCondition.NEUMANN)
    half_grid = replace(grid, min_cells_per_zone=grid.min_cells_per_zone // 2)
    assert [oracle._staged_band(half, half_grid, level)[0].shape[1] for level in range(grid.refinement_levels)] == unknowns
    tracer = tracing.Tracer()
    with tracer.installed():
        oracle.top_eigenvalue_fd(taiga, grid)
    names = {s.name for s in tracer.spans}
    assert "oracle.top_eigenvalue_fd" in names
    assert not names & {"oracle.assemble", "oracle.solve.arnoldi", "oracle.solve.dense_staged"}
