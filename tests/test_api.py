"""The package's public names: each one resolves, none is listed twice, and
names with no caller in the package, CLI, benchmark or demos are gone."""

import importlib
import inspect

import pytest

import patchcontrol


def test_every_public_name_resolves():
    missing = [name for name in patchcontrol.__all__ if not hasattr(patchcontrol, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(patchcontrol.__all__) == len(set(patchcontrol.__all__))


@pytest.mark.parametrize("name", ["dirichlet_verdict", "neumann_verdict", "periodic_verdict"])
def test_per_boundary_verdicts_are_gone(name):
    # One scalar_verdict serves every boundary condition.
    assert name not in patchcontrol.__all__
    assert not hasattr(patchcontrol, name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("model", "load_scenario"),
        ("model", "dump_scenario"),
        ("linalg", "EigenPair"),
        ("linalg", "eigen_basis_2x2"),
        ("linalg", "real_eigenvalues"),
        ("oracle", "refinement_history"),
        ("oracle", "_top_eigenvalue_level"),
        ("oracle", "_staged_rightmost_eigenvalue"),
        ("oracle", "_imag_bound"),
        ("staged", "transfer_matrix"),
    ],
)
def test_names_without_a_caller_are_gone(module, name):
    assert name not in patchcontrol.__all__
    assert not hasattr(patchcontrol, name)
    assert not hasattr(importlib.import_module(f"patchcontrol.{module}"), name)


def test_layout_has_no_period():
    assert not hasattr(patchcontrol.PatchLayout, "period")


def test_transfer_matrix_type_is_not_exported():
    assert "TransferMatrix" not in patchcontrol.__all__
    assert not hasattr(patchcontrol, "TransferMatrix")


def test_symmetrized_verdict_takes_only_the_problem():
    assert list(inspect.signature(patchcontrol.symmetrized_sufficient_verdict).parameters) == ["prob"]
