"""The package's public names: each one resolves, none is listed twice."""

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
