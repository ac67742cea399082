"""Shared fixtures; the sweep generators are in ``sweeps.py``."""

from __future__ import annotations

import pytest

from patchcontrol import GridSpec


@pytest.fixture
def fast_grid() -> GridSpec:
    return GridSpec(cells_per_unit_length=64, refinement_levels=2)
