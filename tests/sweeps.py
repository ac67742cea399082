"""Shared generators for the randomized verification sweeps.

A plain module rather than ``conftest.py``: ``bench/tests`` has a conftest of its
own, and both would be imported as the one module ``conftest`` when the two
suites run in one pytest command.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize import brentq

from patchcontrol import BoundaryCondition, ScalarProblem, build_stage_matrix
from patchcontrol.model import BirthDeathParams

BCS = (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN, BoundaryCondition.PERIODIC)


def loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_scalar_problem(rng: np.random.Generator) -> ScalarProblem:
    """Log-uniform draw over the verification sweep ranges, all three boundaries."""
    return ScalarProblem(
        a=loguniform(rng, 0.1, 100.0),
        b=loguniform(rng, 0.1, 100.0),
        lam=loguniform(rng, 0.01, 5.0),
        mu=loguniform(rng, 0.01, 100.0),
        R=loguniform(rng, 0.1, 30.0),
        r=loguniform(rng, 0.01, 5.0),
        bc=BCS[int(rng.integers(3))],
        K=1,
    )


def random_birth_death(rng: np.random.Generator, n: int) -> BirthDeathParams:
    deaths = np.array([loguniform(rng, 0.05, 2.0) for _ in range(n)])
    births = np.array([loguniform(rng, 0.1, 3.0) for _ in range(n)])
    return BirthDeathParams(deaths=deaths, births=births)


def random_supercritical_stage_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stage matrix with positive lead eigenvalue (births rescaled until it is)."""
    from patchcontrol import max_real_eigenvalue

    params = random_birth_death(rng, n)
    M = build_stage_matrix(params)
    for _ in range(60):
        if max_real_eigenvalue(M) > 0.02:
            return M
        off = M - np.diag(np.diag(M))
        M = np.diag(np.diag(M)) + off * 1.5
    return M


class NoRootError(ValueError):
    pass


class InvalidBracketError(ValueError):
    pass


def bracketed_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12, scan_points: int = 4096
) -> float:
    """First root of ``f`` in ``[lo, hi]``: a sign-change scan, then Brent's method.

    The reference root finder of the test suite.  ``f`` must be continuous on
    the bracket; raises ``NoRootError`` if no sign change shows at the scan
    resolution and ``InvalidBracketError`` for a degenerate bracket.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise InvalidBracketError(f"invalid bracket [{lo}, {hi}]")
    xs = np.linspace(lo, hi, max(int(scan_points), 2))
    vals = np.array([f(x) for x in xs], dtype=float)
    finite = np.isfinite(vals)
    for i in range(len(xs) - 1):
        if not (finite[i] and finite[i + 1]):
            continue
        if vals[i] == 0.0:
            return float(xs[i])
        if vals[i] * vals[i + 1] < 0.0:
            return float(brentq(f, xs[i], xs[i + 1], xtol=tol, rtol=8 * np.finfo(float).eps))
    if finite[-1] and vals[-1] == 0.0:
        return float(xs[-1])
    raise NoRootError(f"no sign change of f on [{lo}, {hi}] at scan resolution {scan_points}")


def legacy_expanding_root(
    f: Callable[[float], float], cap: float, failure: Exception, xtol: float, rtol: float
) -> float:
    """Reference for ``patchcontrol.linalg.expanding_root`` without its memo
    and its zero test: Brent's method evaluates both ends of the last doubling
    again, and each caller tests ``x = 0`` itself (see :data:`LEGACY_SEARCHES`)."""
    hi = 1.0
    while f(hi) <= 0:
        hi *= 2
        if hi > cap:
            raise failure
    return float(brentq(f, hi / 2 if hi > 1 else 0.0, hi, xtol=xtol, rtol=rtol))


def _legacy_search(zero_test: Callable[[float], bool] | None):
    def search(f, cap, failure, xtol, rtol):
        if zero_test is not None and zero_test(f(0.0)):
            return 0.0
        return legacy_expanding_root(f, cap, failure, xtol, rtol)

    return search


# Module using ``expanding_root`` -> the old search behind that caller's old
# zero pre-check: ``margin(0) > 0`` in ``min_mortality``, ``top(0) <= 0`` in
# the oracle's ``_first_eradicating`` (``f = -top``), none in ``min_control_decay_rate``.
LEGACY_SEARCHES = {
    "patchcontrol.scalar": _legacy_search(lambda margin: margin > 0),
    "patchcontrol.oracle": _legacy_search(lambda minus_top: -minus_top <= 0),
    "patchcontrol.staged": _legacy_search(None),
}
