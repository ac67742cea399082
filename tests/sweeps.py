"""Shared generators for the randomized verification sweeps.

A plain module rather than ``conftest.py``: ``bench/tests`` has a conftest of its
own, and both would be imported as the one module ``conftest`` when the two
suites run in one pytest command.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from patchcontrol import (
    BoundaryCondition,
    InsufficientMortalityError,
    NonpositiveGrowthError,
    ScalarProblem,
    UncontrollableError,
    Verdict,
    build_stage_matrix,
)
from patchcontrol.linalg import expanding_root
from patchcontrol.model import BirthDeathParams
from patchcontrol.scalar import _sqrt_tan, _sqrt_tanh, _tanh_over_sqrt

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


# Reference for ``patchcontrol.scalar.scalar_verdict`` and the inverse design:
# the criteria as one function per boundary condition, each with its own
# thresholds, before they were read from one controllable band.


def legacy_inequality_sides(p: ScalarProblem) -> tuple[float, float]:
    if p.lam < 0 or (p.lam == 0 and p.bc is BoundaryCondition.DIRICHLET):
        raise NonpositiveGrowthError("inequality sides need lam > 0 (lam >= 0 off absorbing ends)")
    if p.bc is BoundaryCondition.DIRICHLET:
        lhs = -_tanh_over_sqrt(p.mu, p.b, p.r)
        rhs = math.tan(p.R * math.sqrt(p.lam / p.a)) / math.sqrt(p.a * p.lam)
        return lhs, rhs
    if p.bc is BoundaryCondition.NEUMANN:
        return _sqrt_tanh(p.mu, p.b, p.r), _sqrt_tan(p.lam, p.a, p.R)
    return _sqrt_tanh(p.mu, p.b, p.r / 2), _sqrt_tan(p.lam, p.a, p.R / 2)


def _legacy_dirichlet_verdict(p: ScalarProblem) -> Verdict:
    if p.lam < 0:
        return Verdict.from_margin(-p.lam, "negative-growth")
    s = p.lam / p.a
    hi = (math.pi / p.R) ** 2
    lo = (math.pi / (2 * p.R)) ** 2
    if s >= hi:
        return Verdict.from_margin(hi - s, "dirichlet-critical-size")
    if s <= lo:
        return Verdict.from_margin(lo - s, "dirichlet-half-size")
    lhs, rhs = legacy_inequality_sides(p)
    return Verdict.from_margin(lhs - rhs, "dirichlet-tan-tanh")


def _legacy_neumann_verdict(p: ScalarProblem) -> Verdict:
    if p.lam < 0:
        return Verdict.from_margin(-p.lam, "negative-growth")
    s = p.lam / p.a
    thresh = (math.pi / (2 * p.R)) ** 2
    if s >= thresh:
        return Verdict.from_margin(thresh - s, "neumann-critical-size")
    lhs, rhs = legacy_inequality_sides(p)
    return Verdict.from_margin(lhs - rhs, "neumann-tan-tanh")


def _legacy_periodic_verdict(p: ScalarProblem) -> Verdict:
    if p.lam < 0:
        return Verdict.from_margin(-p.lam, "negative-growth")
    s = p.lam / p.a
    thresh = (math.pi / p.R) ** 2
    if s >= thresh:
        return Verdict.from_margin(thresh - s, "periodic-critical-size")
    lhs, rhs = legacy_inequality_sides(p)
    return Verdict.from_margin(lhs - rhs, "periodic-tan-tanh")


_LEGACY_VERDICTS = {
    BoundaryCondition.DIRICHLET: _legacy_dirichlet_verdict,
    BoundaryCondition.NEUMANN: _legacy_neumann_verdict,
    BoundaryCondition.PERIODIC: _legacy_periodic_verdict,
}


def _legacy_clause_i_threshold(p: ScalarProblem) -> float:
    if p.bc is BoundaryCondition.NEUMANN:
        return (math.pi / (2 * p.R)) ** 2
    return (math.pi / p.R) ** 2


def legacy_scalar_verdict(p: ScalarProblem) -> Verdict:
    return _LEGACY_VERDICTS[p.bc](p)


def legacy_min_mortality(a, lam, R, b, r, bc=BoundaryCondition.PERIODIC, K=1) -> float:
    probe = ScalarProblem(a=a, lam=lam, b=b, mu=0.0, R=R, r=r, bc=bc, K=K)
    if lam <= 0:
        return 0.0
    s = lam / a
    if s >= _legacy_clause_i_threshold(probe):
        raise UncontrollableError("patch at or beyond critical size: no mortality suffices")
    if bc is BoundaryCondition.DIRICHLET and s < (math.pi / (2 * R)) ** 2:
        return 0.0
    if r == 0.0:
        raise UncontrollableError("no control zone (r = 0): mortality has nothing to act on")

    def margin(mu: float) -> float:
        return legacy_scalar_verdict(replace(probe, mu=mu)).margin

    failure = UncontrollableError("no eradicating mortality below 1e+12")
    return expanding_root(margin, 1e12, failure, xtol=1e-14, rtol=1e-10)


def legacy_min_zone_width(a, lam, R, b, mu, bc=BoundaryCondition.PERIODIC, K=1) -> float:
    probe = ScalarProblem(a=a, lam=lam, b=b, mu=max(mu, 0.0), R=R, r=0.0, bc=bc, K=K)
    if lam <= 0:
        return 0.0
    s = lam / a
    if s >= _legacy_clause_i_threshold(probe):
        raise UncontrollableError("patch at or beyond critical size: no zone width suffices")
    if bc is BoundaryCondition.DIRICHLET:
        return 0.0
    if mu <= 0:
        raise InsufficientMortalityError("mu = 0: the control inequality lhs is identically 0")
    _, rhs = legacy_inequality_sides(probe)
    if math.sqrt(mu * b) <= rhs:
        raise InsufficientMortalityError(
            f"sqrt(mu b) = {math.sqrt(mu * b):.6g} <= inequality rhs {rhs:.6g}: "
            "even r -> infinity cannot eradicate"
        )
    r_eff = math.sqrt(b / mu) * math.atanh(rhs / math.sqrt(mu * b))
    return 2 * r_eff if bc is BoundaryCondition.PERIODIC else r_eff


def random_band_edge_problem(rng: np.random.Generator) -> ScalarProblem:
    """A draw over every boundary with the criteria's edge cases mixed in.

    ``K`` 1-3 on rings; growth negative, zero or positive; zero mortality;
    no control zone; and ``R`` exactly at the critical width
    ``pi sqrt(a / lam)`` or at half of it.
    """
    bc = BCS[int(rng.integers(3))]
    a = loguniform(rng, 0.1, 100.0)
    lam = (-loguniform(rng, 0.01, 5.0), 0.0, loguniform(rng, 0.01, 5.0), loguniform(rng, 0.01, 5.0))[
        int(rng.integers(4))
    ]
    R = loguniform(rng, 0.1, 30.0)
    if lam > 0:
        R = (R, math.pi * math.sqrt(a / lam), math.pi * math.sqrt(a / lam) / 2)[int(rng.integers(3))]
    return ScalarProblem(
        a=a,
        lam=lam,
        b=loguniform(rng, 0.1, 100.0),
        mu=0.0 if rng.random() < 0.2 else loguniform(rng, 0.01, 100.0),
        R=R,
        r=0.0 if rng.random() < 0.2 else loguniform(rng, 0.01, 5.0),
        bc=bc,
        K=int(rng.integers(1, 4)) if bc is BoundaryCondition.PERIODIC else 1,
    )
