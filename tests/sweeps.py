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
    AssumptionViolatedError,
    BoundaryCondition,
    InsufficientMortalityError,
    NonpositiveGrowthError,
    ScalarProblem,
    StagedProblem,
    SufficiencyResult,
    UncontrollableError,
    Verdict,
    build_stage_matrix,
)
from patchcontrol.linalg import (
    ComplexOrRepeatedEigenvaluesError,
    SingularBasisError,
    eigen_2x2,
    expanding_root,
    symmetric_eigen,
)
from patchcontrol.model import BirthDeathParams
from patchcontrol.scalar import _sqrt_tan, _sqrt_tanh, _tanh_over_sqrt
from patchcontrol.staged import (
    NonpositiveLeadEigenvalueError,
    _basis_change,
    _lead_at_zero,
    _lead_zero,
    _zone_matrix,
    symmetrized_zone_matrix,
)

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


# Reference for ``patchcontrol.staged``'s one-sided criteria before they read
# widths through ``scalar._effective_widths``: a reflecting or absorbing pair
# was doubled onto the ring ``(2R, 2r)``, which the criteria halved again.


def legacy_as_ring(prob: StagedProblem) -> StagedProblem:
    if prob.bc is BoundaryCondition.PERIODIC:
        return prob
    return replace(prob, R=2 * prob.R, r=2 * prob.r, bc=BoundaryCondition.PERIODIC)


def _legacy_two_stage_ring(prob: StagedProblem) -> StagedProblem:
    if prob.bc is BoundaryCondition.DIRICHLET:
        raise AssumptionViolatedError("two-stage criterion needs reflecting ends or a ring")
    return legacy_as_ring(prob)


def legacy_two_stage_inequality_sides(prob: StagedProblem) -> tuple[float, float]:
    """Evaluates the tan past its first pole, and reads any number of stages."""
    prob = _legacy_two_stage_ring(prob)
    a = prob.a_ratio
    if a is None:
        raise AssumptionViolatedError("control diffusion must be a scalar multiple of the beneficial one")
    lam1 = _lead_at_zero(prob, prob.M_ben, "beneficial")
    if lam1 <= 0:
        raise AssumptionViolatedError("lead eigenvalue nonpositive")
    mu1 = _lead_at_zero(prob, prob.M_nb, "control", a)
    root_lam = math.sqrt(lam1)
    root_mu = math.sqrt(abs(mu1))
    lhs = a * root_mu * math.tanh(root_mu * prob.r / 2.0)
    rhs = root_lam * math.tan(root_lam * prob.R / 2.0)
    return lhs, rhs


def legacy_two_stage_verdict(prob: StagedProblem, certified: bool = False) -> SufficiencyResult:
    """Tests the critical size on the closed-form ``Lambda1(0)`` but evaluates the
    tan on the ``np.linalg.eigvals`` one: where they straddle the pole it certifies."""
    if prob.dimension != 2:
        raise AssumptionViolatedError("two-stage criterion needs exactly 2 stages")
    ring = _legacy_two_stage_ring(prob)
    a = prob.a_ratio
    if a is None:
        raise AssumptionViolatedError("control diffusion must be a scalar multiple of the beneficial one")
    at_zero = eigen_2x2(_zone_matrix(prob, prob.M_ben, 0.0))
    try:
        at_zero.check(vectors=False)
    except ComplexOrRepeatedEigenvaluesError as exc:
        raise AssumptionViolatedError(f"beneficial eigenvalues at E=0: {exc}") from exc
    lam1, lam2 = (float(v) for v in at_zero.values)
    if not (lam1 > 0 > lam2):
        raise AssumptionViolatedError(f"need Lambda1(0) > 0 > Lambda2(0), got {lam1:.6g}, {lam2:.6g}")
    mu1_0 = _lead_at_zero(prob, prob.M_nb, "control", a)
    if mu1_0 >= 0:
        return SufficiencyResult(False, "control zone not dissipative (mu1(0) >= 0)")
    root_lam = math.sqrt(lam1)
    if root_lam * ring.R / 2.0 >= math.pi / 2.0:
        size = math.pi / root_lam * (prob.R / ring.R)
        return SufficiencyResult(False, f"patch at or beyond staged critical size {size:.6g}")
    Es = np.linspace(0.0, _lead_zero(prob), 257)
    ben, ctl = eigen_2x2(_zone_matrix(prob, prob.M_ben, Es)), eigen_2x2(_zone_matrix(prob, prob.M_nb, Es, a))
    ben_order = ~((ben.values[:, 0] >= -1e-9 * max(1.0, lam1)) & (ben.values[:, 1] < 0))
    ctl_order = ctl.values[:, 0] >= 0
    failed = (ben.disc <= 0) | (ctl.disc <= 0) | ben_order | ctl_order
    if not certified:
        c, det = _basis_change(ben, ctl)
        singular = np.abs(det) <= 1e-12 * (1.0 + np.abs(ben.vectors).max(axis=(-2, -1)) ** 2)
        off, diag = c[:, 0, 1] * c[:, 1, 0], c[:, 0, 0] * c[:, 1, 1]
        failed |= ben.degenerate | ctl.degenerate | singular | (off > 1e-12) | (diag < -1e-12)
    if failed.any():
        i = int(np.argmax(failed))
        E = Es[i]
        try:
            ben.check(i, vectors=False)
            ctl.check(i, vectors=False)
        except ComplexOrRepeatedEigenvaluesError as exc:
            raise AssumptionViolatedError(f"eigenvalue ordering fails at E={E:.6g}: {exc}") from exc
        if ben_order[i]:
            raise AssumptionViolatedError(f"beneficial eigenvalue ordering fails at E={E:.6g}")
        if ctl_order[i]:
            return SufficiencyResult(False, f"control eigenvalue ordering fails at E={E:.6g}")
        try:
            ben.check(i)
            ctl.check(i)
            if singular[i]:
                raise SingularBasisError(f"beneficial eigenbasis nearly singular (det={det[i]:.3g})")
        except (ComplexOrRepeatedEigenvaluesError, SingularBasisError) as exc:
            raise AssumptionViolatedError(f"eigenbasis degenerates at E={E:.6g}: {exc}") from exc
        return SufficiencyResult(
            False, f"sign conditions fail at E={E:.6g} (c12*c21={off[i]:.3g}, c11*c22={diag[i]:.3g})"
        )
    lhs, rhs = legacy_two_stage_inequality_sides(ring)
    if lhs > rhs:
        return SufficiencyResult(True, "two-stage interface inequality holds", margin=lhs - rhs)
    return SufficiencyResult(False, "two-stage interface inequality fails", margin=lhs - rhs)


def legacy_symmetrized_sufficient_verdict(prob: StagedProblem) -> SufficiencyResult:
    ring = legacy_as_ring(prob)
    n = prob.dimension
    lams, _ = symmetric_eigen(symmetrized_zone_matrix(prob.M_ben, prob.A_ben))
    mus, _ = symmetric_eigen(symmetrized_zone_matrix(prob.M_nb, prob.A_nb))
    k_pos = int(np.sum(lams > 0))
    if mus[0] >= 0:
        return SufficiencyResult(False, "control zone not dissipative")
    if k_pos == 0:
        return SufficiencyResult(True, "beneficial symmetrization nonpositive", margin=-float(lams[0]))
    lam1 = float(lams[0])
    mu1 = float(mus[0])
    r_c_sym = math.pi / math.sqrt(lam1)
    if ring.R > r_c_sym:
        size = r_c_sym * (prob.R / ring.R)
        return SufficiencyResult(False, f"patch wider than symmetrized critical size {size:.6g}")
    root_mu = math.sqrt(abs(mu1))
    lhs = root_mu * math.tanh(ring.r * root_mu / 2.0)
    denom = 1.0 + math.cos(ring.R * math.sqrt(lam1))
    if denom <= 0:
        return SufficiencyResult(False, "patch at the symmetrized critical size")
    rhs = 2.0 * ring.R * n * k_pos * lam1 / denom
    if lhs > rhs:
        return SufficiencyResult(True, "symmetrized interface inequality holds", margin=lhs - rhs)
    return SufficiencyResult(False, "symmetrized interface inequality fails", margin=lhs - rhs)


def legacy_min_control_decay_rate(lead_eigenvalue: float, R: float, r: float, a: float = 1.0) -> float:
    """Tests the pole and evaluates the tan on ``sqrt(L1) R / 2``; took any ``a`` and NaN widths."""
    if lead_eigenvalue <= 0:
        raise NonpositiveLeadEigenvalueError("lead eigenvalue must be positive")
    if r <= 0 or R < 0:
        raise AssumptionViolatedError("need a control zone of positive width and R >= 0")
    root_lam = math.sqrt(lead_eigenvalue)
    if root_lam * R / 2.0 >= math.pi / 2.0:
        raise AssumptionViolatedError(f"patch at or beyond staged critical size {math.pi / root_lam:.6g}")
    rhs = root_lam * math.tan(root_lam * R / 2.0)

    def excess(m: float) -> float:
        rm = math.sqrt(m)
        return a * rm * math.tanh(rm * r / 2.0) - rhs

    failure = AssumptionViolatedError("no finite control rate satisfies the inequality")
    return expanding_root(excess, 1e15, failure, xtol=1e-14, rtol=1e-12)
