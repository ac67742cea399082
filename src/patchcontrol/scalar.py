"""Closed-form eradication criteria for the scalar two-zone model.

The spatial operator is ``a y'' + lam y`` on the beneficial zone and
``b y'' - mu y`` on the control zone, glued by continuity of ``y`` and of the
flux ``a y'``.  Its top eigenvalue decides eradication; the criteria below
express its sign through tan/tanh balances, one per boundary condition, and
the dispersion solver locates the eigenvalue itself.  Inverse design inverts
the balance: the minimal zone width in closed form, the minimal mortality by
Brent's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .linalg import expanding_root
from .model import (
    BoundaryCondition,
    LayoutError,
    PatchLayout,
    ScalarZone,
    SpectralMethod,
    SpectralReport,
    Verdict,
    validate_layout,
)

_BISECT_RTOL = 1e-10
_BRACKET_CAP = 1e12
_SCAN_POINTS = 4096


class NonpositiveGrowthError(ValueError):
    pass


class UncontrollableError(ValueError):
    """No control parameters can eradicate: the patch exceeds its critical size."""


class InsufficientMortalityError(ValueError):
    """Even an arbitrarily wide control zone cannot eradicate at this mortality."""


@dataclass(frozen=True)
class ScalarProblem:
    """Inputs of the scalar criteria; ``mu`` is the (nonnegative) control mortality."""

    a: float
    lam: float
    b: float
    mu: float
    R: float
    r: float
    bc: BoundaryCondition = BoundaryCondition.PERIODIC
    K: int = 1

    def __post_init__(self):
        validate_layout(self.to_layout())
        if self.mu < 0:
            raise LayoutError("PositiveControlGrowth", "criteria require control mortality mu >= 0")

    @classmethod
    def from_layout(cls, layout: PatchLayout) -> "ScalarProblem":
        if not layout.is_scalar:
            raise LayoutError("UnknownZoneType", "scalar criteria need a scalar layout")
        return cls(
            a=layout.beneficial.diffusion,
            lam=layout.beneficial.growth,
            b=layout.control.diffusion,
            mu=-layout.control.growth,
            R=layout.R,
            r=layout.r,
            bc=layout.bc,
            K=layout.K,
        )

    def to_layout(self) -> PatchLayout:
        return PatchLayout(
            beneficial=ScalarZone(self.a, self.lam),
            control=ScalarZone(self.b, -self.mu),
            R=self.R,
            r=self.r,
            K=self.K,
            bc=self.bc,
        )


def critical_patch_dirichlet(a: float, lam: float) -> float:
    """Critical beneficial-zone width ``pi * sqrt(a / lam)`` under absorbing ends."""
    if a <= 0:
        raise LayoutError("NonpositiveDiffusion", "a must be > 0")
    if lam <= 0:
        raise NonpositiveGrowthError("critical patch size undefined for lam <= 0")
    return math.pi * math.sqrt(a / lam)


def _tanh_over_sqrt(mu: float, b: float, r: float) -> float:
    """tanh(r sqrt(mu/b)) / sqrt(b mu), continued to r/b at mu = 0."""
    q = mu * b
    if q <= 0 or r == 0.0:
        # limit of tanh(r sqrt(mu/b)) / sqrt(b mu) as mu -> 0 is r/b
        return r / b if q <= 0 else 0.0
    return math.tanh(r * math.sqrt(mu / b)) / math.sqrt(q)


def _sqrt_tanh(mu: float, b: float, r_eff: float) -> float:
    """sqrt(mu b) * tanh(r_eff sqrt(mu/b)); 0 at mu = 0 or r_eff = 0."""
    if mu <= 0 or r_eff <= 0:
        return 0.0
    return math.sqrt(mu * b) * math.tanh(r_eff * math.sqrt(mu / b))


def _sqrt_tan(lam: float, a: float, R_eff: float) -> float:
    """sqrt(lam a) * tan(R_eff sqrt(lam/a)) for lam >= 0."""
    if lam == 0:
        return 0.0
    return math.sqrt(lam * a) * math.tan(R_eff * math.sqrt(lam / a))


def dirichlet_verdict(p: ScalarProblem) -> Verdict:
    """Exact trichotomy for absorbing ends on ``[0, R + r]``."""
    if p.lam < 0:
        return Verdict.from_margin(-p.lam, "negative-growth")
    s = p.lam / p.a
    hi = (math.pi / p.R) ** 2
    lo = (math.pi / (2 * p.R)) ** 2
    if s >= hi:
        return Verdict.from_margin(hi - s, "dirichlet-critical-size")
    if s <= lo:
        return Verdict.from_margin(lo - s, "dirichlet-half-size")
    lhs, rhs = control_inequality_sides(p)
    return Verdict.from_margin(lhs - rhs, "dirichlet-tan-tanh")


def neumann_verdict(p: ScalarProblem) -> Verdict:
    """Exact trichotomy for reflecting ends on ``[0, R + r]``."""
    if p.lam < 0:
        return Verdict.from_margin(-p.lam, "negative-growth")
    s = p.lam / p.a
    thresh = (math.pi / (2 * p.R)) ** 2
    if s >= thresh:
        return Verdict.from_margin(thresh - s, "neumann-critical-size")
    lhs, rhs = control_inequality_sides(p)
    return Verdict.from_margin(lhs - rhs, "neumann-tan-tanh")


def periodic_verdict(p: ScalarProblem) -> Verdict:
    """Exact trichotomy on the torus of ``K`` beneficial/control pairs.

    The outcome does not depend on ``K``: the top eigenfunction of the
    periodic operator is itself periodic with the single-pair period.
    """
    if p.lam < 0:
        return Verdict.from_margin(-p.lam, "negative-growth")
    s = p.lam / p.a
    thresh = (math.pi / p.R) ** 2
    if s >= thresh:
        return Verdict.from_margin(thresh - s, "periodic-critical-size")
    lhs, rhs = control_inequality_sides(p)
    return Verdict.from_margin(lhs - rhs, "periodic-tan-tanh")


_VERDICTS = {
    BoundaryCondition.DIRICHLET: dirichlet_verdict,
    BoundaryCondition.NEUMANN: neumann_verdict,
    BoundaryCondition.PERIODIC: periodic_verdict,
}


def scalar_verdict(p: ScalarProblem) -> Verdict:
    """Dispatch to the boundary-condition-appropriate criterion."""
    return _VERDICTS[p.bc](p)


def control_inequality_sides(p: ScalarProblem) -> tuple[float, float]:
    """(lhs, rhs) of the deciding tan/tanh inequality; eradication iff lhs > rhs.

    Only defined inside the controllable band (below the clause-(i) threshold,
    and above the Dirichlet half-size threshold for absorbing ends).
    """
    if p.lam < 0 or (p.lam == 0 and p.bc is BoundaryCondition.DIRICHLET):
        raise NonpositiveGrowthError("inequality sides need lam > 0 (lam >= 0 off absorbing ends)")
    if p.bc is BoundaryCondition.DIRICHLET:
        lhs = -_tanh_over_sqrt(p.mu, p.b, p.r)
        rhs = math.tan(p.R * math.sqrt(p.lam / p.a)) / math.sqrt(p.a * p.lam)
        return lhs, rhs
    if p.bc is BoundaryCondition.NEUMANN:
        return _sqrt_tanh(p.mu, p.b, p.r), _sqrt_tan(p.lam, p.a, p.R)
    return _sqrt_tanh(p.mu, p.b, p.r / 2), _sqrt_tan(p.lam, p.a, p.R / 2)


# ---------------------------------------------------------------------------
# Dispersion-equation eigenvalue solver
# ---------------------------------------------------------------------------


def _effective_widths(p: ScalarProblem) -> tuple[float, float]:
    if p.bc is BoundaryCondition.PERIODIC:
        return p.R / 2, p.r / 2
    return p.R, p.r


def _dispersion_residual(p: ScalarProblem, x: np.ndarray) -> np.ndarray:
    """Residual whose roots in ``x = (lam - E)/a`` are eigenvalues.

    Valid on ``0 < x < (lam + mu)/a`` (oscillatory beneficial zone, decaying
    control zone).  Dirichlet uses the normalized tan/tanh difference; the
    Neumann and periodic cases use the flux-matching product form.
    """
    x = np.asarray(x, dtype=float)
    R_eff, r_eff = _effective_widths(p)
    q = p.lam + p.mu - p.a * x  # equals mu + E, > 0 inside the window
    sqx = np.sqrt(x)
    if p.bc is BoundaryCondition.DIRICHLET:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ben = np.tan(R_eff * sqx) / (p.a * sqx)
            gam = np.sqrt(np.maximum(q, 0.0) / p.b)
            ctl = np.where(
                gam * p.b > 1e-300,
                np.tanh(r_eff * gam) / np.maximum(p.b * gam, 1e-300),
                r_eff / p.b,
            )
        return ben + ctl
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ben = p.a * sqx * np.tan(R_eff * sqx)
        ctl = np.sqrt(np.maximum(q, 0.0) * p.b) * np.tanh(r_eff * np.sqrt(np.maximum(q, 0.0) / p.b))
    return ben - ctl


def top_eigenvalue_scalar(p: ScalarProblem, grid: "GridSpec | None" = None) -> SpectralReport:
    """Largest eigenvalue of the scalar two-zone operator.

    Solves the transcendental dispersion equation on the window
    ``E in (-mu, lam)`` by pole-aware bracket scanning (poles of the tan term
    split the window into continuity intervals).  If no root exists there the
    top eigenvalue lies at or below ``-mu`` and the finite-difference oracle
    is used instead; that fallback is part of the contract.
    """
    eps = 1e-9 * max(1.0, abs(p.lam), p.mu)
    R_eff, _ = _effective_widths(p)

    if p.r == 0.0:
        # No control zone: the beneficial zone fills the whole domain.
        if p.bc is BoundaryCondition.DIRICHLET:
            value = p.lam - p.a * (math.pi / p.R) ** 2
        else:
            value = p.lam
        return SpectralReport(value, SpectralMethod.DISPERSION_ROOT, 0.0, "analytic r=0")

    x_lo = eps / p.a
    x_hi = (p.lam + p.mu - eps) / p.a
    if x_hi > x_lo:
        root_x = _scan_dispersion(p, x_lo, x_hi, R_eff)
        if root_x is not None:
            E = p.lam - p.a * root_x
            err = max(p.a * 1e-13, 1e-12 * (1.0 + abs(E)))
            return SpectralReport(E, SpectralMethod.DISPERSION_ROOT, err, f"scan={_SCAN_POINTS}")

    from .oracle import GridSpec, top_eigenvalue_fd

    report = top_eigenvalue_fd(p.to_layout(), grid or GridSpec())
    return replace(report, method=SpectralMethod.FINITE_DIFFERENCE)


def _scan_dispersion(p: ScalarProblem, x_lo: float, x_hi: float, R_eff: float) -> float | None:
    """Smallest root of the dispersion residual in ``(x_lo, x_hi)``, or None."""
    poles = []
    k = 0
    while True:
        xp = ((math.pi / 2 + k * math.pi) / R_eff) ** 2
        if xp >= x_hi:
            break
        if xp > x_lo:
            poles.append(xp)
        k += 1
        if k > 100_000:  # unreachable at sane widths; guards infinite loops
            break
    breaks = [x_lo] + poles + [x_hi]
    for u, v in zip(breaks[:-1], breaks[1:]):
        pad = 1e-12 * max(1.0, v - u) + 1e-300
        xs = np.linspace(u + pad, v - pad, _SCAN_POINTS)
        vals = _dispersion_residual(p, xs)
        finite = np.isfinite(vals)
        sign_change = np.nonzero(finite[:-1] & finite[1:] & (vals[:-1] * vals[1:] < 0))[0]
        if sign_change.size == 0:
            continue
        i = int(sign_change[0])
        f = lambda x: float(_dispersion_residual(p, np.array([x]))[0])
        return float(brentq(f, xs[i], xs[i + 1], xtol=1e-13, rtol=8 * np.finfo(float).eps))
    return None


# ---------------------------------------------------------------------------
# Inverse design: minimal mortality, minimal zone width
# ---------------------------------------------------------------------------


def _clause_i_threshold(p: ScalarProblem) -> float:
    if p.bc is BoundaryCondition.NEUMANN:
        return (math.pi / (2 * p.R)) ** 2
    return (math.pi / p.R) ** 2


def min_mortality(
    a: float,
    lam: float,
    R: float,
    b: float,
    r: float,
    bc: BoundaryCondition = BoundaryCondition.PERIODIC,
    K: int = 1,
) -> float:
    """Smallest control mortality ``mu`` that flips the verdict to Eradication.

    The lhs of the deciding inequality is strictly increasing in ``mu``, so
    the zero of the margin is unique and Brent's method applies.  Raises
    ``UncontrollableError`` when the patch is beyond its clause-(i) threshold
    (no mortality works) or when there is no control zone to act on.
    """
    probe = ScalarProblem(a=a, lam=lam, b=b, mu=0.0, R=R, r=r, bc=bc, K=K)
    if lam <= 0:
        return 0.0
    s = lam / a
    if s >= _clause_i_threshold(probe):
        raise UncontrollableError("patch at or beyond critical size: no mortality suffices")
    if bc is BoundaryCondition.DIRICHLET and s < (math.pi / (2 * R)) ** 2:
        return 0.0
    if r == 0.0:
        raise UncontrollableError("no control zone (r = 0): mortality has nothing to act on")

    def margin(mu: float) -> float:
        return scalar_verdict(replace(probe, mu=mu)).margin

    if margin(0.0) > 0:
        return 0.0
    failure = UncontrollableError(f"no eradicating mortality below {_BRACKET_CAP:g}")
    return expanding_root(margin, _BRACKET_CAP, failure, xtol=1e-14, rtol=_BISECT_RTOL)


def min_zone_width(
    a: float,
    lam: float,
    R: float,
    b: float,
    mu: float,
    bc: BoundaryCondition = BoundaryCondition.PERIODIC,
    K: int = 1,
) -> float:
    """Smallest control-zone width ``r`` achieving Eradication at mortality ``mu``.

    For reflecting/periodic boundaries the lhs ``sqrt(mu b) tanh(r_eff
    sqrt(mu/b))`` grows with ``r`` up to ``sqrt(mu b)``; if that cap stays
    below the rhs no width suffices and ``InsufficientMortalityError`` is
    raised, otherwise ``r_eff = sqrt(b/mu) artanh(rhs / sqrt(mu b))``, with
    ``r = 2 r_eff`` on rings.  Absorbing ends need no control zone at all
    below the critical size (``r* = 0``).
    """
    probe = ScalarProblem(a=a, lam=lam, b=b, mu=max(mu, 0.0), R=R, r=0.0, bc=bc, K=K)
    if lam <= 0:
        return 0.0
    s = lam / a
    if s >= _clause_i_threshold(probe):
        raise UncontrollableError("patch at or beyond critical size: no zone width suffices")
    if bc is BoundaryCondition.DIRICHLET:
        return 0.0
    if mu <= 0:
        raise InsufficientMortalityError("mu = 0: the control inequality lhs is identically 0")
    _, rhs = control_inequality_sides(probe)
    if math.sqrt(mu * b) <= rhs:
        raise InsufficientMortalityError(
            f"sqrt(mu b) = {math.sqrt(mu * b):.6g} <= inequality rhs {rhs:.6g}: "
            "even r -> infinity cannot eradicate"
        )
    r_eff = math.sqrt(b / mu) * math.atanh(rhs / math.sqrt(mu * b))
    return 2 * r_eff if bc is BoundaryCondition.PERIODIC else r_eff
