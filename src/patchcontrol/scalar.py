"""Closed-form eradication criteria for the scalar two-zone model.

The spatial operator is ``a y'' + lam y`` on the beneficial zone and
``b y'' - mu y`` on the control zone, glued by continuity of ``y`` and of the
flux ``a y'``.  Its top eigenvalue decides eradication: one tan/tanh balance
gives its sign inside a band of ``lam / a`` set by the boundary, with rings
read as reflecting ends on the half widths ``R/2, r/2``.  The dispersion
relation locates the eigenvalue itself: its first poles bracket the top root
for one Brent solve, on every scalar layout and without the grid oracle, which
this module does not import.  Inverse design inverts the balance: the minimal
zone width in closed form, the minimal mortality by Brent's method.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial

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
_ROOT_XTOL = 1e-13  # Brent tolerances of the dispersion root, in x = (lam - E)/a
_ROOT_RTOL = 8 * sys.float_info.epsilon


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
    if not math.isfinite(a) or a <= 0:
        raise LayoutError("NonpositiveDiffusion", "a must be finite and > 0")
    if not math.isfinite(lam):
        raise LayoutError("NonfiniteGrowth", "lam must be finite")
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


def _effective_widths(p) -> tuple[float, float]:
    """Widths of a scalar or staged one-pair problem: halved on rings, whose top eigenfunction is even about mid-zone."""
    if p.bc is BoundaryCondition.PERIODIC:
        return p.R / 2, p.r / 2
    return p.R, p.r


def _controllable_band(p: ScalarProblem) -> tuple[float, float]:
    """``(lo, hi)``: the band of ``lam / a`` where the tan/tanh balance decides.

    Above it no control suffices, below it none is needed.  With the quarter-wave
    threshold ``q = (pi / (2 R_eff))**2``, reflecting ends and rings give
    ``(-inf, q)`` and absorbing ends, critical at a half wave, ``(q, 4 q)``.
    ``q`` is the first pole of the deciding tan; where its argument
    ``R_eff sqrt(lam / a)`` and ``lam / a`` round to opposite sides of the pole,
    the tan's side wins: ``q`` moves onto ``lam / a``, a zero (Marginal) margin.
    """
    R_eff, _ = _effective_widths(p)
    q = (math.pi / (2 * R_eff)) ** 2
    s = p.lam / p.a
    past_pole = R_eff * math.sqrt(max(s, 0.0)) > math.pi / 2
    if p.bc is BoundaryCondition.DIRICHLET:
        # Not 4 * q: ``**`` is not always correctly rounded, so the two can differ in the last bit.
        return (q if past_pole else max(q, s)), (math.pi / R_eff) ** 2
    return -math.inf, (min(q, s) if past_pole else q)


def scalar_verdict(p: ScalarProblem) -> Verdict:
    """Exact trichotomy of the scalar two-zone model, for every boundary condition.

    On rings the outcome does not depend on ``K``: the top eigenfunction of
    the periodic operator is itself periodic with the single-pair period.
    """
    if p.lam < 0:
        return Verdict.from_margin(-p.lam, "negative-growth")
    s = p.lam / p.a
    lo, hi = _controllable_band(p)
    if s >= hi:
        return Verdict.from_margin(hi - s, f"{p.bc.value}-critical-size")
    if s <= lo:
        return Verdict.from_margin(lo - s, "dirichlet-half-size")
    lhs, rhs = control_inequality_sides(p)
    return Verdict.from_margin(lhs - rhs, f"{p.bc.value}-tan-tanh")


def control_inequality_sides(p: ScalarProblem) -> tuple[float, float]:
    """(lhs, rhs) of the deciding tan/tanh inequality; eradication iff lhs > rhs.

    Only defined inside the controllable band (see :func:`_controllable_band`).
    """
    if p.lam < 0 or (p.lam == 0 and p.bc is BoundaryCondition.DIRICHLET):
        raise NonpositiveGrowthError("inequality sides need lam > 0 (lam >= 0 off absorbing ends)")
    if p.bc is BoundaryCondition.DIRICHLET:
        lhs = -_tanh_over_sqrt(p.mu, p.b, p.r)
        rhs = math.tan(p.R * math.sqrt(p.lam / p.a)) / math.sqrt(p.a * p.lam)
        return lhs, rhs
    R, r = _effective_widths(p)
    return _sqrt_tanh(p.mu, p.b, r), _sqrt_tan(p.lam, p.a, R)


# ---------------------------------------------------------------------------
# Dispersion-equation eigenvalue solver
# ---------------------------------------------------------------------------


def _dispersion_residual(
    x: float, a: float, lam: float, R: float, b: float, mu: float, r: float, dirichlet: bool
) -> float:
    """Residual whose roots in ``x = (lam - E)/a > 0`` are eigenvalues (``R``, ``r`` effective widths).

    Dirichlet uses the normalized tan/tanh sum, Neumann and rings the
    flux-matching difference.  With ``q = mu + E`` the control zone decays for
    ``q > 0`` and oscillates for ``q < 0``, where its tanh continues to a tan.
    Between consecutive poles the residual increases in ``x``; at each pole it
    jumps from +inf to -inf.
    """
    k = math.sqrt(x)
    q = lam + mu - a * x
    g = math.sqrt(abs(q) / b)
    if dirichlet:
        if g == 0.0:
            ctl = r / b  # the limit of tanh(r g) / (b g)
        else:
            ctl = (math.tanh(r * g) if q > 0 else math.tan(r * g)) / (b * g)
        return math.tan(R * k) / (a * k) + ctl
    return a * k * math.tan(R * k) - b * g * (math.tanh(r * g) if q > 0 else -math.tan(r * g))


def top_eigenvalue_scalar(p: ScalarProblem) -> SpectralReport:
    """Largest eigenvalue of the scalar two-zone operator: a root of the dispersion relation.

    The residual's poles alone bracket the top eigenvalue.  With ``P1 < P2``
    the first two poles of both zones' tan terms, it lies in ``[0, P1)`` for
    reflecting ends and rings and in ``(P1, P2)`` for absorbing ends, and one
    Brent solve finds it.  When the control zone outgrows the beneficial one
    (``lam < -mu``) the zones are exchanged, a reflection of the domain that
    keeps the spectrum, so the top always has ``x >= 0``.
    """
    if p.r == 0.0:
        # No control zone: the beneficial zone fills the domain; absorbing ends cost a half wave.
        if p.bc is BoundaryCondition.DIRICHLET:
            value = p.lam - p.a * _controllable_band(p)[1]
        else:
            value = p.lam
        return SpectralReport(value, SpectralMethod.DISPERSION_ROOT, 0.0, "analytic r=0")

    R, r = _effective_widths(p)
    a, lam, b, mu = p.a, p.lam, p.b, p.mu
    if lam < -mu:
        a, lam, R, b, mu, r = b, -mu, r, a, -lam, R
    dirichlet = p.bc is BoundaryCondition.DIRICHLET
    # tan(R sqrt(x)) and tan(r sqrt((a x - lam - mu) / b)) blow up at odd multiples of pi/2.
    # Poles are kept with their multiplicity: where one of each zone coincides, both zones'
    # fluxes vanish at the interface and that pole is itself an eigenvalue.
    poles = sorted([
        *(((k + 0.5) * math.pi / R) ** 2 for k in (0, 1)),
        *((lam + mu + b * ((k + 0.5) * math.pi / r) ** 2) / a for k in (0, 1)),
    ])
    f = partial(_dispersion_residual, a=a, lam=lam, R=R, b=b, mu=mu, r=r, dirichlet=dirichlet)
    if dirichlet:
        x, x_err = _pole_bracket_root(f, poles[0], poles[1], lo_is_pole=True)
    else:
        x, x_err = _pole_bracket_root(f, 0.0, poles[0], lo_is_pole=False)
    E = lam - a * x
    err = max(a * x_err, 1e-12 * (1.0 + abs(E)))
    return SpectralReport(E, SpectralMethod.DISPERSION_ROOT, err, "pole bracket")


def _pole_bracket_root(f, lo: float, hi: float, lo_is_pole: bool) -> tuple[float, float]:
    """Root of ``f`` and a bound on its error in ``x``.

    ``f`` increases on ``(lo, hi)`` to +inf at the pole ``hi``, from -inf at
    ``lo`` if that is a pole and from ``f(lo) <= 0`` otherwise.  The ends step
    ``1e-12 hi`` off the poles; an end where ``f`` already has the far end's
    sign lies within that step of the root, and two poles closer than two steps
    (or coinciding) pin the root between them.
    """
    pad = 1e-12 * hi
    if hi - lo <= 2 * pad:
        return (lo + hi) / 2, pad
    lo, hi = lo + pad * lo_is_pole, hi - pad
    if f(hi) <= 0:
        return hi, pad
    if lo_is_pole and f(lo) >= 0:
        return lo, pad
    x = brentq(f, lo, hi, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL)
    return x, _ROOT_XTOL + _ROOT_RTOL * x


# ---------------------------------------------------------------------------
# Inverse design: minimal mortality, minimal zone width
# ---------------------------------------------------------------------------


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

    The lhs of the deciding inequality increases strictly in ``mu``, so the
    margin has one zero, found by Brent's method (``0.0`` below the band or if
    the margin is already nonnegative at ``mu = 0``).  Raises ``UncontrollableError``
    above the band (no mortality works) or with no control zone off absorbing
    ends; inside their band absorbing ends eradicate without one.
    """
    probe = ScalarProblem(a=a, lam=lam, b=b, mu=0.0, R=R, r=r, bc=bc, K=K)
    if lam <= 0:
        return 0.0
    s = lam / a
    lo, hi = _controllable_band(probe)
    if s >= hi:
        raise UncontrollableError("patch at or beyond critical size: no mortality suffices")
    if s < lo:
        return 0.0
    if r == 0.0 and bc is not BoundaryCondition.DIRICHLET:
        raise UncontrollableError("no control zone (r = 0): mortality has nothing to act on")

    def margin(mu: float) -> float:
        return scalar_verdict(replace(probe, mu=mu)).margin

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
    if lam / a >= _controllable_band(probe)[1]:
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
