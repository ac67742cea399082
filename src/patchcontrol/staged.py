"""Eradication criteria for stage-structured populations.

Three routes of increasing specificity:

* uniform control (``M - mu*I`` in the control zone, shared scalar diffusion):
  exact reduction to the scalar criteria with the lead eigenvalue of ``M``
  playing the role of the growth rate;
* symmetrization: a one-sided sufficient condition comparing quadratic forms
  of the symmetrized per-zone matrices (conservative for strongly
  nonsymmetric stage couplings);
* the two-stage criterion: a sharper one-sided condition for ``n = 2``
  requiring a sign pattern of the closed-form change of basis between the
  per-zone eigenvector bases, certifiable without sampling when the control
  zone is calibrated by a proportional birth-rate reduction.

The one-sided criteria read widths as the scalar criterion does: one zone pair
on the half widths ``R/2, r/2`` of a ring, on ``R, r`` themselves otherwise.  A
reflecting pair ``(R, r)`` mirrors exactly onto the ring ``(2R, 2r)``, whose
half widths it is; absorbing ends only lower the symmetrized Rayleigh quotient,
so the symmetrized bound reads them the same way.  For cooperative and
irreducible stages (positive off-diagonals in both zone matrices) they also
lower the principal eigenvalue, so the two-stage criterion reads them the same
way too; it refuses any other absorbing pair.  Like ``scalar_verdict``, the
two-stage balance tests the tan's first pole on the argument it evaluates:
a patch at or past it is never certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ComplexOrRepeatedEigenvaluesError,
    Eigen2x2,
    NoRealEigenvalueError,
    eigen_2x2,
    expanding_root,
    max_real_eigenvalue,
    symmetric_eigen,
)
from .model import (
    BoundaryCondition,
    LayoutError,
    PatchLayout,
    StageZone,
    Verdict,
    _validate_zone,
    build_stage_matrix,  # noqa: F401  re-exported: callers reach it as staged.build_stage_matrix
    stage_coupling,
    validate_layout,
)
from .scalar import ScalarProblem, _effective_widths, scalar_verdict


class AssumptionViolatedError(ValueError):
    pass


class NonpositiveLeadEigenvalueError(ValueError):
    pass


@dataclass(frozen=True)
class StagedProblem:
    """Inputs of the staged criteria: per-zone diffusion diagonals and reaction matrices."""

    A_ben: np.ndarray
    M_ben: np.ndarray
    A_nb: np.ndarray
    M_nb: np.ndarray
    R: float
    r: float
    bc: BoundaryCondition = BoundaryCondition.PERIODIC
    K: int = 1

    def __post_init__(self):
        for name in ("A_ben", "A_nb"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        for name in ("M_ben", "M_nb"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        validate_layout(self.to_layout())

    @property
    def dimension(self) -> int:
        return len(self.A_ben)

    @property
    def a_ratio(self) -> float | None:
        """Scalar ``a`` with ``A_nb = a * A_ben``, or None if no such scalar exists."""
        ratios = self.A_nb / self.A_ben
        if ratios.max() - ratios.min() <= 1e-12 * ratios.mean():
            return float(ratios.mean())
        return None

    @classmethod
    def from_layout(cls, layout: PatchLayout) -> "StagedProblem":
        return cls(
            A_ben=layout.beneficial.diffusion_diag,
            M_ben=layout.beneficial.reaction,
            A_nb=layout.control.diffusion_diag,
            M_nb=layout.control.reaction,
            R=layout.R,
            r=layout.r,
            bc=layout.bc,
            K=layout.K,
        )

    def to_layout(self) -> PatchLayout:
        return PatchLayout(
            beneficial=StageZone(self.A_ben, self.M_ben),
            control=StageZone(self.A_nb, self.M_nb),
            R=self.R,
            r=self.r,
            K=self.K,
            bc=self.bc,
        )


@dataclass(frozen=True)
class SufficiencyResult:
    """Outcome of a one-sided criterion: Eradication, or Inconclusive with the failed clause."""

    eradicated: bool
    reason: str
    margin: float | None = None

    @property
    def status(self) -> str:
        return "Eradication" if self.eradicated else "Inconclusive"


@dataclass(frozen=True)
class ControlCheck:
    holds: bool
    reason: str

    @property
    def status(self) -> str:
        return "ConditionsHold" if self.holds else f"ConditionsFail({self.reason})"


# ---------------------------------------------------------------------------
# Uniform control (reduction to the scalar case)
# ---------------------------------------------------------------------------


def uniform_control_verdict(
    M: np.ndarray,
    a: float,
    b: float,
    mu: float,
    R: float,
    r: float,
    bc: BoundaryCondition = BoundaryCondition.PERIODIC,
    K: int = 1,
) -> Verdict:
    """Exact verdict when the control zone shifts the whole stage matrix by ``-mu``.

    Diagonalizing ``M`` decouples the stages; only the lead eigenvalue can
    produce a nonnegative mode, so the verdict equals the scalar one with
    growth ``Lambda1`` and control mortality ``mu - Lambda1``.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lam1 = max_real_eigenvalue(M)
    if lam1 <= 0:
        raise AssumptionViolatedError("lead eigenvalue of M must be positive")
    if mu <= lam1:
        raise AssumptionViolatedError("mu must exceed Lambda1")
    vals = np.linalg.eigvals(M)
    others = np.delete(vals, int(np.argmin(np.abs(vals - lam1))))
    if others.size and others.real.max() >= 0:
        raise AssumptionViolatedError("a non-lead eigenvalue has nonnegative real part")
    p = ScalarProblem(a=a, lam=lam1, b=b, mu=mu - lam1, R=R, r=r, bc=bc, K=K)
    return scalar_verdict(p)


def critical_patch_staged(A: np.ndarray, M: np.ndarray) -> float:
    """Critical patch size ``pi / sqrt(Lambda1(A^-1 M))`` of the staged system
    under absorbing ends and no control zone."""
    zone = StageZone(A, M)
    _validate_zone(zone, "beneficial")  # a 1-D positive diagonal, one row of M per stage, finite entries
    lam1 = max_real_eigenvalue(zone.reaction / zone.diffusion_diag[:, None])
    if lam1 <= 0:
        raise NonpositiveLeadEigenvalueError(
            f"lead eigenvalue {lam1:.6g} <= 0: the population decays on any patch"
        )
    return math.pi / math.sqrt(lam1)


# ---------------------------------------------------------------------------
# Symmetrization bound
# ---------------------------------------------------------------------------


def symmetrized_zone_matrix(M: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Symmetric part ``(M A^-1 + A^-1 M^T) / 2`` entering the quadratic-form bound."""
    A = np.atleast_1d(np.asarray(A, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    Ainv = 1.0 / A
    return (M * Ainv[None, :] + Ainv[:, None] * M.T) / 2.0


def symmetrized_sufficient_verdict(prob: StagedProblem) -> SufficiencyResult:
    """One-sided eradication test via symmetrization of both zone matrices.

    On the half widths ``R_eff, r_eff`` (see the module docstring), eradication
    requires the patch to stay below the symmetrized critical size and
    ``sqrt|mu1| tanh(r_eff sqrt|mu1|)`` to dominate ``4 R_eff n k lam1 /
    (1 + cos(2 R_eff sqrt(lam1)))``, ``k`` counting positive symmetrized
    eigenvalues.  Anything else is Inconclusive, never Survival.
    """
    R_eff, r_eff = _effective_widths(prob)
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
    if 2 * R_eff > r_c_sym:
        size = r_c_sym / 2 * (prob.R / R_eff)  # in prob's own widths
        return SufficiencyResult(False, f"patch wider than symmetrized critical size {size:.6g}")
    root_mu = math.sqrt(abs(mu1))
    lhs = root_mu * math.tanh(r_eff * root_mu)
    denom = 1.0 + math.cos(2 * R_eff * math.sqrt(lam1))
    if denom <= 0:
        return SufficiencyResult(False, "patch at the symmetrized critical size")
    rhs = 4.0 * R_eff * n * k_pos * lam1 / denom
    if lhs > rhs:
        return SufficiencyResult(True, "symmetrized interface inequality holds", margin=lhs - rhs)
    return SufficiencyResult(False, "symmetrized interface inequality fails", margin=lhs - rhs)


def symmetrized_critical_patch(prob: StagedProblem) -> float:
    """Critical size ``pi / sqrt(lam1)`` of the symmetrized beneficial zone."""
    lams, _ = symmetric_eigen(symmetrized_zone_matrix(prob.M_ben, prob.A_ben))
    if lams[0] <= 0:
        raise NonpositiveLeadEigenvalueError("symmetrized beneficial matrix has no positive eigenvalue")
    return math.pi / math.sqrt(float(lams[0]))


# ---------------------------------------------------------------------------
# Two-stage basis-change criterion
# ---------------------------------------------------------------------------


def _basis_change(ben: Eigen2x2, ctl: Eigen2x2) -> tuple[np.ndarray, np.ndarray]:
    """``c = V^-1 W`` and ``det V`` for stacks of pinned eigenbases ``V = [[1, q], [p, 1]]``
    and ``W = [[1, q'], [p', 1]]``: column ``j`` of ``c`` holds the coordinates of
    ``w_j`` in the ``v`` basis.  Items with ``det V = 0``, as where a repeated
    eigenvalue pins one vector twice, get ``c = 0``."""
    q, p = ben.vectors[..., 0, 1], ben.vectors[..., 1, 0]
    q2, p2 = ctl.vectors[..., 0, 1], ctl.vectors[..., 1, 0]
    det = 1.0 - p * q
    c = np.stack([1.0 - q * p2, q2 - q, p2 - p, 1.0 - p * q2], axis=-1)
    c = c / np.where(det == 0.0, np.inf, det)[..., None]
    return c.reshape(*det.shape, 2, 2), det


def _zone_matrix(prob: StagedProblem, M: np.ndarray, E, a: float = 1.0) -> np.ndarray:
    """``A^-1 (M - E I) / a`` with ``A = A_ben``, one matrix per entry of ``E``."""
    Ainv = 1.0 / prob.A_ben
    return (M * Ainv[:, None] - np.multiply.outer(E, np.diag(Ainv))) / a


def _lead_zero(prob: StagedProblem) -> float:
    """``E0`` of :func:`two_stage_verdict`, the positive eigenvalue of ``M_ben``."""
    E0 = float(eigen_2x2(prob.M_ben).values[0])
    # The eigenvalues at E0 are 0 and the trace: zero leads only for a
    # nonpositive trace, which can fail when m12 * m21 < 0.
    if np.trace(_zone_matrix(prob, prob.M_ben, E0)) > 0:
        raise AssumptionViolatedError("lead eigenvalue does not cross zero")
    return E0


def _lead_at_zero(prob: StagedProblem, M: np.ndarray, zone: str, a: float = 1.0) -> float:
    """Largest real eigenvalue of a zone matrix at E = 0; none is an assumption failure."""
    try:
        return max_real_eigenvalue(_zone_matrix(prob, M, 0.0, a))
    except NoRealEigenvalueError as exc:
        raise AssumptionViolatedError(f"{zone} matrix at E=0: {exc}") from exc


def _two_stage_reading(prob: StagedProblem) -> tuple[float, float, float]:
    """``(a, R_eff, r_eff)`` of a problem the two-stage criterion reads, with ``A_nb = a A_ben``."""
    if prob.dimension != 2:
        raise AssumptionViolatedError("two-stage criterion needs exactly 2 stages")
    # With each zone cooperative and irreducible (for 2x2: positive off-diagonals), absorbing ends lower
    # the principal eigenvalue below that of reflecting ends on the same widths, which are read instead.
    couplings = [stage_coupling(m) for m in (prob.M_ben, prob.M_nb)]
    cooperative = all(metzler and len(classes) == 1 for metzler, classes in couplings)
    if prob.bc is BoundaryCondition.DIRICHLET and not cooperative:
        raise AssumptionViolatedError("two-stage criterion needs reflecting ends or a ring, or cooperative stages")
    a = prob.a_ratio
    if a is None:
        raise AssumptionViolatedError("control diffusion must be a scalar multiple of the beneficial one")
    return (a, *_effective_widths(prob))


def _two_stage_balance(lam1: float, mu1: float, a: float, R: float, R_eff: float, r_eff: float) -> tuple[float, float]:
    """``(a sqrt|mu1| tanh(sqrt|mu1| r_eff), sqrt(lam1) tan(sqrt(lam1) R_eff))`` for ``lam1 > 0``.

    Its only refusal: ``AssumptionViolatedError`` at or past the tan's first pole, ``sqrt(lam1) R_eff >= pi/2``
    on the argument the tan reads, quoting the critical size in the widths of ``R`` (effective width ``R_eff``)."""
    root_lam = math.sqrt(lam1)
    if root_lam * R_eff >= math.pi / 2.0:
        size = math.pi / root_lam * (R / (2 * R_eff))
        raise AssumptionViolatedError(f"patch at or beyond staged critical size {size:.6g}")
    root_mu = math.sqrt(abs(mu1))
    return a * root_mu * math.tanh(root_mu * r_eff), root_lam * math.tan(root_lam * R_eff)


def two_stage_inequality_sides(prob: StagedProblem) -> tuple[float, float]:
    """(lhs, rhs) of the two-stage interface inequality, evaluated at E = 0.

    Raises ``AssumptionViolatedError`` where :func:`two_stage_verdict` cannot read
    the problem, and for a patch at or past the staged critical size.
    """
    a, R_eff, r_eff = _two_stage_reading(prob)
    lam1 = _lead_at_zero(prob, prob.M_ben, "beneficial")
    if lam1 <= 0:
        raise AssumptionViolatedError("lead eigenvalue nonpositive")
    mu1 = _lead_at_zero(prob, prob.M_nb, "control", a)
    return _two_stage_balance(lam1, mu1, a, prob.R, R_eff, r_eff)


def two_stage_verdict(prob: StagedProblem, certified: bool = False) -> SufficiencyResult:
    """One-sided two-stage criterion with sampled (or certified) sign conditions.

    Verifies the eigenvalue orderings and the basis-change sign pattern at
    257 evenly spaced points of ``[0, E0]``, then tests the interface inequality at
    ``E = 0``.  ``E0`` is the zero of the lead eigenvalue ``Lambda1(E)`` of
    ``A^-1 (M_ben - E I)``; ``Lambda1(0) > 0 > Lambda2(0)`` forces
    ``det M_ben < 0``, and ``E0`` is the positive eigenvalue of ``M_ben``.
    ``certified=True`` skips the sign-pattern sampling, as justified by a
    passing :func:`proportional_control_check`.  The first failing sample is
    reported.  Widths are read as in the module docstring; absorbing ends raise
    unless both zone matrices have positive off-diagonal entries.
    """
    a, R_eff, r_eff = _two_stage_reading(prob)
    at_zero = eigen_2x2(_zone_matrix(prob, prob.M_ben, 0.0))
    try:
        at_zero.check(vectors=False)
    except ComplexOrRepeatedEigenvaluesError as exc:
        raise AssumptionViolatedError(f"beneficial eigenvalues at E=0: {exc}") from exc
    lam1, lam2 = (float(v) for v in at_zero.values)
    if not (lam1 > 0 > lam2):
        raise AssumptionViolatedError(
            f"need Lambda1(0) > 0 > Lambda2(0), got {lam1:.6g}, {lam2:.6g}"
        )
    mu1_0 = _lead_at_zero(prob, prob.M_nb, "control", a)
    if mu1_0 >= 0:
        return SufficiencyResult(False, "control zone not dissipative (mu1(0) >= 0)")
    lead = _lead_at_zero(prob, prob.M_ben, "beneficial")  # eigvals, as the sides read it: the pole test uses it too
    if lead <= 0:
        raise AssumptionViolatedError("lead eigenvalue nonpositive")
    try:
        lhs, rhs = _two_stage_balance(lead, mu1_0, a, prob.R, R_eff, r_eff)
    except AssumptionViolatedError as exc:  # at or past the pole: Inconclusive, not a failed assumption
        return SufficiencyResult(False, str(exc))

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
    if failed.any():  # report the first failing sample, its checks in order
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
        except ComplexOrRepeatedEigenvaluesError as exc:
            raise AssumptionViolatedError(f"eigenbasis degenerates at E={E:.6g}: {exc}") from exc
        if singular[i]:
            raise AssumptionViolatedError(
                f"eigenbasis degenerates at E={E:.6g}: beneficial eigenbasis nearly singular (det={det[i]:.3g})"
            )
        return SufficiencyResult(
            False, f"sign conditions fail at E={E:.6g} (c12*c21={off[i]:.3g}, c11*c22={diag[i]:.3g})"
        )

    if lhs > rhs:
        return SufficiencyResult(True, "two-stage interface inequality holds", margin=lhs - rhs)
    return SufficiencyResult(False, "two-stage interface inequality fails", margin=lhs - rhs)


def min_control_decay_rate(lead_eigenvalue: float, R: float, r: float, a: float = 1.0) -> float:
    """Threshold on ``|mu1(0)|`` above which the two-stage inequality holds.

    Solves ``a sqrt(m) tanh(sqrt(m) r/2) = sqrt(L1) tan(sqrt(L1) R/2)`` for
    ``m`` (the balance of a ring ``(R, r)``); the lhs is strictly increasing,
    so Brent's method applies.
    """
    if not 0 < lead_eigenvalue < math.inf:
        raise NonpositiveLeadEigenvalueError("lead eigenvalue must be positive")
    if not (0 < r < math.inf and 0 <= R < math.inf):
        raise AssumptionViolatedError("need a control zone of positive width and R >= 0")
    if not 0 < a < math.inf:
        raise LayoutError("NonpositiveDiffusion", "a must be finite and > 0")

    def excess(m: float) -> float:
        lhs, rhs = _two_stage_balance(lead_eigenvalue, m, a, R, R / 2, r / 2)
        return lhs - rhs

    failure = AssumptionViolatedError("no finite control rate satisfies the inequality")
    return expanding_root(excess, 1e15, failure, xtol=1e-14, rtol=1e-12)


def proportional_control_check(
    a1: float,
    a2: float,
    m1: float,
    m2: float,
    b1: float,
    b2: float,
    omega: float,
    mtilde1: float,
    mtilde2: float,
) -> ControlCheck:
    """Hypotheses under which a proportional birth-rate reduction certifies
    the two-stage sign conditions without sampling.

    The control zone must calibrate births as ``omega * b_j`` with
    ``omega in (0, 1)`` and raise deaths keeping their gap
    (``mtilde1 - mtilde2 >= m1 - m2``); the background needs a supercritical
    cycle (``m1 m2 < b1 b2``) and the slow-stage orderings ``1/a1 >= 1/a2``,
    ``m1/a1 >= m2/a2``.
    """
    for name, v in (("a1", a1), ("a2", a2), ("m1", m1), ("m2", m2), ("b1", b1), ("b2", b2)):
        if not 0 < v < math.inf:
            return ControlCheck(False, f"{name} must be finite and positive")
    for name, v in (("mtilde1", mtilde1), ("mtilde2", mtilde2)):
        if not math.isfinite(v):
            return ControlCheck(False, f"{name} must be finite")
    if not (0.0 < omega < 1.0):
        return ControlCheck(False, "omega out of range (0, 1)")
    if m1 * m2 - b1 * b2 >= 0:
        return ControlCheck(False, "lead eigenvalue nonpositive")
    if 1.0 / a1 < 1.0 / a2:
        return ControlCheck(False, "diffusion ordering")
    if m1 / a1 < m2 / a2:
        return ControlCheck(False, "death-rate ordering")
    if mtilde1 < m1 or mtilde2 < m2:
        return ControlCheck(False, "control deaths below background deaths")
    if mtilde1 - mtilde2 < m1 - m2:
        return ControlCheck(False, "death-gap ordering")
    return ControlCheck(True, "ConditionsHold")
