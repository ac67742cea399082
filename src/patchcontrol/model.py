"""Domain model: zones, patch layouts, staged systems, verdicts.

A layout describes a one-dimensional habitat split into a beneficial zone
of width ``R`` and a control zone of width ``r``, repeated ``K`` times for
periodic boundaries.  Zones are either scalar (one diffusion coefficient,
one net growth rate) or staged (diagonal diffusion matrix plus a square
reaction matrix coupling the life stages).

All types are immutable after validation and safe to share across threads.
The core is dimensionless; presets document their units (km, month or year).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

import numpy as np

MAX_STAGES = 8

#: Default half-width of the marginal band around a zero margin, in the
#: natural units of the deciding inequality.
MARGINAL_TOL = 1e-9


class LayoutError(ValueError):
    """Invalid layout or scenario.  ``code`` names the violated invariant."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class BoundaryCondition(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"

    @classmethod
    def parse(cls, name: str) -> "BoundaryCondition":
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise LayoutError(
                "UnknownBoundaryCondition",
                f"expected one of dirichlet|neumann|periodic, got {name!r}",
            ) from None


class VerdictStatus(Enum):
    ERADICATION = "Eradication"
    SURVIVAL = "Survival"
    MARGINAL = "Marginal"


class SpectralMethod(Enum):
    DISPERSION_ROOT = "DispersionRoot"
    FINITE_DIFFERENCE = "FiniteDifference"


@dataclass(frozen=True)
class ScalarZone:
    """Homogeneous zone with scalar diffusion and signed net growth.

    ``growth`` is positive in a beneficial zone and negative (``-mu``) in a
    control zone; storing the signed rate avoids double-negation mistakes
    between the scalar and staged criteria.
    """

    diffusion: float
    growth: float

    @property
    def dimension(self) -> int:
        return 1


@dataclass(frozen=True)
class StageZone:
    """Homogeneous zone of a staged system: diagonal diffusion + reaction matrix."""

    diffusion_diag: np.ndarray
    reaction: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "diffusion_diag", np.atleast_1d(np.asarray(self.diffusion_diag, dtype=float))
        )
        object.__setattr__(self, "reaction", np.atleast_2d(np.asarray(self.reaction, dtype=float)))

    @property
    def dimension(self) -> int:
        return len(self.diffusion_diag)


Zone = Union[ScalarZone, StageZone]


@dataclass(frozen=True)
class BirthDeathParams:
    """Per-stage death rates and maturation/fecundity rates of a cyclic life cycle."""

    deaths: np.ndarray
    births: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "deaths", np.atleast_1d(np.asarray(self.deaths, dtype=float)))
        object.__setattr__(self, "births", np.atleast_1d(np.asarray(self.births, dtype=float)))
        if len(self.deaths) != len(self.births):
            raise LayoutError("DimensionMismatch", "deaths and births must have equal length")
        if len(self.deaths) < 1 or len(self.deaths) > MAX_STAGES:
            raise LayoutError("StageCountOutOfRange", f"need 1..{MAX_STAGES} stages")
        if np.any(self.deaths <= 0) or np.any(self.births <= 0):
            raise LayoutError("NonpositiveRate", "all death and birth rates must be > 0")

    @property
    def dimension(self) -> int:
        return len(self.deaths)


def build_stage_matrix(params: BirthDeathParams) -> np.ndarray:
    """Cyclic stage matrix: deaths on the diagonal, maturation on the
    subdiagonal, fecundity closing the cycle in the top-right corner.

    The one-stage cycle degenerates to the net rate ``b1 - m1`` so that the
    scalar reduction is exact.
    """
    n = params.dimension
    if n == 1:
        return np.array([[params.births[0] - params.deaths[0]]])
    M = np.zeros((n, n))
    np.fill_diagonal(M, -params.deaths)
    for j in range(n - 1):
        M[j + 1, j] = params.births[j]
    M[0, n - 1] = params.births[n - 1]
    return M


@dataclass(frozen=True)
class PatchLayout:
    """Full arrangement: beneficial/control zone pair, widths, repetitions, boundary."""

    beneficial: Zone
    control: Zone
    R: float
    r: float
    K: int = 1
    bc: BoundaryCondition = BoundaryCondition.PERIODIC

    @property
    def dimension(self) -> int:
        return self.beneficial.dimension

    @property
    def is_scalar(self) -> bool:
        return isinstance(self.beneficial, ScalarZone)

    @property
    def total_length(self) -> float:
        if self.bc is BoundaryCondition.PERIODIC:
            return self.K * (self.R + self.r)
        return self.R + self.r


@dataclass(frozen=True)
class Verdict:
    """Trichotomy outcome with the signed slack of the deciding inequality.

    ``margin > 0`` means strictly inside the eradication region;
    ``status`` is Marginal when ``abs(margin) <= marginal_tol``.
    """

    status: VerdictStatus
    margin: float
    deciding_rule: str

    @staticmethod
    def from_margin(margin: float, deciding_rule: str, marginal_tol: float = MARGINAL_TOL) -> "Verdict":
        if not np.isfinite(margin):
            raise ValueError(f"{deciding_rule}: margin {margin!r} is not finite")
        if abs(margin) <= marginal_tol:
            status = VerdictStatus.MARGINAL
        elif margin > 0:
            status = VerdictStatus.ERADICATION
        else:
            status = VerdictStatus.SURVIVAL
        return Verdict(status=status, margin=float(margin), deciding_rule=deciding_rule)


@dataclass(frozen=True)
class SpectralReport:
    """Top-eigenvalue estimate with a method tag and a refinement error bound."""

    top_eigenvalue: float
    method: SpectralMethod
    error_estimate: float
    grid_or_step: str = ""

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")


def _validate_zone(zone: Zone, which: str) -> None:
    if isinstance(zone, ScalarZone):
        if not np.isfinite(zone.diffusion) or zone.diffusion <= 0:
            raise LayoutError("NonpositiveDiffusion", f"{which} zone diffusion must be > 0")
        if not np.isfinite(zone.growth):
            raise LayoutError("NonfiniteGrowth", f"{which} zone growth must be finite")
        return
    if isinstance(zone, StageZone):
        if zone.diffusion_diag.ndim != 1:
            raise LayoutError("DimensionMismatch", f"{which} zone diffusion must be 1-D, got {zone.diffusion_diag.shape}")
        n = zone.dimension
        if n < 1 or n > MAX_STAGES:
            raise LayoutError("StageCountOutOfRange", f"{which} zone needs 1..{MAX_STAGES} stages")
        if zone.reaction.shape != (n, n):
            raise LayoutError(
                "DimensionMismatch",
                f"{which} zone reaction matrix must be {n}x{n}, got {zone.reaction.shape}",
            )
        if not np.all(np.isfinite(zone.diffusion_diag)) or np.any(zone.diffusion_diag <= 0):
            raise LayoutError("NonpositiveDiffusion", f"{which} zone diffusion entries must be > 0")
        if not np.all(np.isfinite(zone.reaction)):
            raise LayoutError("NonfiniteGrowth", f"{which} zone reaction matrix must be finite")
        return
    raise LayoutError("UnknownZoneType", f"{which} zone has unsupported type {type(zone)!r}")


def _is_whole_number(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and int(value) == value
    except OverflowError:  # an integer beyond float range
        return False


def validate_layout(layout: PatchLayout) -> PatchLayout:
    """Check all layout invariants; return the layout unchanged if they hold.

    Raises ``LayoutError`` with a distinct ``code`` for each violated invariant.
    Idempotent: validating a validated layout is a no-op.
    """
    _validate_zone(layout.beneficial, "beneficial")
    _validate_zone(layout.control, "control")
    if type(layout.beneficial) is not type(layout.control):
        raise LayoutError("MixedZoneKinds", "beneficial and control zones must be both scalar or both staged")
    if layout.beneficial.dimension != layout.control.dimension:
        raise LayoutError(
            "DimensionMismatch",
            f"beneficial dimension {layout.beneficial.dimension} != control dimension {layout.control.dimension}",
        )
    if not np.isfinite(layout.R) or layout.R <= 0:
        raise LayoutError("NonpositiveWidth", "beneficial width R must be > 0")
    if not np.isfinite(layout.r) or layout.r < 0:
        raise LayoutError("NegativeWidth", "control width r must be >= 0")
    if not _is_whole_number(layout.K) or layout.K < 1:
        raise LayoutError("InvalidPatchCount", "K must be an integer >= 1")
    if layout.bc is not BoundaryCondition.PERIODIC and layout.K != 1:
        raise LayoutError("InvalidPatchCount", "Dirichlet/Neumann layouts require K = 1")
    return layout


# ---------------------------------------------------------------------------
# Scenario files (JSON)
# ---------------------------------------------------------------------------

_TOP_KEYS = {"model", "beneficial", "control", "R", "r", "K", "bc"}
_SCALAR_ZONE_KEYS = {"diffusion", "growth"}
_STAGED_ZONE_KEYS = {"A_diag", "M", "births", "deaths"}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise LayoutError("UnknownKey", f"unknown key(s) {sorted(unknown)} in {where}")


def _json_number(d: dict, key: str, where: str):
    """``d[key]`` if it is a JSON number; anything else is refused.

    Strings, null, lists, objects, booleans (Python counts ``True`` as the
    integer 1) and integers beyond float range raise
    ``LayoutError("InvalidScenario")`` instead of being coerced.
    """
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LayoutError("InvalidScenario", f"{where} {key!r} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise LayoutError("InvalidScenario", f"{where} {key!r} is beyond float range") from None
    return value


def _json_array(d: dict, key: str, where: str, ndim: int) -> np.ndarray:
    """``d[key]`` as a float array if it is a rectangular ``ndim``-level nest of
    lists whose entries pass :func:`_json_number`; else ``InvalidScenario``."""
    value = np.array(d[key], dtype=object)
    if value.ndim != ndim:
        raise LayoutError("InvalidScenario", f"{where} {key!r} must be a rectangular {ndim}-level list, got {d[key]!r}")
    entries = list(value.flat)
    for i in range(len(entries)):
        _json_number(entries, i, f"{where} {key!r} entry")
    return value.astype(float)


def _zone_from_dict(d: dict, model: str, which: str) -> Zone:
    if not isinstance(d, dict):
        raise LayoutError("InvalidScenario", f"{which} must be an object")
    if model == "scalar":
        _reject_unknown(d, _SCALAR_ZONE_KEYS, f"{which} zone")
        try:
            return ScalarZone(
                diffusion=float(_json_number(d, "diffusion", f"{which} zone")),
                growth=float(_json_number(d, "growth", f"{which} zone")),
            )
        except KeyError as exc:
            raise LayoutError("MissingKey", f"{which} zone missing {exc}") from None
    _reject_unknown(d, _STAGED_ZONE_KEYS, f"{which} zone")
    if "A_diag" not in d:
        raise LayoutError("MissingKey", f"{which} zone missing 'A_diag'")
    if "M" in d:
        if "births" in d or "deaths" in d:
            raise LayoutError("InvalidScenario", f"{which} zone: give either 'M' or births/deaths, not both")
        reaction = _json_array(d, "M", f"{which} zone", ndim=2)
    elif "births" in d and "deaths" in d:
        rates = {key: _json_array(d, key, f"{which} zone", ndim=1) for key in ("deaths", "births")}
        reaction = build_stage_matrix(BirthDeathParams(**rates))
    else:
        raise LayoutError("MissingKey", f"{which} zone needs 'M' or both 'births' and 'deaths'")
    return StageZone(diffusion_diag=_json_array(d, "A_diag", f"{which} zone", ndim=1), reaction=reaction)


def scenario_from_dict(data: dict) -> PatchLayout:
    """Build and validate a layout from a parsed scenario document."""
    if not isinstance(data, dict):
        raise LayoutError("InvalidScenario", "scenario must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "scenario")
    model = str(data.get("model", "scalar")).lower()
    if model not in ("scalar", "staged"):
        raise LayoutError("InvalidScenario", f"model must be 'scalar' or 'staged', got {model!r}")
    try:
        beneficial = _zone_from_dict(data["beneficial"], model, "beneficial")
        control = _zone_from_dict(data["control"], model, "control")
        R = float(_json_number(data, "R", "scenario"))
        r = float(_json_number(data, "r", "scenario"))
    except KeyError as exc:
        raise LayoutError("MissingKey", f"scenario missing {exc}") from None
    K = data.get("K", 1)
    if isinstance(K, bool):  # other non-numbers get validate_layout's InvalidPatchCount
        raise LayoutError("InvalidScenario", f"scenario 'K' must be a number, got {K!r}")
    layout = PatchLayout(
        beneficial=beneficial,
        control=control,
        R=R,
        r=r,
        K=K,
        bc=BoundaryCondition.parse(data.get("bc", "periodic")),
    )
    # K is validated as given, so 2.7 is refused rather than truncated; a whole 2.0 becomes 2.
    return replace(validate_layout(layout), K=int(layout.K))


def _zone_to_dict(zone: Zone) -> dict:
    if isinstance(zone, ScalarZone):
        return {"diffusion": zone.diffusion, "growth": zone.growth}
    return {"A_diag": zone.diffusion_diag.tolist(), "M": zone.reaction.tolist()}


def scenario_to_dict(layout: PatchLayout) -> dict:
    """Serialize a layout to the scenario document structure."""
    return {
        "model": "scalar" if layout.is_scalar else "staged",
        "beneficial": _zone_to_dict(layout.beneficial),
        "control": _zone_to_dict(layout.control),
        "R": layout.R,
        "r": layout.r,
        "K": int(layout.K),
        "bc": layout.bc.value,
    }

