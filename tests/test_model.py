import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcontrol import ScalarProblem, StagedProblem
from patchcontrol.model import (
    BirthDeathParams,
    BoundaryCondition,
    LayoutError,
    PatchLayout,
    ScalarZone,
    StageZone,
    Verdict,
    scenario_from_dict,
    scenario_to_dict,
    validate_layout,
)


def layouts_equal(x: PatchLayout, y: PatchLayout) -> bool:
    """Field-by-field equality, exact on every numeric entry."""
    if x.is_scalar != y.is_scalar or x.bc is not y.bc:
        return False
    if (x.R, x.r, x.K) != (y.R, y.r, y.K):
        return False
    if x.is_scalar:
        return (
            x.beneficial.diffusion == y.beneficial.diffusion
            and x.beneficial.growth == y.beneficial.growth
            and x.control.diffusion == y.control.diffusion
            and x.control.growth == y.control.growth
        )
    return (
        np.array_equal(x.beneficial.diffusion_diag, y.beneficial.diffusion_diag)
        and np.array_equal(x.beneficial.reaction, y.beneficial.reaction)
        and np.array_equal(x.control.diffusion_diag, y.control.diffusion_diag)
        and np.array_equal(x.control.reaction, y.control.reaction)
    )


def lone_star_layout(mu=1958.0):
    return PatchLayout(
        beneficial=ScalarZone(16.67, 0.65),
        control=ScalarZone(16.67, -mu),
        R=14.0,
        r=1.0,
        K=1,
        bc=BoundaryCondition.PERIODIC,
    )


class TestValidateLayout:
    def test_accepts_reference_scalar_layout(self):
        layout = lone_star_layout()
        assert validate_layout(layout) is layout

    def test_rejects_nonpositive_diffusion(self):
        layout = PatchLayout(ScalarZone(0.0, 0.65), ScalarZone(16.67, -1.0), R=14, r=1)
        with pytest.raises(LayoutError) as err:
            validate_layout(layout)
        assert err.value.code == "NonpositiveDiffusion"

    def test_rejects_dimension_mismatch(self):
        ben = StageZone(np.ones(2), np.eye(2))
        ctl = StageZone(np.ones(3), np.eye(3))
        with pytest.raises(LayoutError) as err:
            validate_layout(PatchLayout(ben, ctl, R=1, r=1))
        assert err.value.code == "DimensionMismatch"

    def test_rejects_a_diffusion_diagonal_that_is_not_1d(self):
        # A 2x2 ``A`` used to pass and reach the criteria, which raised a bare ValueError.
        ben = StageZone([[1.0, 5.0], [5.0, 2.0]], np.eye(2))
        with pytest.raises(LayoutError) as err:
            validate_layout(PatchLayout(ben, StageZone(np.ones(2), -np.eye(2)), R=1, r=1))
        assert err.value.code == "DimensionMismatch"

    def test_rejects_bad_patch_count(self):
        with pytest.raises(LayoutError) as err:
            validate_layout(
                PatchLayout(ScalarZone(1, 1), ScalarZone(1, -1), R=1, r=1, K=0)
            )
        assert err.value.code == "InvalidPatchCount"

    def test_rejects_patch_count_beyond_float_range(self):
        with pytest.raises(LayoutError) as err:
            validate_layout(PatchLayout(ScalarZone(1, 1), ScalarZone(1, -1), R=1, r=1, K=10**400))
        assert err.value.code == "InvalidPatchCount"

    def test_rejects_k_above_one_for_dirichlet(self):
        with pytest.raises(LayoutError) as err:
            validate_layout(
                PatchLayout(
                    ScalarZone(1, 1), ScalarZone(1, -1), R=1, r=1, K=2,
                    bc=BoundaryCondition.DIRICHLET,
                )
            )
        assert err.value.code == "InvalidPatchCount"

    def test_rejects_negative_width(self):
        with pytest.raises(LayoutError) as err:
            validate_layout(PatchLayout(ScalarZone(1, 1), ScalarZone(1, -1), R=1, r=-0.5))
        assert err.value.code == "NegativeWidth"

    def test_allows_zero_control_width(self):
        layout = PatchLayout(ScalarZone(1, 1), ScalarZone(1, -1), R=1, r=0.0)
        validate_layout(layout)

    def test_idempotent(self):
        layout = lone_star_layout()
        once = validate_layout(layout)
        twice = validate_layout(once)
        assert layouts_equal(once, twice)


class TestScenarioDocuments:
    def test_scalar_round_trip(self):
        layout = lone_star_layout(mu=10.0)
        doc = json.loads(json.dumps(scenario_to_dict(layout)))
        assert layouts_equal(scenario_from_dict(doc), layout)

    def test_staged_round_trip(self):
        layout = PatchLayout(
            beneficial=StageZone([1.1, 50.0], [[-1.0, 2.46], [0.52, -1.0]]),
            control=StageZone([1.1, 50.0], [[-2.0, 0.6], [0.1, -1.5]]),
            R=40.0,
            r=1.0,
            K=2,
            bc=BoundaryCondition.PERIODIC,
        )
        doc = json.loads(json.dumps(scenario_to_dict(layout)))
        assert layouts_equal(scenario_from_dict(doc), layout)

    def test_unknown_top_level_key_rejected(self):
        doc = scenario_to_dict(lone_star_layout())
        doc["extra"] = 1
        with pytest.raises(LayoutError) as err:
            scenario_from_dict(doc)
        assert err.value.code == "UnknownKey"

    def test_unknown_zone_key_rejected(self):
        doc = scenario_to_dict(lone_star_layout())
        doc["beneficial"]["speed"] = 3
        with pytest.raises(LayoutError) as err:
            scenario_from_dict(doc)
        assert err.value.code == "UnknownKey"

    def test_staged_zone_from_birth_death_vectors(self):
        doc = {
            "model": "staged",
            "beneficial": {"A_diag": [1.0, 2.0], "deaths": [1.0, 1.0], "births": [0.52, 2.46]},
            "control": {"A_diag": [1.0, 2.0], "M": [[-2.0, 0.5], [0.1, -2.0]]},
            "R": 10.0,
            "r": 1.0,
            "K": 1,
            "bc": "periodic",
        }
        layout = scenario_from_dict(doc)
        np.testing.assert_allclose(
            layout.beneficial.reaction, [[-1.0, 2.46], [0.52, -1.0]]
        )

    def test_zone_with_both_matrix_and_vectors_rejected(self):
        doc = {
            "model": "staged",
            "beneficial": {
                "A_diag": [1.0],
                "M": [[0.5]],
                "deaths": [1.0],
                "births": [2.0],
            },
            "control": {"A_diag": [1.0], "M": [[-1.0]]},
            "R": 1.0,
            "r": 0.5,
        }
        with pytest.raises(LayoutError):
            scenario_from_dict(doc)

    def test_fractional_patch_count_rejected_not_truncated(self):
        doc = scenario_to_dict(lone_star_layout())
        doc["K"] = 2.7
        with pytest.raises(LayoutError) as err:
            scenario_from_dict(doc)
        assert err.value.code == "InvalidPatchCount"

    @pytest.mark.parametrize(
        "K", ["2", None, [2], float("nan"), float("inf"), pytest.param(10**400, id="int-beyond-float")]
    )
    def test_non_numeric_patch_count_rejected(self, K):
        doc = scenario_to_dict(lone_star_layout())
        doc["K"] = K
        with pytest.raises(LayoutError) as err:
            scenario_from_dict(doc)
        assert err.value.code == "InvalidPatchCount"

    def test_whole_float_patch_count_becomes_int(self):
        doc = scenario_to_dict(lone_star_layout())
        doc["K"] = 3.0
        layout = scenario_from_dict(doc)
        assert layout.K == 3 and type(layout.K) is int

    @pytest.mark.parametrize(
        "path", [("R",), ("r",), ("K",), ("beneficial", "diffusion"), ("control", "growth")]
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_numbers_rejected(self, path, flag):
        doc = scenario_to_dict(lone_star_layout())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = flag
        with pytest.raises(LayoutError) as err:
            scenario_from_dict(doc)
        assert err.value.code == "InvalidScenario"

    @pytest.mark.parametrize(
        "path", [("R",), ("r",), ("beneficial", "diffusion"), ("control", "growth")]
    )
    @pytest.mark.parametrize(
        "value", ["14", "abc", None, [14.0], {"value": 14.0}, pytest.param(10**400, id="int-beyond-float")]
    )
    def test_non_numbers_rejected_not_coerced(self, path, value):
        doc = scenario_to_dict(lone_star_layout())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(LayoutError) as err:
            scenario_from_dict(doc)
        assert err.value.code == "InvalidScenario"

    @staticmethod
    def staged_doc():
        return {
            "model": "staged",
            "beneficial": {"A_diag": [1.0, 2.0], "deaths": [1.0, 1.0], "births": [0.52, 2.46]},
            "control": {"A_diag": [1, 2], "M": [[-2, 0.5], [0.1, -2.0]]},
            "R": 10.0,
            "r": 1.0,
        }

    def test_staged_integer_entries_accepted(self):
        layout = scenario_from_dict(self.staged_doc())
        assert layout.control.diffusion_diag.dtype == np.float64
        np.testing.assert_array_equal(layout.control.reaction, [[-2.0, 0.5], [0.1, -2.0]])

    @pytest.mark.parametrize(
        "zone, key, value",
        [
            ("beneficial", "A_diag", ["1", "2"]),
            ("beneficial", "A_diag", [1.0, None]),
            ("beneficial", "A_diag", [True, 2.0]),
            ("beneficial", "A_diag", "1 2"),
            ("beneficial", "A_diag", 1.0),
            ("beneficial", "A_diag", [[1.0, 2.0]]),
            ("beneficial", "deaths", ["1", 1.0]),
            ("beneficial", "births", [0.52, [2.46]]),
            ("control", "M", [["-2", 0.5], [0.1, -2.0]]),
            ("control", "M", [[-2.0, 0.5], [0.1, None]]),
            ("control", "M", [[-2.0, False], [0.1, -2.0]]),
            ("control", "M", [[-2.0, 0.5], [0.1]]),
            ("control", "M", [-2.0, 0.5, 0.1, -2.0]),
            ("control", "M", [[[-2.0], [0.5]], [[0.1], [-2.0]]]),
            ("control", "M", [[-2.0, 0.5], 0.1]),
            ("control", "M", {"0": [-2.0, 0.5], "1": [0.1, -2.0]}),
            ("beneficial", "A_diag", [1.0, 10**400]),
            ("beneficial", "births", [0.52, -(10**400)]),
            ("control", "M", [[-2.0, 0.5], [10**400, -2.0]]),
        ],
    )
    def test_staged_non_numbers_and_shapes_rejected_not_coerced(self, zone, key, value):
        doc = self.staged_doc()
        doc[zone][key] = value
        with pytest.raises(LayoutError) as err:
            scenario_from_dict(doc)
        assert err.value.code == "InvalidScenario"

    def test_unknown_boundary_condition(self):
        doc = scenario_to_dict(lone_star_layout())
        doc["bc"] = "robin"
        with pytest.raises(LayoutError) as err:
            scenario_from_dict(doc)
        assert err.value.code == "UnknownBoundaryCondition"


def _refusal_code(build) -> str:
    with pytest.raises(LayoutError) as err:
        build()
    return err.value.code


_SCALAR_FIELDS = {"a": 16.67, "lam": 0.65, "b": 16.67, "mu": 10.0, "R": 14.0, "r": 1.0}
_STAGED_FIELDS = {
    "A_ben": np.ones(2), "M_ben": np.array([[-0.91, 2.24], [0.01, -0.02]]),
    "A_nb": np.ones(2), "M_nb": np.array([[-1.7, 0.56], [0.0025, -0.8]]), "R": 40.0, "r": 1.0,
}


def _scalar_layout(a, lam, b, mu, R, r, K=1, bc=BoundaryCondition.PERIODIC):
    return PatchLayout(ScalarZone(a, lam), ScalarZone(b, -mu), R=R, r=r, K=K, bc=bc)


def _staged_layout(A_ben, M_ben, A_nb, M_nb, R, r, K=1, bc=BoundaryCondition.PERIODIC):
    return PatchLayout(StageZone(A_ben, M_ben), StageZone(A_nb, M_nb), R=R, r=r, K=K, bc=bc)


_BAD_COUNTS = [
    {"K": 2.5},
    {"K": math.nan},
    {"K": math.inf},
    {"K": 2, "bc": BoundaryCondition.DIRICHLET},
    {"K": 2, "bc": BoundaryCondition.NEUMANN},
]


class TestProblemTypesRefuseWhatValidateLayoutRefuses:
    """``ScalarProblem`` and ``StagedProblem`` refuse each invalid layout with
    the code ``validate_layout`` gives for it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", sorted(_SCALAR_FIELDS))
    def test_scalar_nonfinite_field(self, field, bad):
        fields = {**_SCALAR_FIELDS, field: bad}
        want = _refusal_code(lambda: validate_layout(_scalar_layout(**fields)))
        assert _refusal_code(lambda: ScalarProblem(**fields)) == want

    @pytest.mark.parametrize("change", _BAD_COUNTS)
    def test_scalar_patch_count(self, change):
        fields = {**_SCALAR_FIELDS, **change}
        assert _refusal_code(lambda: ScalarProblem(**fields)) == "InvalidPatchCount"
        assert _refusal_code(lambda: validate_layout(_scalar_layout(**fields))) == "InvalidPatchCount"

    def test_scalar_negative_mortality_keeps_its_code(self):
        assert _refusal_code(lambda: ScalarProblem(**{**_SCALAR_FIELDS, "mu": -1.0})) == "PositiveControlGrowth"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", sorted(_STAGED_FIELDS))
    def test_staged_nonfinite_entry(self, field, bad):
        value = np.array(_STAGED_FIELDS[field], dtype=float)
        value.flat[0] = bad
        fields = {**_STAGED_FIELDS, field: value if value.ndim else float(value)}
        want = _refusal_code(lambda: validate_layout(_staged_layout(**fields)))
        assert _refusal_code(lambda: StagedProblem(**fields)) == want

    @pytest.mark.parametrize("change", _BAD_COUNTS)
    def test_staged_patch_count(self, change):
        fields = {**_STAGED_FIELDS, **change}
        assert _refusal_code(lambda: StagedProblem(**fields)) == "InvalidPatchCount"
        assert _refusal_code(lambda: validate_layout(_staged_layout(**fields))) == "InvalidPatchCount"

    def test_staged_nine_stages(self):
        fields = {**_STAGED_FIELDS, "A_ben": np.ones(9), "M_ben": -np.eye(9), "A_nb": np.ones(9), "M_nb": -np.eye(9)}
        assert _refusal_code(lambda: StagedProblem(**fields)) == "StageCountOutOfRange"
        assert _refusal_code(lambda: validate_layout(_staged_layout(**fields))) == "StageCountOutOfRange"


class TestVerdictFromMargin:
    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="not finite"):
            Verdict.from_margin(margin, "rule")


class TestBirthDeathParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(LayoutError):
            BirthDeathParams(deaths=[1.0, 0.0], births=[1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LayoutError):
            BirthDeathParams(deaths=[1.0], births=[1.0, 2.0])

    def test_rejects_too_many_stages(self):
        with pytest.raises(LayoutError):
            BirthDeathParams(deaths=np.ones(9), births=np.ones(9))


positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
growths = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(a=positive, b=positive, lam=growths, g=growths, R=positive, r=positive,
       K=st.integers(min_value=1, max_value=5))
def test_round_trip_property(a, b, lam, g, R, r, K):
    layout = PatchLayout(
        beneficial=ScalarZone(a, lam),
        control=ScalarZone(b, g),
        R=R,
        r=r,
        K=K,
        bc=BoundaryCondition.PERIODIC,
    )
    validate_layout(layout)
    doc = json.loads(json.dumps(scenario_to_dict(layout)))
    assert layouts_equal(scenario_from_dict(doc), layout)
