import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from patchcontrol import (
    AssumptionViolatedError,
    BoundaryCondition,
    GridSpec,
    PatchLayout,
    ScalarProblem,
    StagedProblem,
    StageZone,
    VerdictStatus,
    build_stage_matrix,
    critical_patch_staged,
    get_preset,
    max_real_eigenvalue,
    min_control_decay_rate,
    proportional_control_check,
    scalar_verdict,
    symmetrized_critical_patch,
    symmetrized_sufficient_verdict,
    two_stage_verdict,
    uniform_control_verdict,
)
from patchcontrol.linalg import (
    ComplexOrRepeatedEigenvaluesError,
    NoRealEigenvalueError,
    SingularBasisError,
    eigen_2x2,
)
from patchcontrol.model import BirthDeathParams, LayoutError
from patchcontrol.oracle import top_eigenvalue_fd, verdict_fd
from patchcontrol.staged import (
    SufficiencyResult,
    _basis_change,
    _lead_zero,
    _zone_matrix,
    two_stage_inequality_sides,
)

from sweeps import (
    bracketed_root,
    legacy_as_ring,
    legacy_min_control_decay_rate,
    legacy_symmetrized_sufficient_verdict,
    legacy_two_stage_inequality_sides,
    legacy_two_stage_verdict,
    loguniform,
)

mpmath.mp.dps = 40

FAST = GridSpec(cells_per_unit_length=64, refinement_levels=2)

TAIGA_N = np.array([[-0.91, 2.24], [0.01, -0.02]])


class TestBuildStageMatrix:
    def test_two_stage_pattern(self):
        M = build_stage_matrix(BirthDeathParams(deaths=[1.0, 1.0], births=[0.52, 2.46]))
        np.testing.assert_allclose(M, [[-1.0, 2.46], [0.52, -1.0]])

    def test_three_stage_pattern(self):
        M = build_stage_matrix(BirthDeathParams(deaths=[1, 2, 3], births=[4, 5, 6]))
        np.testing.assert_allclose(
            M, [[-1, 0, 6], [4, -2, 0], [0, 5, -3]]
        )

    def test_one_stage_collapses_to_net_rate(self):
        M = build_stage_matrix(BirthDeathParams(deaths=[2.0], births=[5.0]))
        np.testing.assert_allclose(M, [[3.0]])

    def test_lives_in_model_and_resolves_from_staged(self):
        from patchcontrol import model, staged

        assert build_stage_matrix is model.build_stage_matrix is staged.build_stage_matrix


class TestUniformControl:
    def test_reduces_exactly_to_scalar_verdict(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 4))
            params = BirthDeathParams(
                deaths=[loguniform(rng, 0.1, 2.0) for _ in range(n)],
                births=[loguniform(rng, 0.2, 3.0) for _ in range(n)],
            )
            M = build_stage_matrix(params)
            try:
                lam1 = max_real_eigenvalue(M)
            except ValueError:
                continue
            vals = np.linalg.eigvals(M)
            others = np.delete(vals, int(np.argmin(np.abs(vals - lam1))))
            if lam1 <= 0 or (others.size and others.real.max() >= 0):
                continue
            a = loguniform(rng, 0.5, 20)
            b = loguniform(rng, 0.5, 20)
            mu = lam1 + loguniform(rng, 0.1, 20)
            R = loguniform(rng, 0.5, 10)
            r = loguniform(rng, 0.1, 2)
            bc = (BoundaryCondition.DIRICHLET, BoundaryCondition.PERIODIC)[int(rng.integers(2))]
            staged = uniform_control_verdict(M, a, b, mu, R, r, bc)
            scalar = scalar_verdict(
                ScalarProblem(a=a, lam=lam1, b=b, mu=mu - lam1, R=R, r=r, bc=bc)
            )
            assert staged.status is scalar.status
            assert staged.margin == pytest.approx(scalar.margin, abs=1e-9)
            done += 1

    def test_mu_below_lead_eigenvalue_rejected(self):
        M = np.array([[-1.0, 2.46], [0.52, -1.0]])
        lam1 = max_real_eigenvalue(M)
        with pytest.raises(AssumptionViolatedError, match="mu must exceed"):
            uniform_control_verdict(M, 1.0, 1.0, lam1 / 2, 5.0, 1.0)

    def test_supercritical_patch_survives_any_control(self):
        M = np.array([[-1.0, 2.46], [0.52, -1.0]])
        lam1 = max_real_eigenvalue(M)
        R = 1.1 * math.pi / math.sqrt(lam1)  # clause-(i) territory at a = 1
        v = uniform_control_verdict(M, 1.0, 1.0, 1e6, R, 1.0, BoundaryCondition.DIRICHLET)
        assert v.status.value == "Survival"

    def test_nonnegative_subdominant_real_part_rejected(self):
        M = np.array([[1.0, 0.0, 0.0], [0.0, 0.2, -1.0], [0.0, 1.0, 0.2]])
        with pytest.raises(AssumptionViolatedError, match="non-lead eigenvalue"):
            uniform_control_verdict(M, 1.0, 1.0, 5.0, 1.0, 1.0)

    def test_neumann_agrees_with_fd(self):
        # Reflecting ends reduce to the scalar criterion like the others; FD decides
        # every draw outside its marginal band the same way.
        M = np.array([[-1.0, 2.46], [0.52, -1.0]])
        lam1 = max_real_eigenvalue(M)
        rng = np.random.default_rng(23)
        statuses = []
        for _ in range(10):
            a, b = loguniform(rng, 0.5, 4.0), loguniform(rng, 0.5, 4.0)
            mu = lam1 + loguniform(rng, 0.5, 10.0)
            R = rng.uniform(0.2, 1.2) * math.pi / 2 * math.sqrt(a / lam1)  # around the quarter wave
            r = loguniform(rng, 0.2, 2.0)
            closed = uniform_control_verdict(M, a, b, mu, R, r, BoundaryCondition.NEUMANN)
            layout = PatchLayout(
                StageZone([a, a], M), StageZone([b, b], M - mu * np.eye(2)),
                R=R, r=r, bc=BoundaryCondition.NEUMANN,
            )
            fd = verdict_fd(layout, FAST)
            if fd.status is VerdictStatus.MARGINAL:
                continue
            assert closed.status is fd.status, (a, b, mu, R, r)
            statuses.append(fd.status)
        assert len(statuses) >= 8
        assert set(statuses) == {VerdictStatus.ERADICATION, VerdictStatus.SURVIVAL}


class TestCriticalPatchStaged:
    def test_two_stage_taiga_normalized(self):
        rc = critical_patch_staged(np.ones(2), TAIGA_N)
        assert rc == pytest.approx(46.9, abs=0.2)
        lead = max(np.roots(np.poly(TAIGA_N)).real)
        assert rc == pytest.approx(math.pi / math.sqrt(lead), rel=1e-12)

    def test_two_stage_raw_field_matrices(self):
        # Unrounded per-stage rates: the normalized lead eigenvalue shifts,
        # and with it the critical size.
        A = np.array([1.1, 50.0])
        M = np.array([[-1.0, 2.46], [0.52, -1.0]])
        lead = max(np.roots(np.poly(M / A[:, None])).real)
        assert critical_patch_staged(A, M) == pytest.approx(math.pi / math.sqrt(lead), rel=1e-12)
        assert critical_patch_staged(A, M) == pytest.approx(42.625, abs=0.01)

    def test_one_stage_reduction(self):
        from patchcontrol import critical_patch_dirichlet

        assert critical_patch_staged(np.array([3.0]), np.array([[0.7]])) == pytest.approx(
            critical_patch_dirichlet(3.0, 0.7), rel=1e-14
        )

    def test_decoupled_diagonal(self):
        rc = critical_patch_staged(np.ones(2), np.diag([math.pi**2, -1.0]))
        assert rc == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("A", [[[1.0, 5.0], [5.0, 2.0]], [1.0], [1.0, 2.0, 3.0]])
    def test_refuses_a_diffusion_diagonal_of_the_wrong_shape(self, A):
        with pytest.raises(LayoutError) as err:
            critical_patch_staged(np.array(A), TAIGA_N)
        assert err.value.code == "DimensionMismatch"

    @pytest.mark.parametrize(
        "A, M, code",
        [
            ([1.0, math.nan], TAIGA_N, "NonpositiveDiffusion"),
            ([math.inf, 1.0], TAIGA_N, "NonpositiveDiffusion"),
            (np.ones(2), [[-0.91, math.nan], [0.01, -0.02]], "NonfiniteGrowth"),
            (np.ones(2), [[-0.91, 2.24], [math.inf, -0.02]], "NonfiniteGrowth"),
        ],
    )
    def test_refuses_nonfinite_entries(self, A, M, code):
        with pytest.raises(LayoutError) as err:
            critical_patch_staged(np.array(A), np.array(M))
        assert err.value.code == code

    def test_nonpositive_lead_raises(self):
        from patchcontrol.staged import NonpositiveLeadEigenvalueError

        with pytest.raises(NonpositiveLeadEigenvalueError):
            critical_patch_staged(np.ones(2), np.diag([-1.0, -2.0]))

    def test_oracle_brackets_critical_size(self):
        # Absorbing ends, no control zone: the top eigenvalue changes sign
        # across the staged critical size.
        from patchcontrol.model import PatchLayout, StageZone

        rc = critical_patch_staged(np.ones(2), TAIGA_N)
        for factor, sign in ((0.99, -1), (1.01, +1)):
            layout = PatchLayout(
                beneficial=StageZone([1.0, 1.0], TAIGA_N),
                control=StageZone([1.0, 1.0], -np.eye(2)),
                R=factor * rc,
                r=0.0,
                bc=BoundaryCondition.DIRICHLET,
            )
            fd = top_eigenvalue_fd(layout, FAST)
            assert np.sign(fd.top_eigenvalue) == sign
            assert abs(fd.top_eigenvalue) > 10 * fd.error_estimate


def taiga_problem(R=40.0, r=1.0, control=None):
    layout = get_preset("taiga-two-stage")
    prob = StagedProblem.from_layout(layout)
    if control is not None:
        prob = StagedProblem(
            A_ben=prob.A_ben, M_ben=prob.M_ben, A_nb=prob.A_nb, M_nb=control,
            R=R, r=r, bc=prob.bc, K=prob.K,
        )
    elif (R, r) != (prob.R, prob.r):
        prob = StagedProblem(
            A_ben=prob.A_ben, M_ben=prob.M_ben, A_nb=prob.A_nb, M_nb=prob.M_nb,
            R=R, r=r, bc=prob.bc, K=prob.K,
        )
    return prob


class TestSymmetrizedVerdict:
    def test_taiga_symmetrized_critical_size(self):
        prob = taiga_problem()
        rc_sym = symmetrized_critical_patch(prob)
        assert rc_sym == pytest.approx(3.64, abs=0.02)
        res = symmetrized_sufficient_verdict(prob)
        assert not res.eradicated
        assert "wider than symmetrized critical size" in res.reason

    def test_non_dissipative_control_inconclusive(self):
        prob = taiga_problem(control=np.array([[0.3, 0.1], [0.1, -1.0]]))
        res = symmetrized_sufficient_verdict(prob)
        assert not res.eradicated
        assert res.reason == "control zone not dissipative"

    def test_one_stage_soundness_against_oracle(self):
        rng = np.random.default_rng(31)
        eradicated = 0
        for _ in range(120):
            lam = loguniform(rng, 0.1, 2.0)
            a = loguniform(rng, 0.5, 5.0)
            mu = loguniform(rng, 0.5, 40.0)
            bnb = loguniform(rng, 0.5, 5.0)
            rc_sym = math.pi / math.sqrt(lam / a)
            R = rng.uniform(0.3, 0.98) * rc_sym
            r = loguniform(rng, 0.2, 3.0)
            prob = StagedProblem(
                A_ben=[a], M_ben=[[lam]], A_nb=[bnb], M_nb=[[-mu]], R=R, r=r,
            )
            res = symmetrized_sufficient_verdict(prob)
            if not res.eradicated:
                continue
            eradicated += 1
            fd = top_eigenvalue_fd(prob.to_layout(), FAST)
            assert fd.top_eigenvalue < 10 * fd.error_estimate
        assert eradicated >= 10


class TestClosedEnds:
    """Reflecting and absorbing ends are read on their own widths ``R, r``, rings on
    ``R/2, r/2``; a reflecting pair is exactly the half of its mirrored ring ``(2R, 2r)``."""

    GRID = GridSpec(cells_per_unit_length=16, refinement_levels=2)

    def assert_sound(self, prob):
        fd = top_eigenvalue_fd(prob.to_layout(), self.GRID)
        assert fd.top_eigenvalue < 10 * fd.error_estimate, prob

    def test_neumann_pair_is_the_mirrored_ring(self):
        ring = taiga_problem()
        prob = replace(ring, R=ring.R / 2, r=ring.r / 2, bc=BoundaryCondition.NEUMANN)
        assert two_stage_verdict(prob) == two_stage_verdict(ring)
        assert two_stage_inequality_sides(prob) == two_stage_inequality_sides(ring)
        assert symmetrized_sufficient_verdict(prob) == replace(
            symmetrized_sufficient_verdict(ring), reason="patch wider than symmetrized critical size 1.8201"
        )

    def test_two_stage_refuses_absorbing_ends(self):
        prob = replace(taiga_problem(), bc=BoundaryCondition.DIRICHLET)
        with pytest.raises(AssumptionViolatedError, match="reflecting ends or a ring"):
            two_stage_verdict(prob)
        with pytest.raises(AssumptionViolatedError, match="reflecting ends or a ring"):
            two_stage_inequality_sides(prob)

    def test_two_stage_neumann_certificates_are_sound(self):
        # Rescaled taiga matrices with a uniform control shift; patches up to
        # 0.95 of the ring's critical size, so past the quarter wave of Neumann ends.
        rng = np.random.default_rng(5)
        certified = 0
        for _ in range(60):
            M = TAIGA_N * rng.uniform(0.5, 2.0)
            shift = rng.uniform(0.3, 3.0)
            R = rng.uniform(0.2, 0.95) * math.pi / math.sqrt(max_real_eigenvalue(M))
            prob = StagedProblem(
                A_ben=[1.0, 1.0], M_ben=M, A_nb=[1.0, 1.0], M_nb=M - shift * np.eye(2),
                R=R, r=rng.uniform(0.2, 3.0), bc=BoundaryCondition.NEUMANN,
            )
            if two_stage_verdict(prob).eradicated:
                certified += 1
                self.assert_sound(prob)
        assert certified >= 10

    @pytest.mark.parametrize("bc", [BoundaryCondition.NEUMANN, BoundaryCondition.DIRICHLET])
    def test_symmetrized_certificates_are_sound(self, bc):
        rng = np.random.default_rng(7)
        certified = 0
        for _ in range(60):
            b1 = loguniform(rng, 0.5, 3.0)
            M = np.array([[-loguniform(rng, 0.2, 2.0), b1], [b1 * rng.uniform(0.7, 1.3), -loguniform(rng, 0.2, 2.0)]])
            A = np.array([1.0, loguniform(rng, 0.5, 2.0)])
            shift = loguniform(rng, 1.0, 30.0)
            lam1 = np.linalg.eigvalsh((M / A + (M / A).T) / 2)[-1]
            if lam1 <= 0:
                continue
            R = rng.uniform(0.05, 0.5) * math.pi / math.sqrt(lam1)
            prob = StagedProblem(
                A_ben=A, M_ben=M, A_nb=A, M_nb=M - shift * np.eye(2), R=R, r=loguniform(rng, 0.2, 3.0), bc=bc,
            )
            if symmetrized_sufficient_verdict(prob).eradicated:
                certified += 1
                self.assert_sound(prob)
        assert certified >= 10

    def test_wide_strong_control_zone_does_not_overflow(self):
        # r sqrt|mu1| = 800: sinh and cosh overflow, their ratio tanh(400) is 1.
        prob = StagedProblem(
            A_ben=[1, 1, 1], M_ben=[[-0.5, 0, 1], [0.6, -0.5, 0], [0, 0.6, -0.5]],
            A_nb=[1, 1, 1], M_nb=-400 * np.eye(3), R=1.0, r=40.0,
        )
        res = symmetrized_sufficient_verdict(prob)
        assert res.eradicated
        assert res.margin == symmetrized_sufficient_verdict(replace(prob, r=30.0)).margin
        assert res.margin == pytest.approx(20.0 - 0.773, abs=1e-3)


class TestTwoStageVerdict:
    def test_taiga_inequality_sides(self):
        prob = taiga_problem()
        lhs, rhs = two_stage_inequality_sides(prob)
        lead = mpmath.mpf(max(np.roots(np.poly(TAIGA_N)).real))
        rhs_expected = mpmath.sqrt(lead) * mpmath.tan(mpmath.sqrt(lead) * 20)
        assert rhs == pytest.approx(float(rhs_expected), rel=1e-10)
        assert rhs == pytest.approx(0.29, abs=0.01)

    def test_control_rate_threshold(self):
        lead = max_real_eigenvalue(TAIGA_N)
        threshold = min_control_decay_rate(lead, R=40.0, r=1.0, a=1.0)
        assert 0.60 <= threshold <= 0.66

    def test_preset_control_eradicates_and_oracle_agrees(self):
        prob = taiga_problem()
        res = two_stage_verdict(prob)
        assert res.eradicated
        fd = top_eigenvalue_fd(prob.to_layout(), FAST)
        assert fd.top_eigenvalue < 10 * fd.error_estimate

    def test_uncontrolled_zone_inconclusive(self):
        prob = taiga_problem(control=TAIGA_N.copy())
        res = two_stage_verdict(prob)
        assert not res.eradicated
        assert "not dissipative" in res.reason

    def test_weak_control_fails_inequality(self):
        weak = np.array([[-1.0, 0.9 * 2.24], [0.9 * 0.01, -0.1]])
        prob = taiga_problem(control=weak)
        res = two_stage_verdict(prob)
        assert not res.eradicated

    def test_complex_control_eigenvalues_violate_an_assumption(self):
        prob = taiga_problem(control=np.array([[-1.0, 1.0], [-1.0, -1.0]]), R=4.0)
        for criterion in (two_stage_verdict, two_stage_inequality_sides):
            with pytest.raises(AssumptionViolatedError, match="control matrix at E=0"):
                criterion(prob)

    @pytest.mark.parametrize(
        "args, error",
        [
            ((math.nan, 40.0, 1.0, 1.0), "NonpositiveLeadEigenvalueError"),
            ((math.inf, 40.0, 1.0, 1.0), "NonpositiveLeadEigenvalueError"),
            ((0.005, math.nan, 1.0, 1.0), "AssumptionViolatedError"),
            ((0.005, math.inf, 1.0, 1.0), "AssumptionViolatedError"),
            ((0.005, 40.0, math.nan, 1.0), "AssumptionViolatedError"),
            ((0.005, 40.0, math.inf, 1.0), "AssumptionViolatedError"),
            ((0.005, 40.0, 1.0, math.nan), "NonpositiveDiffusion"),
            ((0.005, 40.0, 1.0, math.inf), "NonpositiveDiffusion"),
            ((0.005, 40.0, 1.0, 0.0), "NonpositiveDiffusion"),
            ((0.005, 40.0, 1.0, -1.0), "NonpositiveDiffusion"),
        ],
    )
    def test_control_rate_refuses_bad_input(self, args, error):
        # Before: scipy's bare "function value at x=0.0 is NaN", or a doubling up to 1e15 for a <= 0.
        with pytest.raises(ValueError) as err:
            min_control_decay_rate(*args)
        assert error in (type(err.value).__name__, getattr(err.value, "code", None))

    def test_oversized_patch_inconclusive(self):
        prob = taiga_problem(R=50.0)
        res = two_stage_verdict(prob)
        assert not res.eradicated
        assert "critical size" in res.reason


class TestProportionalControl:
    def test_taiga_field_values_hold(self):
        check = proportional_control_check(
            a1=1.1, a2=50.0, m1=1.0, m2=1.0, b1=0.52, b2=2.46,
            omega=0.5, mtilde1=1.0, mtilde2=1.0,
        )
        assert check.holds
        assert check.status == "ConditionsHold"

    def test_subcritical_cycle_fails(self):
        check = proportional_control_check(
            a1=1.0, a2=1.0, m1=2.0, m2=2.0, b1=1.0, b2=1.0,
            omega=0.5, mtilde1=2.0, mtilde2=2.0,
        )
        assert not check.holds
        assert check.reason == "lead eigenvalue nonpositive"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a1", "a2", "m1", "m2", "b1", "b2", "omega", "mtilde1", "mtilde2"])
    def test_refuses_nonfinite_parameters(self, name, bad):
        # NaN and inf used to slip past every comparison and certify the sign conditions.
        field = dict(a1=1.1, a2=50.0, m1=1.0, m2=1.0, b1=0.52, b2=2.46, omega=0.5, mtilde1=1.0, mtilde2=1.0)
        check = proportional_control_check(**{**field, name: bad})
        assert not check.holds
        if name == "omega":
            assert check.reason == "omega out of range (0, 1)"
        elif name.startswith("mtilde"):
            assert check.reason == f"{name} must be finite"
        else:
            assert check.reason == f"{name} must be finite and positive"

    def test_diffusion_ordering_fails(self):
        check = proportional_control_check(
            a1=10.0, a2=1.0, m1=1.0, m2=1.0, b1=1.0, b2=2.0,
            omega=0.5, mtilde1=1.0, mtilde2=1.0,
        )
        assert not check.holds
        assert check.reason == "diffusion ordering"

    def test_certification_implies_sampled_sign_conditions(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 60:
            a1 = loguniform(rng, 0.3, 3.0)
            a2 = a1 * loguniform(rng, 1.0, 40.0)
            m2 = loguniform(rng, 0.05, 1.0)
            m1 = max(m2 * loguniform(rng, 1.0, 4.0), m2 * a1 / a2 + 1e-6)
            b1 = loguniform(rng, 0.2, 3.0)
            b2 = loguniform(rng, 0.2, 3.0)
            if m1 * m2 >= b1 * b2:
                continue
            omega = rng.uniform(0.05, 0.95)
            extra2 = loguniform(rng, 0.01, 3.0)
            extra1 = extra2 + loguniform(rng, 0.0001, 2.0)
            mtilde1, mtilde2 = m1 + extra1, m2 + extra2
            check = proportional_control_check(
                a1, a2, m1, m2, b1, b2, omega, mtilde1, mtilde2
            )
            if not check.holds:
                continue
            M_ben = np.array([[-m1, b1], [b2, -m2]])
            M_nb = np.array([[-mtilde1, omega * b1], [omega * b2, -mtilde2]])
            lead = max_real_eigenvalue(M_ben / np.array([a1, a2])[:, None])
            if lead <= 0:
                continue
            R = rng.uniform(0.3, 0.9) * math.pi / math.sqrt(lead)
            prob = StagedProblem(
                A_ben=[a1, a2], M_ben=M_ben,
                A_nb=[a1, a2], M_nb=M_nb,
                R=R, r=loguniform(rng, 0.2, 3.0),
            )
            res = two_stage_verdict(prob, certified=False)
            assert "sign conditions fail" not in res.reason
            done += 1


def _singular(ben, det):
    """``two_stage_verdict``'s nearly-singular-basis test."""
    return np.abs(det) <= 1e-12 * (1.0 + np.abs(ben.vectors).max(axis=(-2, -1)) ** 2)


class TestBasisChange:
    def test_identity_for_identical_bases(self):
        c, det = _basis_change(eigen_2x2(TAIGA_N), eigen_2x2(TAIGA_N))
        assert det != 0
        np.testing.assert_allclose(c, np.eye(2), atol=1e-13)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 50:
            ben = eigen_2x2(rng.normal(size=(2, 2)))
            ctl = eigen_2x2(rng.normal(size=(2, 2)))
            c, det = _basis_change(ben, ctl)
            if ben.degenerate or ctl.degenerate or _singular(ben, det):
                continue
            V, W = ben.vectors, ctl.vectors
            assert np.abs(W - V @ c).max() <= 1e-10 * (1 + np.abs(W).max())
            done += 1

    def test_certified_sign_pattern(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            omega = rng.uniform(0.02, 0.98)
            m1 = loguniform(rng, 0.2, 2.0)
            m2 = m1 * rng.uniform(0.2, 1.0)
            b1 = loguniform(rng, 0.3, 3.0)
            b2 = loguniform(rng, 0.3, 3.0)
            extra = loguniform(rng, 0.01, 2.0)
            M_ben = np.array([[-m1, b1], [b2, -m2]])
            M_nb = np.array([[-(m1 + extra), omega * b1], [omega * b2, -(m2 + extra)]])
            ben, ctl = eigen_2x2(M_ben), eigen_2x2(M_nb)
            c, det = _basis_change(ben, ctl)
            assert not (ben.degenerate or ctl.degenerate or _singular(ben, det))
            assert c[0, 0] >= 1.0 - 1e-12
            assert c[1, 1] >= 1.0 - 1e-12
            assert c[0, 1] * c[1, 0] <= 1e-12


# ---------------------------------------------------------------------------
# Transition: closed-form E0 and the vectorised sampler against the loop
# ---------------------------------------------------------------------------


def _loop_eig2(N):
    tr = N[0, 0] + N[1, 1]
    det = N[0, 0] * N[1, 1] - N[0, 1] * N[1, 0]
    disc = tr * tr - 4.0 * det
    if disc <= 0:
        raise ComplexOrRepeatedEigenvaluesError(
            f"discriminant {disc:.3g} <= 0: eigenvalues complex or repeated"
        )
    sq = math.sqrt(disc)
    return 0.5 * (tr + sq), 0.5 * (tr - sq)


def _loop_basis(N):
    lam1, lam2 = _loop_eig2(N)

    def vector(lam, pin):
        cand1 = np.array([N[0, 1], lam - N[0, 0]])
        cand2 = np.array([lam - N[1, 1], N[1, 0]])
        v = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
        if abs(v[pin]) <= 1e-14 * (1.0 + np.abs(N).max()):
            raise ComplexOrRepeatedEigenvaluesError(
                f"eigenvector component {pin} vanishes; normalization infeasible"
            )
        return v / v[pin]

    return np.column_stack([vector(lam1, 0), vector(lam2, 1)])


def _loop_transfer(N_ben, N_nb):
    V, W = _loop_basis(N_ben), _loop_basis(N_nb)
    det = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    if abs(det) <= 1e-12 * (1.0 + float(np.abs(V).max()) ** 2):
        raise SingularBasisError(f"beneficial eigenbasis nearly singular (det={det:.3g})")
    return np.linalg.solve(V, W)


def _loop_matrix(M, A_ben, E, a=1.0):
    Ainv = 1.0 / A_ben
    return (M * Ainv[:, None] - E * np.diag(Ainv)) / a


def _scanned_lead_zero(prob, lam1):
    """Reference ``E0``: doubling bracket, then a 256-point scan and brentq on the lead eigenvalue."""

    def lead(E):
        return max_real_eigenvalue(_loop_matrix(prob.M_ben, prob.A_ben, E))

    upper = max(lam1 * float(prob.A_ben.max()), 1e-6)
    while lead(upper) > 0:
        upper *= 2
        if upper > 1e15:
            raise AssumptionViolatedError("lead eigenvalue does not cross zero")
    return bracketed_root(lead, 0.0, upper, tol=1e-12, scan_points=256)


def _loop_two_stage_verdict(prob, certified=False, samples=257, lead_zero=_scanned_lead_zero):
    """Reference: the per-sample loop ``two_stage_verdict`` replaced, with a scanned ``E0``."""
    if prob.dimension != 2:
        raise AssumptionViolatedError("two-stage criterion needs exactly 2 stages")
    a = prob.a_ratio
    if a is None:
        raise AssumptionViolatedError("control diffusion must be a scalar multiple of the beneficial one")
    try:
        lam1, lam2 = _loop_eig2(_loop_matrix(prob.M_ben, prob.A_ben, 0.0))
    except ComplexOrRepeatedEigenvaluesError as exc:
        raise AssumptionViolatedError(f"beneficial eigenvalues at E=0: {exc}") from exc
    if not (lam1 > 0 > lam2):
        raise AssumptionViolatedError(
            f"need Lambda1(0) > 0 > Lambda2(0), got {lam1:.6g}, {lam2:.6g}"
        )
    try:
        mu1_0 = max_real_eigenvalue(_loop_matrix(prob.M_nb, prob.A_ben, 0.0, a))
    except NoRealEigenvalueError as exc:
        raise AssumptionViolatedError(f"control matrix at E=0: {exc}") from exc
    if mu1_0 >= 0:
        return SufficiencyResult(False, "control zone not dissipative (mu1(0) >= 0)")
    root_lam = math.sqrt(lam1)
    if root_lam * prob.R / 2.0 >= math.pi / 2.0:
        return SufficiencyResult(
            False, f"patch at or beyond staged critical size {math.pi / root_lam:.6g}"
        )
    tol = 1e-12
    for E in np.linspace(0.0, lead_zero(prob, lam1), samples):
        nb = _loop_matrix(prob.M_ben, prob.A_ben, E)
        nn = _loop_matrix(prob.M_nb, prob.A_ben, E, a)
        try:
            eb1, eb2 = _loop_eig2(nb)
            en1, en2 = _loop_eig2(nn)
        except ComplexOrRepeatedEigenvaluesError as exc:
            raise AssumptionViolatedError(f"eigenvalue ordering fails at E={E:.6g}: {exc}") from exc
        if not (eb1 >= -1e-9 * max(1.0, lam1) and eb2 < 0):
            raise AssumptionViolatedError(f"beneficial eigenvalue ordering fails at E={E:.6g}")
        if en1 >= 0:
            return SufficiencyResult(False, f"control eigenvalue ordering fails at E={E:.6g}")
        if not certified:
            try:
                c = _loop_transfer(nb, nn)
            except (ComplexOrRepeatedEigenvaluesError, SingularBasisError) as exc:
                raise AssumptionViolatedError(f"eigenbasis degenerates at E={E:.6g}: {exc}") from exc
            off, diag = float(c[0, 1] * c[1, 0]), float(c[0, 0] * c[1, 1])
            if off > tol or diag < -tol:
                return SufficiencyResult(
                    False, f"sign conditions fail at E={E:.6g} (c12*c21={off:.3g}, c11*c22={diag:.3g})"
                )
    lhs, rhs = two_stage_inequality_sides(prob)
    if lhs > rhs:
        return SufficiencyResult(True, "two-stage interface inequality holds", margin=lhs - rhs)
    return SufficiencyResult(False, "two-stage interface inequality fails", margin=lhs - rhs)


def _closed_lead_zero(prob, lam1):
    return _lead_zero(prob)


def _outcome(verdict, prob, certified, **kwargs):
    try:
        res = verdict(prob, certified=certified, **kwargs)
    except ValueError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("result", res.eradicated, res.reason, res.margin)


def _seeded_two_stage(seed):
    """Proportional control, rescaled taiga, or unstructured 2x2 rates (which
    reach complex eigenvalues, failed orderings and m12 * m21 < 0)."""
    rng = np.random.default_rng(seed)
    family = seed % 3
    if family == 0:
        A = np.array([loguniform(rng, 0.3, 3.0), 1.0])
        A[1] = A[0] * loguniform(rng, 1.0, 40.0)
        m2 = loguniform(rng, 0.05, 1.0)
        m1 = m2 * loguniform(rng, 1.0, 4.0)
        b1 = loguniform(rng, 0.2, 3.0)
        b2 = m1 * m2 / b1 * loguniform(rng, 1.05, 4.0)
        M_ben = np.array([[-m1, b1], [b2, -m2]])
        extra = loguniform(rng, 0.05, 3.0)
        omega = rng.uniform(0.05, 0.8)
        M_nb = np.array([[-m1 - extra, omega * b1], [omega * b2, -m2 - extra]])
    elif family == 1:
        A = np.ones(2)
        M_ben = TAIGA_N * loguniform(rng, 0.5, 2.0)
        M_nb = M_ben - loguniform(rng, 0.3, 2.0) * np.eye(2)
    else:
        A = np.exp(rng.uniform(-2.0, 2.0, 2))
        M_ben = rng.normal(size=(2, 2)) * np.exp(rng.uniform(-1.0, 1.0))
        M_nb = M_ben - np.exp(rng.uniform(-1.0, 1.5)) * np.eye(2) + 0.3 * rng.normal(size=(2, 2))
    lead = max(np.linalg.eigvals(M_ben / A[:, None]).real)
    R = rng.uniform(0.3, 0.95) * math.pi / math.sqrt(lead) if lead > 0 else loguniform(rng, 0.3, 5.0)
    return StagedProblem(
        A_ben=A, M_ben=M_ben, A_nb=loguniform(rng, 0.4, 2.5) * A, M_nb=M_nb,
        R=R, r=loguniform(rng, 0.2, 2.5),
    )


def _staged(A, M_ben, M_nb, R=1.0, r=1.0):
    return StagedProblem(A_ben=A, M_ben=M_ben, A_nb=A, M_nb=M_nb, R=R, r=r)


# name -> (problem, certified, lead_zero for the reference, start of the expected reason)
_BRANCH_CASES = {
    "complex control eigenvalues inside [0, E0]": (
        _staged([1.0, 0.1], [[-1, 3], [1, -1]], [[-4, 0.1], [-0.1, -0.1]]),
        True, _scanned_lead_zero, "eigenvalue ordering fails at E=0.263081: discriminant",
    ),
    # A round-off guard: Lambda1(E0) = 0 up to the cancellation in 0.5 (tr + sqrt(disc))
    # with |tr| ~ 2e7, which here lands below -1e-9.  The loop is given the closed-form
    # E0, so both sides do the same arithmetic at the same samples.
    "beneficial ordering at E0": (
        _staged([1e-7, 1e-7], [[-1, 1], [1 + 1e-7, -1]], [[-2, 1], [1 + 1e-7, -2]], R=0.3),
        False, _closed_lead_zero, "beneficial eigenvalue ordering fails at E=5e-08",
    ),
    "control ordering above E=0": (
        _staged([1.0, 0.1], [[-1, 2], [1, -1]], [[1, 1.1], [-0.5, -0.5]]),
        True, _scanned_lead_zero, "control eigenvalue ordering fails at E=0.13915",
    ),
    "vanishing pinned eigenvector component": (
        _staged([1.0, 1.0], [[-1, 0], [1, 0.5]], [[-2, 0.5], [0.5, -2]]),
        False, _scanned_lead_zero, "eigenbasis degenerates at E=0: eigenvector component 0 vanishes",
    ),
    "unpinnable eigenvectors in both zones": (
        _staged([1.0, 1.0], [[-1, 1], [0, 0.5]], [[-3, 0], [1, -2]]),
        False, _scanned_lead_zero, "eigenbasis degenerates at E=0: eigenvector component 1 vanishes",
    ),
    "singular basis": (
        _staged([1.0, 1.0], [[0, 1], [1e-14, 0]], [[-2, 0.5], [0.5, -2]]),
        False, _scanned_lead_zero, "eigenbasis degenerates at E=0: beneficial eigenbasis nearly singular",
    ),
    "sign conditions above E=0": (
        _staged([1.0, 0.125], [[-0.6, 1.6], [2.4, -1.8]], [[-3.6, 2.2], [0.3, -3.2]], R=0.5),
        False, _scanned_lead_zero, "sign conditions fail at E=0.335111 (c12*c21=1.2e-05",
    ),
    "certified skips the sign conditions": (
        _staged([1.0, 0.125], [[-0.6, 1.6], [2.4, -1.8]], [[-3.6, 2.2], [0.3, -3.2]], R=0.5),
        True, _scanned_lead_zero, "two-stage interface inequality holds",
    ),
    "taiga preset, certified": (
        taiga_problem(), True, _scanned_lead_zero, "two-stage interface inequality holds",
    ),
    "m12 * m21 < 0": (
        _staged([1.0, 1.0], [[0.5, 1], [-0.1, -1]], [[-1.5, 1], [-0.1, -3]]),
        False, _scanned_lead_zero, "two-stage interface inequality holds",
    ),
}


class TestTwoStageSamplerMatchesLoop:
    """``two_stage_verdict`` gives the reference loop's verdict, reason and
    margin, or raises its exception type with its message."""

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_draws(self, seed):
        prob = _seeded_two_stage(seed)
        for certified in (False, True):
            want = _outcome(_loop_two_stage_verdict, prob, certified)
            assert _outcome(two_stage_verdict, prob, certified) == want

    @pytest.mark.parametrize("name", sorted(_BRANCH_CASES))
    def test_constructed_branches(self, name):
        prob, certified, lead_zero, reason = _BRANCH_CASES[name]
        want = _outcome(_loop_two_stage_verdict, prob, certified, lead_zero=lead_zero)
        assert want[2].startswith(reason)
        assert _outcome(two_stage_verdict, prob, certified) == want

    def test_no_scan_past_the_zero(self):
        # m12 * m21 < 0: beyond E0 the reference's root scan meets complex
        # eigenvalues and raises; below E0 they are real, and the closed-form
        # E0 gives the loop's verdict.
        prob = _staged([1.0, 0.2], [[-1.8, 1.0], [-0.5, 0.6]], [[-3.8, 1.0], [-0.5, -1.4]], R=0.5)
        for certified in (False, True):
            assert _outcome(_loop_two_stage_verdict, prob, certified)[1] == "NoRealEigenvalueError"
            want = _outcome(_loop_two_stage_verdict, prob, certified, lead_zero=_closed_lead_zero)
            assert want[0] == "result"
            assert _outcome(two_stage_verdict, prob, certified) == want

    def test_no_zero_crossing_is_an_assumption_violation(self):
        # m12 * m21 < 0 and a2 >> a1: at E0 the eigenvalues of A^-1 (M_ben - E0 I)
        # are 0 and a positive trace, so the lead eigenvalue never vanishes.
        prob = _staged([1.0, 50.0], [[0.5, 1], [-0.1, -1]], [[-1.5, 1], [-0.1, -3]])
        E0 = max(np.linalg.eigvals(prob.M_ben).real)
        assert np.trace(_zone_matrix(prob, prob.M_ben, E0)) > 0
        for certified in (False, True):
            with pytest.raises(AssumptionViolatedError, match="^lead eigenvalue does not cross zero$"):
                two_stage_verdict(prob, certified=certified)
            # The reference's scan meets complex eigenvalues instead.
            assert _outcome(_loop_two_stage_verdict, prob, certified)[1] == "NoRealEigenvalueError"

    @pytest.mark.parametrize("seed", [s for s in range(30) if s % 3 < 2])
    def test_closed_form_zero_matches_scanned_root(self, seed):
        prob = _seeded_two_stage(seed)
        lam1 = max_real_eigenvalue(_zone_matrix(prob, prob.M_ben, 0.0))
        E0 = _lead_zero(prob)
        assert abs(E0 - _scanned_lead_zero(prob, lam1)) <= 1e-12
        scale = 1.0 + np.abs(_zone_matrix(prob, prob.M_ben, 0.0)).max()
        assert abs(max_real_eigenvalue(_zone_matrix(prob, prob.M_ben, E0))) <= 4 * np.finfo(float).eps * scale


class TestBasisChangeMatchesLoopSolve:
    """The closed-form ``c`` against the reference loop's ``np.linalg.solve(V, W)``
    on every sample of the seeded draws' stacks: the same samples degenerate,
    ``c`` agrees to round-off elsewhere, and every sign decision is the same."""

    def test_seeded_stacks(self):
        tol, compared = 1e-12, 0
        for seed in range(60):
            prob = _seeded_two_stage(seed)
            try:
                Es = np.linspace(0.0, _lead_zero(prob), 257)
            except AssumptionViolatedError:
                continue
            a = prob.a_ratio
            ben, ctl = eigen_2x2(_zone_matrix(prob, prob.M_ben, Es)), eigen_2x2(_zone_matrix(prob, prob.M_nb, Es, a))
            c, det = _basis_change(ben, ctl)
            failed = ben.degenerate | ctl.degenerate | _singular(ben, det)
            for i, E in enumerate(Es):
                nb = _loop_matrix(prob.M_ben, prob.A_ben, E)
                nn = _loop_matrix(prob.M_nb, prob.A_ben, E, a)
                try:
                    want = _loop_transfer(nb, nn)
                except (ComplexOrRepeatedEigenvaluesError, SingularBasisError):
                    assert failed[i], (seed, E)
                    continue
                assert not failed[i], (seed, E)
                assert np.all(np.abs(c[i] - want) <= 1e-12 * (1.0 + np.abs(c[i]))), (seed, E)
                fails = c[i, 0, 1] * c[i, 1, 0] > tol or c[i, 0, 0] * c[i, 1, 1] < -tol
                assert fails == (want[0, 1] * want[1, 0] > tol or want[0, 0] * want[1, 1] < -tol), (seed, E)
                compared += 1
        assert compared >= 10000


# ---------------------------------------------------------------------------
# Transition: one width reading and one two-stage balance against the mirrored ring
# ---------------------------------------------------------------------------


def _bits(call, *args, **kwargs):
    """``call``'s status, reason and margin bits, its value's bits, or what it raised."""
    try:
        res = call(*args, **kwargs)
    except ValueError as exc:
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(res, float):
        return ("value", res.hex())
    if isinstance(res, tuple):
        return ("sides", *(float(x).hex() for x in res))
    return ("result", res.status, res.reason, None if res.margin is None else float(res.margin).hex())


def _seeded_staged(seed, bc=None):
    """Two-stage proportional control, rescaled taiga or a 3-stage cycle under uniform
    control, with ``R`` up to 1.3 times the staged critical size; the boundary cycles."""
    rng = np.random.default_rng(seed)
    family = seed % 3
    bc = bc or (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN, BoundaryCondition.PERIODIC)[seed // 3 % 3]
    if family == 0:
        A = np.array([loguniform(rng, 0.3, 3.0), 1.0])
        A[1] = A[0] * loguniform(rng, 1.0, 40.0)
        m2 = loguniform(rng, 0.05, 1.0)
        m1 = m2 * loguniform(rng, 1.0, 4.0)
        b1 = loguniform(rng, 0.2, 3.0)
        b2 = m1 * m2 / b1 * loguniform(rng, 1.05, 4.0)
        M_ben = np.array([[-m1, b1], [b2, -m2]])
        extra, omega = loguniform(rng, 0.05, 3.0), rng.uniform(0.05, 0.8)
        M_nb = np.array([[-m1 - extra, omega * b1], [omega * b2, -m2 - extra]])
    elif family == 1:
        A = np.ones(2)
        M_ben = TAIGA_N * loguniform(rng, 0.5, 2.0)
        M_nb = M_ben - loguniform(rng, 0.3, 2.0) * np.eye(2)
    else:
        params = BirthDeathParams(
            deaths=[loguniform(rng, 0.05, 1.0) for _ in range(3)], births=[loguniform(rng, 0.3, 3.0) for _ in range(3)]
        )
        A, M_ben = np.array([loguniform(rng, 0.5, 2.0) for _ in range(3)]), build_stage_matrix(params)
        M_nb = -np.diag([loguniform(rng, 0.5, 30.0) for _ in range(3)])
    lead = max_real_eigenvalue(M_ben / A[:, None])
    critical = math.pi / math.sqrt(lead) if lead > 0 else 5.0
    if bc is not BoundaryCondition.PERIODIC:
        critical /= 2  # a pair is half of its mirrored ring
    return StagedProblem(
        A_ben=A, M_ben=M_ben, A_nb=loguniform(rng, 0.4, 2.5) * A, M_nb=M_nb,
        R=rng.uniform(0.02, 1.3) * critical, r=loguniform(rng, 0.1, 3.0), bc=bc,
    )


class TestOneWidthReadingMatchesTheRing:
    """Reading a pair's widths directly, as ``scalar._effective_widths`` does, gives
    the mirrored-ring reading's outcomes bit for bit; only the two-stage sides now
    refuse a patch at or past the pole, and a problem without 2 stages."""

    def test_seeded_draws(self):
        seen = {"certified": 0, "pole": 0, "symmetrized": 0, "rate": 0}
        for seed in range(450):
            prob = _seeded_staged(seed)
            for certified in (False, True):
                want = _bits(legacy_two_stage_verdict, prob, certified)
                assert _bits(two_stage_verdict, prob, certified) == want, (seed, certified)
                seen["certified"] += want[:2] == ("result", "Eradication")
                seen["pole"] += want[2].startswith("patch at or beyond")
            want = _bits(legacy_symmetrized_sufficient_verdict, prob)
            assert _bits(symmetrized_sufficient_verdict, prob) == want, seed
            seen["symmetrized"] += want[:2] == ("result", "Eradication")
            ring = legacy_as_ring(prob)
            lead, a = max_real_eigenvalue(prob.M_ben / prob.A_ben[:, None]), prob.a_ratio or 1.0
            want = _bits(legacy_min_control_decay_rate, lead, ring.R, ring.r, a)
            assert _bits(min_control_decay_rate, lead, ring.R, ring.r, a) == want, seed
            seen["rate"] += want[0] == "value"
            want, got = _bits(legacy_two_stage_inequality_sides, prob), _bits(two_stage_inequality_sides, prob)
            if prob.dimension != 2:
                assert got == ("raised", "AssumptionViolatedError", "two-stage criterion needs exactly 2 stages")
            elif got[0] == "raised" and got[2].startswith("patch at or beyond staged critical size"):
                root_lam = math.sqrt(max_real_eigenvalue(_zone_matrix(prob, prob.M_ben, 0.0)))
                assert root_lam * ring.R / 2.0 >= math.pi / 2.0, seed
            else:
                assert got == want, seed
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC, BoundaryCondition.NEUMANN])
    def test_never_certified_at_the_pole(self, bc):
        # Within 4 ulp of pi / sqrt(Lambda1(0)) the closed-form and eigvals values of
        # Lambda1(0) can straddle the pole, where the ring reading certified with margins near 3e15.
        legacy_certified = 0
        for seed in range(0, 120, 3):
            base = _seeded_staged(seed + seed // 3 % 2, bc)  # proportional and taiga draws
            lead = max_real_eigenvalue(_zone_matrix(base, base.M_ben, 0.0))
            R = math.pi / math.sqrt(lead) / (2 if bc is BoundaryCondition.NEUMANN else 1)
            for step in range(-4, 5):
                prob = replace(base, R=float(R + step * np.spacing(R)))
                for certified in (False, True):
                    res = two_stage_verdict(prob, certified)
                    assert not res.eradicated, (seed, step, res)
                    legacy_certified += legacy_two_stage_verdict(prob, certified).eradicated
                sides = _bits(two_stage_inequality_sides, prob)
                if res.reason.startswith("patch at or beyond staged critical size"):
                    assert sides == ("raised", "AssumptionViolatedError", res.reason)
                elif sides[0] == "raised":  # the verdict stopped earlier, at a non-dissipative control zone
                    assert sides[2].startswith("patch at or beyond staged critical size"), sides
                else:
                    lhs, rhs = two_stage_inequality_sides(prob)
                    assert lhs < rhs < math.inf
        assert legacy_certified > 0
