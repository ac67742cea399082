import ast
import math
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from patchcontrol import (
    BoundaryCondition,
    GridSpec,
    InsufficientMortalityError,
    LayoutError,
    NonpositiveGrowthError,
    ScalarProblem,
    SpectralMethod,
    UncontrollableError,
    Verdict,
    VerdictStatus,
    critical_patch_dirichlet,
    min_mortality,
    min_zone_width,
    scalar_verdict,
    top_eigenvalue_scalar,
)
from patchcontrol.oracle import min_mortality_fd, min_zone_width_fd, top_eigenvalue_fd
from patchcontrol import scalar
from patchcontrol.scalar import control_inequality_sides

from sweeps import (
    BCS,
    imported_names,
    legacy_inequality_sides,
    legacy_min_mortality,
    legacy_min_zone_width,
    legacy_scalar_verdict,
    random_band_edge_problem,
    random_scalar_problem,
)

mpmath.mp.dps = 50

FAST = GridSpec(cells_per_unit_length=64, refinement_levels=2)


def mp_periodic_rhs(a, lam, R):
    """High-precision rhs of the periodic inequality: sqrt(lam a) tan(R/2 sqrt(lam/a))."""
    a, lam, R = map(mpmath.mpf, (a, lam, R))
    return float(mpmath.sqrt(lam * a) * mpmath.tan(R / 2 * mpmath.sqrt(lam / a)))


def mp_periodic_lhs(b, mu, r):
    b, mu, r = map(mpmath.mpf, (b, mu, r))
    return float(mpmath.sqrt(mu * b) * mpmath.tanh(r / 2 * mpmath.sqrt(mu / b)))


class TestCriticalPatch:
    def test_lone_star(self):
        assert critical_patch_dirichlet(16.67, 0.65) == pytest.approx(15.9, abs=0.05)

    def test_taiga_one_stage(self):
        assert critical_patch_dirichlet(50.0, 2.0) == pytest.approx(15.7, abs=0.05)

    def test_unit_collapse(self):
        assert critical_patch_dirichlet(1.0, math.pi**2) == pytest.approx(1.0, rel=1e-14)

    def test_nonpositive_growth_signaled(self):
        with pytest.raises(NonpositiveGrowthError):
            critical_patch_dirichlet(1.0, 0.0)

    @pytest.mark.parametrize(
        "a, lam, code",
        [
            (math.nan, 1.0, "NonpositiveDiffusion"),
            (math.inf, 1.0, "NonpositiveDiffusion"),
            (1.0, math.nan, "NonfiniteGrowth"),
            (1.0, math.inf, "NonfiniteGrowth"),
        ],
    )
    def test_nonfinite_inputs_refused(self, a, lam, code):
        with pytest.raises(LayoutError) as info:
            critical_patch_dirichlet(a, lam)
        assert info.value.code == code


class TestDirichletVerdict:
    def test_clause_i_survival(self):
        p = ScalarProblem(a=1, lam=10, b=1, mu=5, R=math.pi, r=1, bc=BoundaryCondition.DIRICHLET)
        v = scalar_verdict(p)
        assert v.status is VerdictStatus.SURVIVAL
        assert v.deciding_rule == "dirichlet-critical-size"

    def test_clause_iii_eradication(self):
        # lam/a = 0.039 < pi^2/(2R)^2 = 0.0504 at R = 7
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=3.0, R=7, r=1,
                          bc=BoundaryCondition.DIRICHLET)
        v = scalar_verdict(p)
        assert v.status is VerdictStatus.ERADICATION
        fd = top_eigenvalue_fd(p.to_layout(), FAST)
        assert fd.top_eigenvalue < -10 * fd.error_estimate

    def test_wide_control_zone_matches_oracle_sign(self):
        p = ScalarProblem(a=1, lam=0.5, b=1, mu=5, R=3.5, r=50,
                          bc=BoundaryCondition.DIRICHLET)
        v = scalar_verdict(p)
        fd = top_eigenvalue_fd(p.to_layout(), FAST)
        assert abs(fd.top_eigenvalue) > 10 * fd.error_estimate
        expected = VerdictStatus.ERADICATION if fd.top_eigenvalue < 0 else VerdictStatus.SURVIVAL
        assert v.status is expected

    def test_negative_growth_short_circuit(self):
        p = ScalarProblem(a=1, lam=-0.3, b=1, mu=0, R=2, r=1, bc=BoundaryCondition.DIRICHLET)
        v = scalar_verdict(p)
        assert v.status is VerdictStatus.ERADICATION
        assert v.margin == pytest.approx(0.3)
        assert v.deciding_rule == "negative-growth"


class TestNeumannVerdict:
    def test_clause_i_survival(self):
        p = ScalarProblem(a=1, lam=1, b=1, mu=5, R=math.pi, r=1, bc=BoundaryCondition.NEUMANN)
        assert scalar_verdict(p).status is VerdictStatus.SURVIVAL

    def test_tan_tanh_eradication(self):
        p = ScalarProblem(a=1, lam=0.2, b=1, mu=2, R=1, r=1, bc=BoundaryCondition.NEUMANN)
        v = scalar_verdict(p)
        lhs = float(mpmath.sqrt(2) * mpmath.tanh(mpmath.sqrt(2)))
        rhs = float(mpmath.sqrt(mpmath.mpf("0.2")) * mpmath.tan(mpmath.sqrt(mpmath.mpf("0.2"))))
        assert lhs == pytest.approx(1.2564, abs=1e-4)
        assert rhs == pytest.approx(0.2145, abs=1e-4)
        assert v.status is VerdictStatus.ERADICATION
        assert v.margin == pytest.approx(lhs - rhs, rel=1e-12)
        fd = top_eigenvalue_fd(p.to_layout(), FAST)
        assert fd.top_eigenvalue < -10 * fd.error_estimate

    def test_zero_mortality_survival(self):
        p = ScalarProblem(a=1, lam=0.1, b=1, mu=0, R=1, r=2, bc=BoundaryCondition.NEUMANN)
        assert scalar_verdict(p).status is VerdictStatus.SURVIVAL


class TestPeriodicVerdict:
    def test_lone_star_inequality_sides(self):
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=1958.0, R=14, r=1)
        lhs, rhs = control_inequality_sides(p)
        assert rhs == pytest.approx(mp_periodic_rhs(16.67, 0.65, 14), rel=1e-12)
        assert lhs == pytest.approx(mp_periodic_lhs(16.67, 1958.0, 1), rel=1e-12)

    def test_lone_star_mu10_survival(self):
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=10.0, R=14, r=1)
        v = scalar_verdict(p)
        lhs, rhs = control_inequality_sides(p)
        assert lhs == pytest.approx(4.7642, abs=1e-3)
        assert v.status is VerdictStatus.SURVIVAL
        fd = top_eigenvalue_fd(p.to_layout(), FAST)
        assert fd.top_eigenvalue > 10 * fd.error_estimate

    def test_k_independence_of_verdict(self):
        for K in (1, 3):
            p = ScalarProblem(a=2, lam=0.4, b=1, mu=6, R=3, r=0.8, K=K)
            v = scalar_verdict(p)
            assert v.status is VerdictStatus.ERADICATION
            assert v.margin == pytest.approx(scalar_verdict(p).margin)

    def test_nan_diffusion_gives_no_verdict(self):
        with pytest.raises(LayoutError) as info:
            ScalarProblem(a=math.nan, lam=0.65, b=16.67, mu=10.0, R=14, r=1)
        assert info.value.code == "NonpositiveDiffusion"

    def test_equal_verdict_for_any_k(self):
        p1 = ScalarProblem(a=1, lam=0.9, b=2, mu=3, R=2.5, r=0.5, K=1)
        p3 = ScalarProblem(a=1, lam=0.9, b=2, mu=3, R=2.5, r=0.5, K=3)
        assert scalar_verdict(p1) == scalar_verdict(p3)


class TestTopEigenvalue:
    def test_pure_kiss_ground_mode(self):
        p = ScalarProblem(a=1, lam=1, b=1, mu=0, R=math.pi, r=0, bc=BoundaryCondition.DIRICHLET)
        rep = top_eigenvalue_scalar(p)
        assert rep.top_eigenvalue == pytest.approx(0.0, abs=1e-14)
        assert rep.method is SpectralMethod.DISPERSION_ROOT

    def test_pure_kiss_shifted(self):
        p = ScalarProblem(a=1, lam=5, b=1, mu=0, R=math.pi, r=0, bc=BoundaryCondition.DIRICHLET)
        assert top_eigenvalue_scalar(p).top_eigenvalue == pytest.approx(4.0, abs=1e-14)

    def test_lone_star_root_matches_oracle(self):
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=10.0, R=14, r=1)
        rep = top_eigenvalue_scalar(p)
        assert rep.method is SpectralMethod.DISPERSION_ROOT
        fd = top_eigenvalue_fd(p.to_layout(), FAST)
        assert abs(rep.top_eigenvalue - fd.top_eigenvalue) <= 1e-3 * max(1, abs(rep.top_eigenvalue))

    def test_root_below_control_mortality(self):
        # Tiny absorbing patch: the top eigenvalue lies far below -mu, where the
        # control zone oscillates too.
        p = ScalarProblem(a=1, lam=0.1, b=1, mu=0.05, R=0.5, r=0.5,
                          bc=BoundaryCondition.DIRICHLET)
        rep = top_eigenvalue_scalar(p)
        assert rep.method is SpectralMethod.DISPERSION_ROOT
        assert rep.top_eigenvalue < -p.mu
        fd = top_eigenvalue_fd(p.to_layout(), GridSpec(cells_per_unit_length=256))
        assert abs(fd.top_eigenvalue - rep.top_eigenvalue) <= 1e-3 * (1 + abs(rep.top_eigenvalue))

    def test_monotone_in_mu(self):
        base = dict(a=1, lam=1, b=1, R=2, r=0.8)
        values = [top_eigenvalue_scalar(ScalarProblem(mu=mu, **base)).top_eigenvalue
                  for mu in (0.5, 1, 2, 4, 8)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_monotone_in_lambda(self):
        base = dict(a=1, b=1, mu=3, R=2, r=0.8)
        values = [top_eigenvalue_scalar(ScalarProblem(lam=lam, **base)).top_eigenvalue
                  for lam in (0.2, 0.5, 1.0, 1.5, 2.0)]
        assert all(y >= x - 1e-12 for x, y in zip(values, values[1:]))

    def test_monotone_in_r_width(self):
        base = dict(a=1, lam=1, b=1, mu=3, r=0.8)
        values = [top_eigenvalue_scalar(ScalarProblem(R=R, **base)).top_eigenvalue
                  for R in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(y >= x - 1e-12 for x, y in zip(values, values[1:]))

    def test_dirichlet_below_periodic(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            p = random_scalar_problem(rng)
            pd = ScalarProblem(a=p.a, lam=p.lam, b=p.b, mu=p.mu, R=p.R, r=p.r,
                               bc=BoundaryCondition.DIRICHLET)
            pp = ScalarProblem(a=p.a, lam=p.lam, b=p.b, mu=p.mu, R=p.R, r=p.r,
                               bc=BoundaryCondition.PERIODIC)
            e_dir = top_eigenvalue_fd(pd.to_layout(), FAST).top_eigenvalue
            e_per = top_eigenvalue_fd(pp.to_layout(), FAST).top_eigenvalue
            assert e_dir <= e_per + 1e-6


def scan_dispersion_root(p: ScalarProblem) -> float | None:
    """Top eigenvalue from a 4096-point sign scan of each interval between the
    beneficial zone's poles in the window ``E in (-mu, lam)``, refined by Brent's
    method; None when no root lies in the window.  The reference for the pole bracket."""
    R_eff, r_eff = (p.R / 2, p.r / 2) if p.bc is BoundaryCondition.PERIODIC else (p.R, p.r)
    eps = 1e-9 * max(1.0, abs(p.lam), p.mu)
    x_lo, x_hi = eps / p.a, (p.lam + p.mu - eps) / p.a

    def residual(x):
        sqx = np.sqrt(x)
        gam = np.sqrt(np.maximum(p.lam + p.mu - p.a * x, 0.0) / p.b)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if p.bc is BoundaryCondition.DIRICHLET:
                ctl = np.where(gam * p.b > 1e-300,
                               np.tanh(r_eff * gam) / np.maximum(p.b * gam, 1e-300), r_eff / p.b)
                return np.tan(R_eff * sqx) / (p.a * sqx) + ctl
            return p.a * sqx * np.tan(R_eff * sqx) - p.b * gam * np.tanh(r_eff * gam)

    poles = []
    k = 0
    while (xp := ((math.pi / 2 + k * math.pi) / R_eff) ** 2) < x_hi:
        if xp > x_lo:
            poles.append(xp)
        k += 1
    breaks = [x_lo, *poles, x_hi]
    for u, v in zip(breaks[:-1], breaks[1:]):
        pad = 1e-12 * max(1.0, v - u) + 1e-300
        xs = np.linspace(u + pad, v - pad, 4096)
        vals = residual(xs)
        change = np.nonzero(np.isfinite(vals[:-1] * vals[1:]) & (vals[:-1] * vals[1:] < 0))[0]
        if change.size:
            i = int(change[0])
            x = brentq(lambda t: float(residual(t)), xs[i], xs[i + 1],
                       xtol=1e-13, rtol=8 * np.finfo(float).eps)
            return p.lam - p.a * x
    return None


class TestPoleBracketRoot:
    """The dispersion root is bracketed by the residual's first poles, with no
    scan and no finite-difference path."""

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dispersion root must not call the FD oracle")

        for name in ("top_eigenvalue_fd", "assemble", "_perron_bracket"):
            monkeypatch.setattr(f"patchcontrol.oracle.{name}", refuse)

    @pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
    @pytest.mark.parametrize(
        "params",
        [
            dict(a=16.67, lam=0.65, b=16.67, mu=10.0, R=14, r=1),  # in the window
            dict(a=1, lam=0.1, b=1, mu=0.05, R=0.5, r=0.5),  # below -mu on absorbing ends
            dict(a=1, lam=-0.7, b=2, mu=0.7, R=1.5, r=0.8),  # lam = -mu
            dict(a=1, lam=-2.0, b=3, mu=0.5, R=1.5, r=0.8),  # lam < -mu: zones exchanged
            dict(a=2, lam=0.4, b=0.5, mu=0.0, R=1.5, r=0.8),  # mu = 0
            dict(a=2, lam=0.4, b=0.5, mu=3.0, R=1.5, r=0.0),  # r = 0
        ],
        ids=["in-window", "below-mu", "lam-eq-minus-mu", "lam-below-minus-mu", "mu-0", "r-0"],
    )
    def test_answers_without_the_oracle(self, no_oracle, bc, params):
        p = ScalarProblem(bc=bc, K=2 if bc is BoundaryCondition.PERIODIC else 1, **params)
        rep = top_eigenvalue_scalar(p)
        assert rep.method is SpectralMethod.DISPERSION_ROOT
        assert math.isfinite(rep.top_eigenvalue) and math.isfinite(rep.error_estimate)
        assert rep.top_eigenvalue <= max(p.lam, -p.mu)
        if p.lam == -p.mu and bc is not BoundaryCondition.DIRICHLET:
            assert rep.top_eigenvalue == p.lam  # one uniform growth, flat top mode

    @pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
    def test_exchanged_zones_match_the_oracle(self, bc):
        p = ScalarProblem(a=1, lam=-2.0, b=3, mu=0.5, R=1.5, r=0.8, bc=bc)
        rep = top_eigenvalue_scalar(p)
        fd = top_eigenvalue_fd(p.to_layout(), GridSpec(cells_per_unit_length=256))
        assert abs(fd.top_eigenvalue - rep.top_eigenvalue) <= 1e-3 * (1 + abs(rep.top_eigenvalue))

    @pytest.mark.parametrize("mu", [0.5, 0.5 * (1 + 1e-13), 0.5 * (1 - 1e-9)])
    def test_coinciding_poles_hold_the_absorbing_root(self, mu):
        # One uniform zone cut in half: the first poles of both zones coincide, and
        # the top mode sin(pi s / (R + r)) has zero flux at the interface.
        p = ScalarProblem(a=2, lam=-0.5, b=2, mu=mu, R=1.5, r=1.5, bc=BoundaryCondition.DIRICHLET)
        expected = max(p.lam, -p.mu) - 2 * (math.pi / 3) ** 2
        assert top_eigenvalue_scalar(p).top_eigenvalue == pytest.approx(expected, abs=1e-8)

    def test_equals_the_pole_scan_in_the_window(self):
        rng = np.random.default_rng(1201)
        compared = 0
        for _ in range(150):
            p = random_scalar_problem(rng)
            reference = scan_dispersion_root(p)
            if reference is None:
                continue
            rep = top_eigenvalue_scalar(p)
            assert abs(rep.top_eigenvalue - reference) <= rep.error_estimate, p
            compared += 1
        assert compared >= 100

    def test_scalar_module_imports_nothing_from_oracle(self):
        # The closed-form layer stays independent of the FD oracle it is checked against.
        imported = imported_names(scalar)
        assert imported
        assert not [name for name in imported if "oracle" in name.split(".")]

    def test_only_the_interface_balance_writes_tan_and_tanh(self):
        # The verdict, its sides and the dispersion root all read this one balance.
        tree = ast.parse(Path(scalar.__file__).read_text(encoding="utf-8"))
        balance = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_interface_balance")

        def tan_refs(root):
            return [
                node for node in ast.walk(root)
                if isinstance(node, ast.Attribute) and node.attr in ("tan", "tanh")
                and isinstance(node.value, ast.Name) and node.value.id == "math"
            ]

        assert tan_refs(balance) and tan_refs(tree) == tan_refs(balance)
        assert not {"tan", "tanh"} & set(imported_names(scalar))

    @pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
    def test_balance_is_continuous_where_the_control_zone_turns(self, bc):
        # At x = (lam + mu)/a the control zone's net rate ctl = mu + E changes sign and
        # its tanh continues to a tan.  lhs passes through its ctl -> 0 limit, 0 for
        # reflecting ends and rings and -r/b for absorbing ends, increasing and to
        # first order in ctl: a tan continued with the wrong sign lands on the far side.
        rng = np.random.default_rng(2002)
        dirichlet = bc is BoundaryCondition.DIRICHLET
        for _ in range(100):
            p = replace(random_scalar_problem(rng), bc=bc)
            R, r = scalar._effective_widths(p)
            limit, slope = (-r / p.b, r**3 / p.b**2) if dirichlet else (0.0, 2 * r)
            delta = 1e-9 * (p.lam + p.mu)
            below, above = (
                scalar._interface_balance(p.lam + p.mu - ctl, ctl, p.a, R, p.b, r, dirichlet)[0]
                for ctl in (-delta, delta)
            )
            assert below <= limit <= above, p
            for lhs in (below, above):
                assert abs(lhs - limit) <= slope * delta + 4e-16 * abs(limit), p


class TestMinMortality:
    def test_lone_star_value_and_oracle_agreement(self):
        mu_star = min_mortality(16.67, 0.65, 14.0, 16.67, 1.0)
        rhs = mpmath.mpf(mp_periodic_rhs(16.67, 0.65, 14))
        expected = mpmath.findroot(
            lambda m: mpmath.sqrt(m * mpmath.mpf("16.67"))
            * mpmath.tanh(mpmath.mpf("0.5") * mpmath.sqrt(m / mpmath.mpf("16.67")))
            - rhs,
            40.0,
        )
        assert mu_star == pytest.approx(float(expected), rel=1e-9)
        p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=mu_star, R=14, r=1)
        oracle = min_mortality_fd(p.to_layout(), FAST)
        assert abs(mu_star - oracle) / mu_star <= 0.05

    def test_margin_crosses_zero_at_solution(self):
        mu_star = min_mortality(16.67, 0.65, 14.0, 16.67, 1.0)
        above = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=mu_star * (1 + 1e-6), R=14, r=1)
        below = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=mu_star * (1 - 1e-6), R=14, r=1)
        assert scalar_verdict(above).status is VerdictStatus.ERADICATION
        assert scalar_verdict(below).status is VerdictStatus.SURVIVAL

    def test_uncontrollable_beyond_critical_size(self):
        with pytest.raises(UncontrollableError):
            min_mortality(16.67, 0.65, 16.0, 16.67, 1.0)  # R > R_c = 15.91

    def test_dirichlet_small_patch_needs_no_control(self):
        assert min_mortality(16.67, 0.65, 7.0, 16.67, 1.0, BoundaryCondition.DIRICHLET) == 0.0

    def test_no_control_zone_uncontrollable(self):
        with pytest.raises(UncontrollableError):
            min_mortality(1.0, 0.5, 2.0, 1.0, 0.0)

    def test_no_control_zone_inside_the_absorbing_band_needs_none(self):
        # R = 2.5 lies between the quarter wave pi/2 and the critical width pi.
        assert scalar_verdict(ScalarProblem(1.0, 1.0, 1.0, 0.0, 2.5, 0.0, BoundaryCondition.DIRICHLET)).margin > 0
        assert min_mortality(1.0, 1.0, 2.5, 1.0, 0.0, BoundaryCondition.DIRICHLET) == 0.0


class TestMinZoneWidth:
    def test_periodic_reference_value(self):
        r_star = min_zone_width(1.0, 0.2, 1.0, 1.0, 2.0)
        rhs = mpmath.sqrt(mpmath.mpf("0.2")) * mpmath.tan(
            mpmath.mpf("0.5") * mpmath.sqrt(mpmath.mpf("0.2"))
        )
        expected = mpmath.findroot(
            lambda r: mpmath.sqrt(2) * mpmath.tanh(r / 2 * mpmath.sqrt(2)) - rhs, 0.1
        )
        assert float(expected) == pytest.approx(0.101877, abs=1e-6)
        assert r_star == pytest.approx(float(expected), rel=1e-9)
        p = ScalarProblem(a=1, lam=0.2, b=1, mu=2, R=1, r=r_star)
        oracle = min_zone_width_fd(p.to_layout(), GridSpec(cells_per_unit_length=256, refinement_levels=2))
        assert abs(r_star - oracle) <= 0.01 * max(r_star, oracle)

    @pytest.mark.parametrize(
        "a, lam, R, b, mu, bc",
        [
            (1.0, 0.2, 1.0, 1.0, 2.0, BoundaryCondition.NEUMANN),
            (16.67, 0.65, 5.0, 16.67, 80.0, BoundaryCondition.NEUMANN),
            (3.0, 0.05, 9.0, 0.4, 9.0, BoundaryCondition.NEUMANN),
            (1.0, 0.2, 1.0, 1.0, 2.0, BoundaryCondition.PERIODIC),
            (16.67, 0.65, 14.0, 16.67, 80.0, BoundaryCondition.PERIODIC),
            (0.3, 2.0, 1.1, 25.0, 400.0, BoundaryCondition.PERIODIC),
        ],
    )
    def test_closed_form_matches_mpmath_root(self, a, lam, R, b, mu, bc):
        r_star = min_zone_width(a, lam, R, b, mu, bc)
        half = mpmath.mpf(2 if bc is BoundaryCondition.PERIODIC else 1)
        a, lam, R, b, mu = map(mpmath.mpf, (a, lam, R, b, mu))
        rhs = mpmath.sqrt(lam * a) * mpmath.tan(R / half * mpmath.sqrt(lam / a))
        expected = mpmath.findroot(
            lambda r: mpmath.sqrt(mu * b) * mpmath.tanh(r / half * mpmath.sqrt(mu / b)) - rhs, r_star
        )
        assert r_star == pytest.approx(float(expected), rel=1e-12, abs=0)

    def test_margin_crosses_zero_at_solution(self):
        r_star = min_zone_width(1.0, 0.2, 1.0, 1.0, 2.0)
        above = ScalarProblem(a=1, lam=0.2, b=1, mu=2, R=1, r=r_star * (1 + 1e-6))
        below = ScalarProblem(a=1, lam=0.2, b=1, mu=2, R=1, r=r_star * (1 - 1e-6))
        assert scalar_verdict(above).status is VerdictStatus.ERADICATION
        assert scalar_verdict(below).status is VerdictStatus.SURVIVAL

    def test_zero_mortality_insufficient(self):
        with pytest.raises(InsufficientMortalityError):
            min_zone_width(1.0, 0.5, 2.0, 1.0, 0.0)

    def test_weak_mortality_insufficient(self):
        # sqrt(mu b) below the rhs: no width can help.
        with pytest.raises(InsufficientMortalityError):
            min_zone_width(1.0, 1.0, 2.9, 1.0, 1e-4)

    def test_dirichlet_needs_no_zone_below_critical(self):
        assert min_zone_width(16.67, 0.65, 10.0, 16.67, 5.0, BoundaryCondition.DIRICHLET) == 0.0

    def test_uncontrollable(self):
        with pytest.raises(UncontrollableError):
            min_zone_width(1.0, 5.0, 10.0, 1.0, 2.0)


class TestVerdictOracleAgreement:
    def test_randomized_sample(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(60):
            p = random_scalar_problem(rng)
            fd = top_eigenvalue_fd(p.to_layout(), FAST)
            if abs(fd.top_eigenvalue) <= 10 * fd.error_estimate:
                continue
            v = scalar_verdict(p)
            if v.status is VerdictStatus.MARGINAL:
                continue
            expected = (
                VerdictStatus.ERADICATION if fd.top_eigenvalue < 0 else VerdictStatus.SURVIVAL
            )
            assert v.status is expected, f"disagreement at {p}"
            checked += 1
        assert checked >= 40


def _bits(f, *args):
    """``f(*args)`` with every float as its exact bits, or the exception's type and message."""
    try:
        out = f(*args)
    except Exception as exc:  # noqa: BLE001 - the old and new code must fail alike
        return type(exc), str(exc)
    if isinstance(out, Verdict):
        return out.status, out.margin.hex(), out.deciding_rule
    if isinstance(out, tuple):
        return tuple(x.hex() for x in out)
    return out.hex()


def _straddles_quarter_wave(p: ScalarProblem) -> bool:
    """Whether ``lam / a`` is inside the band by rounding while the deciding tan's
    argument ``R_eff sqrt(lam / a)`` is across its pole ``pi/2`` from the band."""
    if p.lam <= 0:
        return False
    R_eff = p.R / 2 if p.bc is BoundaryCondition.PERIODIC else p.R
    s = p.lam / p.a
    q = (math.pi / (2 * R_eff)) ** 2
    past_pole = R_eff * math.sqrt(s) > math.pi / 2
    if p.bc is BoundaryCondition.DIRICHLET:
        return s > q and not past_pole
    return s < q and past_pole


def _search_args(p: ScalarProblem):
    return (p.a, p.lam, p.R, p.b, p.r, p.bc, p.K), (p.a, p.lam, p.R, p.b, p.mu, p.bc, p.K)


def assert_status_follows_the_root(p: ScalarProblem) -> float:
    """Where the dispersion root is clear of zero (|top| > 1e-6) the verdict takes its sign; returns the root."""
    top = top_eigenvalue_scalar(p).top_eigenvalue
    if abs(top) > 1e-6:
        assert scalar_verdict(p).status is (VerdictStatus.ERADICATION if top < 0 else VerdictStatus.SURVIVAL), p
    return top


class TestOneCriterionMatchesPerBoundaryVerdicts:
    """The band-driven criterion reproduces the per-boundary verdicts bit for bit,
    except where the reference reads the deciding tan past its pole, and on the
    band's edges, where the reference called every draw Marginal and the
    dispersion root now decides."""

    def assert_decided_by_the_root(self, p: ScalarProblem):
        top = assert_status_follows_the_root(p)
        mortality_args, width_args = _search_args(p)
        if p.bc is BoundaryCondition.DIRICHLET:
            # Half the critical width: the population dies out without control.
            assert top_eigenvalue_scalar(replace(p, mu=0.0)).top_eigenvalue < 0, p
            assert min_mortality(*mortality_args) == 0.0, p
            assert min_zone_width(*width_args) == 0.0, p
        else:
            # The critical width: no control can eradicate.
            assert top > 0, p
            with pytest.raises(UncontrollableError):
                min_mortality(*mortality_args)
            with pytest.raises(UncontrollableError):
                min_zone_width(*width_args)

    def assert_mortality_follows_the_root(self, p: ScalarProblem):
        # Zero mortality where the root is negative, a refusal where it is positive;
        # at the critical width itself the root is zero up to round-off, and either holds.
        top = top_eigenvalue_scalar(replace(p, mu=0.0)).top_eigenvalue
        mortality_args, _ = _search_args(p)
        if top < -1e-12 * (1.0 + abs(p.lam)):
            assert min_mortality(*mortality_args) == 0.0, p
        elif top > 1e-12 * (1.0 + abs(p.lam)):
            with pytest.raises(UncontrollableError):
                min_mortality(*mortality_args)

    def test_seeded_draws(self):
        rng = np.random.default_rng(1414)
        rules = set()
        straddling = no_zone = edges = critical_without_zone = 0
        for _ in range(3000):
            p = random_band_edge_problem(rng)
            if _straddles_quarter_wave(p):
                # The reference reads the tan on the wrong branch here (Neumann
                # draws past the pole, Dirichlet half-size draws short of it).
                self.assert_decided_by_the_root(p)
                straddling += 1
                continue
            new, old = _bits(scalar_verdict, p), _bits(legacy_scalar_verdict, p)
            if old[0] is VerdictStatus.MARGINAL and not old[2].endswith("tan-tanh"):
                # On a band edge the root decides.  Without a control zone the
                # critical width's root is a difference of equal terms, zero up to
                # their rounding: Marginal.
                assert new[2] == old[2], p
                assert_status_follows_the_root(p)
                edges += 1
                if p.bc is BoundaryCondition.DIRICHLET and p.r == 0.0 and old[2] == "dirichlet-critical-size":
                    assert new[0] is VerdictStatus.MARGINAL, p
                    critical_without_zone += 1
            else:
                assert new == old, p
            if isinstance(new[0], VerdictStatus):
                rules.add(new[2])
            assert _bits(control_inequality_sides, p) == _bits(legacy_inequality_sides, p), p
            mortality_args, width_args = _search_args(p)
            if p.bc is BoundaryCondition.DIRICHLET and p.r == 0.0:
                # No control zone: the reference refuses inside the band, where the
                # dispersion root says no mortality is needed.
                self.assert_mortality_follows_the_root(p)
                no_zone += 1
            else:
                assert _bits(min_mortality, *mortality_args) == _bits(legacy_min_mortality, *mortality_args), p
            assert _bits(min_zone_width, *width_args) == _bits(legacy_min_zone_width, *width_args), p
        assert 0 < straddling <= 50  # 26 with glibc's libm
        assert no_zone > 0
        assert edges > 300 and critical_without_zone > 0  # 420 and 16
        assert rules >= {
            "negative-growth",
            "dirichlet-half-size",
            *(f"{bc.value}-{rule}" for bc in BCS for rule in ("critical-size", "tan-tanh")),
        }

    def test_half_wave_threshold_bits(self):
        # ``x ** 2`` is not always correctly rounded (here on about 1 R in 4,000), so
        # the half-wave threshold is not 4 times the quarter-wave one in every bit.
        rng = np.random.default_rng(1415)
        for R in np.exp(rng.uniform(-3.0, 4.0, 20000)):
            p = ScalarProblem(a=1.0, lam=1.5 * (math.pi / R) ** 2, b=1.0, mu=1.0, R=R, r=0.0,
                              bc=BoundaryCondition.DIRICHLET)
            assert _bits(scalar_verdict, p) == _bits(legacy_scalar_verdict, p), p
            assert top_eigenvalue_scalar(p).top_eigenvalue == p.lam - p.a * (math.pi / p.R) ** 2, p


class TestQuarterWaveEdge:
    """``lam`` at ``a (pi / (2 R_eff))**2`` and its two float neighbours: the side
    of the edge is the tan's, so no verdict contradicts the dispersion root."""

    @pytest.mark.parametrize("bc", BCS)
    def test_no_flipped_verdict(self, bc):
        rng = np.random.default_rng(3 + BCS.index(bc))
        for _ in range(400):
            a = math.exp(rng.uniform(-2.0, 4.0))
            R = math.exp(rng.uniform(-2.0, 3.0))
            R_eff = R / 2 if bc is BoundaryCondition.PERIODIC else R
            edge = a * (math.pi / (2 * R_eff)) ** 2
            for lam in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                p = ScalarProblem(a=a, lam=lam, b=1.0, mu=1.0, R=R, r=0.5, bc=bc)
                assert_status_follows_the_root(p)
                mortality_args, width_args = _search_args(p)
                for search, args in ((min_mortality, mortality_args), (min_zone_width, width_args)):
                    try:
                        assert search(*args) >= 0.0, p
                    except (UncontrollableError, InsufficientMortalityError):
                        pass
