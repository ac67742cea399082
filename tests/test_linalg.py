import importlib
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import patchcontrol
from patchcontrol import (
    AssumptionViolatedError,
    BoundaryCondition,
    GridSpec,
    ScalarProblem,
    UncontrollableError,
    min_control_decay_rate,
    min_mortality,
    oracle,
    scalar,
    staged,
)
from patchcontrol.linalg import (
    ComplexOrRepeatedEigenvaluesError,
    NoRealEigenvalueError,
    NotSymmetricError,
    brentq,
    eigen_2x2,
    expanding_root,
    max_real_eigenvalue,
    symmetric_eigen,
)
from patchcontrol.oracle import NoConvergenceError, min_mortality_fd, min_zone_width_fd
from patchcontrol.presets import get_preset

from sweeps import (
    LEGACY_SEARCHES,
    InvalidBracketError,
    NoRootError,
    bracketed_root,
    imported_names,
    loguniform,
    random_scalar_problem,
)

# Rounded per-diffusion stage matrix of the two-stage taiga model.
TAIGA_N = np.array([[-0.91, 2.24], [0.01, -0.02]])


def residual(N, value, vector) -> float:
    """Euclidean eigen-residual |N v - lambda v|."""
    N = np.asarray(N, dtype=float)
    return float(np.linalg.norm(N @ vector - value * vector))


def eigen_basis(N):
    """Checked eigenvalues and pinned eigenvector columns of one 2x2 matrix."""
    e = eigen_2x2(N)
    e.check()
    return e.values, e.vectors


def charpoly_eigenvalues(N):
    """Independent eigenvalue oracle: roots of the characteristic polynomial."""
    return np.roots(np.poly(np.asarray(N, dtype=float)))


class TestMaxRealEigenvalue:
    def test_two_stage_taiga_lead(self):
        lam1 = max_real_eigenvalue(TAIGA_N)
        assert np.sqrt(lam1) == pytest.approx(0.067, abs=1e-3)
        roots = charpoly_eigenvalues(TAIGA_N)
        assert lam1 == pytest.approx(max(roots.real), rel=1e-12)

    def test_diagonal(self):
        assert max_real_eigenvalue(np.diag([-1.0, -2.0])) == -1.0

    def test_closed_form_2x2_cycle(self):
        # m1 = m2 = 1, b1 = b2 = 2: eigenvalues -1 +- 2
        M = np.array([[-1.0, 2.0], [2.0, -1.0]])
        assert max_real_eigenvalue(M) == pytest.approx(1.0, abs=1e-12)

    def test_no_real_eigenvalue(self):
        with pytest.raises(NoRealEigenvalueError):
            max_real_eigenvalue(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_perron_for_nonnegative_offdiagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            M = rng.uniform(0, 2, size=(n, n))
            M[np.diag_indices(n)] = rng.uniform(-3, 1, size=n)
            lam1 = max_real_eigenvalue(M)
            roots = charpoly_eigenvalues(M)
            assert lam1 == pytest.approx(max(roots.real), rel=1e-9, abs=1e-9)


class TestSymmetricEigen:
    def test_taiga_symmetrization(self):
        S = (TAIGA_N + TAIGA_N.T) / 2
        vals, vecs = symmetric_eigen(S)
        assert np.sqrt(vals[0]) == pytest.approx(0.863, abs=3e-3)
        roots = np.sort(charpoly_eigenvalues(S).real)[::-1]
        np.testing.assert_allclose(vals, roots, rtol=1e-12)
        for j in range(2):
            assert residual(S, vals[j], vecs[:, j]) <= 1e-10 * (1 + np.abs(S).max())

    def test_identity(self):
        vals, _ = symmetric_eigen(np.eye(2))
        np.testing.assert_allclose(vals, [1.0, 1.0])

    def test_reconstruction_random_4x4(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            S = (A + A.T) / 2
            vals, V = symmetric_eigen(S)
            np.testing.assert_allclose(V @ np.diag(vals) @ V.T, S, atol=1e-9)
            np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-10)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n))
            S = (A + A.T) / 2
            vals, _ = symmetric_eigen(S)
            assert vals.sum() == pytest.approx(np.trace(S), rel=1e-10, abs=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigenBasis2x2:
    def test_closed_form_cycle(self):
        # [[-2, 1], [1, -1]] has eigenvalues (-3 +- sqrt5)/2 and v1[1] = L1 + 2.
        N = np.array([[-2.0, 1.0], [1.0, -1.0]])
        vals, V = eigen_basis(N)
        lam1 = (-3 + np.sqrt(5)) / 2
        lam2 = (-3 - np.sqrt(5)) / 2
        assert vals[0] == pytest.approx(lam1, rel=1e-14)
        assert vals[1] == pytest.approx(lam2, rel=1e-14)
        assert V[0, 0] == 1.0
        assert V[1, 1] == 1.0
        assert V[1, 0] == pytest.approx(lam1 + 2.0, rel=1e-12)
        assert V[0, 1] == pytest.approx(1.0 / (lam2 + 2.0), rel=1e-12)

    def test_diagonal(self):
        _, V = eigen_basis(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(V[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(V[:, 1], [0.0, 1.0])

    def test_residual_against_lead_eigenvalue(self):
        N = TAIGA_N
        vals, V = eigen_basis(N)
        assert vals[0] == pytest.approx(max_real_eigenvalue(N), rel=1e-12)
        assert residual(N, vals[0], V[:, 0]) <= 1e-10 * (1 + np.abs(N).max())
        assert residual(N, vals[1], V[:, 1]) <= 1e-10 * (1 + np.abs(N).max())

    def test_random_residuals(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 50:
            N = rng.normal(size=(2, 2))
            try:
                vals, V = eigen_basis(N)
            except ComplexOrRepeatedEigenvaluesError:
                continue
            scale = 1e-10 * (1 + np.abs(N).max())
            for j in range(2):
                assert residual(N, vals[j], V[:, j]) <= scale * max(1.0, np.abs(V[:, j]).max())
            done += 1

    def test_complex_pair_rejected(self):
        with pytest.raises(ComplexOrRepeatedEigenvaluesError):
            eigen_basis(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestBracketedRoot:
    """The reference root finder of the test suite (``tests/sweeps.py``)."""

    def test_sqrt_two(self):
        root = bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-12)
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_no_root(self):
        with pytest.raises(NoRootError):
            bracketed_root(lambda x: 1.0 + x * x, 0.0, 2.0)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracketError):
            bracketed_root(lambda x: x, 2.0, 1.0)

    def test_sign_change_straddles_root(self):
        f = lambda x: np.tanh(x - 0.7) + 0.1 * (x - 0.7)
        root = bracketed_root(f, -3.0, 4.0, tol=1e-13)
        assert f(root - 1e-10) < 0 < f(root + 1e-10)


class TestExpandingRoot:
    def test_root_below_one_brackets_from_zero(self):
        probes = []

        def f(x):
            probes.append(x)
            return x - 0.3

        assert expanding_root(f, 1e3, ValueError("cap"), xtol=1e-15, rtol=1e-15) == pytest.approx(0.3, rel=1e-14)
        assert probes[:2] == [0.0, 1.0]  # the zero test, then brentq on [0, 1] reusing both ends
        assert len(probes) == len(set(probes))

    def test_root_above_one_brackets_the_last_doubling(self):
        probes = []

        def f(x):
            probes.append(x)
            return x - 5.5

        assert expanding_root(f, 1e3, ValueError("cap"), xtol=1e-15, rtol=1e-15) == pytest.approx(5.5, rel=1e-14)
        assert probes[:5] == [0.0, 1.0, 2.0, 4.0, 8.0]
        assert len(probes) == len(set(probes))

    @pytest.mark.parametrize("at_zero", [0.0, 0.25])
    def test_nonnegative_at_zero_returns_zero_after_one_probe(self, at_zero):
        probes = []

        def f(x):
            probes.append(x)
            return at_zero + x

        assert expanding_root(f, 1e3, ValueError("cap"), xtol=1e-15, rtol=1e-15) == 0.0
        assert probes == [0.0]

    def test_raises_the_given_failure_past_the_cap(self):
        probes = []

        def f(x):
            probes.append(x)
            return -1.0

        failure = LookupError("no root below the cap")
        with pytest.raises(LookupError) as err:
            expanding_root(f, 100.0, failure, xtol=1e-9, rtol=1e-9)
        assert err.value is failure
        assert probes == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]

    # Each caller keeps its own error type once the doubling passes its cap.

    def test_min_mortality_cap_is_uncontrollable(self):
        # A hair below the periodic critical size and a 1e-9 control zone: the
        # lhs ~ mu * r/2 stays below the rhs ~ 4e6 for every mu up to 1e12.
        lam = np.pi**2 * (1 - 1e-6)
        with pytest.raises(UncontrollableError, match="below 1e"):
            min_mortality(1.0, lam, 1.0, 1.0, 1e-9)

    def test_min_zone_width_fd_cap_is_no_convergence(self):
        # sqrt(mu b) = 0.1 below the Neumann rhs 0.2145: no width eradicates.
        layout = ScalarProblem(a=1, lam=0.2, b=1, mu=0.01, R=1, r=1, bc=BoundaryCondition.NEUMANN).to_layout()
        coarse = GridSpec(cells_per_unit_length=1, refinement_levels=2)
        with pytest.raises(NoConvergenceError, match="below 1000"):
            min_zone_width_fd(layout, coarse)

    def test_min_control_decay_rate_cap_is_assumption_violated(self):
        with pytest.raises(AssumptionViolatedError, match="no finite control rate"):
            min_control_decay_rate(1.0, R=1.0, r=1e-20)

    def test_min_control_decay_rate_refuses_negative_R(self):
        # The rhs would be negative, so the zero test would answer 0.0.
        with pytest.raises(AssumptionViolatedError, match="R >= 0"):
            min_control_decay_rate(1.0, R=-1.0, r=1.0)


class TestSeededExpandingRoot:
    """A guess at the root moves the first bracket to ``[0.95, 1.05]`` times the guess."""

    @staticmethod
    def search(root, start, cap=1e3):
        probes = []

        def f(x):
            probes.append(x)
            return x - root

        found = expanding_root(f, cap, ValueError("cap"), xtol=1e-15, rtol=1e-15, start=start)
        assert found == pytest.approx(root, rel=1e-14)
        assert len(probes) == len(set(probes))
        return probes

    def test_exact_guess_brackets_it(self):
        assert self.search(5.5, 5.5)[:2] == [0.95 * 5.5, 1.05 * 5.5]

    def test_high_guess_halves_lo(self):
        assert self.search(5.5, 55.0)[:5] == [52.25, 26.125, 13.0625, 6.53125, 3.265625]

    def test_low_guess_doubles_hi(self):
        hi = 1.05 * 0.55
        assert self.search(5.5, 0.55)[:5] == [0.95 * 0.55, hi, 2 * hi, 4 * hi, 8 * hi]

    def test_zero_guess_is_the_unseeded_search(self):
        assert self.search(5.5, 0.0) == self.search(5.5, None)

    def test_root_at_zero_ends_with_the_zero_test(self):
        probes = []

        def f(x):
            probes.append(x)
            return 0.25 + x

        assert expanding_root(f, 1e3, ValueError("cap"), xtol=1e-15, rtol=1e-15, start=2.0) == 0.0
        # lo halves from 1.9 while at least 1e-12 * start, then drops to 0.
        assert probes[-1] == 0.0 and 1e-12 * 2.0 <= probes[-2] < 2e-12 * 2.0
        assert len(probes) == 41  # 1.9 / 2**k for k = 0..39, then 0

    def test_raises_the_given_failure_past_the_cap(self):
        failure = LookupError("no root below the cap")
        with pytest.raises(LookupError) as err:
            expanding_root(lambda x: -1.0, 100.0, failure, xtol=1e-9, rtol=1e-9, start=3.0)
        assert err.value is failure

    def test_min_zone_width_fd_cap_is_no_convergence(self):
        layout = ScalarProblem(a=1, lam=0.2, b=1, mu=0.01, R=1, r=1, bc=BoundaryCondition.NEUMANN).to_layout()
        coarse = GridSpec(cells_per_unit_length=1, refinement_levels=2)
        with pytest.raises(NoConvergenceError, match="below 1000"):
            min_zone_width_fd(layout, coarse, guess=0.5)

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), -1.0])
    def test_refuses_a_seed_that_is_not_finite_and_nonnegative(self, start):
        f = lambda x: x - 1.0  # noqa: E731
        with pytest.raises(ValueError, match="start must be finite and nonnegative"):
            expanding_root(f, 1e3, LookupError("cap"), xtol=1e-9, rtol=1e-9, start=start)

    def test_oracle_mortality_search_agrees_with_the_unseeded_search(self, monkeypatch):
        # Criterion-6 draws: every guess lands on the unseeded root within the
        # search's rtol, and the exact guess costs at most 6 FD solves.
        grid = GridSpec(cells_per_unit_length=32, refinement_levels=2)
        calls = []
        top_eigenvalue_fd = oracle.top_eigenvalue_fd

        def counting(lay, g):
            calls.append(lay)
            return top_eigenvalue_fd(lay, g)

        monkeypatch.setattr(oracle, "top_eigenvalue_fd", counting)
        rng = np.random.default_rng(1818)
        searched = 0
        for _ in range(25):
            p = random_scalar_problem(rng)
            layout = p.to_layout()
            unseeded = outcome(lambda: min_mortality_fd(layout, grid))
            if not isinstance(unseeded, float):
                continue
            for guess in (unseeded, 10 * unseeded, unseeded / 10, 0.0):
                calls.clear()
                assert min_mortality_fd(layout, grid, guess=guess) == pytest.approx(unseeded, rel=1e-5), (p, guess)
                if guess == unseeded:
                    assert len(calls) <= 6
            searched += unseeded > 0
        assert searched >= 10


def outcome(call):
    """``call()``, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def old_and_new(monkeypatch, module, call):
    """Outcomes of ``call`` under the old search of ``module`` and the current one."""
    new = outcome(call)
    with monkeypatch.context() as m:
        m.setattr(module, "expanding_root", LEGACY_SEARCHES[module.__name__])
        return outcome(call), new


class TestExpandingRootMatchesTheOldSearch:
    """Memoizing the search and folding in the zero tests leaves every result bit-identical."""

    def test_min_mortality_criterion_6_draws(self, monkeypatch):
        rng = np.random.default_rng(1313)
        searched = 0
        for _ in range(50):
            p = random_scalar_problem(rng)
            old, new = old_and_new(
                monkeypatch, scalar, lambda: scalar.min_mortality(p.a, p.lam, p.R, p.b, p.r, p.bc, p.K)
            )
            assert old == new, p
            searched += isinstance(new, float) and new > 0
        assert searched >= 10

    def test_min_control_decay_rate_draws(self, monkeypatch):
        rng = np.random.default_rng(1314)
        for _ in range(20):
            lead = loguniform(rng, 0.01, 2.0)
            R = rng.uniform(0.05, 0.95) * np.pi / np.sqrt(lead)
            r, a = loguniform(rng, 0.01, 5.0), loguniform(rng, 0.1, 10.0)
            old, new = old_and_new(monkeypatch, staged, lambda: staged.min_control_decay_rate(lead, R, r, a))
            assert old == new
            assert new > 0

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"bc": BoundaryCondition.DIRICHLET, "R": 6.0}, {"bc": BoundaryCondition.NEUMANN, "R": 5.0, "r": 2.0}],
        ids=["preset", "dirichlet-small", "neumann"],
    )
    @pytest.mark.parametrize("search", [min_mortality_fd, min_zone_width_fd])
    def test_oracle_searches_on_lone_star(self, monkeypatch, overrides, search):
        layout = replace(get_preset("lone-star"), **overrides)
        if search is min_zone_width_fd:  # at the preset's mortality 10 no width eradicates
            layout = replace(layout, control=replace(layout.control, growth=-100.0))
        grid = GridSpec(refinement_levels=2)
        points = []
        top_eigenvalue_fd = oracle.top_eigenvalue_fd

        def recording(lay, g):
            points.append((lay.control.growth, lay.r))
            return top_eigenvalue_fd(lay, g)

        monkeypatch.setattr(oracle, "top_eigenvalue_fd", recording)
        new = search(layout, grid)
        assert len(points) == len(set(points))  # one FD solve per searched x
        monkeypatch.setattr(oracle, "expanding_root", LEGACY_SEARCHES["patchcontrol.oracle"])
        assert search(layout, grid) == new


# ---------------------------------------------------------------------------
# Brent's method: SciPy's iterates without importing scipy.optimize
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
PACKAGE_TOLERANCES = [(1e-9, 1e-5), (1e-13, 8 * EPS)]  # expanding_root's callers; the dispersion root


def brent_run(solver, f, lo, hi, xtol, rtol):
    """``solver``'s root bits (or what it raised) and the points at which it evaluated ``f``."""
    points = []

    def counted(x):
        points.append(x)
        return f(x)

    return outcome(lambda: solver(counted, lo, hi, xtol=xtol, rtol=rtol).hex()), [float(x).hex() for x in points]


def dispersion_residual(x, a, lam, R, b, mu, r):
    """The scalar dispersion residual for reflecting ends in ``x = (lam - E)/a``, as the package
    wrote it when ``brentq`` was checked against SciPy: a fixed function keeps the probes fixed."""
    k = math.sqrt(x)
    q = lam + mu - a * x
    g = math.sqrt(abs(q) / b)
    return a * k * math.tan(R * k) - b * g * (math.tanh(r * g) if q > 0 else -math.tan(r * g))


def seeded_brent_problem(rng, family):
    """``(f, lo, hi)``: smooth monotone, a tan/tanh dispersion residual, a step, or a
    residual so small that C's secant slopes underflow and divide by zero."""
    if family == "power":
        c, p = loguniform(rng, 0.1, 10.0), loguniform(rng, 0.3, 5.0)
        return (lambda x: x**p - c), 0.0, max(c, 1.0) + 1.0
    if family == "atan":
        s = rng.uniform(-3.0, 3.0)
        return (lambda x: math.atan(x - s) + 0.1 * (x - s) ** 3), -4.0, 5.0
    if family == "exp":
        s, k = rng.uniform(0.1, 0.9), loguniform(rng, 1.0, 50.0)
        return (lambda x: math.expm1(k * (x - s))), 0.0, 1.0
    if family == "dispersion":
        a, lam, b, mu = (loguniform(rng, 0.1, 10.0) for _ in range(4))
        R, r = loguniform(rng, 0.1, 5.0), loguniform(rng, 0.01, 5.0)
        pole = (math.pi / (2 * R)) ** 2
        f = partial(dispersion_residual, a=a, lam=lam, R=R, b=b, mu=mu, r=r)
        return f, 0.0, pole * (1 - 1e-12)
    if family == "step":
        t = rng.uniform(0.05, 0.95)
        return (lambda x: -1.0 if x < t else 1.0), 0.0, 1.0
    s, scale = rng.uniform(0.1, 0.9), 10.0 ** rng.uniform(-200.0, -150.0)  # "tiny"
    return (lambda x: scale * ((x - s) ** 3 + 0.01 * (x - s))), 0.0, 1.0


class TestBrentqMatchesScipy:
    """``linalg.brentq`` copies SciPy's ``brentq``: the same points, root bits and errors."""

    # Besides the package's tolerances, two coarse pairs under which the step test's
    # ``3 |sbis| - delta`` bound decides a few draws.
    @pytest.mark.parametrize("xtol, rtol", [*PACKAGE_TOLERANCES, (1e-2, 4 * EPS), (1e-3, 1e-3)])
    @pytest.mark.parametrize("family", ["power", "atan", "exp", "dispersion", "step", "tiny"])
    def test_seeded_draws(self, family, xtol, rtol):
        rng = np.random.default_rng(1900)
        roots = 0
        for _ in range(300):
            f, lo, hi = seeded_brent_problem(rng, family)
            want = brent_run(scipy_brentq, f, lo, hi, xtol, rtol)
            got = brent_run(brentq, f, lo, hi, xtol, rtol)
            assert got == want, (family, lo, hi)  # equal points, so equal calls to f
            roots += isinstance(got[0], str)
        assert roots >= 150

    @pytest.mark.parametrize("lo, hi", [(0.25, 1.0), (0.0, 0.25)])
    def test_zero_at_an_end_returns_it_after_two_calls(self, lo, hi):
        f = lambda x: x - 0.25  # noqa: E731
        want = brent_run(scipy_brentq, f, lo, hi, 1e-9, 1e-5)
        assert brent_run(brentq, f, lo, hi, 1e-9, 1e-5) == want
        assert want == ((0.25).hex(), [float(lo).hex(), float(hi).hex()])

    def test_ends_of_the_same_sign_raise(self):
        f = lambda x: x + 1.0  # noqa: E731
        with pytest.raises(ValueError, match="must have different signs"):
            brentq(f, 0.0, 1.0, 1e-9, 1e-5)
        assert brent_run(brentq, f, 0.0, 1.0, 1e-9, 1e-5) == brent_run(scipy_brentq, f, 0.0, 1.0, 1e-9, 1e-5)

    @pytest.mark.parametrize("nan_from", [1.0, 0.6])
    def test_nan_raises_scipys_value_error(self, nan_from):
        f = lambda x: math.nan if x >= nan_from else x - 0.7  # noqa: E731
        with pytest.raises(ValueError, match="is NaN; solver cannot continue"):
            brentq(f, 0.0, 1.0, 1e-9, 1e-5)
        assert brent_run(brentq, f, 0.0, 1.0, 1e-9, 1e-5) == brent_run(scipy_brentq, f, 0.0, 1.0, 1e-9, 1e-5)

    def test_runs_out_after_100_iterations(self):
        f = lambda x: -1.0 if x < 1e-300 else 1.0  # noqa: E731
        want = brent_run(scipy_brentq, f, 0.0, 1.0, 5e-324, 4 * EPS)
        got = brent_run(brentq, f, 0.0, 1.0, 5e-324, 4 * EPS)
        assert got == want
        assert got[0] == (RuntimeError, "Failed to converge after 100 iterations.")
        assert len(got[1]) == 2 + 100


class TestImportsWithoutScipyOptimize:
    """Importing ``scipy.optimize`` costs each process 0.2-0.3 s and 17 MB, and the package needs none of it."""

    def test_no_module_imports_it(self):
        modules = [patchcontrol] + [
            importlib.import_module(f"patchcontrol.{info.name}") for info in pkgutil.iter_modules(patchcontrol.__path__)
        ]
        assert {"patchcontrol.linalg", "patchcontrol.scalar", "patchcontrol.cli"} <= {m.__name__ for m in modules}
        for module in modules:
            assert not [name for name in imported_names(module) if "optimize" in name.split(".")], module.__name__

    def test_a_fresh_process_never_loads_it(self):
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            import patchcontrol
            from patchcontrol import cli
            for argv in (
                ["critical-size", "--preset", "lone-star"],
                ["spectrum", "--preset", "lone-star", "--method", "both"],
                ["min-mortality", "--preset", "lone-star", "--grid-levels", "2"],
                ["min-zone", "--preset", "lone-star", "--mu", "100", "--grid-levels", "2"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
            print(sorted(name for name in sys.modules if name.startswith("scipy.optimize")))
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(patchcontrol.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
