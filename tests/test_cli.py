import json
import math

import pytest

from patchcontrol import VerdictStatus, oracle
from patchcontrol.cli import (
    EXIT_DISAGREEMENT,
    EXIT_INSTABILITY,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_TRANSIENT,
    EXIT_UNCONTROLLABLE,
    EXIT_VALIDATION,
    _verdicts_agree,
    build_parser,
    main,
)
from patchcontrol.model import Verdict
from patchcontrol.oracle import GridSpec, NoConvergenceError
from patchcontrol.presets import preset_scenario
from patchcontrol.simulate import InstabilityError, TransientNotResolvedError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed(out: str) -> dict:
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            values[key.strip()] = val.strip()
    return values


class TestCriticalSize:
    def test_lone_star(self, capsys):
        code, out, _ = run_cli(capsys, "critical-size", "--preset", "lone-star")
        assert code == EXIT_OK
        assert float(parsed(out)["R_c"]) == pytest.approx(15.91, abs=0.01)

    def test_taiga_one_stage(self, capsys):
        code, out, _ = run_cli(capsys, "critical-size", "--preset", "taiga-one-stage")
        assert code == EXIT_OK
        assert float(parsed(out)["R_c"]) == pytest.approx(15.71, abs=0.01)

    def test_taiga_two_stage(self, capsys):
        code, out, _ = run_cli(capsys, "critical-size", "--preset", "taiga-two-stage")
        assert code == EXIT_OK
        values = parsed(out)
        assert float(values["R_c"]) == pytest.approx(46.9, abs=0.2)
        assert float(values["R_c_sym"]) == pytest.approx(3.64, abs=0.02)

    def test_staged_error_after_the_first_size_prints_nothing(self, capsys, monkeypatch):
        def fails(prob):
            raise ValueError("symmetrized size failed")

        monkeypatch.setattr("patchcontrol.cli.symmetrized_critical_patch", fails)
        code, out, err = run_cli(capsys, "critical-size", "--preset", "taiga-two-stage")
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: symmetrized size failed\n")

    def test_growing_control_zone(self, capsys):
        # The size reads the beneficial zone alone: a growing control zone (mu < 0) is no refusal.
        assert run_cli(capsys, "critical-size", "--preset", "lone-star", "--mu", "-5") == (EXIT_OK, "R_c = 15.91\n", "")

    def test_negative_growth_exits_2(self, capsys, tmp_path):
        doc = {
            "model": "scalar",
            "beneficial": {"diffusion": 1.0, "growth": -0.5},
            "control": {"diffusion": 1.0, "growth": -1.0},
            "R": 2.0, "r": 1.0, "K": 1, "bc": "periodic",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "critical-size", "--scenario", str(path))
        assert code == EXIT_VALIDATION
        assert "error" in err


class TestVerdict:
    def test_complex_control_eigenvalues_fall_back_to_symmetrization(self, capsys, tmp_path):
        doc = {
            "model": "staged",
            "beneficial": {"A_diag": [1, 1], "M": [[-0.91, 2.24], [0.01, -0.02]]},
            "control": {"A_diag": [1, 1], "M": [[-1, 1], [-1, -1]]},
            "R": 4, "r": 1,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verdict", "--scenario", str(path), "--method", "closed")
        assert (code, err) == (EXIT_OK, "")
        assert parsed(out)["closed_rule"].startswith("symmetrized: ")

    @pytest.mark.parametrize(
        "doc", [[1, 2], {"model": "scalar", "R": 1, "r": 1}, {"model": "scalar", "beneficial": [1], "R": 1, "r": 1}]
    )
    @pytest.mark.parametrize("flags", [(), ("--a", "2")])
    def test_malformed_scenario_with_or_without_overrides_exits_2(self, capsys, tmp_path, doc, flags):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verdict", "--scenario", str(path), "--method", "closed", *flags)
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("key", ["R", "K"])
    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path, key):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**preset_scenario("lone-star"), key: 10**400}))
        code, _, err = run_cli(capsys, "verdict", "--scenario", str(path), "--method", "closed")
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, value",
        [
            (("verdict", "--R", "1e-300"), "--R 1e-300"),
            (("min-mortality", "--R", "1e-300"), "--R 1e-300"),
            (("min-zone", "--R", "1e-300"), "--R 1e-300"),
            (("spectrum", "--method", "root", "--R", "1e-300"), "--R 1e-300"),
            (("verdict", "--r", "1e308"), "--r 1e+308"),
        ],
    )
    def test_width_out_of_float_range_exits_2(self, capsys, argv, value):
        # The quarter-wave threshold of a tiny R, or r times the cells per unit length, leaves the float range.
        code, _, err = run_cli(capsys, *argv, "--preset", "lone-star")
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: out of floating-point range with {value}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("width", ["1e300", "1e15"])
    def test_grid_too_large_exits_2(self, capsys, width):
        # Refused before any array is built: at 1e15 the per-node arrays would need petabytes.
        code, out, err = run_cli(capsys, "verdict", "--method", "oracle", "--r", width, "--preset", "lone-star")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: GridTooLarge: level 0 would have more than 4194304 unknowns\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verdict", "--preset", "lone-star", "--r", "1e308"), "out of floating-point range with --r "),
            (("spectrum", "--preset", "lone-star", "--r", "1e300"), "GridTooLarge: "),
            (("verdict", "--preset", "taiga-two-stage", "--r", "1e300"), "GridTooLarge: "),
        ],
        ids=["verdict-scalar", "spectrum", "verdict-staged"],
    )
    def test_error_after_the_closed_form_prints_nothing(self, capsys, argv, message):
        # The closed form succeeds and the oracle grid then fails: no partial verdict on stdout.
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_band_edge_decided_by_the_dispersion_root(self, capsys):
        # R at half the critical width pi sqrt(a / lam) under absorbing ends: the edge of
        # the controllable band, where the population dies out (oracle top about -1.48).
        code, out, err = run_cli(capsys, "verdict", "--preset", "lone-star", "--bc", "dirichlet",
                                 "--R", "7.954831752950762")
        assert (code, err) == (EXIT_OK, "")
        values = parsed(out)
        assert values["closed_status"] == "Eradication"
        assert values["closed_rule"] == "dirichlet-half-size"
        assert float(values["closed_margin"]) > 1.0
        assert (values["oracle_status"], values["agreement"]) == ("Eradication", "yes")

    def test_taiga_at_the_verdict_boundary_exits_0(self, capsys):
        # The FD top eigenvalue is -6.1e-7 here: the Perron bracket closes to a round-off width.
        code, out, err = run_cli(
            capsys, "verdict", "--preset", "taiga-two-stage", "--r", "0.7340402649927732",
            "--grid-levels", "2",
        )
        assert (code, err) == (EXIT_OK, "")
        assert parsed(out)["oracle_status"] == "Eradication"

    def test_lone_star_mu10_both_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "verdict", "--preset", "lone-star", "--mu", "10",
            "--grid-levels", "2",
        )
        assert code == EXIT_OK
        values = parsed(out)
        assert values["closed_status"] == "Survival"
        assert values["oracle_status"] == "Survival"
        assert values["agreement"] == "yes"

    def test_clause_i_survival_closed_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "verdict", "--preset", "lone-star", "--R", "20", "--mu", "1e6",
            "--method", "closed",
        )
        assert code == EXIT_OK
        assert parsed(out)["closed_status"] == "Survival"

    def test_staged_preset_certified_eradication(self, capsys):
        code, out, _ = run_cli(
            capsys, "verdict", "--preset", "taiga-two-stage", "--grid-levels", "2",
        )
        assert code == EXIT_OK
        values = parsed(out)
        assert values["closed_status"] == "Eradication"
        assert values["oracle_status"] == "Eradication"
        assert values["agreement"] == "yes"

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_staged_preset_with_closed_ends_agrees(self, capsys, bc):
        # Reflecting ends are read on the mirrored ring (80, 2), beyond its critical
        # size; the preset's stages are cooperative, so absorbing ends are read the same way.
        code, out, _ = run_cli(
            capsys, "verdict", "--preset", "taiga-two-stage", "--bc", bc, "--grid-levels", "2",
        )
        assert code == EXIT_OK
        values = parsed(out)
        assert values["closed_status"] == "Inconclusive"
        assert values["closed_rule"].startswith("two-stage: ")
        assert values["agreement"] == "yes"

    def test_wide_strong_control_zone_does_not_overflow(self, capsys, tmp_path):
        doc = {
            "model": "staged",
            "beneficial": {"A_diag": [1, 1, 1], "M": [[-0.5, 0, 1], [0.6, -0.5, 0], [0, 0.6, -0.5]]},
            "control": {"A_diag": [1, 1, 1], "M": [[-400, 0, 0], [0, -400, 0], [0, 0, -400]]},
            "R": 1, "r": 40, "bc": "periodic",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        margins = []
        for r in ("40", "30"):
            code, out, err = run_cli(capsys, "verdict", "--scenario", str(path), "--method", "closed", "--r", r)
            assert (code, err) == (EXIT_OK, "")
            values = parsed(out)
            assert values["closed_status"] == "Eradication"
            margins.append(values["closed_margin"])
        assert margins[0] == margins[1]

    def test_missing_scenario_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verdict")
        assert code == EXIT_VALIDATION

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        fake = Verdict(status=VerdictStatus.ERADICATION, margin=1.0, deciding_rule="fake")
        monkeypatch.setattr("patchcontrol.cli.verdict_fd", lambda layout, grid: fake)
        code, out, _ = run_cli(
            capsys, "verdict", "--preset", "lone-star", "--mu", "10",
        )
        assert code == EXIT_DISAGREEMENT
        assert parsed(out)["agreement"] == "NO"

    def test_verdicts_agree_logic(self):
        class Layout:
            is_scalar = True

        survival = Verdict(VerdictStatus.SURVIVAL, -1.0, "x")
        eradication = Verdict(VerdictStatus.ERADICATION, 1.0, "x")
        marginal = Verdict(VerdictStatus.MARGINAL, 0.0, "x")
        assert _verdicts_agree(Layout(), VerdictStatus.SURVIVAL, survival)
        assert not _verdicts_agree(Layout(), VerdictStatus.SURVIVAL, eradication)
        assert _verdicts_agree(Layout(), VerdictStatus.ERADICATION, marginal)

    @pytest.mark.parametrize("r, bc, status, value", [
        ("40", "neumann", "Survival", "0.003034"),
        ("80", "periodic", "Eradication", "-0.001042"),
        ("80", "dirichlet", "Eradication", "-0.001345"),
    ])
    def test_wide_control_zone_oracle_verdict(self, capsys, r, bc, status, value):
        # Far into a wide control zone the Perron vector is tiny and the iterate lags it there: the
        # bracket's shift must follow its upper end, and its lower end leave the lagging entries out.
        code, out, err = run_cli(capsys, "verdict", "--preset", "taiga-two-stage", "--r", r, "--bc", bc,
                                 "--method", "oracle")
        assert (code, err) == (EXIT_OK, "")
        fields = parsed(out)
        assert (fields["oracle_status"], fields["oracle_top_eigenvalue"]) == (status, value)


class TestMinMortality:
    def test_lone_star_dual_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "min-mortality", "--preset", "lone-star", "--grid-cells", "96",
            "--grid-levels", "2",
        )
        assert code == EXIT_OK
        values = parsed(out)
        closed = float(values["mu_star_closed"])
        oracle = float(values["mu_star_oracle"])
        assert abs(closed - oracle) / max(closed, oracle) <= 0.05
        assert "note" in values  # documented literature discrepancy

    @pytest.mark.parametrize("overrides", [("--R", "5", "--bc", "neumann"), ("--mu", "10")])
    def test_lone_star_note_only_without_overrides(self, capsys, overrides):
        code, out, _ = run_cli(
            capsys, "min-mortality", "--preset", "lone-star", "--grid-levels", "2", *overrides
        )
        assert code == EXIT_OK
        values = parsed(out)
        assert "mu_star_closed" in values
        assert "note" not in values  # the published estimate is for the preset as given

    def test_beyond_critical_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "min-mortality", "--preset", "lone-star", "--R", "16")
        assert code == EXIT_UNCONTROLLABLE
        assert "uncontrollable" in err

    def test_staged_scenario_refused(self, capsys):
        code, out, err = run_cli(capsys, "min-mortality", "--preset", "taiga-two-stage")
        assert (code, out, err) == (EXIT_VALIDATION, "", "min-mortality supports scalar scenarios only\n")

    def test_oracle_failure_after_the_closed_form_prints_nothing(self, capsys, monkeypatch):
        def no_convergence(layout, grid, guess):
            raise NoConvergenceError("no sign change")

        monkeypatch.setattr("patchcontrol.cli.min_mortality_fd", no_convergence)
        code, out, err = run_cli(capsys, "min-mortality", "--preset", "lone-star")
        assert (code, out, err) == (EXIT_NO_CONVERGENCE, "", "oracle did not converge: no sign change\n")


class TestInverseSearchSeeded:
    def test_lone_star_item_fd_solves(self, capsys, monkeypatch):
        # The oracle searches start at the closed answers: 20 FD solves unseeded.
        calls = []
        top_eigenvalue_fd = oracle.top_eigenvalue_fd

        def counting(layout, grid):
            calls.append(layout)
            return top_eigenvalue_fd(layout, grid)

        monkeypatch.setattr(oracle, "top_eigenvalue_fd", counting)
        base = ("--preset", "lone-star", "--grid-levels", "2")
        code, out, _ = run_cli(capsys, "min-mortality", *base)
        assert code == EXIT_OK
        mu_closed = float(parsed(out)["mu_star_closed"])
        code, out, _ = run_cli(capsys, "min-zone", *base, "--mu", repr(2 * mu_closed))
        assert code == EXIT_OK
        assert math.isfinite(float(parsed(out)["r_star_oracle"]))
        assert len(calls) <= 12


class TestMinZone:
    def test_reference_case(self, capsys, tmp_path):
        doc = {
            "model": "scalar",
            "beneficial": {"diffusion": 1.0, "growth": 0.2},
            "control": {"diffusion": 1.0, "growth": -2.0},
            "R": 1.0, "r": 0.5, "K": 1, "bc": "periodic",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "min-zone", "--scenario", str(path), "--grid-cells", "256",
            "--grid-levels", "2",
        )
        assert code == EXIT_OK
        values = parsed(out)
        assert float(values["r_star_closed"]) == pytest.approx(0.1019, abs=2e-4)
        assert float(values["r_star_oracle"]) == pytest.approx(0.1019, abs=2e-3)

    def test_insufficient_mortality_exits_4(self, capsys):
        code, _, _ = run_cli(capsys, "min-zone", "--preset", "lone-star", "--mu", "1e-4")
        assert code == EXIT_UNCONTROLLABLE

    def test_staged_scenario_refused(self, capsys):
        code, out, err = run_cli(capsys, "min-zone", "--preset", "taiga-two-stage")
        assert (code, out, err) == (EXIT_VALIDATION, "", "min-zone supports scalar scenarios only\n")

    def test_oracle_failure_after_the_closed_form_prints_nothing(self, capsys, monkeypatch):
        def no_convergence(layout, grid, guess):
            raise NoConvergenceError("no sign change")

        monkeypatch.setattr("patchcontrol.cli.min_zone_width_fd", no_convergence)
        code, out, err = run_cli(capsys, "min-zone", "--preset", "lone-star", "--mu", "80")
        assert (code, out, err) == (EXIT_NO_CONVERGENCE, "", "oracle did not converge: no sign change\n")


class TestSpectrum:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--preset", "lone-star", "--mu", "10",
            "--grid-levels", "2",
        )
        assert code == EXIT_OK
        values = parsed(out)
        root = float(values["root_top_eigenvalue"])
        fd = float(values["fd_top_eigenvalue"])
        assert abs(root - fd) <= 1e-3 * max(1, abs(root))

    def test_root_below_control_mortality_is_a_dispersion_root(self, capsys, tmp_path):
        # Tiny absorbing patch: the top eigenvalue lies below -mu.
        doc = {
            "model": "scalar",
            "beneficial": {"diffusion": 1.0, "growth": 0.1},
            "control": {"diffusion": 1.0, "growth": -0.05},
            "R": 0.5, "r": 0.5, "K": 1, "bc": "dirichlet",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "spectrum", "--scenario", str(path), "--method", "root")
        assert code == EXIT_OK
        values = parsed(out)
        assert values["root_method"] == "DispersionRoot"
        assert float(values["root_top_eigenvalue"]) < -0.05
        assert "fd_top_eigenvalue" not in values

    def test_root_on_staged_scenario_refused(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--preset", "taiga-two-stage", "--method", "root")
        assert (code, out, err) == (EXIT_VALIDATION, "", "spectrum --method root supports scalar scenarios only\n")

    def test_both_on_staged_scenario_gives_fd_values_only(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--preset", "taiga-two-stage", "--grid-levels", "2")
        assert (code, err) == (EXIT_OK, "")
        assert list(parsed(out)) == ["fd_top_eigenvalue", "fd_error_estimate", "fd_grid"]

    def test_oracle_no_convergence_exits_7_without_traceback(self, capsys, monkeypatch):
        def no_convergence(*args):
            raise NoConvergenceError("staged solve found no real eigenvalue")

        monkeypatch.setattr("patchcontrol.oracle._perron_bracket", no_convergence)
        code, out, err = run_cli(capsys, "spectrum", "--preset", "taiga-two-stage")
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err == "oracle did not converge: staged solve found no real eigenvalue\n"

    def test_perron_vector_below_the_float_range_is_solved(self, capsys, tmp_path):
        # Control mortality 10 over r = 300: the Perron vector's tail is below the smallest float.
        # Shift-invert Arnoldi on the assembled levels gave -1.2146841.
        doc = {
            "model": "staged",
            "beneficial": {"A_diag": [1, 1], "M": [[0.1, 0.1], [0.1, 0.1]]},
            "control": {"A_diag": [1, 1], "M": [[-10, 0.01], [0.01, -10]]},
            "R": 1, "r": 300, "K": 1, "bc": "neumann",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "spectrum", "--scenario", str(path), "--method", "fd",
                                 "--grid-cells", "4", "--grid-levels", "2")
        assert (code, err) == (EXIT_OK, "")
        assert parsed(out)["fd_top_eigenvalue"] == "-1.215"

    NON_COOPERATIVE = {
        # The stage coupling has a negative entry and a complex rightmost pair.
        "ring": {
            "model": "staged",
            "beneficial": {"A_diag": [1, 1, 1], "M": [[1, -2, 0], [2, 1, 0], [0, 0, -1]]},
            "control": {"A_diag": [1, 1, 1], "M": [[-2, -2, 0], [2, -2, 0], [0, 0, -4]]},
            "R": 2, "r": 1, "K": 2, "bc": "periodic",
        },
        # Rightmost -0.727 + 4i; the real -1.227 is nearer a shift above every real part.
        "pair": {
            "model": "staged",
            "beneficial": {"A_diag": [1, 1, 1], "M": [[0, -4, 0], [4, 0, 0], [0, 0, -0.5]]},
            "control": {"A_diag": [1, 1, 1], "M": [[-3, -4, 0], [4, -3, 0], [0, 0, -3.5]]},
            "R": 2, "r": 1, "K": 1, "bc": "periodic",
        },
    }

    def non_cooperative(self, tmp_path, name):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.NON_COOPERATIVE[name]))
        return str(path)

    def assert_refused(self, code, out, err):
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: NonCooperativeStages: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_non_cooperative_staged_ring_exits_2_without_traceback(self, capsys, tmp_path):
        path = self.non_cooperative(tmp_path, "ring")
        self.assert_refused(*run_cli(capsys, "spectrum", "--scenario", path, "--method", "fd"))

    def test_complex_pair_farther_from_the_shift_exits_2(self, capsys, tmp_path):
        path = self.non_cooperative(tmp_path, "pair")
        self.assert_refused(*run_cli(capsys, "spectrum", "--scenario", path, "--method", "fd",
                                     "--grid-cells", "0.1", "--grid-levels", "2"))

    @pytest.mark.parametrize("name", ["ring", "pair"])
    def test_non_cooperative_closed_verdict_exits_0(self, capsys, tmp_path, name):
        # The FD oracle refuses these stages; the closed-form verdict still answers.
        code, out, err = run_cli(capsys, "verdict", "--scenario", self.non_cooperative(tmp_path, name),
                                 "--method", "closed")
        assert (code, err) == (EXIT_OK, "")
        assert "closed_status" in parsed(out)

    def test_oracle_failure_near_float_range_exits_7(self, capsys):
        # Diffusion 1e300: the band's fluxes square past the float range, and the factor fails at the bound.
        code, out, err = run_cli(capsys, "spectrum", "--preset", "lone-star", "--method", "fd", "--b", "1e300")
        assert (code, out) == (EXIT_NO_CONVERGENCE, "")
        assert err.startswith("oracle did not converge: sigma B - K is singular or indefinite at sigma = ")
        assert len(err.splitlines()) == 1

    def test_mortality_near_float_range_is_solved(self, capsys):
        # Mortality 1e308: the bracket closes (its value against the dispersion root is checked in
        # test_oracle's TestPerronBracket), so the verdict exits 0 with a finite value.
        code, out, err = run_cli(capsys, "verdict", "--preset", "lone-star", "--method", "oracle", "--mu", "1e308")
        assert (code, err) == (EXIT_OK, "")
        assert math.isfinite(float(parsed(out)["oracle_top_eigenvalue"]))

    @pytest.mark.parametrize("mu", ["1e16", "1e280"])
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet", "periodic"])
    def test_deadly_mortality_agrees_with_the_root(self, capsys, bc, mu):
        # The bracket stops at a width read off the rows the Perron vector weighs: stopped at
        # 4 eps |B^-1 K|_inf, whose largest rows are the deadly control zone's, Neumann read 0.06848.
        code, out, err = run_cli(capsys, "spectrum", "--preset", "lone-star", "--bc", bc, "--mu", mu)
        assert (code, err) == (EXIT_OK, "")
        values = parsed(out)
        root, fd = float(values["root_top_eigenvalue"]), float(values["fd_top_eigenvalue"])
        assert abs(fd - root) <= 10 * (float(values["root_error_estimate"]) + float(values["fd_error_estimate"]))

    def test_thin_zone_at_absorbing_ends_agrees_with_the_root(self, capsys):
        # The stop width was read off the solve's start v = 1, which weighs the thin zone's rows,
        # about 2b / h^2: the first bracket's midpoint, -1.626e+22, was printed.
        code, out, err = run_cli(capsys, "spectrum", "--preset", "lone-star", "--bc", "dirichlet", "--r", "1e-20")
        assert (code, err) == (EXIT_OK, "")
        values = parsed(out)
        assert values["fd_top_eigenvalue"] == values["root_top_eigenvalue"] == "-0.1894"

    @pytest.mark.parametrize("r", ["1e-155", "1e-300"])
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet", "periodic"])
    def test_row_weights_beyond_the_float_range_warn_nothing(self, capsys, bc, r):
        # Cells this thin weigh their rows past the float range, as +inf, without a RuntimeWarning.
        # The thin zone's rows are not weighed at an absorbing end; at reflecting ones round-off
        # fails the factor at the growth bound.
        code, out, err = run_cli(capsys, "spectrum", "--method", "fd", "--preset", "lone-star", "--bc", bc, "--r", r)
        if bc == "dirichlet":
            assert (code, err, parsed(out)["fd_top_eigenvalue"]) == (EXIT_OK, "", "-0.1894")
        else:
            assert (code, out) == (EXIT_NO_CONVERGENCE, "")
            assert err.startswith("oracle did not converge: sigma B - K is singular") and len(err.splitlines()) == 1

    def test_min_zone_past_the_float_range_warns_nothing(self, capsys):
        code, out, err = run_cli(capsys, "min-zone", "--preset", "lone-star", "--mu", "1e300")
        assert code == EXIT_NO_CONVERGENCE
        assert err.startswith("oracle did not converge: sigma B - K is singular") and len(err.splitlines()) == 1


class TestSimulateCommand:
    def test_eradicating_mortality_gives_negative_exponent(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "lone-star", "--mu", "60",
            "--T", "20", "--dt", "0.01", "--out", str(tmp_path),
            "--snapshots", "10",
        )
        assert code == EXIT_OK
        values = parsed(out)
        assert float(values["growth_exponent"]) < 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "snapshot_t10.csv").exists()

    def test_conservation_case(self, capsys, tmp_path):
        doc = {
            "model": "scalar",
            "beneficial": {"diffusion": 1.0, "growth": 0.0},
            "control": {"diffusion": 1.0, "growth": 0.0},
            "R": 2.0, "r": 1.0, "K": 1, "bc": "neumann",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", str(path), "--T", "5", "--dt", "0.01",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        masses = [float(row.split(",")[2]) for row in rows]
        assert max(masses) - min(masses) <= 1e-9 * max(masses)

    def test_unresolved_transient_exits_5(self, capsys, tmp_path):
        doc = {
            "model": "scalar",
            "beneficial": {"diffusion": 1.0, "growth": 0.0},
            "control": {"diffusion": 1.0, "growth": 0.0},
            "R": math.pi, "r": 0.0, "K": 1, "bc": "dirichlet",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--T", "0.2", "--dt", "0.001",
            "--out", str(tmp_path),
        )
        assert code == EXIT_TRANSIENT
        assert "transient" in err

    def test_unresolved_exponent_prints_nothing_after_writing_the_csvs(self, capsys, monkeypatch, tmp_path):
        def unresolved(result):
            raise TransientNotResolvedError("exponent fit residual too large")

        monkeypatch.setattr("patchcontrol.cli.growth_exponent", unresolved)
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "lone-star", "--T", "1", "--dt", "0.01", "--snapshots", "0.5",
            "--out", str(tmp_path),
        )
        assert (code, out, err) == (EXIT_TRANSIENT, "", "transient not resolved: exponent fit residual too large\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot_t0.5.csv", "trajectory.csv"]

    def test_grid_too_large_writes_nothing(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--preset", "lone-star", "--K", "100000000", "--out", str(out_dir))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: GridTooLarge: level 0 would have more than 4194304 unknowns\n"
        assert not out_dir.exists()

    def test_too_many_steps_writes_nothing(self, capsys, tmp_path):
        # 2.7e13 steps: the step records alone would take hundreds of TiB.
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--preset", "lone-star", "--T", "1e12", "--out", str(out_dir))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: horizon T / dt = 2.72e+13 steps exceeds the limit of 4194304")
        assert len(err.splitlines()) == 1 and not out_dir.exists()

    def test_unusable_out_fails_before_the_integration(self, capsys, monkeypatch, tmp_path):
        def refuse(run):
            raise AssertionError("simulate called")

        monkeypatch.setattr("patchcontrol.cli.simulate", refuse)
        afile = tmp_path / "afile"
        afile.write_text("")
        code, out, err = run_cli(capsys, "simulate", "--preset", "taiga-two-stage", "--T", "50", "--out", str(afile))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: [Errno 17] File exists") and len(err.splitlines()) == 1

    def test_default_out_is_the_working_directory(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--preset", "lone-star", "--T", "1", "--dt", "0.01")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["wrote = ./trajectory.csv"]
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]

    def test_instability_exits_6_without_traceback(self, capsys, monkeypatch, tmp_path):
        def unstable(run):
            raise InstabilityError("solution norm became inf at t=1.5")

        monkeypatch.setattr("patchcontrol.cli.simulate", unstable)
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "lone-star", "--T", "1", "--dt", "0.01",
            "--out", str(tmp_path),
        )
        assert code == EXIT_INSTABILITY
        assert out == ""
        assert err == "simulation unstable: solution norm became inf at t=1.5\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--T", "inf", "horizon T must be finite, got inf"),
            ("--T", "nan", "horizon T must be finite, got nan"),
            ("--dt", "nan", "dt must be finite and positive, got nan"),
            ("--snapshots", "nan", "snapshot times must be finite, got (nan,)"),
        ],
    )
    def test_non_finite_times_exit_2(self, capsys, tmp_path, flag, value, message):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "lone-star", flag, value, "--out", str(out_dir),
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_negative_snapshot_time_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "lone-star", "--T", "2", "--dt", "0.01",
            "--snapshots=-1,1", "--out", str(out_dir),
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: snapshot times must be nonnegative, got (-1.0, 1.0)\n"
        assert not out_dir.exists()

    @staticmethod
    def assert_singular_exits_6(capsys, tmp_path, bc):
        # Uniform growth 4 with dt = 2/4: B - dt/2 K is exactly the singular Laplacian.
        doc = {
            "model": "scalar",
            "beneficial": {"diffusion": 1.0, "growth": 4.0},
            "control": {"diffusion": 1.0, "growth": 4.0},
            "R": 2.0, "r": 0.0, "K": 1, "bc": bc,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--T", "5", "--dt", "0.5",
            "--grid-cells", "4", "--out", str(tmp_path),
        )
        assert code == EXIT_INSTABILITY
        assert err.startswith("simulation unstable: Crank-Nicolson matrix is singular")
        assert len(err.splitlines()) == 1

    def test_singular_crank_nicolson_matrix_exits_6(self, capsys, tmp_path):
        # On a reflecting segment the tridiagonal LAPACK factor meets an exact zero pivot.
        self.assert_singular_exits_6(capsys, tmp_path, "neumann")

    def test_singular_crank_nicolson_ring_exits_6(self, capsys, tmp_path):
        # On a ring SuperLU's smallest pivot is round-off (about 1e-15), not an
        # exact zero; unchecked, the steps grow along the null vector.
        self.assert_singular_exits_6(capsys, tmp_path, "periodic")



class TestSweep:
    def test_mortality_sweep_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--preset", "lone-star", "--vary", "mu",
            "--from", "1", "--to", "100", "--steps", "8",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "param,value,margin,top_eigenvalue,status"
        assert len(lines) == 9
        tops = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(x >= y - 1e-12 for x, y in zip(tops, tops[1:]))

    def test_single_step(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--preset", "lone-star", "--vary", "mu",
            "--from", "5", "--to", "5", "--steps", "1",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2

    def test_r_sweep_crosses_critical_size_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--preset", "lone-star", "--vary", "R",
            "--from", "10", "--to", "20", "--steps", "21", "--mu", "1e6",
        )
        assert code == EXIT_OK
        statuses = [line.split(",")[4] for line in out.strip().splitlines()[1:]]
        flips = sum(1 for s1, s2 in zip(statuses, statuses[1:]) if s1 != s2)
        assert flips == 1

    def test_unknown_parameter_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--preset", "lone-star", "--vary", "bogus",
            "--from", "0", "--to", "1", "--steps", "2",
        )
        assert code == EXIT_VALIDATION

    def test_no_steps_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--preset", "lone-star", "--vary", "mu", "--from", "0", "--to", "1", "--steps", "0",
        )
        assert (code, out, err) == (EXIT_VALIDATION, "", "--steps must be >= 1\n")

    @pytest.mark.parametrize("steps", ["1000001", "100000000000"])
    def test_too_many_steps_exits_2(self, capsys, steps):
        code, out, err = run_cli(
            capsys, "sweep", "--preset", "lone-star", "--vary", "R", "--from", "1", "--to", "2", "--steps", steps,
        )
        assert (code, out, err) == (EXIT_VALIDATION, "", "--steps must be <= 1000000\n")

    SWEEP = ("sweep", "--preset", "lone-star", "--vary", "mu", "--from", "1", "--to", "100", "--steps", "4")

    def test_out_dir_gets_the_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *self.SWEEP, "--out", str(tmp_path / "sub"))
        assert code == EXIT_OK
        assert (tmp_path / "sub" / "sweep.csv").read_bytes() == out.encode()

    def test_out_dot_writes_into_the_working_directory(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *self.SWEEP, "--out", ".")
        assert code == EXIT_OK
        assert (tmp_path / "sweep.csv").read_bytes() == out.encode()

    def test_unusable_out_prints_no_table(self, capsys, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("")
        code, out, err = run_cli(capsys, "sweep", "--preset", "lone-star", "--vary", "mu", "--from", "1",
                                 "--to", "2", "--steps", "2", "--out", str(afile))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: [Errno 17] File exists") and len(err.splitlines()) == 1

    def test_without_out_no_file_is_written(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *self.SWEEP)
        assert code == EXIT_OK and out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "name, value", [("a", "20"), ("b", "12"), ("growth", "0.5"), ("mu", "40"), ("R", "12"), ("r", "1.5")]
    )
    def test_sweep_value_overrides_like_the_flag(self, capsys, name, value):
        code, out, _ = run_cli(
            capsys, "sweep", "--preset", "lone-star", "--vary", name, "--from", value, "--to", value, "--steps", "1",
        )
        assert code == EXIT_OK
        margin = float(out.strip().splitlines()[1].split(",")[2])
        code, out, _ = run_cli(capsys, "verdict", "--preset", "lone-star", "--method", "closed", f"--{name}", value)
        assert code == EXIT_OK
        assert f"{margin:.4g}" == parsed(out)["closed_margin"]
        _, base, _ = run_cli(capsys, "verdict", "--preset", "lone-star", "--method", "closed")
        assert parsed(base)["closed_margin"] != parsed(out)["closed_margin"]

    @pytest.mark.parametrize("name", ["a", "b", "growth", "mu"])
    def test_scalar_parameters_refused_on_staged_scenarios(self, capsys, name):
        code, _, err = run_cli(capsys, "verdict", "--preset", "taiga-two-stage", "--method", "closed", f"--{name}", "2")
        assert code == EXIT_VALIDATION
        assert "scalar scenarios only" in err
        code, _, err = run_cli(
            capsys, "sweep", "--preset", "taiga-two-stage", "--vary", name, "--from", "1", "--to", "2", "--steps", "2",
        )
        assert code == EXIT_VALIDATION
        assert "scalar scenarios only" in err

    def test_deterministic_output(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "sweep", "--preset", "lone-star", "--vary", "mu",
                "--from", "1", "--to", "50", "--steps", "5",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestGridFlags:
    """A grid flag is checked by ``GridSpec`` whatever its value, 0 included,
    before any result is printed."""

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--grid-cells", "0", "cells_per_unit_length"),
            ("--grid-cells", "-5", "cells_per_unit_length"),
            ("--grid-cells", "nan", "cells_per_unit_length"),
            ("--grid-cells", "inf", "cells_per_unit_length"),
            ("--grid-levels", "0", "refinement_levels"),
            ("--grid-levels", "1", "refinement_levels"),
        ],
    )
    @pytest.mark.parametrize("command", ["verdict", "min-mortality", "min-zone", "spectrum"])
    def test_invalid_grid_exits_2(self, capsys, command, flag, value, field):
        kwargs = {field: float(value) if field == "cells_per_unit_length" else int(value)}
        with pytest.raises(ValueError) as expected:
            GridSpec(**kwargs)
        code, out, err = run_cli(capsys, command, "--preset", "lone-star", flag, value)
        assert code == EXIT_VALIDATION
        assert err == f"error: {expected.value}\n"
        assert out == ""


class TestPreset:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "list")
        assert code == EXIT_OK
        assert out.split() == ["lone-star", "taiga-one-stage", "taiga-two-stage"]


class TestParserReuse:
    """``main`` builds its parser once per process; later calls must not see earlier ones."""

    SEQUENCE = (
        ("verdict", "--method", "bogus"),
        ("min-mortality", "--preset", "lone-star", "--grid-levels", "2"),
        ("spectrum", "--preset", "lone-star", "--method", "fd"),
        ("verdict", "--preset", "taiga-two-stage"),
    )

    @staticmethod
    def run(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_and_reversed_calls_agree(self, capsys):
        first = {argv: self.run(capsys, argv) for argv in self.SEQUENCE}
        assert first[self.SEQUENCE[0]][0] == ("SystemExit", 2)
        assert all(code == EXIT_OK for code, _, _ in list(first.values())[1:])
        for order in (self.SEQUENCE, self.SEQUENCE[::-1]):
            assert {argv: self.run(capsys, argv) for argv in order} == first


class TestInertOptions:
    """Each subcommand takes only the options it acts on; the rest are refused by argparse, with
    exit 2 and nothing on stdout, instead of being silently ignored."""

    @pytest.mark.parametrize("command, option, value", [
        ("critical-size", "--grid-cells", "-5"),
        ("critical-size", "--grid-levels", "0"),
        ("critical-size", "--out", "/nonexistent/dir"),
        ("verdict", "--out", "/nonexistent/dir"),
        ("min-mortality", "--out", "/nonexistent/dir"),
        ("min-zone", "--out", "/nonexistent/dir"),
        ("spectrum", "--out", "/nonexistent/dir"),
    ])
    def test_refused(self, capsys, command, option, value):
        code, out, err = TestParserReuse.run(capsys, (command, "--preset", "lone-star", option, value))
        assert (code, out) == (("SystemExit", 2), "")
        assert f"unrecognized arguments: {option} {value}" in err


TWIN_GRID = ("--grid-levels", "2")


class TestOneStageScenario:
    """A one-stage staged scenario, in the ``M`` form or the ``births``/``deaths`` form, is the scalar
    scenario in every subcommand: its stdout, stderr and exit code are those of its scalar twin."""

    ZONES = {
        "scalar": lambda mu: ({"diffusion": 16.67, "growth": 0.65}, {"diffusion": 16.67, "growth": -mu}),
        "staged": lambda mu: ({"A_diag": [16.67], "M": [[0.65]]}, {"A_diag": [16.67], "M": [[-mu]]}),
        # births - deaths is exact for these values (1.3 is twice 0.65), so the stage matrices are the M form's
        "births-deaths": lambda mu: ({"A_diag": [16.67], "births": [1.3], "deaths": [0.65]},
                                     {"A_diag": [16.67], "births": [5.0], "deaths": [5.0 + mu]}),
    }

    def scenario(self, tmp_path, form, mu=10.0, K=1):
        """The lone-star values (control mortality ``mu``, ``K`` periods) as a scenario file of ``form``."""
        beneficial, control = self.ZONES[form](mu)
        path = tmp_path / f"{form}-{mu:g}-{K}.json"
        path.write_text(json.dumps({"model": "scalar" if form == "scalar" else "staged", "beneficial": beneficial,
                                    "control": control, "R": 14.0, "r": 1.0, "K": K, "bc": "periodic"}))
        return str(path)

    @pytest.mark.parametrize("argv, prefix", [
        (("spectrum", "--method", "fd"), "fd_"),
        (("verdict", "--method", "oracle"), "oracle_"),
    ])
    def test_same_oracle_lines(self, capsys, tmp_path, argv, prefix):
        lines = {}
        for model in ("scalar", "staged"):
            path = self.scenario(tmp_path, model, K=2)
            code, out, err = run_cli(capsys, *argv, "--scenario", path, "--grid-levels", "2")
            assert (code, err) == (EXIT_OK, "")
            lines[model] = [line for line in out.splitlines() if line.startswith(prefix)]
        assert lines["scalar"] and lines["staged"] == lines["scalar"]

    @pytest.mark.parametrize("argv, mu, code", [
        pytest.param(argv, mu, code, id=" ".join((*argv[:3], f"mu={mu:g}"))) for argv, mu, code in [
            (("critical-size",), 10.0, EXIT_OK),
            *((("verdict", "--method", method, *TWIN_GRID), 10.0, EXIT_OK) for method in ("closed", "oracle", "both")),
            *((("spectrum", "--method", method, *TWIN_GRID), 10.0, EXIT_OK) for method in ("root", "fd", "both")),
            (("min-mortality", *TWIN_GRID), 10.0, EXIT_OK),
            (("min-zone", *TWIN_GRID), 10.0, EXIT_UNCONTROLLABLE),
            (("min-zone", *TWIN_GRID), 60.0, EXIT_OK),
            (("sweep", "--vary", "R", "--from", "13", "--to", "15", "--steps", "3", *TWIN_GRID), 10.0, EXIT_OK),
            (("simulate", "--out", "out", *TWIN_GRID), 10.0, EXIT_OK),
        ]
    ])
    def test_same_output_as_the_scalar_twin(self, capsys, tmp_path, monkeypatch, argv, mu, code):
        monkeypatch.chdir(tmp_path)  # simulate writes under the same relative --out name each time
        # --mu sets scalar documents only: the staged twins are written with the mortality instead
        flags = () if mu == 10.0 else ("--mu", f"{mu:g}")
        runs, written = {}, {}
        for form in self.ZONES:
            extra = flags if form == "scalar" else ()
            path = self.scenario(tmp_path, form, mu=10.0 if form == "scalar" else mu)
            runs[form] = run_cli(capsys, *argv, "--scenario", path, *extra)
            written[form] = {f.name: f.read_bytes() for f in sorted((tmp_path / "out").glob("*.csv"))}
        code_seen, out, err = runs["scalar"]
        assert code_seen == code and (out if code == EXIT_OK else err)
        assert runs["staged"] == runs["scalar"] and runs["births-deaths"] == runs["scalar"]
        assert written["staged"] == written["scalar"] and written["births-deaths"] == written["scalar"]
