import json
import math

import pytest

from patchcontrol import VerdictStatus
from patchcontrol.cli import (
    EXIT_DISAGREEMENT,
    EXIT_INSTABILITY,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_TRANSIENT,
    EXIT_UNCONTROLLABLE,
    EXIT_VALIDATION,
    _verdicts_agree,
    main,
)
from patchcontrol.model import Verdict
from patchcontrol.oracle import GridSpec, NoConvergenceError
from patchcontrol.presets import preset_scenario
from patchcontrol.simulate import InstabilityError


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

    def test_beyond_critical_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "min-mortality", "--preset", "lone-star", "--R", "16")
        assert code == EXIT_UNCONTROLLABLE
        assert "uncontrollable" in err


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

    def test_oracle_no_convergence_exits_7_without_traceback(self, capsys, monkeypatch):
        def no_convergence(op):
            raise NoConvergenceError("dense staged solve found no real eigenvalue")

        monkeypatch.setattr("patchcontrol.oracle._staged_rightmost_eigenvalue", no_convergence)
        code, out, err = run_cli(capsys, "spectrum", "--preset", "taiga-two-stage")
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err == "oracle did not converge: dense staged solve found no real eigenvalue\n"

    def test_non_cooperative_staged_ring_exits_7_without_traceback(self, capsys, tmp_path):
        # The stage coupling has a negative entry and a complex rightmost pair.
        doc = {
            "model": "staged",
            "beneficial": {"A_diag": [1, 1, 1], "M": [[1, -2, 0], [2, 1, 0], [0, 0, -1]]},
            "control": {"A_diag": [1, 1, 1], "M": [[-2, -2, 0], [2, -2, 0], [0, 0, -4]]},
            "R": 2, "r": 1, "K": 2, "bc": "periodic",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "spectrum", "--scenario", str(path), "--method", "fd")
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err.startswith("oracle did not converge: rightmost eigenvalue ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


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

    def test_singular_crank_nicolson_matrix_exits_6(self, capsys, tmp_path):
        # Uniform growth 4 on a reflecting segment with dt = 2/4: B - dt/2 K is
        # exactly the singular Neumann Laplacian, and SuperLU reports a zero pivot.
        doc = {
            "model": "scalar",
            "beneficial": {"diffusion": 1.0, "growth": 4.0},
            "control": {"diffusion": 1.0, "growth": 4.0},
            "R": 2.0, "r": 0.0, "K": 1, "bc": "neumann",
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
