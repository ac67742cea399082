"""Command-line interface.

Subcommands: critical-size, verdict, min-mortality, min-zone, spectrum,
simulate, sweep, preset.  Scenarios come from ``--scenario file.json`` or
``--preset name``; individual flags override scenario fields.

Exit codes: 0 success, 2 validation error, 3 closed-form/oracle disagreement,
4 uncontrollable scenario, 5 unresolved transient, 6 simulator instability,
7 oracle eigensolver did not converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .model import (
    LayoutError,
    PatchLayout,
    VerdictStatus,
    scenario_from_dict,
)
from .oracle import (
    GridSpec,
    NoConvergenceError,
    min_mortality_fd,
    min_zone_width_fd,
    top_eigenvalue_fd,
    verdict_fd,
)
from .presets import PRESET_NAMES, preset_scenario
from .scalar import (
    InsufficientMortalityError,
    NonpositiveGrowthError,
    ScalarProblem,
    UncontrollableError,
    critical_patch_dirichlet,
    min_mortality,
    min_zone_width,
    scalar_verdict,
    top_eigenvalue_scalar,
)
from .simulate import (
    InstabilityError,
    SimulationRun,
    TransientNotResolvedError,
    growth_exponent,
    simulate,
    write_snapshot_csv,
    write_trajectory_csv,
)
from .staged import (
    AssumptionViolatedError,
    StagedProblem,
    critical_patch_staged,
    symmetrized_critical_patch,
    symmetrized_sufficient_verdict,
    two_stage_verdict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_UNCONTROLLABLE = 4
EXIT_TRANSIENT = 5
EXIT_INSTABILITY = 6
EXIT_NO_CONVERGENCE = 7

# Scalar parameter -> (zone, key, sign) of the scenario field it sets.
_SCALAR_FIELDS = {
    "a": ("beneficial", "diffusion", 1.0),
    "growth": ("beneficial", "growth", 1.0),
    "b": ("control", "diffusion", 1.0),
    "mu": ("control", "growth", -1.0),
}
_SWEEPABLE = ("R", "r", *_SCALAR_FIELDS)


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchcontrol",
        description="Eradication criteria, spectra and simulations for patchy control-zone habitats.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="scenario JSON file")
    common.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    common.add_argument("--out", default=".", help="output directory for CSV files")
    common.add_argument("--grid-cells", type=float, default=None, help="oracle cells per unit length")
    common.add_argument("--grid-levels", type=int, default=None, help="oracle refinement levels")
    common.add_argument("--R", type=float, default=None, help="beneficial zone width")
    common.add_argument("--r", type=float, default=None, help="control zone width")
    common.add_argument("--K", type=int, default=None, help="number of periodic repetitions")
    common.add_argument("--bc", default=None, help="dirichlet|neumann|periodic")
    common.add_argument("--a", type=float, default=None, help="beneficial diffusion (scalar)")
    common.add_argument("--b", type=float, default=None, help="control diffusion (scalar)")
    common.add_argument("--growth", type=float, default=None, help="beneficial growth rate (scalar)")
    common.add_argument("--mu", type=float, default=None, help="control mortality (scalar, positive)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("critical-size", parents=[common], help="critical patch sizes")

    p_verdict = sub.add_parser("verdict", parents=[common], help="eradication verdict")
    p_verdict.add_argument("--method", choices=("closed", "oracle", "both"), default="both")

    sub.add_parser("min-mortality", parents=[common], help="minimal eradicating mortality")
    sub.add_parser("min-zone", parents=[common], help="minimal eradicating control-zone width")

    p_spec = sub.add_parser("spectrum", parents=[common], help="top eigenvalue report")
    p_spec.add_argument("--method", choices=("root", "fd", "both"), default="both")

    p_sim = sub.add_parser("simulate", parents=[common], help="time integration")
    p_sim.add_argument("--dt", type=float, default=None)
    p_sim.add_argument("--T", type=float, default=None)
    p_sim.add_argument("--snapshots", default="", help="comma-separated snapshot times")

    p_sweep = sub.add_parser("sweep", parents=[common], help="one-parameter sweep to CSV")
    p_sweep.add_argument("--vary", required=True, help="parameter name (mirrors scenario keys)")
    p_sweep.add_argument("--from", dest="lo", type=float, required=True)
    p_sweep.add_argument("--to", dest="hi", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)

    p_preset = sub.add_parser("preset", help="preset utilities")
    p_preset.add_argument("action", choices=("list",))
    return parser


def _resolve_scenario(args) -> dict:
    if getattr(args, "scenario", None) and getattr(args, "preset", None):
        raise LayoutError("InvalidScenario", "give either --scenario or --preset, not both")
    if getattr(args, "preset", None):
        doc = preset_scenario(args.preset)
    elif getattr(args, "scenario", None):
        with open(args.scenario, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        raise LayoutError("InvalidScenario", "a scenario is required: use --scenario or --preset")
    if not isinstance(doc, dict):
        raise LayoutError("InvalidScenario", "scenario must be a JSON object")
    for key in ("R", "r", "K", "bc", *_SCALAR_FIELDS):
        val = getattr(args, key, None)
        if val is not None:
            _override(doc, key, val)
    return doc


def _override(doc: dict, name: str, value) -> None:
    """Set scenario field ``name`` (a top-level key or a key of ``_SCALAR_FIELDS``) in place."""
    if name not in _SCALAR_FIELDS:
        doc[name] = value
    elif str(doc.get("model", "scalar")).lower() != "scalar":
        raise LayoutError("InvalidScenario", f"{name!r} applies to scalar scenarios only")
    else:
        zone, key, sign = _SCALAR_FIELDS[name]
        if not isinstance(doc.get(zone), dict):
            raise LayoutError("InvalidScenario", f"{zone} must be an object to set {name!r}")
        doc[zone][key] = sign * value


def _resolve_layout(args) -> PatchLayout:
    return scenario_from_dict(_resolve_scenario(args))


def _grid(args) -> GridSpec:
    flags = {"cells_per_unit_length": args.grid_cells, "refinement_levels": args.grid_levels}
    return GridSpec(**{key: value for key, value in flags.items() if value is not None})


def cmd_critical_size(args) -> int:
    layout = _resolve_layout(args)
    if layout.is_scalar:
        rc = critical_patch_dirichlet(layout.beneficial.diffusion, layout.beneficial.growth)
        print(f"R_c = {_fmt(rc)}")
        return EXIT_OK
    prob = StagedProblem.from_layout(layout)
    rc = critical_patch_staged(prob.A_ben, prob.M_ben)
    print(f"sqrt_lead_eigenvalue = {_fmt((np.pi / rc))}")
    print(f"R_c = {_fmt(rc)}")
    rc_sym = symmetrized_critical_patch(prob)
    print(f"sqrt_lead_eigenvalue_sym = {_fmt(np.pi / rc_sym)}")
    print(f"R_c_sym = {_fmt(rc_sym)}")
    return EXIT_OK


def _closed_staged_verdict(prob: StagedProblem):
    if prob.dimension == 2 and prob.a_ratio is not None:
        try:
            return two_stage_verdict(prob), "two-stage"
        except AssumptionViolatedError:
            pass
    return symmetrized_sufficient_verdict(prob), "symmetrized"


def cmd_verdict(args) -> int:
    layout = _resolve_layout(args)
    grid = _grid(args)
    closed_status = None
    oracle_status = None

    if args.method in ("closed", "both"):
        if layout.is_scalar:
            v = scalar_verdict(ScalarProblem.from_layout(layout))
            closed_status = v.status
            print(f"closed_status = {v.status.value}")
            print(f"closed_margin = {_fmt(v.margin)}")
            print(f"closed_rule = {v.deciding_rule}")
        else:
            res, route = _closed_staged_verdict(StagedProblem.from_layout(layout))
            closed_status = res
            print(f"closed_status = {res.status}")
            if res.margin is not None:
                print(f"closed_margin = {_fmt(res.margin)}")
            print(f"closed_rule = {route}: {res.reason}")

    if args.method in ("oracle", "both"):
        v = verdict_fd(layout, grid)
        oracle_status = v
        print(f"oracle_status = {v.status.value}")
        print(f"oracle_top_eigenvalue = {_fmt(-v.margin)}")
        print(f"oracle_rule = {v.deciding_rule}")

    if args.method == "both":
        agree = _verdicts_agree(layout, closed_status, oracle_status)
        print(f"agreement = {'yes' if agree else 'NO'}")
        if not agree:
            return EXIT_DISAGREEMENT
    return EXIT_OK


def _verdicts_agree(layout, closed, oracle) -> bool:
    if closed is None or oracle is None:
        return True
    if oracle.status is VerdictStatus.MARGINAL:
        return True
    if layout.is_scalar:
        if closed is VerdictStatus.MARGINAL:
            return True
        return closed is oracle.status
    # One-sided staged criteria: only a certified Eradication can disagree.
    if closed.eradicated:
        return oracle.status is VerdictStatus.ERADICATION
    return True


def cmd_min_mortality(args) -> int:
    layout = _resolve_layout(args)
    grid = _grid(args)
    if not layout.is_scalar:
        print("min-mortality supports scalar scenarios only", file=sys.stderr)
        return EXIT_VALIDATION
    p = ScalarProblem.from_layout(layout)
    closed = min_mortality(p.a, p.lam, p.R, p.b, p.r, p.bc, p.K)
    oracle = min_mortality_fd(layout, grid)
    print(f"mu_star_closed = {_fmt(closed)}")
    print(f"mu_star_oracle = {_fmt(oracle)}")
    print(f"difference = {_fmt(abs(closed - oracle))}")
    rel = abs(closed - oracle) / max(closed, oracle, 1e-300)
    print(f"relative_difference = {_fmt(rel)}")
    if args.preset == "lone-star":
        print(
            "note = a published estimate for this configuration quotes a minimal "
            "mortality of about 1958; direct bisection of the threshold inequality "
            "and the grid oracle both give the values above instead"
        )
    return EXIT_OK


def cmd_min_zone(args) -> int:
    layout = _resolve_layout(args)
    grid = _grid(args)
    if not layout.is_scalar:
        print("min-zone supports scalar scenarios only", file=sys.stderr)
        return EXIT_VALIDATION
    p = ScalarProblem.from_layout(layout)
    closed = min_zone_width(p.a, p.lam, p.R, p.b, p.mu, p.bc, p.K)
    oracle = min_zone_width_fd(layout, grid)
    print(f"r_star_closed = {_fmt(closed)}")
    print(f"r_star_oracle = {_fmt(oracle)}")
    print(f"difference = {_fmt(abs(closed - oracle))}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    layout = _resolve_layout(args)
    grid = _grid(args)
    if args.method in ("root", "both") and layout.is_scalar:
        rep = top_eigenvalue_scalar(ScalarProblem.from_layout(layout), grid)
        print(f"root_method = {rep.method.value}")
        print(f"root_top_eigenvalue = {_fmt(rep.top_eigenvalue)}")
        print(f"root_error_estimate = {_fmt(rep.error_estimate)}")
    if args.method in ("fd", "both") or not layout.is_scalar:
        rep = top_eigenvalue_fd(layout, grid)
        print(f"fd_top_eigenvalue = {_fmt(rep.top_eigenvalue)}")
        print(f"fd_error_estimate = {_fmt(rep.error_estimate)}")
        print(f"fd_grid = {rep.grid_or_step}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    layout = _resolve_layout(args)
    snapshots = tuple(float(s) for s in args.snapshots.split(",") if s.strip())
    grid = _grid(args)
    run = SimulationRun(
        layout=layout,
        dt=args.dt,
        T=args.T,
        snapshot_times=snapshots,
        grid=grid,
        level=0,
    )
    result = simulate(run)
    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, "trajectory.csv")
    write_trajectory_csv(result, traj_path)
    written = [traj_path]
    for snap in result.snapshots:
        path = os.path.join(args.out, f"snapshot_t{snap.t:.6g}.csv")
        write_snapshot_csv(snap, path)
        written.append(path)
    exponent = growth_exponent(result)
    print(f"growth_exponent = {_fmt(exponent)}")
    for path in written:
        print(f"wrote = {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = _resolve_scenario(args)
    if args.vary not in _SWEEPABLE:
        print(f"unknown sweep parameter {args.vary!r}; allowed: {sorted(_SWEEPABLE)}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.steps < 1:
        print("--steps must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    grid = _grid(args)
    values = (
        np.linspace(args.lo, args.hi, args.steps) if args.steps > 1 else np.array([args.lo])
    )
    lines = ["param,value,margin,top_eigenvalue,status"]
    for value in values:
        doc = json.loads(json.dumps(base))  # deep copy
        _override(doc, args.vary, float(value))
        layout = scenario_from_dict(doc)
        if layout.is_scalar:
            p = ScalarProblem.from_layout(layout)
            v = scalar_verdict(p)
            top = top_eigenvalue_scalar(p, grid).top_eigenvalue
            margin, status = v.margin, v.status.value
        else:
            v = verdict_fd(layout, grid)
            top = -v.margin
            margin, status = v.margin, v.status.value
        lines.append(f"{args.vary},{value:.6g},{margin:.6g},{top:.6g},{status}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out != ".":
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sweep.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_preset(args) -> int:
    for name in PRESET_NAMES:
        print(name)
    return EXIT_OK


_COMMANDS = {
    "critical-size": cmd_critical_size,
    "verdict": cmd_verdict,
    "min-mortality": cmd_min_mortality,
    "min-zone": cmd_min_zone,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "preset": cmd_preset,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (LayoutError, NonpositiveGrowthError, ValueError, OSError) as exc:
        if isinstance(exc, (UncontrollableError, InsufficientMortalityError)):
            print(f"uncontrollable: {exc}", file=sys.stderr)
            return EXIT_UNCONTROLLABLE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TransientNotResolvedError as exc:
        print(f"transient not resolved: {exc}", file=sys.stderr)
        return EXIT_TRANSIENT
    except InstabilityError as exc:
        print(f"simulation unstable: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except NoConvergenceError as exc:
        print(f"oracle did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
