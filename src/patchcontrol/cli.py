"""Command-line interface.

Subcommands: critical-size, verdict, min-mortality, min-zone, spectrum,
simulate, sweep, preset.  Scenarios come from ``--scenario file.json`` or
``--preset name``; individual flags override scenario fields.

Each subcommand returns its record, an ordered dict of output fields, and its
exit code.  ``main`` prints the record as ``key = value`` lines once it is
complete, so an error exit prints nothing to stdout, and maps each refusal and
documented failure to one stderr line and its exit code.  ``sweep`` (CSV) and ``preset list``
print their own output and return an empty record.

Exit codes: 0 success, 2 validation error, 3 closed-form/oracle disagreement,
4 uncontrollable scenario, 5 unresolved transient, 6 simulator instability,
7 oracle eigensolver did not converge.
"""

from __future__ import annotations

import argparse
import functools
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
    checked_run,
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
_SCENARIO_FLAGS = ("R", "r", "K", "bc", *_SCALAR_FIELDS)
_MAX_SWEEP_STEPS = 10**6  # a table row per step: far more is a typo, and its grid alone would not fit memory


class _Refusal(Exception):
    """A scalar-only subcommand on a multi-stage scenario, or a bad argument: exit 2 with this message."""


def _fmt(value: float) -> str:
    return f"{value:.4g}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchcontrol",
        description="Eradication criteria, spectra and simulations for patchy control-zone habitats.",
    )
    # Each subcommand takes only the options it acts on: the scenario, the oracle grid, an output directory.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", help="scenario JSON file")
    scenario.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    scenario.add_argument("--R", type=float, default=None, help="beneficial zone width")
    scenario.add_argument("--r", type=float, default=None, help="control zone width")
    scenario.add_argument("--K", type=int, default=None, help="number of periodic repetitions")
    scenario.add_argument("--bc", default=None, help="dirichlet|neumann|periodic")
    scenario.add_argument("--a", type=float, default=None, help="beneficial diffusion (scalar)")
    scenario.add_argument("--b", type=float, default=None, help="control diffusion (scalar)")
    scenario.add_argument("--growth", type=float, default=None, help="beneficial growth rate (scalar)")
    scenario.add_argument("--mu", type=float, default=None, help="control mortality (scalar, positive)")
    grid = argparse.ArgumentParser(add_help=False, parents=[scenario])
    grid.add_argument("--grid-cells", type=float, default=None, help="oracle cells per unit length")
    grid.add_argument("--grid-levels", type=int, default=None, help="oracle refinement levels")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output directory for CSV files")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("critical-size", parents=[scenario], help="critical patch sizes")

    p_verdict = sub.add_parser("verdict", parents=[grid], help="eradication verdict")
    p_verdict.add_argument("--method", choices=("closed", "oracle", "both"), default="both")

    sub.add_parser("min-mortality", parents=[grid], help="minimal eradicating mortality")
    sub.add_parser("min-zone", parents=[grid], help="minimal eradicating control-zone width")

    p_spec = sub.add_parser("spectrum", parents=[grid], help="top eigenvalue report")
    p_spec.add_argument("--method", choices=("root", "fd", "both"), default="both")

    p_sim = sub.add_parser("simulate", parents=[grid, out], help="time integration")
    p_sim.add_argument("--dt", type=float, default=None)
    p_sim.add_argument("--T", type=float, default=None)
    p_sim.add_argument("--snapshots", default="", help="comma-separated snapshot times")

    p_sweep = sub.add_parser("sweep", parents=[grid, out], help="one-parameter sweep to CSV")
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
    for key in _SCENARIO_FLAGS:
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


def cmd_critical_size(args) -> tuple[dict, int]:
    layout = _resolve_layout(args)
    if layout.is_scalar:  # the one-stage view, not ScalarProblem: that refuses a growing control zone
        ben = layout.beneficial
        return dict(R_c=critical_patch_dirichlet(float(ben.diffusion_diag[0]), float(ben.reaction[0, 0]))), EXIT_OK
    prob = StagedProblem.from_layout(layout)
    rc = critical_patch_staged(prob.A_ben, prob.M_ben)
    rc_sym = symmetrized_critical_patch(prob)
    record = dict(sqrt_lead_eigenvalue=np.pi / rc, R_c=rc, sqrt_lead_eigenvalue_sym=np.pi / rc_sym, R_c_sym=rc_sym)
    return record, EXIT_OK


def _closed_staged_verdict(prob: StagedProblem):
    try:  # refused unless two stages with proportional diffusion, among other assumptions
        return two_stage_verdict(prob), "two-stage"
    except AssumptionViolatedError:
        return symmetrized_sufficient_verdict(prob), "symmetrized"


def cmd_verdict(args) -> tuple[dict, int]:
    layout = _resolve_layout(args)
    grid = _grid(args)
    closed = oracle = None
    record = {}

    if args.method in ("closed", "both"):
        if layout.is_scalar:
            v = scalar_verdict(ScalarProblem.from_layout(layout))
            closed = v.status
            record.update(closed_status=v.status.value, closed_margin=v.margin, closed_rule=v.deciding_rule)
        else:
            closed, route = _closed_staged_verdict(StagedProblem.from_layout(layout))
            record["closed_status"] = closed.status
            if closed.margin is not None:
                record["closed_margin"] = closed.margin
            record["closed_rule"] = f"{route}: {closed.reason}"

    if args.method in ("oracle", "both"):
        oracle = verdict_fd(layout, grid)
        record.update(oracle_status=oracle.status.value, oracle_top_eigenvalue=-oracle.margin,
                      oracle_rule=oracle.deciding_rule)

    agree = _verdicts_agree(layout, closed, oracle)
    if args.method == "both":
        record["agreement"] = "yes" if agree else "NO"
    return record, EXIT_OK if agree else EXIT_DISAGREEMENT


def _verdicts_agree(layout, closed, oracle) -> bool:
    if closed is None or oracle is None or oracle.status is VerdictStatus.MARGINAL:
        return True
    if layout.is_scalar:  # an exact closed form: a Marginal one agrees with either side
        return closed is VerdictStatus.MARGINAL or closed is oracle.status
    # One-sided staged criteria: only a certified Eradication can disagree.
    if closed.eradicated:
        return oracle.status is VerdictStatus.ERADICATION
    return True


def cmd_min_mortality(args) -> tuple[dict, int]:
    layout = _resolve_layout(args)
    grid = _grid(args)
    if not layout.is_scalar:
        raise _Refusal("min-mortality supports scalar scenarios only")
    p = ScalarProblem.from_layout(layout)
    closed = min_mortality(p.a, p.lam, p.R, p.b, p.r, p.bc, p.K)
    oracle = min_mortality_fd(layout, grid, guess=closed)
    diff = abs(closed - oracle)
    record = dict(mu_star_closed=closed, mu_star_oracle=oracle, difference=diff,
                  relative_difference=diff / max(closed, oracle, 1e-300))
    if args.preset == "lone-star" and all(getattr(args, key) is None for key in _SCENARIO_FLAGS):
        record["note"] = (
            "a published estimate for this configuration quotes a minimal "
            "mortality of about 1958; direct bisection of the threshold inequality "
            "and the grid oracle both give the values above instead"
        )
    return record, EXIT_OK


def cmd_min_zone(args) -> tuple[dict, int]:
    layout = _resolve_layout(args)
    grid = _grid(args)
    if not layout.is_scalar:
        raise _Refusal("min-zone supports scalar scenarios only")
    p = ScalarProblem.from_layout(layout)
    closed = min_zone_width(p.a, p.lam, p.R, p.b, p.mu, p.bc, p.K)
    oracle = min_zone_width_fd(layout, grid, guess=closed)
    return dict(r_star_closed=closed, r_star_oracle=oracle, difference=abs(closed - oracle)), EXIT_OK


def cmd_spectrum(args) -> tuple[dict, int]:
    layout = _resolve_layout(args)
    grid = _grid(args)
    if args.method == "root" and not layout.is_scalar:
        raise _Refusal("spectrum --method root supports scalar scenarios only")
    record = {}
    if args.method != "fd" and layout.is_scalar:
        rep = top_eigenvalue_scalar(ScalarProblem.from_layout(layout))
        record.update(root_method=rep.method.value, root_top_eigenvalue=rep.top_eigenvalue,
                      root_error_estimate=rep.error_estimate)
    if args.method != "root":  # a multi-stage layout has no root: --method both gives its FD values only
        rep = top_eigenvalue_fd(layout, grid)
        record.update(fd_top_eigenvalue=rep.top_eigenvalue, fd_error_estimate=rep.error_estimate,
                      fd_grid=rep.grid_or_step)
    return record, EXIT_OK


def cmd_simulate(args) -> tuple[dict, int]:
    layout = _resolve_layout(args)
    snapshots = tuple(float(s) for s in args.snapshots.split(",") if s.strip())
    grid = _grid(args)
    run = SimulationRun(layout=layout, dt=args.dt, T=args.T, snapshot_times=snapshots, grid=grid, level=0)
    checked_run(run)  # refused inputs write nothing; an unusable --out fails before the integration
    out = "." if args.out is None else args.out
    os.makedirs(out, exist_ok=True)
    result = simulate(run)
    traj_path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(result, traj_path)
    written = [traj_path]
    for snap in result.snapshots:
        path = os.path.join(out, f"snapshot_t{snap.t:.6g}.csv")
        write_snapshot_csv(snap, path)
        written.append(path)
    return dict(growth_exponent=growth_exponent(result), wrote=written), EXIT_OK


def cmd_sweep(args) -> tuple[dict, int]:
    base = _resolve_scenario(args)
    if args.vary not in _SWEEPABLE:
        raise _Refusal(f"unknown sweep parameter {args.vary!r}; allowed: {sorted(_SWEEPABLE)}")
    if args.steps < 1:
        raise _Refusal("--steps must be >= 1")
    if args.steps > _MAX_SWEEP_STEPS:
        raise _Refusal(f"--steps must be <= {_MAX_SWEEP_STEPS}")
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
            top = top_eigenvalue_scalar(p).top_eigenvalue
        else:
            v = verdict_fd(layout, grid)
            top = -v.margin
        lines.append(f"{args.vary},{value:.6g},{v.margin:.6g},{top:.6g},{v.status.value}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sweep.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return {}, EXIT_OK


def cmd_preset(args) -> tuple[dict, int]:
    for name in PRESET_NAMES:
        print(name)
    return {}, EXIT_OK


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
        record, code = _COMMANDS[args.command](args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (LayoutError, NonpositiveGrowthError, ValueError, OSError) as exc:
        if isinstance(exc, (UncontrollableError, InsufficientMortalityError)):
            print(f"uncontrollable: {exc}", file=sys.stderr)
            return EXIT_UNCONTROLLABLE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:  # a width or rate whose derived quantities leave the float range
        given = " ".join(f"--{k} {v}" for k, v in vars(args).items() if k in _SCENARIO_FLAGS and v is not None)
        print(f"error: out of floating-point range with {given or 'the scenario values'}: {exc}", file=sys.stderr)
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
    for key, value in record.items():
        for item in value if isinstance(value, list) else [value]:
            print(f"{key} = {item if isinstance(item, str) else _fmt(item)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
