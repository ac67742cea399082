#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload scalar-sweep --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each item starts when the previous
one has finished.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same items untraced and then traced and prints the per-layer
metrics.  The second-to-last line of standard output is a JSON report with
every figure, the environment and the failures; the last line is the result
``{"correct", "attempted", "failed", "metrics"}``.

Run from a checkout of the repository: the program is imported from the
``src/`` directory next to this one, never from an installed copy.
"""

import os

# Pinned before numpy loads, so that SuperLU, LAPACK and ARPACK run on one
# thread and the figures measure the program rather than the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

TAIL_BEYOND = 10  # every run has more items than this, so the tail exists
SETUP_REPEATS = 3  # this process plus two fresh set-up-only processes
STALL_FACTOR = 5  # no new pass starts once a run has taken this many times --seconds

END_TO_END = {
    "setup_s": "s",
    "throughput": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Accuracy against the independent reference, reported as medians ("_p50").
ACCURACY = {
    "fd_abs_err": "1/time",
    "fd_err_to_estimate": "ratio",
    "mu_star_rel_diff": "ratio",
    "exponent_err": "1/time",
}


def per_layer_unit(name: str) -> str:
    if name.removesuffix("_p50") in ACCURACY:
        return ACCURACY[name.removesuffix("_p50")]
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ns_per_unknown", "ns_per_unknown_step")):
        return "ns"
    if name.endswith(("_frac", "_per_solve")):
        return "ratio"
    return "count"


def tail_percentile(times: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """Highest order statistic with at least ``beyond`` samples above it.

    Returns ``(value, percentile)`` where the percentile is ``100 * rank / n``
    for the 1-based rank ``n - beyond``, or None when ``n <= beyond``.
    """
    n = len(times)
    if n <= beyond:
        return None
    rank = n - beyond
    return sorted(times)[rank - 1], 100.0 * rank / n


def git_commit(root: Path) -> str | None:
    """Commit of ``root`` read from ``.git`` directly, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def import_program() -> float:
    """Import ``patchcontrol`` from this checkout; return the seconds it took."""
    if not (SRC / "patchcontrol" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    t0 = time.perf_counter()
    import patchcontrol

    seconds = time.perf_counter() - t0
    if Path(patchcontrol.__file__).resolve().parent != (SRC / "patchcontrol").resolve():
        raise SystemExit(f"error: imported patchcontrol from {patchcontrol.__file__}, not {SRC}")
    return seconds


def run_item(workload, case):
    t0 = time.perf_counter()
    try:
        outcome = workload.run(case)
    except Exception:  # an item that raises is a failed item, and the run goes on
        from workloads import Outcome

        outcome = Outcome(False, (), note=traceback.format_exc(limit=4))
    return time.perf_counter() - t0, outcome


def pass_count(workload, seconds: float) -> int:
    """Whole passes that take about ``seconds`` on the baseline machine.

    At least enough passes for the tail percentile to exist.  The count
    depends only on ``seconds``, never on how fast this run goes, so every run
    of a workload times the same items and the tail percentile always falls on
    the same rank.
    """
    cases = workload.design_size - len(workload.excluded)
    return max(round(seconds / workload.pass_s), math.ceil((TAIL_BEYOND + 1) / cases))


def timed_loop(workload, passes, n_passes: int, around=None, after_pass=None, stall_s: float = math.inf):
    """Run ``n_passes`` whole passes over the design.

    ``after_pass`` is called (untimed) after each pass.  No pass starts once
    ``stall_s`` seconds have gone and the tail percentile exists, so a badly
    slowed program still ends with a result.
    """
    records = []
    t0 = time.perf_counter()
    for cases in itertools.islice(passes, n_passes):
        for case in cases:
            if around is None:
                dt, outcome = run_item(workload, case)
            else:
                with around(len(records)):
                    dt, outcome = run_item(workload, case)
            records.append((case, dt, outcome))
        if after_pass is not None:
            after_pass()
        if time.perf_counter() - t0 >= stall_s and len(records) > TAIL_BEYOND:
            break
    return records


def set_up(workload, seed: int):
    """Draw the design and the first pass, and run the warm-up items (untimed)."""
    from workloads import passes

    stream = passes(workload, seed)
    first = next(stream)
    for case in workload.warmup():
        run_item(workload, case)
    return itertools.chain([first], stream)


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, env=os.environ.copy(), cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def accuracy_medians(outcomes) -> dict[str, float]:
    outcomes = list(outcomes)
    out = {}
    for key in ACCURACY:
        vals = [o.accuracy[key] for o in outcomes if key in o.accuracy]
        out[f"{key}_p50"] = statistics.median(vals) if vals else 0.0
    return out


def summed_counts(outcomes) -> dict[str, int]:
    total: dict[str, int] = {}
    for o in outcomes:
        for k, v in o.counts.items():
            total[k] = total.get(k, 0) + v
    return total


def metric_block(values: dict[str, float], units) -> dict:
    return {k: {"value": v, "unit": units(k)} for k, v in values.items()}


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def failures(records) -> list[dict]:
    return [
        {"item": i, "case": repr(case)[:300], "note": o.note[-600:]}
        for i, (case, _, o) in enumerate(records)
        if not o.ok
    ][:10]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    cases = set_up(workload, args.seed)
    own_setup = time.perf_counter() - _START
    if args.setup_only:
        print(repr(own_setup))
        return 0
    n_passes = pass_count(workload, args.seconds)
    report = {"environment": environment(args), "import_s": import_s, "passes": n_passes}
    if args.trace:
        metrics, records, extra = traced_run(workload, cases, n_passes, args)
        report.update(extra)
        units = per_layer_unit
    else:
        # The extra set-ups run between passes, so that their median samples
        # the machine over the whole run rather than over its first seconds.
        setups = [own_setup]

        def set_up_again():
            if len(setups) < SETUP_REPEATS:
                setups.append(child_setup_seconds(args.workload, args.seed))

        records = timed_loop(workload, cases, n_passes, after_pass=set_up_again, stall_s=STALL_FACTOR * args.seconds)
        while len(setups) < SETUP_REPEATS:
            set_up_again()
        report["setup_runs_s"] = setups
        times = [dt for _, dt, _ in records]
        tail_ms, tail_pct = tail_percentile([t * 1e3 for t in times])
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput": len(times) / sum(times),
            "item_p50_ms": statistics.median(times) * 1e3,
            "item_tail_ms": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["item_tail"] = {"percentile": tail_pct, "items": len(times), "beyond": TAIL_BEYOND}
        report["accuracy"] = accuracy_medians(o for _, _, o in records)
        units = END_TO_END.get

    outcomes = [o for _, _, o in records]
    failed = sum(not o.ok for o in outcomes)
    correct = failed == 0 and report.get("bit_identical", True)
    report.update(
        {
            "failed_frac": failed / len(outcomes),
            "counts": summed_counts(outcomes),
            "failures": failures(records),
            "metrics": metrics,
        }
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": metric_block(metrics, units),
            }
        )
    )
    return 0


def traced_run(workload, passes, n_passes: int, args):
    """Each pass runs untraced and then traced; per-layer metrics from the traced runs.

    Half as many passes as a timed run, so that both take about as long.
    """
    from tracing import Tracer, dominant_layer, layer_metrics

    tracer = Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    for cases in itertools.islice(passes, max(1, n_passes // 2)):
        plain += timed_loop(workload, [cases], 1)
        with tracer.installed():
            traced += timed_loop(
                workload, [cases], 1, around=lambda i: tracer.span("bench.item", item=len(traced) + i)
            )
        if time.perf_counter() - t0 >= STALL_FACTOR * args.seconds:
            break
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    plain_s = sum(dt for _, dt, _ in plain)
    traced_s = sum(dt for _, dt, _ in traced)
    metrics = layer_metrics(tracer.spans)
    metrics["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0
    metrics.update(accuracy_medians(o for _, _, o in plain))
    identical = all(repr(a.values) == repr(b.values) for (_, _, a), (_, _, b) in zip(plain, traced))
    extra = {
        "bit_identical": identical,
        "dominant_layer": dominant_layer(metrics),
        "untraced_s": plain_s,
        "traced_s": traced_s,
    }
    return metrics, plain + traced, extra


if __name__ == "__main__":
    sys.exit(main())
