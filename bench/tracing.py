"""In-memory span tracer that wraps the program's functions from outside.

Nothing in ``src/`` is instrumented.  The tracer replaces module attributes
with timing wrappers for the duration of a traced run and puts the originals
back afterwards.  A function is wrapped under every name a caller looks it
up by: ``patchcontrol.cli.min_mortality_fd`` as well as
``patchcontrol.oracle.min_mortality_fd``, and ``oracle.assemble`` reached
through ``patchcontrol.simulate.assemble`` is recorded as
``simulate.assemble``.  The numerical kernels the oracle delegates to
(``eigvalsh_tridiagonal``, ``np.linalg.eigvalsh``, ``eigsh``,
``scipy.sparse.linalg.eigs``, ``np.linalg.eigvals``, ``splu``) count as
``oracle.solve.*`` only when they run directly under an oracle span.

Each span records its name, start, end, parent span and item id; spans stay
in memory until :meth:`Tracer.dump`.  A span's self time is its duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int
    info: dict | None = None


# Program functions traced, keyed by defining module and name.  Every module
# attribute bound to the same object is wrapped; ``_CALLER_NAMES`` renames
# the bindings whose caller is a different layer.
_PROGRAM_FUNCTIONS = (
    ("model", "validate_layout"),
    ("linalg", "max_real_eigenvalue"),
    ("scalar", "scalar_verdict"),
    ("scalar", "top_eigenvalue_scalar"),
    ("scalar", "min_mortality"),
    ("scalar", "min_zone_width"),
    ("staged", "two_stage_verdict"),
    ("staged", "symmetrized_sufficient_verdict"),
    ("oracle", "assemble"),
    ("oracle", "top_eigenvalue_fd"),
    ("oracle", "min_mortality_fd"),
    ("oracle", "min_zone_width_fd"),
    ("simulate", "simulate"),
    ("simulate", "growth_exponent"),
    ("cli", "main"),
)
_CALLER_NAMES = {("simulate", "assemble"): "simulate.assemble"}

# Library kernels: (owner, attribute, span name, only directly under an oracle span).
_KERNEL_SITES = (
    ("patchcontrol.oracle", "eigvalsh_tridiagonal", "oracle.solve.tridiagonal", True),
    ("numpy.linalg", "eigvalsh", "oracle.solve.dense", True),
    ("patchcontrol.oracle", "eigsh", "oracle.solve.eigsh", True),
    ("scipy.sparse.linalg", "eigs", "oracle.solve.arnoldi", True),
    ("numpy.linalg", "eigvals", "oracle.solve.dense_staged", True),
    ("patchcontrol.oracle", "splu", "oracle.solve.fallback", True),
    ("patchcontrol.simulate", "splu", "simulate.factor", False),
)


def _info(name: str, result) -> dict | None:
    """Sizes and outcomes read off a call's result, for the derived metrics."""
    if name == "oracle.assemble":
        return {"unknowns": int(result.n_unknowns)}
    if name == "simulate.simulate":
        return {"steps": len(result.times) - 1, "unknowns": int(result.final_profile.size)}
    if name == "cli.main":
        return {"exit": int(result)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.item = -1

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, info: dict | None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.info = info
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, item: int | None = None) -> Iterator[None]:
        if item is not None:
            self.item = item
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _under_oracle(self) -> bool:
        if not self._stack:
            return False
        name = self.spans[self._stack[-1]].name
        return name.startswith("oracle.") and not name.startswith("oracle.solve.")

    def wrap(self, fn: Callable, name: str, oracle_only: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if oracle_only and not tracer._under_oracle():
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, {"raised": type(exc).__name__})
                raise
            tracer._close(idx, _info(name, result))
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced program function and library kernel."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("patchcontrol")
        modules = {"": package}
        for key, mod in list(sys.modules.items()):
            if key.startswith("patchcontrol.") and mod is not None:
                modules[key.split(".", 1)[1]] = mod
        for defining, fname in _PROGRAM_FUNCTIONS:
            fn = getattr(modules[defining], fname)
            default_name = f"{defining}.{fname}"
            wrappers: dict[str, Callable] = {}
            for short, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        span_name = _CALLER_NAMES.get((short, fname), default_name)
                        if span_name not in wrappers:
                            wrappers[span_name] = self.wrap(fn, span_name)
                        self._patch(mod, attr, wrappers[span_name])
        for owner_name, attr, span_name, oracle_only in _KERNEL_SITES:
            owner = importlib.import_module(owner_name)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), span_name, oracle_only))

    def remove(self) -> None:
        """Put back every original attribute, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        try:
            self.install()
            yield self
        finally:
            self.remove()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "item": s.item, "info": s.info}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


SOLVE_PATHS = ("tridiagonal", "dense", "eigsh", "arnoldi", "dense_staged")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, self times and ratios; zero where a layer did not run."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t

    def n(name: str) -> int:
        return calls.get(name, 0)

    def st(name: str) -> float:
        return self_s.get(name, 0.0)

    def under(child: str, parents: tuple[str, ...]) -> int:
        return sum(
            1 for s in spans if s.name == child and s.parent is not None and spans[s.parent].name in parents
        )

    def info_sum(name: str, key: str) -> int:
        return sum(s.info[key] for s in spans if s.name == name and s.info and key in s.info)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    unknowns = info_sum("oracle.assemble", "unknowns")
    m["oracle.assemble.calls"] = n("oracle.assemble")
    m["oracle.assemble.self_s"] = st("oracle.assemble")
    m["oracle.assemble.unknowns"] = unknowns
    m["oracle.assemble.ns_per_unknown"] = ratio(st("oracle.assemble") * 1e9, unknowns)
    for path in SOLVE_PATHS:
        m[f"oracle.solve.{path}.calls"] = n(f"oracle.solve.{path}")
        m[f"oracle.solve.{path}.self_s"] = st(f"oracle.solve.{path}")
    eigsh_failed = sum(1 for s in spans if s.name == "oracle.solve.eigsh" and s.info and "raised" in s.info)
    m["oracle.solve.fallback.calls"] = n("oracle.solve.fallback") + eigsh_failed
    m["oracle.top_eigenvalue_fd.calls"] = n("oracle.top_eigenvalue_fd")
    m["oracle.top_eigenvalue_fd.self_s"] = st("oracle.top_eigenvalue_fd")
    inverse = ("oracle.min_mortality_fd", "oracle.min_zone_width_fd")
    m["oracle.fd_evals_per_solve"] = ratio(
        under("oracle.top_eigenvalue_fd", inverse), sum(n(p) for p in inverse)
    )
    m["oracle.min_mortality_fd.self_s"] = st("oracle.min_mortality_fd")
    m["oracle.min_zone_width_fd.self_s"] = st("oracle.min_zone_width_fd")

    m["scalar.scalar_verdict.calls"] = n("scalar.scalar_verdict")
    m["scalar.scalar_verdict.self_s"] = st("scalar.scalar_verdict")
    m["scalar.top_eigenvalue_scalar.self_s"] = st("scalar.top_eigenvalue_scalar")
    m["scalar.top_eigenvalue_scalar.fd_fallbacks"] = under(
        "oracle.top_eigenvalue_fd", ("scalar.top_eigenvalue_scalar",)
    )
    for fn in ("min_mortality", "min_zone_width"):
        m[f"scalar.{fn}.self_s"] = st(f"scalar.{fn}")
        m[f"scalar.{fn}.margin_evals"] = under("scalar.scalar_verdict", (f"scalar.{fn}",))

    for fn in ("two_stage_verdict", "symmetrized_sufficient_verdict"):
        m[f"staged.{fn}.calls"] = n(f"staged.{fn}")
        m[f"staged.{fn}.self_s"] = st(f"staged.{fn}")
    m["linalg.max_real_eigenvalue.calls"] = n("linalg.max_real_eigenvalue")

    loop_s = st("simulate.simulate")
    steps = info_sum("simulate.simulate", "steps")
    unknown_steps = sum(
        s.info["steps"] * s.info["unknowns"] for s in spans if s.name == "simulate.simulate" and s.info
    )
    m["simulate.step_loop.self_s"] = loop_s
    m["simulate.steps"] = steps
    m["simulate.steps_per_s"] = ratio(steps, loop_s)
    m["simulate.ns_per_unknown_step"] = ratio(loop_s * 1e9, unknown_steps)
    for part in ("assemble", "factor", "growth_exponent"):
        m[f"simulate.{part}.self_s"] = st(f"simulate.{part}")
    sim_calls = n("simulate.simulate")
    sim_items = len({s.item for s in spans if s.name == "simulate.simulate"})
    accepted = sum(1 for s in spans if s.name == "simulate.growth_exponent" and not (s.info and "raised" in s.info))
    m["simulate.retries"] = sim_calls - sim_items
    m["simulate.useful_frac"] = ratio(accepted, sim_calls)

    m["cli.main.calls"] = n("cli.main")
    m["cli.main.self_s"] = st("cli.main")
    m["cli.main.nonzero_exits"] = sum(1 for s in spans if s.name == "cli.main" and s.info and s.info.get("exit", 1) != 0)
    m["model.validate_layout.calls"] = n("model.validate_layout")
    m["model.validate_layout.self_s"] = st("model.validate_layout")
    return m


def dominant_layer(metrics: dict[str, float]) -> str:
    """Name of the ``*.self_s`` metric with the largest value."""
    return max((k for k in metrics if k.endswith(".self_s")), key=lambda k: metrics[k])

