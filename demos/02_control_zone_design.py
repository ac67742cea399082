"""Designing control zones: how much mortality, how wide a barrier?

A periodic landscape alternates beneficial zones of width R with control
zones of width r where mortality is raised to mu.  The eradication condition
is an explicit tan/tanh balance, so the minimal mu (or the minimal r) is a
one-dimensional root find.  Every closed-form number below is double-checked
against the finite-difference oracle.
"""

from patchcontrol import (
    GridSpec,
    ScalarProblem,
    min_mortality,
    min_zone_width,
    scalar_verdict,
)
from patchcontrol.oracle import min_mortality_fd, verdict_fd
from patchcontrol.scalar import control_inequality_sides

GRID = GridSpec(cells_per_unit_length=64, refinement_levels=2)

print("=" * 70)
print("Lone-star landscape: R = 14 km patches, 1 km control zones")
print("=" * 70)

base = dict(a=16.67, lam=0.65, b=16.67, R=14.0, r=1.0)
for mu in (10.0, 50.0):
    p = ScalarProblem(mu=mu, **base)
    v = scalar_verdict(p)
    lhs, rhs = control_inequality_sides(p)
    oracle = verdict_fd(p.to_layout(), GRID)
    print(f"mu = {mu:5.1f}: lhs = {lhs:7.3f} vs rhs = {rhs:7.3f} "
          f"-> {v.status.value:11s} (oracle: {oracle.status.value})")

print()
mu_star = min_mortality(**base)
mu_oracle = min_mortality_fd(ScalarProblem(mu=1.0, **base).to_layout(), GRID)
print(f"minimal eradicating mortality, closed form: mu* = {mu_star:.4g} /month")
print(f"minimal eradicating mortality, grid oracle: mu* = {mu_oracle:.4g} /month")
print(f"relative difference: {abs(mu_star - mu_oracle) / mu_star:.2e}")
print()
print("(A published estimate for this configuration quotes ~1958 /month; both")
print("independent methods above give ~41, and neither reproduces 1958, whose")
print("source is unsettled. The published threshold constant 17.03 is a")
print("rounding artifact: tan(1.38) in place of tan(1.3823) gives 17.04, and a")
print("threshold of 17.03 would imply mu ~ 40.7, at which the ticks survive.)")

print()
print("=" * 70)
print("Minimal barrier width at fixed mortality")
print("=" * 70)

design = dict(a=1.0, lam=0.2, b=1.0, R=1.0, mu=2.0)
r_star = min_zone_width(**design)
print(f"R = 1, growth 0.2, mu = 2: minimal control width r* = {r_star:.4g}")
for factor in (0.9, 1.1):
    p = ScalarProblem(a=1.0, lam=0.2, b=1.0, mu=2.0, R=1.0, r=factor * r_star)
    print(f"  r = {factor:.1f} r* -> {scalar_verdict(p).status.value}")
