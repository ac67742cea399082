"""Parameter sweeps: margins and eigenvalues along a design axis.

Sweeping the control mortality shows the margin rising monotonically through
zero at the design threshold; sweeping the patch width shows the single
status flip at the critical size.  The same tables are available from the
command line (`patchcontrol sweep --preset lone-star --vary mu ...`) as CSV.
"""

import numpy as np

from patchcontrol import ScalarProblem, scalar_verdict, top_eigenvalue_scalar

print("=" * 72)
print("Sweep 1: control mortality mu on the lone-star landscape")
print("=" * 72)
print(f"{'mu':>8} {'margin':>12} {'top eigenvalue':>16} {'status':>12}")
for mu in np.geomspace(5, 160, 9):
    p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=mu, R=14.0, r=1.0)
    v = scalar_verdict(p)
    top = top_eigenvalue_scalar(p).top_eigenvalue
    print(f"{mu:8.2f} {v.margin:12.4f} {top:16.6f} {v.status.value:>12}")

print()
print("=" * 72)
print("Sweep 2: patch width R across the critical size (huge mortality)")
print("=" * 72)
print(f"{'R':>8} {'margin':>12} {'status':>12}")
for R in np.linspace(12.0, 18.0, 13):
    p = ScalarProblem(a=16.67, lam=0.65, b=16.67, mu=1e6, R=R, r=1.0)
    v = scalar_verdict(p)
    print(f"{R:8.2f} {v.margin:12.4f} {v.status.value:>12}")

print()
print("No mortality, however extreme, rescues a patch beyond its critical")
print("size: the wide-R rows stay Survival with mu = 1e6.")
