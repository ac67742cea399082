"""Small dense eigenvalue helpers and scalar root finding.

Everything here works on matrices up to 8x8; the heavy grid eigensolves
live in :mod:`patchcontrol.oracle`.  :func:`brentq` is Brent's method with
SciPy's iterates, so the package never imports :mod:`scipy.optimize`;
:func:`expanding_root`, the inverse solvers' search for a first eradicating
parameter, evaluates each point once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

REAL_EIG_TOL = 1e-10
SYMMETRY_TOL = 1e-12
_BRENT_ITERATIONS = 100


class NoRealEigenvalueError(ValueError):
    pass


class NotSymmetricError(ValueError):
    pass


class ComplexOrRepeatedEigenvaluesError(ValueError):
    pass


def _as_square(N: np.ndarray) -> np.ndarray:
    N = np.atleast_2d(np.asarray(N, dtype=float))
    if N.ndim != 2 or N.shape[0] != N.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {N.shape}")
    if N.shape[0] > 8:
        raise ValueError(f"matrix dimension {N.shape[0]} exceeds 8")
    return N


def max_real_eigenvalue(N: np.ndarray) -> float:
    """Largest real eigenvalue of a small square matrix.

    For matrices with nonnegative off-diagonal entries this is the rightmost
    eigenvalue (Perron-type).  Raises ``NoRealEigenvalueError`` when no
    eigenvalue is real within tolerance.
    """
    N = _as_square(N)
    vals = np.linalg.eigvals(N)
    scale = 1.0 + max(np.abs(vals).max(initial=0.0), 1.0)
    real = vals[np.abs(vals.imag) <= REAL_EIG_TOL * scale]
    if real.size == 0:
        raise NoRealEigenvalueError("matrix has no real eigenvalue within tolerance")
    return float(real.real.max())


def symmetric_eigen(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and the matching orthonormal eigenvector columns
    of a symmetric matrix.

    Raises ``NotSymmetricError`` above 1e-12 relative asymmetry.
    """
    S = _as_square(S)
    scale = 1.0 + np.abs(S).max(initial=0.0)
    if np.abs(S - S.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(S)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


@dataclass(frozen=True)
class Eigen2x2:
    """Eigenvalues and pinned eigenvectors of 2x2 matrices stacked on leading axes.

    ``values[..., 0] >= values[..., 1]``; column ``j`` of ``vectors`` belongs
    to ``values[..., j]`` and is pinned to ``v1[0] = 1``, ``v2[1] = 1``.  An
    item is meaningful only where :meth:`check` passes.
    """

    disc: np.ndarray  # tr^2 - 4 det: real, distinct eigenvalues where > 0
    values: np.ndarray
    vectors: np.ndarray
    unpinnable: np.ndarray  # [..., j]: component j of eigenvector j vanishes

    @property
    def degenerate(self) -> np.ndarray:
        """Items for which :meth:`check` raises."""
        return (self.disc <= 0) | self.unpinnable.any(axis=-1)

    def check(self, index=(), vectors: bool = True) -> None:
        """Raise ``ComplexOrRepeatedEigenvaluesError`` if item ``index`` has no
        real distinct eigenvalues or, with ``vectors``, an unpinnable eigenvector."""
        if self.disc[index] <= 0:
            raise ComplexOrRepeatedEigenvaluesError(
                f"discriminant {self.disc[index]:.3g} <= 0: eigenvalues complex or repeated"
            )
        pins = np.flatnonzero(self.unpinnable[index]) if vectors else ()
        if len(pins):
            raise ComplexOrRepeatedEigenvaluesError(f"eigenvector component {pins[0]} vanishes; normalization infeasible")


def eigen_2x2(N: np.ndarray) -> Eigen2x2:
    """Closed-form eigen-decomposition of each 2x2 matrix in ``N[..., 2, 2]``.

    For stage matrices ``[[-m1, b1], [b2, -m2]]`` the pinned vectors are
    ``v1 = (1, (L1 + m1)/b1)`` and ``v2 = (b1/(L2 + m1), 1)``.
    """
    N = np.asarray(N, dtype=float)
    if N.ndim < 2 or N.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {N.shape}")
    n00, n01, n10, n11 = N[..., 0, 0, None], N[..., 0, 1, None], N[..., 1, 0, None], N[..., 1, 1, None]
    tr = n00 + n11
    disc = tr * tr - 4.0 * (n00 * n11 - n01 * n10)
    lam = 0.5 * (tr + np.sqrt(np.maximum(disc, 0.0)) * [1.0, -1.0])
    # Kernel of (N - lam I): the better-conditioned of the two row forms.
    row1 = np.stack(np.broadcast_arrays(n01, lam - n00), axis=-1)
    row2 = np.stack(np.broadcast_arrays(lam - n11, n10), axis=-1)
    first = np.linalg.norm(row1, axis=-1) >= np.linalg.norm(row2, axis=-1)
    v = np.where(first[..., None], row1, row2)  # v[..., j, :] belongs to lam[..., j]
    pivot = v[..., [0, 1], [0, 1]]
    unpinnable = np.abs(pivot) <= 1e-14 * (1.0 + np.abs(N).max(axis=(-2, -1)))[..., None]
    vectors = np.swapaxes(v / np.where(unpinnable, 1.0, pivot)[..., None], -1, -2)
    return Eigen2x2(disc=disc[..., 0], values=lam, vectors=vectors, unpinnable=unpinnable)


def brentq(f: Callable[[float], float], lo: float, hi: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in ``[lo, hi]`` by Brent's method (Brent 1973, ch. 4).

    A statement-for-statement copy of SciPy's C ``brentq`` and the NaN check of
    its Python wrapper: the same points, in the same floating-point order, give
    the same root bits and error messages as ``scipy.optimize.brentq`` with its
    default 100 iterations.  Returns an end where ``f`` is 0, else stops once
    the bracket is narrower than ``xtol + rtol |x|``.  Raises ``ValueError`` for
    a NaN value or ends of the same sign, ``RuntimeError`` after 100 iterations.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(lo), float(hi), float(xtol), float(rtol)  # C doubles, as SciPy parses them
    fpre, fcur = value(xpre), value(xcur)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_ITERATIONS):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to +-inf or NaN, which the test below refuses
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_ITERATIONS} iterations.")


def expanding_root(
    f: Callable[[float], float], cap: float, failure: Exception, xtol: float, rtol: float, start: float | None = None
) -> float:
    """Root of ``f`` at its first sign change from ``f <= 0`` to ``f > 0``.

    Unseeded (``start`` None or 0), it returns ``0.0`` when ``f(0) >= 0``, else
    doubles ``hi = 1, 2, 4, ...`` until ``f(hi) > 0`` and runs Brent's method on
    ``[hi/2, hi]``, or on ``[0, 1]``.  A guess ``start > 0`` opens the bracket
    ``[0.95 start, 1.05 start]``: ``lo`` halves, ``hi`` taking its place, while
    ``f(lo) > 0``, drops to 0 for the zero test below ``1e-12 start``, and ``hi``
    doubles as above.  ``f`` is evaluated at most once per point.  Raises
    ``failure`` once ``hi`` would exceed ``cap``, ``ValueError`` for a negative
    or non-finite ``start``.
    """
    if start is not None and not (np.isfinite(start) and start >= 0):
        raise ValueError(f"start must be finite and nonnegative, got {start}")
    f = functools.cache(f)
    lo, hi = (0.95 * start, 1.05 * start) if start else (0.0, 1.0)
    while lo > 0 and f(lo) > 0:
        lo, hi = lo / 2, lo
        if lo < 1e-12 * start:
            lo = 0.0
    if lo == 0 and f(0.0) >= 0:
        return 0.0
    while f(hi) <= 0:
        lo, hi = hi, 2 * hi
        if hi > cap:
            raise failure
    return brentq(f, lo, hi, xtol, rtol)
