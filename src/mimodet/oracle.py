"""Brute-force reference detectors used as ground truth in tests.

These enumerate everything and favor obviousness over speed; every
optimized path in the package is checked against them.
"""

from __future__ import annotations

import numpy as np

from .constellation import PamAxis
from .errors import EnumerationBudgetError
from .llrpost import DetectionResult

__all__ = ["exhaustive_map", "exhaustive_axis_argmin", "ENUM_BUDGET"]

ENUM_BUDGET = 2**24


def exhaustive_map(m, y, constellations, priors=None) -> DetectionResult:
    """Exact minimum-distance detection by full enumeration.

    Minimizes d(x) = ||y - Mx||^2 - b(x)'lam over the symbol grid, where
    M may be a channel matrix or a triangular factor with y transformed
    accordingly; ``priors`` is None or one (q_n,) array per layer.
    Enumeration is lexicographic over layer-major bit patterns, which
    fixes the argmin on ties.  Also returns every per-bit LLR (min over
    the +1 partition minus min over the -1 partition).  Raises
    EnumerationBudgetError beyond ``ENUM_BUDGET`` hypotheses.
    """
    m = np.asarray(m, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = len(constellations)
    orders = [c.order for c in constellations]
    total = int(np.prod(orders))
    if total > ENUM_BUDGET:
        raise EnumerationBudgetError(f"{total} hypotheses exceed budget {ENUM_BUDGET}")

    grids = np.meshgrid(*[np.arange(q) for q in orders], indexing="ij")
    idx = np.stack([g.reshape(-1) for g in grids], axis=1)  # (total, N)
    x = np.empty((total, n), dtype=complex)
    bias = np.zeros(total)
    for i, c in enumerate(constellations):
        x[:, i] = c.points[idx[:, i]]
        if priors is not None:
            bias += (c.point_bits @ np.asarray(priors[i], dtype=float))[idx[:, i]]

    resid = y[None, :] - x @ m.T
    d = np.sum(resid.real * resid.real + resid.imag * resid.imag, axis=1) - bias

    imin = int(np.argmin(d))
    d_cube = d.reshape(orders)
    llrs = []
    for i, c in enumerate(constellations):
        other = tuple(ax for ax in range(n) if ax != i)
        per_symbol = d_cube.min(axis=other) if other else d_cube
        bits = c.point_bits
        pos = np.min(np.where(bits == 1, per_symbol[:, None], np.inf), axis=0)
        neg = np.min(np.where(bits == -1, per_symbol[:, None], np.inf), axis=0)
        llrs.append(pos - neg)

    return DetectionResult(
        hard=x[imin],
        dmin=float(d[imin]),
        llr=tuple(llrs),
        hard_index=idx[imin],
    )


def exhaustive_axis_argmin(axis: PamAxis, quad: float, offset: float, u: float, lam_axis):
    """Argmin over one axis of quad*p^2 + (offset + u)*p - b(p)'lam.

    Enumerates every level; equal metrics resolve to the lower level
    index.  It is the soft slicer's reference at exact ties and away
    from its breakpoints only: the metric is compared in floating point,
    so one ulp beside a breakpoint it can round the gap between two
    levels into a tie and return the lower level where the exact argmin
    is the upper one.
    """
    lam_axis = np.asarray(lam_axis, dtype=float)
    bias = axis.bits @ lam_axis if axis.bits_per_level else np.zeros(axis.size)
    lv = axis.levels
    gu = offset + u
    metric = quad * lv * lv + gu * lv - bias
    return float(lv[np.argmin(metric)])
