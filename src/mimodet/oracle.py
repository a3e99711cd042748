"""Exact reference detectors used as ground truth in tests and experiments.

The brute-force ones enumerate everything and favor obviousness over
speed; every optimized path in the package is checked against them.
:func:`ml_hard_batch` is a radius-pruned ML search that is also exact.
"""

from __future__ import annotations

import numpy as np

from .constellation import PamAxis
from .decomp import ql_decompose_batch
from .detcore import hard_slice, symbols_of
from .errors import EnumerationBudgetError
from .llrpost import DetectionResult

__all__ = ["exhaustive_map", "exhaustive_axis_argmin", "ml_hard_batch", "ENUM_BUDGET"]

ENUM_BUDGET = 2**24
_ML_CHUNK = 256  # trials per exact-ML search; caps the frontier's memory


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


def _fix_layer(l, i, tr, d, r, x, radius):
    """Fix layer i of a stack of search states and prune.

    A state is its trial ``tr``, partial distance ``d`` and residual ``r``
    (rows i..n-1 of y - Lx over the layers fixed so far); ``x`` holds k
    candidate symbols per state, (S, k) or (1, k).  Each child adds
    |r_i - l_ii x|^2 in real arithmetic and is dropped when that exceeds
    ``radius[tr]``; survivors subtract L[i+1:, i] x from their remaining
    rows.  Returns (parent, candidate, d, r) of the survivors in C order
    of (state, candidate).
    """
    e = r[:, :1] - l[tr, i, i].real[:, None] * x
    d = d[:, None] + (e.real * e.real + e.imag * e.imag)
    # not "d <= radius": NaN states (non-finite inputs; singular channels raise
    # before the search) survive, so every trial keeps a row of output
    s, k = np.nonzero(~(d > radius[tr][:, None]))
    xs = np.broadcast_to(x, d.shape)[s, k]
    return s, k, d[s, k], r[s, 1:] - l[tr[s], i + 1:, i] * xs[:, None]


def _nearest_column(l, i, tr, r, c):
    """Nearest symbol of layer i for each state, as an (S, 1) column."""
    beta = l[tr, i, i].real[:, None]
    z = r[:, :1]
    return hard_slice(c.real_axis, z.real, beta) + 1j * hard_slice(c.imag_axis, z.imag, beta)


def _ml_search(l, yt, constellations):
    """Exact ML hard decisions for lower-triangular L and y~ (see ml_hard_batch)."""
    t, n = yt.shape
    every = np.arange(t)
    radius = np.full(t, np.inf)
    d, r = np.zeros(t), yt
    for i, c in enumerate(constellations):  # SIC (Babai) point
        _, _, d, r = _fix_layer(l, i, every, d, r, _nearest_column(l, i, every, r, c), radius)
    radius = d
    tr, d, r, prefix = every, np.zeros(t), yt, np.zeros(t, dtype=np.int64)
    for i, c in enumerate(constellations[:-1]):
        s, k, d, r = _fix_layer(l, i, tr, d, r, c.points[None, :], radius)
        tr, prefix = tr[s], prefix[s] * c.order + k
    x_last = _nearest_column(l, n - 1, tr, r, constellations[-1])
    s, _, d, _ = _fix_layer(l, n - 1, tr, d, r, x_last, radius)
    tr, prefix, x_last = tr[s], prefix[s], x_last[s, 0]
    # survivors are in (trial, prefix) order and lexsort is stable, so the
    # first row of each trial is its lowest-prefix minimizer
    order = np.lexsort((d, tr))
    win = order[np.r_[True, np.diff(tr[order]) != 0]]
    out = np.empty((t, n), dtype=complex)
    heads = np.unravel_index(prefix[win], [c.order for c in constellations[:-1]])
    out[tr[win], :-1] = symbols_of(np.stack(heads, axis=-1), constellations[:-1])
    out[tr[win], n - 1] = x_last[win]
    return out


def ml_hard_batch(h_eff, y_tilde, constellations) -> np.ndarray:
    """Exact zero-prior ML hard decisions over stacked trials.

    With H = Q L (L lower triangular, real positive diagonal) the metric
    ||y - Hx||^2 is ||Q^H y - Lx||^2, and row i of L x depends on layers
    0..i only, so the metric is a sum of per-row partial distances.  A
    breadth-first search fixes layers 0..n-2 one at a time over every
    symbol and slices the last layer, which realizes the minimum over it
    when priors are zero.

    The search is pruned at a per-trial radius: the metric of the SIC
    (Babai) point, which slices every layer in turn.  That point is
    feasible, so its metric bounds the ML metric; it is computed with
    the same row step as the search, so its partial sums are the
    search's own, bit for bit.  A partial distance never decreases as
    layers are added, so dropping a state only when its distance is
    greater than the radius keeps every minimizer, ties included.
    Ties go to the lowest enumeration index of the first n-1 layers
    (layer 0 most significant), then, on the sliced last layer, to the
    upper level of an exact midpoint.  Trials are searched 256 at a
    time, which only caps the memory of the search frontier.  Raises
    SingularChannelError when any channel is rank deficient.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    y_tilde = np.asarray(y_tilde, dtype=complex)
    t, n, _ = h_eff.shape
    q, l = ql_decompose_batch(h_eff)
    yt = np.einsum("tji,tj->ti", q.conj(), y_tilde)
    out = np.empty((t, n), dtype=complex)
    for lo in range(0, t, _ML_CHUNK):
        hi = lo + _ML_CHUNK
        out[lo:hi] = _ml_search(l[lo:hi], yt[lo:hi], constellations)
    return out
