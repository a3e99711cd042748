"""One-sided detector core over stacked trials: constants, slicers, candidates.

Distances are evaluated in the expanded quadratic form

    gbar(x) = A(x1re^2 + x1im^2) + C x1re + D x1im - b(x1)' lam1
              + sum_n min over levels of [B_n p^2 + (G_n + u)p - b(p)' lam_n]

with u = E_n x1re + F_n x1im on the real axis of layer n and
u = E_n x1im - F_n x1re on the imaginary axis.  gbar drops the
x-independent term |y|^2; candidate lists add it back and store the
absolute distances ||y - Lx||^2 - b(x)'lam.

Every per-axis minimum comes from soft decision boundaries built per
trial from that trial's priors (:func:`detect_one_sided_batch`);
``oracle.exhaustive_axis_argmin`` is the brute-force reference they
match at exact ties and away from breakpoints.  With zero priors no
table is built: each level's lower edge in u-space comes from the
scaled midpoint with the next level and never increases with the
level, so the level comes straight from the number of edges at or
below the query (the MU scoring loop, zero-prior sweeps and the VER
wld path take this path).  A square constellation slices both axes in
one call on stacked rows whenever both take the same path, with or
without priors (:func:`_slice_layer`).

The kernels carry a leading trial axis T and treat each trial on its
own, so a trial's result does not depend on the batch it ran in.
:func:`hypothesis_minima` serves MU classification: it enumerates the
first of two layers once for several hypotheses on the second and
keeps only each row's minimum distance.  Since a minimum does not
depend on candidate order, it enumerates the level grid rather than
the points, slices both axes of the second layer in one stacked call,
and adds |y|^2 to the minima rather than to every candidate.
``build_slicer_table`` is the T=1 view of the slicer tables;
``detect_one_sided`` and ``rescore_candidates`` return one-trial
:class:`CandidateBatch`es.
Priors are None or one array per layer, accepted pre-scaled (the
1/sigma^2 of the prior-LLR definition is the caller's responsibility).

Tie conventions, fixed for determinism: slicer intervals are closed at
the lower edge (lo <= u < hi), and equal-distance candidates resolve to
the lower level / lower enumeration index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constellation import PamAxis, split_prior
from .decomp import PuncturedDecomposition

__all__ = [
    "DistanceConstants",
    "hard_slice",
    "SlicerTable",
    "build_slicer_table",
    "soft_slice",
    "CandidateBatch",
    "symbols_of",
    "detect_one_sided",
    "detect_one_sided_batch",
    "hypothesis_minima",
    "rescore_candidates",
    "rescore_batch",
]

# rows x enumerated order per kernel call, across sides; caps the candidate lists' memory
BATCH_CELLS = 4096


@dataclass(frozen=True)
class DistanceConstants:
    """Coefficients of the expanded distance form for T decompositions.

    ``enum_*`` (T,) multiply the enumerated layer's coordinates,
    ``slice_*`` and ``cross_*`` (T, N-1) feed the per-layer axis
    metrics of the sliced layers (column n-1 for layer n).
    """

    enum_quad: np.ndarray  # alpha^2 + sum |c_n|^2
    enum_lin_re: np.ndarray  # -2(alpha y1re + sum(c_nre y_nre + c_nim y_nim))
    enum_lin_im: np.ndarray  # -2(alpha y1im + sum(c_nre y_nim - c_nim y_nre))
    slice_quad: np.ndarray  # beta_n^2
    cross_re: np.ndarray  # +2 beta_n c_nre
    cross_im: np.ndarray  # -2 beta_n c_nim
    slice_lin_re: np.ndarray  # -2 beta_n y_nre
    slice_lin_im: np.ndarray  # -2 beta_n y_nim


def _constants(l: np.ndarray, y: np.ndarray) -> DistanceConstants:
    """Constants of the expanded distance form from (punctured) L (T, N, N) and y (T, N)."""
    alpha = l[:, 0, 0].real
    cre = l[:, 1:, 0].real
    cim = l[:, 1:, 0].imag
    beta = np.diagonal(l, axis1=1, axis2=2)[:, 1:].real
    yre = y.real
    yim = y.imag
    yre1 = yre[:, 1:]
    yim1 = yim[:, 1:]
    return DistanceConstants(
        enum_quad=alpha * alpha + np.sum(cre * cre + cim * cim, axis=1),
        enum_lin_re=-2.0 * (alpha * yre[:, 0] + np.sum(cre * yre1 + cim * yim1, axis=1)),
        enum_lin_im=-2.0 * (alpha * yim[:, 0] + np.sum(cre * yim1 - cim * yre1, axis=1)),
        slice_quad=beta * beta,
        cross_re=2.0 * beta * cre,
        cross_im=-2.0 * beta * cim,
        slice_lin_re=-2.0 * beta * yre1,
        slice_lin_im=-2.0 * beta * yim1,
    )


def _locate(breakpoints, u):
    """Number of breakpoints <= u; ``breakpoints`` broadcasts against u[..., None].

    An axis has at most 16 levels, so at most 15 breakpoints: the count
    runs in uint8, each comparison written into a uint8 buffer viewed as
    bool, and is cast to intp once.
    """
    u = np.asarray(u, dtype=float)
    assert breakpoints.shape[-1] < 256, "the uint8 count holds at most 255 breakpoints"
    count = np.zeros(np.broadcast(u[..., None], breakpoints[..., :1]).shape[:-1], dtype=np.uint8)
    hit = np.empty_like(count)
    for j in range(breakpoints.shape[-1]):
        np.less_equal(breakpoints[..., j], u, out=hit.view(bool))
        count += hit
    return count.astype(np.intp)


def hard_slice(axis: PamAxis, z, beta):
    """Nearest axis level of z under scaling beta (zero-prior slicing).

    Decision regions are beta*(p_{i-1}+p_i)/2 <= z < beta*(p_i+p_{i+1})/2,
    closed on the left, so an exact midpoint resolves to the upper level.
    ``beta`` broadcasts against z, e.g. (T, 1) per-trial scalings for a
    (T, C) query.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("beta must be positive")
    lv = axis.levels
    out = lv[_locate(beta[..., None] * ((lv[:-1] + lv[1:]) / 2.0), z)]
    return float(out) if out.ndim == 0 else out


def _bias(bits: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """b' lam (T, P) of each bit row (P, t) under per-trial priors lam (T, t)."""
    if not lam.any():
        return np.zeros((len(lam), len(bits)))
    return (bits @ lam[:, :, None])[:, :, 0]


def _slicer_tables(axis: PamAxis, quad, offset, lam):
    """Soft decision boundaries of one axis for T trials.

    ``quad`` and ``offset`` are (T,), ``lam`` (T, t).  Pairwise
    boundaries are R(p_i, p_k) = quad*(p_i + p_k) - (b(p_i) - b(p_k))'
    lam / (p_i - p_k); the interval form in u-space absorbs the offset
    (G or H), so level i wins exactly on [lo[i], hi[i]), and levels
    with lo >= hi are dominated by the priors and unreachable.

    Returns (bias, lo, hi, reachable, order, breakpoints), all (T, P)
    except breakpoints (T, P-1).  ``order`` lists the reachable levels
    by ascending lo (stable), then the unreachable ones;
    ``breakpoints`` holds lo of order[1:], +inf for unreachable levels,
    so the level containing u is order[number of breakpoints <= u].
    """
    lv = axis.levels
    bias = _bias(axis.bits, lam)
    # unit diagonal of diff: 0 / 1 there, and the masks below leave it out
    upper, diff = axis.pairwise
    neg_r = -(quad[:, None, None] * (lv[:, None] + lv[None, :]))
    neg_r += (bias[:, :, None] - bias[:, None, :]) / diff
    lo = np.max(neg_r, axis=2, where=upper, initial=-np.inf)
    hi = np.min(neg_r, axis=2, where=upper.T, initial=np.inf)
    lo -= offset[:, None]
    hi -= offset[:, None]
    reachable = lo < hi
    key = np.where(reachable, lo, np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    return bias, lo, hi, reachable, order, key[np.arange(len(key))[:, None], order[:, 1:]]


@dataclass(frozen=True)
class SlicerTable:
    """Soft decision regions of one axis, rearranged for interval tests.

    Level i wins exactly on [lo[i], hi[i]) in u-space; levels with
    lo >= hi are dominated by the priors and unreachable.  The reachable
    intervals tile the real line in order of decreasing level, so a
    query reduces to locating u among ``breakpoints``.
    """

    axis: PamAxis
    quad: float  # B_n
    offset: float  # G_n (real axis) or H_n (imag axis)
    bias: np.ndarray  # (P,) b(p_i)' lam_axis
    lo: np.ndarray  # (P,)
    hi: np.ndarray  # (P,)
    reachable: np.ndarray  # (P,) bool
    sel_idx: np.ndarray  # (K,) level indices ordered by interval position
    breakpoints: np.ndarray  # (K-1,) ascending interval bounds


def build_slicer_table(axis: PamAxis, quad: float, offset: float, lam_axis) -> SlicerTable:
    """Soft decision boundaries of one axis: the T=1 view of the batched tables."""
    lam_axis = np.asarray(lam_axis, dtype=float)
    if lam_axis.shape != (axis.bits_per_level,):
        raise ValueError("prior length does not match axis bits")
    bias, lo, hi, reachable, order, breakpoints = (
        a[0] for a in _slicer_tables(axis, np.array([quad]), np.array([offset]), lam_axis[None])
    )
    k = int(np.count_nonzero(reachable))
    return SlicerTable(
        axis, quad, offset, bias, lo, hi, reachable,
        sel_idx=order[:k], breakpoints=breakpoints[: k - 1],
    )


def soft_slice(table: SlicerTable, u):
    """Level whose decision interval contains u (lo <= u < hi)."""
    out = table.axis.levels[table.sel_idx[_locate(table.breakpoints, u)]]
    return float(out) if out.ndim == 0 else out


def _per_row(a, ndim):
    """(T,) constants shaped (T, 1, ...) against (T, ...) arrays of ``ndim`` axes."""
    return a.reshape((-1,) + (1,) * (ndim - 1))


def _slice_axis(axis: PamAxis, quad, offset, lam, u):
    """Per-axis minima of B p^2 + (G + u) p - bias for queries u (T, ...).

    ``quad`` and ``offset`` are (T,), ``lam`` (T, t) or None for zero
    priors.  Returns (level indices, min values, bias at the minimizing
    level), the bias a scalar 0.0 with zero priors.  Zero priors build no table:
    the lo of levels 0..P-2 (see :func:`_slicer_tables`) never increases
    with the level, rounding being monotone, so the level containing u
    is P-1 less the number of those lo <= u, exact ties, quad = 0 and
    unreachable levels included; the zero bias is not subtracted, as
    x - 0.0 is x bit for bit.
    """
    lv = axis.levels
    quad_u = _per_row(quad, u.ndim)
    offset_u = _per_row(offset, u.ndim)
    tables = lam is not None and lam.any()
    if tables:
        bias, _, _, _, order, breakpoints = _slicer_tables(axis, quad, offset, lam)
        # flat gathers from the (T, P) tables at row offsets
        rows = _per_row(np.arange(0, order.size, len(lv)), u.ndim)
        flat = _locate(breakpoints.reshape(quad_u.shape + (-1,)), u)
        flat += rows
        k = np.take(order, flat)
        b_hat = np.take(bias, np.add(k, rows, out=flat))
    else:
        lo = -(quad[:, None] * (lv[:-1] + lv[1:])) - offset[:, None]
        k = len(lv) - 1 - _locate(lo.reshape(quad_u.shape + (-1,)), u)
        b_hat = 0.0
    # quad p p + (offset + u) p - bias in place, in that evaluation order
    p_hat = np.take(lv, k)
    val = quad_u * p_hat
    val *= p_hat
    lin = offset_u + u
    lin *= p_hat
    val += lin
    if tables:
        val -= b_hat
    return k, val, b_hat


def _enumerated_metric(k: DistanceConstants, x1re, x1im):
    """A|x1|^2 + C x1re + D x1im (T, ...) of enumerated coordinates x1re, x1im.

    The coordinates broadcast against each other: the points (Q,) or a
    level grid (P_re, 1) and (1, P_im), whose products with C and D then
    stay (T, P_re, 1) and (T, 1, P_im) until the sums broadcast them.
    """
    ndim = 1 + np.ndim(x1re)
    return (
        _per_row(k.enum_quad, ndim) * (x1re * x1re + x1im * x1im)
        + _per_row(k.enum_lin_re, ndim) * x1re
        + _per_row(k.enum_lin_im, ndim) * x1im
    )


def _slice_layer(c, quad, cross_re, cross_im, lin_re, lin_im, lam, x1re, x1im):
    """Axis minima of one sliced layer with constellation c, given x1.

    ``quad``, ``cross_*`` and ``lin_*`` are the layer's (T,) constants,
    ``lam`` its (T, q) priors or None for zero priors; x1re and x1im
    broadcast as in :func:`_enumerated_metric`.  Returns the real and
    the imaginary axis' (level indices, min values, bias) of
    :func:`_slice_axis`.

    The queries u_re = E x1re + F x1im and u_im = E x1im - F x1re go
    into one (2, T, ...) buffer.  A square constellation slices both in
    one call on the 2T stacked rows when both axes take the same path:
    zero priors on both, or non-zero priors on both (one table per
    stacked row).  An axis whose priors are all zero beside a non-zero
    axis is sliced on its own: stacked, it would take the tables path,
    whose biases can be -0.0 where the zero-prior path gives 0.0.
    """
    ndim = 1 + np.ndim(x1re)
    cre = _per_row(cross_re, ndim)
    cim = _per_row(cross_im, ndim)
    u = np.empty((2, len(quad)) + np.broadcast(x1re, x1im).shape)
    np.add(cre * x1re, cim * x1im, out=u[0])
    np.subtract(cre * x1im, cim * x1re, out=u[1])
    lam_re, lam_im = (None, None) if lam is None or not lam.any() else split_prior(c, lam)
    if c.real_axis is c.imag_axis and (lam_re is None or (lam_re.any() and lam_im.any())):
        k, v, b = _slice_axis(
            c.real_axis, np.concatenate((quad, quad)), np.concatenate((lin_re, lin_im)),
            None if lam_re is None else np.concatenate((lam_re, lam_im)),
            u.reshape((-1,) + u.shape[2:]),
        )
        k, v = k.reshape(u.shape), v.reshape(u.shape)
        b = (b, b) if lam_re is None else b.reshape(u.shape)
        return (k[0], v[0], b[0]), (k[1], v[1], b[1])
    return (
        _slice_axis(c.real_axis, quad, lin_re, lam_re, u[0]),
        _slice_axis(c.imag_axis, quad, lin_im, lam_im, u[1]),
    )


class CandidateBatch(NamedTuple):
    """Candidate lists of T trials from one decomposition.

    Each list holds symbol vectors enumerated on one layer with sliced
    companions: row q of trial t holds the q-th enumerated point of
    ``layer`` (bit-lexicographic order) and the per-layer minimizers
    given it.  ``distances`` are absolute: ||y - Lx||^2 - b(x)'lam for
    L-based lists, ||ytilde - Hx||^2 - b(x)'lam after rescoring.
    ``index`` holds each symbol's index into its layer's constellation
    points (see :func:`symbols_of`).  ``len()`` of a batch counts its
    fields; its candidates number ``distances.shape[1]``.
    """

    distances: np.ndarray  # (T, Q)
    prior_bias: np.ndarray  # (T, Q)
    index: np.ndarray  # (T, Q, N)
    layer: int
    distance_mode: str  # "L" | "H"


def symbols_of(index: np.ndarray, constellations) -> np.ndarray:
    """Symbols (..., N) of point indices (..., N), layer n's from ``constellations[n]``."""
    return np.stack([c.points[index[..., n]] for n, c in enumerate(constellations)], axis=-1)


def _layer_priors(priors, constellations, t):
    """``priors`` as None or one float (T, q_n) array per layer of ``constellations``.

    Raises ValueError naming the first layer whose entry (None included)
    does not hold T rows of q_n prior LLRs.
    """
    if priors is None:
        return None
    out = [np.asarray(lam, dtype=float) for lam in priors]
    if len(out) != len(constellations):
        raise ValueError(f"expected one prior array per layer, got {len(out)}")
    for i, (c, lam) in enumerate(zip(constellations, out)):
        if lam.shape != (t, c.bits_per_symbol):
            raise ValueError(f"layer {i}: expected {c.bits_per_symbol} priors")
    return out


def detect_one_sided_batch(l: np.ndarray, y: np.ndarray, constellations,
                           priors=None) -> CandidateBatch:
    """Enumerate decomposition position 0 and slice all others, for R rows.

    ``l`` (R, N, N) and ``y`` (R, N) hold the rows' punctured factors
    and transformed observations W* ytilde.  ``constellations`` and
    ``priors`` (None or one (R, q_i) array of prior LLRs per position)
    are indexed by decomposition position, position 0 the enumerated
    layer; the returned batch has ``layer`` 0 and its ``index`` columns
    in position order.
    """
    l = np.asarray(l, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n_rows, n, _ = l.shape
    if priors is None:
        priors = [np.zeros((n_rows, c.bits_per_symbol)) for c in constellations]
    k = _constants(l, y)
    c0 = constellations[0]
    q = c0.order
    index = np.empty((n_rows, q, n), dtype=np.intp)
    pts = c0.points
    x1re = pts.real
    x1im = pts.imag
    bias0 = _bias(c0.point_bits, priors[0])
    gbar = _enumerated_metric(k, x1re, x1im)
    gbar -= bias0
    total_bias = bias0.copy()
    index[:, :, 0] = np.arange(q)
    for i in range(1, n):
        c = constellations[i]
        (k_re, v_re, b_re), (k_im, v_im, b_im) = _slice_layer(
            c, k.slice_quad[:, i - 1], k.cross_re[:, i - 1], k.cross_im[:, i - 1],
            k.slice_lin_re[:, i - 1], k.slice_lin_im[:, i - 1], priors[i], x1re, x1im,
        )
        gbar += v_re + v_im
        total_bias += b_re + b_im
        index[:, :, i] = c.level_grid[k_re, k_im]

    dropped = np.sum(y.real * y.real + y.imag * y.imag, axis=1)
    return CandidateBatch(gbar + dropped[:, None], total_bias, index, 0, "L")


def hypothesis_minima(l: np.ndarray, y: np.ndarray, enumerated, hypotheses) -> np.ndarray:
    """Minimum distance (H, R) of R two-layer rows under each hypothesis for layer 1.

    ``l`` (R, 2, 2) and ``y`` (R, 2) hold the rows' factors and
    transformed observations.  Layer 0 carries ``enumerated``; under
    hypothesis h layer 1 carries ``hypotheses[h]`` at unit energy, its
    column of ``l`` scaled by the constellation's ``unit_energy_scale``.
    Priors are zero.  Entry (h, r) equals the minimum of row r's
    candidate distances from :func:`detect_one_sided_batch` on the
    scaled factor, bit for bit:

    - the enumerated layer's metric does not depend on the column scale
      and is computed once for every hypothesis;
    - a row's minimum does not depend on the order of its candidates, so
      layer 0 is enumerated as its (P_re, P_im) level grid rather than
      in point order: the products with the level coordinates are taken
      on (R, P_re, 1) and (R, 1, P_im) arrays and meet in one broadcast
      add per sum, each element the same float as in point order;
    - both axes of layer 1 are sliced in one stacked call
      (:func:`_slice_layer`), every hypothesis being square QAM;
    - |y|^2 is added to the (H, R) minima, not to every candidate:
      rounding is monotone, so min_i fl(g_i + c) = fl(min_i g_i + c).
    """
    l = np.asarray(l, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if l.ndim != 3 or l.shape[1:] != (2, 2) or y.shape != l.shape[:2]:
        raise ValueError("l must be (R, 2, 2) and y (R, 2)")
    k = _constants(l, y)
    x1re = enumerated.real_axis.levels[:, None]
    x1im = enumerated.imag_axis.levels[None, :]
    gbar = _enumerated_metric(k, x1re, x1im)
    beta = l[:, 1, 1].real
    cre = l[:, 1, 0].real
    cim = l[:, 1, 0].imag
    out = np.empty((len(hypotheses), len(l)))
    for h, c in enumerate(hypotheses):
        # the terms of _constants with beta scaled, in its evaluation order
        b = beta * c.unit_energy_scale
        m2b = -2.0 * b
        (_, v_re, _), (_, v_im, _) = _slice_layer(
            c, b * b, 2.0 * b * cre, m2b * cim, m2b * y[:, 1].real, m2b * y[:, 1].imag,
            None, x1re, x1im,
        )
        g = v_re + v_im
        g += gbar
        out[h] = g.min(axis=(1, 2))
    out += np.sum(y.real * y.real + y.imag * y.imag, axis=1)
    return out


def detect_one_sided(
    d: PuncturedDecomposition,
    y: np.ndarray,
    constellations,
    priors=None,
) -> CandidateBatch:
    """Enumerate the detection layer and slice all others in parallel.

    ``y`` is the transformed observation W* ytilde; ``constellations``
    and ``priors`` (None or one (q_n,) array per layer) are indexed by
    original layer.  The T=1 view of :func:`detect_one_sided_batch`, run
    in decomposition order (``d.perm``): a one-trial batch in original
    layer order, whose ``len()`` counts its fields; its candidates
    number ``distances.shape[1]``.
    """
    n = d.n_layers
    if len(constellations) != n:
        raise ValueError("constellation count does not match decomposition")
    y = np.asarray(y, dtype=complex)
    if y.shape != (n,):
        raise ValueError("observation length does not match decomposition")
    if priors is not None:
        priors = _layer_priors([np.asarray(lam, dtype=float)[None] for lam in priors],
                               constellations, 1)
        priors = [priors[p] for p in d.perm]
    cand = detect_one_sided_batch(d.l[None], y[None], [constellations[p] for p in d.perm], priors)
    # position i holds layer perm[i]
    return cand._replace(index=cand.index[:, :, np.argsort(d.perm)], layer=d.layer)


def rescore_batch(cand: CandidateBatch, h: np.ndarray, y_tilde: np.ndarray,
                  constellations) -> CandidateBatch:
    """Replace distances with ||ytilde - Hx||^2 - b(x)'lam; h (T, N, N), y_tilde (T, N).

    Uses the prior bias recorded at list creation; entry order is preserved.
    """
    h = np.asarray(h, dtype=complex)
    y_tilde = np.asarray(y_tilde, dtype=complex)
    resid = y_tilde[:, None, :] - symbols_of(cand.index, constellations) @ h.transpose(0, 2, 1)
    quad = np.sum(resid.real * resid.real + resid.imag * resid.imag, axis=2)
    return cand._replace(distances=quad - cand.prior_bias, distance_mode="H")


def rescore_candidates(cand: CandidateBatch, h: np.ndarray, y_tilde: np.ndarray,
                       constellations) -> CandidateBatch:
    """Rescore a one-trial batch with the channel metric: the T=1 view of :func:`rescore_batch`.

    ``len()`` of a batch counts its fields; its candidates number ``distances.shape[1]``.
    """
    h = np.asarray(h, dtype=complex)
    y_tilde = np.asarray(y_tilde, dtype=complex)
    if h.shape[1] != cand.index.shape[2] or y_tilde.shape != (h.shape[0],):
        raise ValueError("channel/observation dimensions do not match the list")
    return rescore_batch(cand, h[None], y_tilde[None], constellations)
