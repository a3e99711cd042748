"""LLR extraction from candidate lists and combining across decompositions.

LLR sign convention throughout: Lambda = min over the (+1) partition
minus min over the (-1) partition, so the sign points toward the hard
decision (negative when the detected bit is +1).  Outputs carry the
unscaled distance metric; multiplying by sigma^2/2 recovers true
log-likelihood ratios and is left to the caller.

The work runs on :class:`~mimodet.detcore.CandidateBatch` stacks of T
trials (``two_sided_batch``, ``combine_batch``); ``llr_two_sided`` and
``combine_lists`` are their T=1 views, taking one-trial batches.  Bits
are looked up through each candidate's constellation index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detcore import CandidateBatch
from .errors import MinimaMismatchError

__all__ = ["DetectionResult", "llr_two_sided", "combine_lists", "two_sided_batch",
           "combine_batch"]


@dataclass(frozen=True)
class DetectionResult:
    """Detector output for one trial, or for T trials along a leading axis."""

    hard: np.ndarray  # (N,) complex symbol vector
    dmin: float
    llr: tuple[np.ndarray, ...]  # per layer, (q_n,)
    hard_index: np.ndarray  # (N,) indices into each layer's points

    def row(self, t: int | slice) -> "DetectionResult":
        """Trial t (an index) or trials t (a slice) of a batched result."""
        dmin = self.dmin[t]
        return DetectionResult(self.hard[t], dmin if np.ndim(dmin) else float(dmin),
                               tuple(lam[t] for lam in self.llr), self.hard_index[t])


def partition_minima(distances: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit minima of distances (..., Q) over the +-1 partitions of bits (..., Q, q)."""
    dist = distances[..., None]
    pos = np.min(np.where(bits == 1, dist, np.inf), axis=-2)
    neg = np.min(np.where(bits == -1, dist, np.inf), axis=-2)
    return pos, neg


def _own_layer_minima(distances: np.ndarray, constellation) -> tuple[np.ndarray, np.ndarray]:
    """:func:`partition_minima` of a list holding every point of its own layer in index order.

    A real-axis bit depends only on the real level, so its partitions are
    unions of whole rows of the (P_re, P_im) level grid: the minimum over
    each row's imaginary levels, then over the P_re levels of each
    partition, is the same minimum (and likewise for imaginary bits).
    """
    grid = distances[..., constellation.level_grid]  # (..., P_re, P_im)
    pos = np.empty(distances.shape[:-1] + (constellation.bits_per_symbol,))
    neg = np.empty_like(pos)
    for axis, bit_idx, level_min in (
        (constellation.real_axis, constellation.real_bit_idx, grid.min(axis=-1)),
        (constellation.imag_axis, constellation.imag_bit_idx, grid.min(axis=-2)),
    ):
        pos[..., bit_idx], neg[..., bit_idx] = partition_minima(level_min, axis.bits)
    return pos, neg


def _llr(batches, layer: int, constellation) -> np.ndarray:
    """(T, q) bit LLRs of one layer from the partition minima over all batches.

    A list holding every point of the layer in index order (its own
    list) takes its minima separably; all other lists take theirs in one
    :func:`partition_minima` call over their candidates side by side,
    which is exact because a minimum does not depend on order.
    """
    pos = neg = np.inf
    others = []
    for cand in batches:
        index = cand.index[:, :, layer]
        own = cand.layer == layer and index.shape[1] == constellation.order
        if own and (index == np.arange(constellation.order)).all():
            p, m = _own_layer_minima(cand.distances, constellation)
            pos, neg = np.minimum(pos, p), np.minimum(neg, m)
        else:
            others.append((cand.distances, index))
    if others:
        dist, index = (np.concatenate(a, axis=1) for a in zip(*others))
        p, m = partition_minima(dist, constellation.point_bits[index])
        pos, neg = np.minimum(pos, p), np.minimum(neg, m)
    return pos - neg


def best_candidates(batches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial argmin over the union of candidate batches.

    Returns (symbols (T, N), distances (T,), indices (T, N)); ties go to
    the earlier batch, then the lower enumeration index.
    """
    best = None
    for cand in batches:
        k = np.argmin(cand.distances, axis=1)
        rows = np.arange(len(k))
        found = (cand.symbols[rows, k], cand.distances[rows, k], cand.index[rows, k])
        if best is None:
            best = found
            continue
        upd = found[1] < best[1]
        best = tuple(np.where(upd if a.ndim == 1 else upd[:, None], a, b)
                     for a, b in zip(found, best))
    return best


def two_sided_batch(
    cand1: CandidateBatch,
    cand2: CandidateBatch,
    constellations,
    min_match_rtol: float | None = 1e-9,
) -> DetectionResult:
    """Exact 2-layer soft output from the two one-sided lists of T trials.

    ``cand1`` must enumerate layer 0 and ``cand2`` layer 1.  Each
    layer's bit LLRs come from its own list; the two lists must attain
    the same minimum distance (checked, since both enumerate the full
    search space through norm-preserving decompositions; a mismatch
    raises MinimaMismatchError).  Pass
    ``min_match_rtol=None`` to skip the check when the inputs were
    deliberately perturbed, e.g. quantized.
    """
    if (cand1.layer, cand2.layer) != (0, 1):
        raise ValueError("expected lists enumerating layers 0 and 1")
    hard, dmin, hard_index = best_candidates([cand1, cand2])
    if min_match_rtol is not None:
        min1, min2 = cand1.distances.min(axis=1), cand2.distances.min(axis=1)
        tol = min_match_rtol * np.maximum(1.0, np.maximum(np.abs(min1), np.abs(min2)))
        bad = np.abs(min1 - min2) > tol
        if bad.any():
            t = np.argmax(bad)
            raise MinimaMismatchError(f"one-sided minima disagree beyond tolerance: "
                                      f"{float(min1[t])!r} vs {float(min2[t])!r}")
    llrs = tuple(_llr([cand], layer, constellations[layer])
                 for layer, cand in enumerate((cand1, cand2)))
    if not all(np.isfinite(lam).all() for lam in llrs):
        raise AssertionError("bit partition empty despite full enumeration")
    return DetectionResult(hard, dmin, llrs, hard_index)


def combine_batch(batches, constellations) -> DetectionResult:
    """Minimum-based combining of one candidate batch per detection layer.

    The hard decision is the overall argmin across lists (ties resolve
    to the lower detection layer, then the lower enumeration index).
    Per-bit LLRs take minima across all lists' partitions; a partition
    empty in one list contributes +inf and the result stays finite
    because list n enumerates layer n exhaustively.  For two layers this
    reduces to :func:`two_sided_batch`.
    """
    batches = sorted(batches, key=lambda cand: cand.layer)
    if [cand.layer for cand in batches] != list(range(len(constellations))):
        raise ValueError("need exactly one list per layer")
    if len({cand.distance_mode for cand in batches}) != 1:
        raise ValueError("lists mix distance modes")
    hard, dmin, hard_index = best_candidates(batches)
    llrs = tuple(_llr(batches, layer, c) for layer, c in enumerate(constellations))
    return DetectionResult(hard, dmin, llrs, hard_index)


def llr_two_sided(cand1: CandidateBatch, cand2: CandidateBatch, constellations) -> DetectionResult:
    """T=1 view of :func:`two_sided_batch` over one-trial batches, with the minima check.

    ``len()`` of a batch counts its fields; its candidates number ``distances.shape[1]``.
    """
    return two_sided_batch(cand1, cand2, constellations).row(0)


def combine_lists(batches, constellations) -> DetectionResult:
    """T=1 view of :func:`combine_batch` over one-trial batches.

    ``len()`` of a batch counts its fields; its candidates number ``distances.shape[1]``.
    """
    return combine_batch(batches, constellations).row(0)
