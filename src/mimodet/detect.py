"""Detector dispatch: map2, wld and the exhaustive oracle over stacked trials.

A batched detection decomposes every side (one per detection layer)
of its trials in one call, then stacks the sides whose layers carry the
same constellations in decomposition order and runs detection,
rescoring and quantization once per stack of at most 4096 cells (rows x
enumerated order); a side's candidates do not depend on the stack it
ran in.  The side layout lives here alone: the one-sided kernel sees
rows in decomposition order, and :func:`_candidate_batches` maps each
side back to layer order.
"""

from __future__ import annotations

import numpy as np

from .decomp import punctured_decompose_batch, transform_observation_batch
from .detcore import (
    BATCH_CELLS, CandidateBatch, _layer_priors, detect_one_sided_batch, rescore_batch,
)
from .errors import ConfigError
from .hwmodel import FixedPointFormat, quantize
from .llrpost import DetectionResult, best_candidates, combine_batch, two_sided_batch
from .oracle import exhaustive_map

__all__ = ["DETECTORS", "detect_batch", "detect_instance", "wld_hard_batch"]

DETECTORS = ("map2", "wld", "oracle")
_WLD_CHUNK = 2048  # trials per wld detection call; caps the candidate lists' memory


def _check_detector(detector, distance_mode, n_layers):
    """Reject a detector and distance mode that cannot run on n_layers layers."""
    if detector not in DETECTORS:
        raise ConfigError(f"unknown detector {detector!r}")
    if detector == "map2" and n_layers != 2:
        raise ConfigError("detector=map2 requires 2 layers")
    if distance_mode not in ("L", "H"):
        raise ConfigError("distance_mode must be L or H")
    if distance_mode == "H" and detector != "wld":
        raise ConfigError("distance_mode=H applies to detector=wld only")


def _side_calls(constellations, sides, t):
    """Group detection layers (sides) 0..sides-1 of T trials into stacked kernel calls.

    Sides whose layers carry the same constellations in decomposition
    order share calls; a call holds at most ``BATCH_CELLS`` cells (rows x
    enumerated order), and at least one side.
    """
    n = len(constellations)
    groups = {}
    for m in range(sides):
        orders = tuple(constellations[(m + i) % n].order for i in range(n))
        groups.setdefault(orders, []).append(m)
    calls = []
    for orders, group in groups.items():
        per_call = max(1, BATCH_CELLS // max(1, t * orders[0]))
        calls += [group[j:j + per_call] for j in range(0, len(group), per_call)]
    return calls


def _candidate_batches(h_eff, y_tilde, constellations, priors, sides, rescore, quant):
    """One candidate batch per detection layer 0..sides-1 for stacked trials.

    One decomposition and one transform cover every side of the batch;
    each call of :func:`_side_calls` then runs one one-sided detection,
    rescoring and quantization on its sides' rows stacked side by side.
    Side m holds layer (m + i) % n at decomposition position i: the
    kernel takes the constellations and priors in that order, and one
    gather per side puts its index columns back in layer order.
    ``priors`` are checked in layer order (a wrong entry raises
    ValueError naming its layer).  Quantization, if requested, applies
    to the detector inputs (triangular factors, transformed
    observations, priors, and the rescoring channel) and to the
    candidate distances.
    """
    def q(v):
        return quantize(v, quant) if quant is not None else v

    t = len(h_eff)
    priors = _layer_priors(priors, constellations, t)
    if priors is not None:
        priors = [q(lam) for lam in priors]
    if rescore:
        h_q, y_q = q(h_eff), q(y_tilde)
    n = len(constellations)
    w, l = punctured_decompose_batch(h_eff, range(sides))
    yt = transform_observation_batch(w, np.concatenate([y_tilde] * sides))
    # side by side: l[m] and yt[m] hold side m's T rows
    l = q(l).reshape(sides, t, n, n)
    yt = q(yt).reshape(sides, t, n)
    batches = [None] * sides
    for call in _side_calls(constellations, sides, t):
        cons = [constellations[(call[0] + i) % n] for i in range(n)]
        lam = None if priors is None else [
            np.concatenate([priors[(m + i) % n] for m in call]) for i in range(n)
        ]
        # a view of consecutive sides' rows, a copy of the others
        rows = slice(call[0], call[-1] + 1) if call[-1] - call[0] == len(call) - 1 else call
        cand = detect_one_sided_batch(l[rows].reshape(-1, n, n), yt[rows].reshape(-1, n),
                                      cons, lam)
        index = cand.index.reshape(len(call), t, -1, n)
        for s, m in enumerate(call):
            if m:  # position i holds layer (m + i) % n
                index[s] = index[s][..., (np.arange(n) - m) % n]
        if rescore:
            cand = rescore_batch(cand, np.concatenate([h_q] * len(call)),
                                 np.concatenate([y_q] * len(call)), constellations)
        if quant is not None:
            cand = cand._replace(distances=quantize(cand.distances, quant))
        for s, m in enumerate(call):
            batches[m] = CandidateBatch(*(a[s * t:(s + 1) * t] for a in cand[:3]), m,
                                        cand.distance_mode)
    return batches


def detect_batch(
    h_eff: np.ndarray,
    y_tilde: np.ndarray,
    constellations,
    priors=None,
    detector: str = "map2",
    distance_mode: str = "L",
    quant: FixedPointFormat | None = None,
) -> DetectionResult:
    """Run one detector on T stacked channel instances.

    ``h_eff`` (T, N, N) already carries the unit-energy scaling,
    ``y_tilde`` is (T, N), ``priors`` None or one (T, q_n) array per
    layer (a wrong entry raises ValueError naming its layer, whatever the
    detector); a detector and distance mode that cannot run on the layers
    raise ConfigError.  Quantization, if requested, applies to the
    detector inputs and the candidate distances (see :func:`_candidate_batches`);
    the oracle detector ignores it and runs trial by trial.  Returns the
    fields of :class:`DetectionResult` with a leading trial axis.
    """
    _check_detector(detector, distance_mode, len(constellations))
    h_eff = np.asarray(h_eff, dtype=complex)
    y_tilde = np.asarray(y_tilde, dtype=complex)
    if detector == "oracle":
        priors = _layer_priors(priors, constellations, len(h_eff))
        res = [exhaustive_map(h_eff[t], y_tilde[t], constellations,
                              None if priors is None else [lam[t] for lam in priors])
               for t in range(len(h_eff))]
        return DetectionResult(
            np.stack([r.hard for r in res]), np.array([r.dmin for r in res]),
            tuple(map(np.stack, zip(*(r.llr for r in res)))),
            np.stack([r.hard_index for r in res]),
        )
    sides = 2 if detector == "map2" else len(constellations)
    batches = _candidate_batches(
        h_eff, y_tilde, constellations, priors, sides,
        detector == "wld" and distance_mode == "H", quant,
    )
    if detector == "map2":
        # quantization perturbs the two sides differently, so the
        # minima-consistency check only applies to the float path
        rtol = None if quant is not None else 1e-9
        return two_sided_batch(batches[0], batches[1], constellations, min_match_rtol=rtol)
    return combine_batch(batches, constellations)


def detect_instance(
    h_eff: np.ndarray,
    y_tilde: np.ndarray,
    constellations,
    priors=None,
    detector: str = "map2",
    distance_mode: str = "L",
    quant: FixedPointFormat | None = None,
) -> DetectionResult:
    """Run one detector on one channel instance: the T=1 view of :func:`detect_batch`."""
    if priors is not None:
        priors = [np.asarray(lam, dtype=float)[None] for lam in priors]
    return detect_batch(
        np.asarray(h_eff, dtype=complex)[None], np.asarray(y_tilde, dtype=complex)[None],
        constellations, priors, detector, distance_mode, quant,
    ).row(0)


def wld_hard_batch(h_eff, y_tilde, constellations) -> np.ndarray:
    """Hard decisions from channel-metric-rescored candidate lists.

    One punctured decomposition per layer, candidates rescored with the
    exact channel metric, overall argmin across the union (earlier
    detection layers win ties).  Trials are detected 2048 at a time,
    which only caps the memory of the candidate lists.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    y_tilde = np.asarray(y_tilde, dtype=complex)
    t, n, _ = h_eff.shape
    out = np.empty((t, n), dtype=complex)
    for lo in range(0, t, _WLD_CHUNK):
        batches = _candidate_batches(h_eff[lo:lo + _WLD_CHUNK], y_tilde[lo:lo + _WLD_CHUNK],
                                     constellations, None, n, True, None)
        out[lo:lo + _WLD_CHUNK] = best_candidates(batches, constellations)[0]
    return out
