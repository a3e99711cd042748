"""QL triangularization and punctured (projection-based) decompositions.

``ql_decompose_batch`` factors stacked channels H = Q L with Q unitary
and L lower triangular with positive real diagonal, which makes the
factorization unique; ``ql_decompose`` is its T=1 view.

``punctured_decompose_batch`` produces, for stacked channels, W, L with
W*H_perm = L where L is lower triangular with every row n >= 2 zeroed
except columns 1 and n, so all layers decouple from the enumerated
first layer.  Columns of W are unit norm, which keeps the per-entry
noise variance unchanged; W is not unitary in general.  Columns of H
are circularly shifted so the requested detection layer comes first;
each call stacks the decompositions of a list of detection layers.
``punctured_decompose`` and ``transform_observation`` are its T=1 views.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError, SingularChannelError

__all__ = [
    "QLDecomp",
    "PuncturedDecomposition",
    "ql_decompose",
    "ql_decompose_batch",
    "punctured_decompose",
    "punctured_decompose_batch",
    "transform_observation",
    "transform_observation_batch",
]

SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class QLDecomp:
    q: np.ndarray
    l: np.ndarray


@dataclass(frozen=True)
class PuncturedDecomposition:
    """Projection matrix, punctured triangular factor and layer bookkeeping.

    ``perm[i]`` is the original layer sitting at decomposition position i;
    ``layer == perm[0]`` is the enumerated detection layer.
    """

    w: np.ndarray
    l: np.ndarray
    layer: int
    perm: tuple[int, ...]

    @property
    def n_layers(self) -> int:
        return self.l.shape[0]


def ql_decompose(h: np.ndarray) -> QLDecomp:
    """Factor a square full-rank H as Q L (the T=1 view of :func:`ql_decompose_batch`)."""
    q, l = ql_decompose_batch(np.asarray(h, dtype=complex)[None])
    return QLDecomp(q[0], l[0])


def ql_decompose_batch(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QL factors of stacked square channels h (T, N, N): H = Q L.

    Q is unitary and L lower triangular with a real positive diagonal.
    Raises when any instance is numerically rank deficient.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("ql_decompose expects a square matrix")
    # QR of the doubly flipped matrix gives QL of the original.
    qf, rf = np.linalg.qr(h[:, ::-1, ::-1])
    q = qf[:, ::-1, ::-1]
    l = rf[:, ::-1, ::-1]
    diag = np.diagonal(l, axis1=1, axis2=2)
    scale = np.maximum(np.linalg.norm(h, axis=(1, 2)), np.finfo(float).tiny)
    if np.any(np.abs(diag) <= SINGULAR_RTOL * scale[:, None]):
        raise SingularChannelError("channel matrix is numerically rank deficient")
    phase = diag / np.abs(diag)
    l = l * phase.conj()[:, :, None]
    q = q * phase[:, None, :]
    n = h.shape[1]
    l[:, np.arange(n), np.arange(n)] = np.abs(diag)
    return q, l


def _puncture_sets(n: int) -> list[list[int]]:
    # Row 0 keeps only column 0; row i >= 1 keeps columns {0, i}.
    return [[j for j in range(1, n) if j != i] for i in range(n)]


def punctured_decompose(h: np.ndarray, layer: int) -> PuncturedDecomposition:
    """Decouple all layers from `layer` via orthogonal projections.

    The T=1 view of :func:`punctured_decompose_batch`.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError("punctured_decompose expects a square 2x2..4x4 matrix")
    w, l = punctured_decompose_batch(h[None], [layer])
    n = h.shape[0]
    return PuncturedDecomposition(w[0], l[0], layer, tuple((layer + i) % n for i in range(n)))


def punctured_decompose_batch(h: np.ndarray, layers) -> tuple[np.ndarray, np.ndarray]:
    """Punctured decompositions of stacked channels for S detection layers (sides).

    h has shape (T, N, N) and ``layers`` lists the S detection layers;
    returns (W, L) of shape (S T, N, N), rows s T..(s+1) T - 1 holding
    side s.  Column n of W is the projection of (shifted) column n of H
    onto the complement of the columns to be punctured, normalized to
    unit length.  Raises on any degenerate instance.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2] or not 2 <= h.shape[1] <= 4:
        raise ValueError("punctured_decompose expects square 2x2..4x4 matrices")
    n = h.shape[1]
    try:
        layers = [operator.index(m) for m in layers]
    except TypeError:
        raise ValueError("layers must list the detection layers") from None
    for m in layers:
        if not 0 <= m < n:
            raise ValueError(f"layer {m} out of range for {n} layers")
    hp = np.concatenate([h[:, :, [(m + i) % n for i in range(n)]] for m in layers])
    t = len(hp)
    tiny = np.maximum(np.linalg.norm(hp, axis=(1, 2)), np.finfo(float).tiny)

    w = np.empty_like(hp)
    norms = np.empty((t, n))
    for i, idx in enumerate(_puncture_sets(n)):
        hn = hp[:, :, i]
        if idx:
            hi = hp[:, :, idx]
            hi_h = hi.conj().transpose(0, 2, 1)
            try:
                coef = np.linalg.solve(hi_h @ hi, hi_h @ hn[:, :, None])
            except np.linalg.LinAlgError as exc:
                raise DegenerateChannelError("puncture set is rank deficient") from exc
            wt = hn - (hi @ coef)[:, :, 0]
        else:
            wt = hn
        # ||wt||^2 equals hn* P hn in exact arithmetic but stays accurate
        # under cancellation, keeping the W columns unit norm
        norm2 = np.real(np.sum(wt.conj() * wt, axis=1))
        if np.any(norm2 <= (SINGULAR_RTOL * tiny) ** 2):
            raise DegenerateChannelError("projection collapsed a channel column")
        norms[:, i] = np.sqrt(norm2)
        w[:, :, i] = wt / norms[:, i, None]

    l = w.conj().transpose(0, 2, 1) @ hp
    l[:, np.arange(n), np.arange(n)] = norms
    return w, l


def transform_observation(d: PuncturedDecomposition, y_tilde: np.ndarray) -> np.ndarray:
    """Project the raw observation into decomposition coordinates: W* y."""
    y_tilde = np.asarray(y_tilde, dtype=complex)
    if y_tilde.shape != (d.w.shape[0],):
        raise ValueError("observation length does not match decomposition")
    return transform_observation_batch(d.w[None], y_tilde[None])[0]


def transform_observation_batch(w: np.ndarray, y_tilde: np.ndarray) -> np.ndarray:
    """W* y for stacked projections w (T, N, N) and observations y (T, N)."""
    return (w.conj().transpose(0, 2, 1) @ np.asarray(y_tilde, dtype=complex)[:, :, None])[:, :, 0]
