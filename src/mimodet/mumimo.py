"""Joint interferer-constellation classification and desired-user LLRs.

Two users co-scheduled on the same tones, two receive antennas.  The
desired user's constellation is known; the interferer's is classified
jointly with detection by scoring every hypothesis over a window of K
tones:

    score(hyp) = K log|hyp| + sum_k min_x ||y[k] - H_eff[k] x||^2 / sigma^2

and keeping the minimizer (ties go to the smaller constellation, which
the penalty term already prefers).  Per-tone minimization enumerates
the desired symbol and slices the interferer on the one-sided detector
core, which also gives the desired user's LLRs on a tone (:func:`mu_llr`).

One scoring loop serves every caller (:func:`window_scores`): it scores
many windows at several noise levels at once, factoring the channels
once and scoring every tone in a few batched calls, each of which
enumerates the desired symbol once for all four hypotheses and keeps
only each tone's minimum distance; :func:`classify_interferer` runs it
on one window at one noise level.

Transmitted symbols are unit energy per user: the effective channel
column for a constellation c is the raw column scaled by
``c.unit_energy_scale``, and detection runs on integer-valued levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constellation import Constellation, make_constellation
from .decomp import SINGULAR_RTOL, ql_decompose_batch
from .detcore import BATCH_CELLS, CandidateBatch, detect_one_sided_batch, hypothesis_minima
from .errors import SingularChannelError
from .llrpost import partition_minima

__all__ = [
    "MU_HYPOTHESIS_ORDERS",
    "MuScenario",
    "MuClassification",
    "classify_interferer",
    "window_scores",
    "mu_llr",
    "PrbLayout",
    "count_distance_evals",
]

# ascending: an exact tie in score goes to the smaller constellation
MU_HYPOTHESIS_ORDERS = (4, 16, 64, 256)


@dataclass(frozen=True)
class MuScenario:
    """Receiver-side view of one classification window.

    channels[k] holds the raw per-tone 2x2 matrix [h_desired h_interf];
    observations[k] the received vector.  ``noise_var`` is the complex
    noise variance per antenna.
    """

    channels: np.ndarray  # (K, 2, 2) complex
    observations: np.ndarray  # (K, 2) complex
    desired: Constellation
    noise_var: float

    @classmethod
    def create(cls, channels, observations, desired, noise_var) -> "MuScenario":
        channels = np.asarray(channels, dtype=complex)
        observations = np.asarray(observations, dtype=complex)
        if channels.ndim != 3 or channels.shape[1:] != (2, 2) or channels.shape[0] < 1:
            raise ValueError("channels must be (K, 2, 2) with K >= 1")
        if observations.shape != channels.shape[:1] + (2,):
            raise ValueError("observations must be (K, 2)")
        if not isinstance(desired, Constellation):
            desired = make_constellation(desired)
        if not 0 < noise_var < np.inf:
            raise ValueError("noise_var must be positive and finite")
        return cls(channels, observations, desired, float(noise_var))

    @property
    def n_tones(self) -> int:
        return self.channels.shape[0]


@dataclass(frozen=True)
class MuClassification:
    chosen: Constellation
    scores: dict[int, float]  # hypothesis order -> penalized score
    distance_sums: dict[int, float]  # hypothesis order -> sum of per-tone minima


class _ToneFactors(NamedTuple):
    """QL factors of stacked windows, S scenarios of K tones (see :func:`_tone_factors`)."""

    l: np.ndarray  # (S, K, 2, 2)
    qh: np.ndarray  # (F, 2, 2) conjugate transpose of Q on the F factored tones
    free: np.ndarray  # (S, K) bool, interference-free tones
    u: np.ndarray  # (S K - F, 2) unit desired column on the free tones


def _tone_factors(channels, desired: Constellation, scenario0=0, tone0=0) -> _ToneFactors:
    """Per-tone QL factors of the desired-scaled channel, interferer unscaled.

    ``channels`` (S, K, 2, 2) holds S windows of K tones.  The factors
    depend on the channel alone, so one factorization serves every noise
    level (:func:`_transform`).  A vanishing interferer column is
    tolerated (interference-free tone): l = [[|h1|, 0], [0, 0]].  A
    vanishing desired column makes the tone undetectable and raises,
    naming scenario ``scenario0 + s`` and tone ``tone0 + k``.
    """
    h = channels.copy()
    h[..., 0] *= desired.unit_energy_scale
    scale = np.maximum(np.linalg.norm(channels, axis=(-2, -1)), np.finfo(float).tiny)
    norms = np.linalg.norm(h, axis=-2)
    norm1, norm2 = norms[..., 0], norms[..., 1]
    dead = np.argwhere(norm1 <= SINGULAR_RTOL * scale)
    if dead.size:
        s, k = dead[0]
        raise SingularChannelError(
            f"desired-user column vanishes on scenario {scenario0 + s}, tone {tone0 + k}"
        )
    free = norm2 <= SINGULAR_RTOL * scale
    l = np.zeros_like(h)
    q, l[~free] = ql_decompose_batch(h[~free])
    l[free, 0, 0] = norm1[free]
    u = h[free][:, :, 0] / norm1[free][:, None]
    return _ToneFactors(l, q.conj().transpose(0, 2, 1), free, u)


def _transform(f: _ToneFactors, observations) -> np.ndarray:
    """Transformed observations y (P, S, K, 2) of observations (P, S, K, 2).

    ||y - l x||^2 = ||observation - H x||^2 on every tone at each of the
    P noise levels; on an interference-free tone y holds the
    observation's component along h1 and the norm of the rest.
    """
    y = np.zeros_like(observations)
    y[:, ~f.free] = (f.qh @ observations[:, ~f.free, :, None])[..., 0]
    obs = observations[:, f.free]
    along = np.sum(f.u.conj() * obs, axis=-1)
    y[:, f.free, 0] = along
    y[:, f.free, 1] = np.linalg.norm(obs - f.u * along[..., None], axis=-1)
    return y


def _detection_rows(f: _ToneFactors, y, lo, hi):
    """Rows [lo, hi) of the (P, S, K)-ordered detection stack: (l (R, 2, 2), y (R, 2))."""
    l = np.take(f.l.reshape(-1, 2, 2), np.arange(lo, hi), axis=0, mode="wrap")
    return l, y.reshape(-1, 2)[lo:hi]


def _hypothesis_batch(l, y, desired: Constellation, hyp: Constellation) -> CandidateBatch:
    """Candidate lists of every row (tone) under one interferer hypothesis (for :func:`mu_llr`).

    The desired symbol is enumerated and the interferer sliced with zero
    priors; the interferer scaling acts on column 1 of the factor.
    """
    l_hyp = l.copy()
    l_hyp[:, :, 1] *= hyp.unit_energy_scale
    return detect_one_sided_batch(l_hyp, y, (desired, hyp))


def _sums_and_scores(channels, observations, desired: Constellation, noise_var, scenario0=0):
    """Distance sums and penalized scores, both (H, P, S); see :func:`window_scores`."""
    f = _tone_factors(channels, desired, scenario0)
    y = _transform(f, observations)
    n_rows = y.size // 2
    step = max(1, BATCH_CELLS // desired.order)
    hyps = [make_constellation(order) for order in MU_HYPOTHESIS_ORDERS]
    minima = np.empty((len(hyps), n_rows))
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        minima[:, lo:hi] = hypothesis_minima(*_detection_rows(f, y, lo, hi), desired, hyps)
    sums = minima.reshape((len(MU_HYPOTHESIS_ORDERS),) + y.shape[:3]).sum(axis=-1)
    penalty = np.array([y.shape[2] * np.log(order) for order in MU_HYPOTHESIS_ORDERS])
    return sums, penalty[:, None, None] + sums / np.asarray(noise_var)[:, None]


def window_scores(channels, observations, desired: Constellation, noise_var,
                  scenario0: int = 0) -> np.ndarray:
    """Penalized scores (H, P, S) of S windows at P noise levels.

    ``channels`` (S, K, 2, 2) and ``observations`` (P, S, K, 2) hold the
    raw channels and the received vectors, ``noise_var`` (P,) the noise
    variance of each level; axis 0 follows :data:`MU_HYPOTHESIS_ORDERS`,
    so its argmin picks each window's hypothesis.  The channels are
    factored once.  The (level, scenario, tone) rows go out in blocks of
    at most ``BATCH_CELLS // desired.order`` rows, one
    :func:`~mimodet.detcore.hypothesis_minima` call each, which keeps
    only each row's minimum under every hypothesis; a row's minimum does
    not depend on the block it ran in, so a window scores as it does
    alone (:func:`classify_interferer`).  A vanishing desired column
    raises, naming scenario ``scenario0 + s``.
    """
    return _sums_and_scores(channels, observations, desired, noise_var, scenario0)[1]


def classify_interferer(s: MuScenario) -> MuClassification:
    """Score every interferer hypothesis over the window and pick the best.

    The window is scored as one scenario at one noise level by the
    detection loop of :func:`window_scores`.
    """
    sums, scores = (a[:, 0, 0] for a in _sums_and_scores(
        s.channels[None], s.observations[None, None], s.desired, np.array([s.noise_var])))
    chosen = make_constellation(MU_HYPOTHESIS_ORDERS[int(np.argmin(scores))])
    return MuClassification(chosen, dict(zip(MU_HYPOTHESIS_ORDERS, scores.tolist())),
                            dict(zip(MU_HYPOTHESIS_ORDERS, sums.tolist())))


def mu_llr(s: MuScenario, hypothesis: Constellation, tone: int) -> np.ndarray:
    """Bit LLRs of the desired symbol on one tone under a hypothesis.

    Each LLR is the difference of partition minima of the noise-scaled
    distance d = ||y - Hx||^2 / sigma^2, minimized over the hypothesized
    interferer constellation.  Factors and detects the one tone.
    """
    if not 0 <= tone < s.n_tones:
        raise ValueError(f"tone {tone} out of range")
    if hypothesis.order not in MU_HYPOTHESIS_ORDERS:
        raise ValueError(f"hypothesis {hypothesis.scheme.name} not in the allowed set")
    tones = slice(tone, tone + 1)
    f = _tone_factors(s.channels[None, tones], s.desired, tone0=tone)
    y = _transform(f, s.observations[None, None, tones])
    cand = _hypothesis_batch(f.l[0], y[0, 0], s.desired, hypothesis)
    pos, neg = partition_minima(cand.distances[0], s.desired.point_bits[cand.index[0, :, 0]])
    return (pos - neg) / s.noise_var


@dataclass(frozen=True)
class PrbLayout:
    """LTE physical-resource-block accounting for the cost counter."""

    data_tones: int = 140
    classification_tones: int = 12
    classification_runs: int = 5


def count_distance_evals(enum_size: int, layout: PrbLayout = PrbLayout()):
    """Distance evaluations with classification vs. a genie detector.

    Returns (classification count, total count, overhead ratio) for one
    PRB: the classification pass adds classification_tones *
    classification_runs extra enumerations of the desired constellation
    on top of the per-data-tone lists.
    """
    if enum_size < 1:
        raise ValueError("enum_size must be positive")
    extra = layout.classification_tones * layout.classification_runs
    classification = extra * enum_size
    total = (layout.data_tones + extra) * enum_size
    ratio = total / (layout.data_tones * enum_size)
    return classification, total, ratio
