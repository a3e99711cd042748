"""Joint interferer-constellation classification and desired-user LLRs.

Two users co-scheduled on the same tones, two receive antennas.  The
desired user's constellation is known; the interferer's is classified
jointly with detection by scoring every hypothesis over a window of K
tones:

    score(hyp) = K log|hyp| + sum_k min_x ||y[k] - H_eff[k] x||^2 / sigma^2

and keeping the minimizer (ties go to the smaller constellation, which
the penalty term already prefers).  Per-tone minimization enumerates
the desired symbol and slices the interferer, reusing the one-sided
detector core, so the same distance lists later produce the LLRs.

Transmitted symbols are unit energy per user: the effective channel
column for a constellation c is the raw column scaled by
``c.unit_energy_scale``, and detection runs on integer-valued levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constellation import Constellation, make_constellation
from .decomp import ql_decompose_batch
from .detcore import CandidateBatch, detect_one_sided_batch
from .errors import SingularChannelError
from .llrpost import partition_minima

__all__ = [
    "MU_HYPOTHESIS_ORDERS",
    "MuScenario",
    "MuClassification",
    "classify_interferer",
    "mu_llr",
    "PrbLayout",
    "count_distance_evals",
]

# ascending: an exact tie in score goes to the smaller constellation
MU_HYPOTHESIS_ORDERS = (4, 16, 64, 256)

_DEGENERATE_RTOL = 1e-10


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
    hypotheses: tuple[Constellation, ...]
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
        hyps = tuple(make_constellation(q) for q in MU_HYPOTHESIS_ORDERS)
        return cls(channels, observations, desired, hyps, float(noise_var))

    @property
    def n_tones(self) -> int:
        return self.channels.shape[0]


@dataclass(frozen=True)
class MuClassification:
    chosen: Constellation
    scores: dict[int, float]  # hypothesis order -> penalized score
    distance_sums: dict[int, float]  # hypothesis order -> sum of per-tone minima
    lists: dict[int, CandidateBatch] = field(repr=False)  # order -> one row per tone


def _tone_factors(s: MuScenario):
    """Per-tone QL factors of the desired-scaled channel, interferer unscaled.

    Returns (l (K,2,2), y (K,2)) with ||y - l x||^2 = ||observation - H x||^2
    on every tone.  A vanishing interferer column is tolerated
    (interference-free tone): l = [[|h1|, 0], [0, 0]] and y holds the
    observation's component along h1 and the norm of the rest.  A
    vanishing desired column makes the tone undetectable and raises.
    """
    h = s.channels.copy()
    h[:, :, 0] *= s.desired.unit_energy_scale
    obs = s.observations
    scale = np.maximum(np.linalg.norm(s.channels, axis=(1, 2)), np.finfo(float).tiny)
    norm1, norm2 = np.linalg.norm(h, axis=1).T
    dead = np.flatnonzero(norm1 <= _DEGENERATE_RTOL * scale)
    if dead.size:
        raise SingularChannelError(f"desired-user column vanishes on tone {dead[0]}")
    free = norm2 <= _DEGENERATE_RTOL * scale
    l = np.zeros_like(h)
    y = np.zeros_like(obs)
    q, l[~free] = ql_decompose_batch(h[~free])
    y[~free] = (q.conj().transpose(0, 2, 1) @ obs[~free, :, None])[:, :, 0]
    u = h[free, :, 0] / norm1[free, None]
    y[free, 0] = np.sum(u.conj() * obs[free], axis=1)
    y[free, 1] = np.linalg.norm(obs[free] - u * y[free, 0, None], axis=1)
    l[free, 0, 0] = norm1[free]
    return l, y


def _hypothesis_batch(s: MuScenario, l, y, hyp: Constellation) -> CandidateBatch:
    """Candidate lists of every tone under one interferer hypothesis.

    The desired symbol is enumerated and the interferer sliced with zero
    priors; the interferer scaling acts on column 1 of the factor.
    """
    l_hyp = l.copy()
    l_hyp[:, :, 1] *= hyp.unit_energy_scale
    return detect_one_sided_batch(l_hyp, y, (s.desired, hyp), perm=(0, 1))


def classify_interferer(s: MuScenario) -> MuClassification:
    """Score every interferer hypothesis over the window and pick the best.

    The tones' candidate lists are computed as one batch per hypothesis
    and returned for reuse by :func:`mu_llr`.
    """
    l, y = _tone_factors(s)
    scores: dict[int, float] = {}
    sums: dict[int, float] = {}
    lists: dict[int, CandidateBatch] = {}
    for hyp in s.hypotheses:
        cand = _hypothesis_batch(s, l, y, hyp)
        dist_sum = float(np.sum(cand.distances.min(axis=1)))
        scores[hyp.order] = s.n_tones * np.log(hyp.order) + dist_sum / s.noise_var
        sums[hyp.order] = dist_sum
        lists[hyp.order] = cand
    chosen = min(s.hypotheses, key=lambda hyp: scores[hyp.order])
    return MuClassification(chosen, scores, sums, lists)


def mu_llr(s: MuScenario, hypothesis: Constellation, tone: int,
           classification: MuClassification | None = None) -> np.ndarray:
    """Bit LLRs of the desired symbol on one tone under a hypothesis.

    Each LLR is the difference of partition minima of the noise-scaled
    distance d = ||y - Hx||^2 / sigma^2, minimized over the hypothesized
    interferer constellation.  Reuses classification lists when given.
    """
    if not 0 <= tone < s.n_tones:
        raise ValueError(f"tone {tone} out of range")
    orders = {h.order for h in s.hypotheses}
    if hypothesis.order not in orders:
        raise ValueError(f"hypothesis {hypothesis.scheme.name} not in the allowed set")
    if classification is not None and hypothesis.order in classification.lists:
        cand = classification.lists[hypothesis.order]
    else:
        cand = _hypothesis_batch(s, *_tone_factors(s), hypothesis)
    pos, neg = partition_minima(cand.distances[tone], s.desired.point_bits[cand.index[tone, :, 0]])
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
