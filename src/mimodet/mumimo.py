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
from .decomp import PuncturedDecomposition, ql_decompose
from .detcore import CandidateList, detect_one_sided, detect_one_sided_batch
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
    def create(cls, channels, observations, desired, noise_var,
               hypothesis_orders=MU_HYPOTHESIS_ORDERS) -> "MuScenario":
        channels = np.asarray(channels, dtype=complex)
        observations = np.asarray(observations, dtype=complex)
        if channels.ndim != 3 or channels.shape[1:] != (2, 2) or channels.shape[0] < 1:
            raise ValueError("channels must be (K, 2, 2) with K >= 1")
        if observations.shape != channels.shape[:1] + (2,):
            raise ValueError("observations must be (K, 2)")
        if not isinstance(desired, Constellation):
            desired = make_constellation(desired)
        if noise_var <= 0:
            raise ValueError("noise_var must be positive")
        hyps = tuple(make_constellation(q) for q in sorted(hypothesis_orders))
        return cls(channels, observations, desired, hyps, float(noise_var))

    @property
    def n_tones(self) -> int:
        return self.channels.shape[0]


@dataclass(frozen=True)
class MuClassification:
    chosen: Constellation
    scores: dict[int, float]  # hypothesis order -> penalized score
    distance_sums: dict[int, float]  # hypothesis order -> sum of per-tone minima
    lists: dict[int, list[CandidateList]] = field(repr=False)


def _tone_factors(s: MuScenario):
    """Per-tone QL factors of the desired-scaled channel, interferer unscaled.

    Returns (l (K,2,2), y (K,2), degenerate tone indices).  A vanishing
    interferer column is tolerated (interference-free tone); a vanishing
    desired column makes the tone undetectable and raises.
    """
    k = s.n_tones
    s_des = s.desired.unit_energy_scale
    l = np.zeros((k, 2, 2), dtype=complex)
    y = np.zeros((k, 2), dtype=complex)
    degenerate = []
    for i in range(k):
        h1 = s.channels[i, :, 0] * s_des
        h2 = s.channels[i, :, 1]
        scale = max(np.linalg.norm(s.channels[i]), np.finfo(float).tiny)
        if np.linalg.norm(h1) <= _DEGENERATE_RTOL * scale:
            raise SingularChannelError(f"desired-user column vanishes on tone {i}")
        if np.linalg.norm(h2) <= _DEGENERATE_RTOL * scale:
            degenerate.append(i)
            l[i, 0, 0] = np.linalg.norm(h1)
            y[i, 0] = (h1.conj() / l[i, 0, 0].real) @ s.observations[i]
            continue
        qd = ql_decompose(np.stack([h1, h2], axis=1))
        l[i] = qd.l
        y[i] = qd.q.conj().T @ s.observations[i]
    return l, y, degenerate


def _degenerate_list(s: MuScenario, l_row, y_row, hyp: Constellation) -> CandidateList:
    # interference-free tone: distances reduce to single-user demapping
    pts = s.desired.points
    alpha = l_row[0, 0].real
    resid = np.abs(y_row[0] - alpha * pts) ** 2 + np.abs(y_row[1]) ** 2
    symbols = np.empty((len(pts), 2), dtype=complex)
    symbols[:, 0] = pts
    symbols[:, 1] = complex(hyp.real_axis.levels[0], hyp.imag_axis.levels[0])
    index = np.stack([np.arange(len(pts)), np.full(len(pts), hyp.level_grid[0, 0])], axis=1)
    return CandidateList(
        layer=0, perm=(0, 1), symbols=symbols, distances=resid,
        prior_bias=np.zeros(len(pts)), dropped_const=0.0, distance_mode="L", index=index,
    )


def classify_interferer(s: MuScenario) -> MuClassification:
    """Score every interferer hypothesis over the window and pick the best.

    Per-tone candidate lists (desired symbol enumerated, interferer
    sliced, zero priors) are computed once per hypothesis and returned
    for reuse by :func:`mu_llr`.
    """
    l, y, degenerate = _tone_factors(s)
    deg_set = set(degenerate)
    good = [i for i in range(s.n_tones) if i not in deg_set]

    scores: dict[int, float] = {}
    sums: dict[int, float] = {}
    lists: dict[int, list[CandidateList]] = {}
    chosen = None
    for hyp in s.hypotheses:
        # interferer scaling acts on column 1 of the triangular factor
        l_hyp = l.copy()
        l_hyp[:, :, 1] *= hyp.unit_energy_scale
        tone_lists: list[CandidateList] = [None] * s.n_tones
        if good:
            cand = detect_one_sided_batch(l_hyp[good], y[good], (s.desired, hyp), perm=(0, 1))
            for j, i in enumerate(good):
                tone_lists[i] = cand.row(j)
        for i in degenerate:
            tone_lists[i] = _degenerate_list(s, l_hyp[i], y[i], hyp)
        mins = np.array([tl.distances.min() for tl in tone_lists])
        dist_sum = float(np.sum(mins))
        score = s.n_tones * np.log(hyp.order) + dist_sum / s.noise_var
        scores[hyp.order] = score
        sums[hyp.order] = dist_sum
        lists[hyp.order] = tone_lists
        if chosen is None or score < scores[chosen.order]:
            chosen = hyp
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
        clist = classification.lists[hypothesis.order][tone]
    else:
        l, y, degenerate = _tone_factors(s)
        l[:, :, 1] *= hypothesis.unit_energy_scale
        if tone in degenerate:
            clist = _degenerate_list(s, l[tone], y[tone], hypothesis)
        else:
            d = PuncturedDecomposition(w=np.eye(2), l=l[tone], layer=0, perm=(0, 1))
            clist = detect_one_sided(d, y[tone], (s.desired, hypothesis))
    pos, neg = partition_minima(clist.distances, s.desired.point_bits[clist.index[:, 0]])
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
