"""Monte-Carlo simulation engine: sweeps, LLR fidelity, batch experiments.

Conventions used by every experiment here:

- Per-layer constellations are scaled to unit average symbol energy, by
  folding the scale into the effective channel, so detectors always see
  integer-valued levels.
- With i.i.d. CN(0,1) channel entries the received signal power per
  antenna is the layer count N, so the dB axis reports
  SNR = N / sigma^2 per receive antenna (MU-MIMO experiments use the
  two-user total, 2 / sigma^2).
- Trial data comes from counter-based streams (:mod:`mimodet.rng`):
  sweeps derive one stream per (snr index, trial), batch experiments one
  per (snr index, chunk).  Either way results are independent of worker
  count and schedule, and accumulators reduce in fixed order, so a
  config + seed pins the CSV bytes.
- Sweeps draw and reduce trials in 64-trial chunks.  One batched call
  (:func:`detect_batch`) detects consecutive chunks, across SNR points,
  while its trial count times the largest constellation order stays
  within 4096; a trial's result does not depend on the call it ran in.
- Per-trial draw order: channel, symbol indices (layer by layer),
  noise, priors.
- Output LLRs keep the unscaled-distance convention of
  :mod:`mimodet.llrpost`; scale by sigma^2/2 for true LLRs.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constellation import make_constellation
from .decomp import punctured_decompose_batch, ql_decompose_batch, transform_observation_batch
from .detcore import BATCH_CELLS, detect_one_sided_batch, hard_slice, rescore_batch
from .errors import ConfigError, ShadowOracleMismatch
from .hwmodel import FixedPointFormat, quantize
from .llrpost import DetectionResult, best_candidates, combine_batch, two_sided_batch
from .mumimo import MU_HYPOTHESIS_ORDERS, window_scores
from .oracle import ENUM_BUDGET, exhaustive_map
from .rng import CONTEXT_MUMIMO, CONTEXT_SWEEP, trial_key, trial_rng

__all__ = [
    "SimConfig",
    "TrialStats",
    "FidelityPoint",
    "generate_channel",
    "detect_batch",
    "detect_instance",
    "run_sweep",
    "llr_fidelity",
    "write_csv",
    "draw_uncoded_chunk",
    "ml_hard_batch",
    "wld_hard_batch",
    "uncoded_ver_point",
    "mu_classification_rates",
]

CONTEXT_BATCH = 1

_DETECTORS = ("map2", "wld", "oracle")
_SWEEP_CHUNK = 64  # trials per sweep draw and reduction; fixes the float sum order
_ML_CHUNK = 256  # trials per exact-ML search; caps the frontier's memory
_WLD_CHUNK = 2048  # trials per wld detection call; caps the candidate lists' memory
_VER_CHUNK = 2048  # trials per counter-based stream of a batched VER point
# relative tolerance of the shadow oracle's LLR and minimum-distance checks
_SHADOW_RTOL = 1e-6
# SNR grids hold fewer points than this: the point index is a 16-bit stream key field
SNR_GRID_LIMIT = 1 << 16
_CSV_COLUMNS = (
    "snr_db", "trials", "ser", "ber", "llr_mae", "llr_max",
    "detector", "distance_mode", "n_layers", "mods", "seed",
)


@dataclass(frozen=True)
class SimConfig:
    n_layers: int
    mods: tuple[int, ...]
    snr_db: tuple[float, ...]
    trials: int
    detector: str = "map2"
    distance_mode: str = "L"
    priors_mode: str = "zero"
    priors_sigma: float = 0.0
    quant: FixedPointFormat | None = None
    master_seed: int = 0
    out_path: str | None = None
    threads: int = 1
    shadow_oracle: bool = False

    def validate(self) -> None:
        if not 2 <= self.n_layers <= 4:
            raise ConfigError("n_layers must be 2..4")
        if len(self.mods) != self.n_layers:
            raise ConfigError("need one modulation order per layer")
        try:
            for q in self.mods:
                make_constellation(q)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.snr_db:
            raise ConfigError("empty SNR grid")
        if not np.all(np.isfinite(self.snr_db)):
            raise ConfigError("SNR values must be finite")
        if len(self.snr_db) >= SNR_GRID_LIMIT:
            raise ConfigError("SNR grid too long")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.detector not in _DETECTORS:
            raise ConfigError(f"unknown detector {self.detector!r}")
        if self.detector == "map2" and self.n_layers != 2:
            raise ConfigError("detector=map2 requires 2 layers")
        if self.distance_mode not in ("L", "H"):
            raise ConfigError("distance_mode must be L or H")
        if self.distance_mode == "H" and self.detector != "wld":
            raise ConfigError("distance_mode=H applies to detector=wld only")
        if self.priors_mode not in ("zero", "random"):
            raise ConfigError("priors_mode must be zero or random")
        if self.priors_mode == "random" and not 0 < self.priors_sigma < np.inf:
            raise ConfigError("priors_mode=random needs a finite priors_sigma > 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        total = int(np.prod(self.mods))
        if self.detector == "oracle" and total > ENUM_BUDGET:
            raise ConfigError(f"oracle enumeration {total} exceeds budget {ENUM_BUDGET}")
        if self.shadow_oracle:
            if self.detector == "oracle":
                raise ConfigError("shadow oracle is redundant with detector=oracle")
            if self.quant is not None:
                raise ConfigError("shadow oracle cannot run with quantization enabled")
            if self.detector == "wld" and self.distance_mode != "H":
                raise ConfigError("shadow oracle for wld needs distance_mode=H")
            if total > ENUM_BUDGET:
                raise ConfigError(f"shadow oracle enumeration {total} exceeds budget")


@dataclass(frozen=True)
class TrialStats:
    snr_db: float
    trials: int
    vector_errors: int
    symbol_errors: int
    bit_errors: int
    ser: float
    ber: float
    llr_mae: float  # nan unless an oracle ran alongside
    llr_max: float


@dataclass(frozen=True)
class FidelityPoint:
    snr_db: float
    trials: int
    llr_mae: float
    llr_max: float


def generate_channel(rng: np.random.Generator, n: int) -> np.ndarray:
    """i.i.d. CN(0,1) n x n channel matrix, real part drawn before imaginary."""
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return (re + 1j * im) * np.sqrt(0.5)


def _candidate_batches(h_eff, y_tilde, constellations, priors, sides, rescore, quant):
    """One candidate batch per detection layer 0..sides-1 for stacked trials.

    Quantization, if requested, applies to the detector inputs
    (triangular factors, transformed observations, priors, and the
    rescoring channel) and to the candidate distances.
    """
    def q(v):
        return quantize(v, quant) if quant is not None else v

    if priors is not None:
        priors = [None if lam is None else q(np.asarray(lam, dtype=float)) for lam in priors]
    n = len(constellations)
    batches = []
    for m in range(sides):
        w, l = punctured_decompose_batch(h_eff, m)
        yt = transform_observation_batch(w, y_tilde)
        perm = tuple((m + i) % n for i in range(n))
        cand = detect_one_sided_batch(q(l), q(yt), constellations, perm, priors)
        if rescore:
            cand = rescore_batch(cand, q(h_eff), q(y_tilde))
        if quant is not None:
            cand = cand._replace(distances=quantize(cand.distances, quant))
        batches.append(cand)
    return batches


def _trial_priors(priors, t):
    return None if priors is None else [None if lam is None else lam[t] for lam in priors]


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
    ``y_tilde`` is (T, N), ``priors`` None or per layer None or (T, q_n).
    Quantization, if requested, applies to the detector inputs and the
    candidate distances (see :func:`_candidate_batches`); the oracle
    detector ignores it and runs trial by trial.  Returns the fields of
    :class:`DetectionResult` with a leading trial axis.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    y_tilde = np.asarray(y_tilde, dtype=complex)
    if detector == "oracle":
        res = [exhaustive_map(h_eff[t], y_tilde[t], constellations, _trial_priors(priors, t))
               for t in range(len(h_eff))]
        return DetectionResult(
            np.stack([r.hard for r in res]), np.array([r.dmin for r in res]),
            tuple(map(np.stack, zip(*(r.llr for r in res)))), res[0].distance_mode,
            res[0].layers_used,
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
        priors = [None if lam is None else np.asarray(lam, dtype=float)[None] for lam in priors]
    return detect_batch(
        np.asarray(h_eff, dtype=complex)[None], np.asarray(y_tilde, dtype=complex)[None],
        constellations, priors, detector, distance_mode, quant,
    ).row(0)


def _sigma2(snr_db: float, n_layers: int) -> float:
    return n_layers / 10.0 ** (snr_db / 10.0)


def _chunks(n_trials, size=_SWEEP_CHUNK):
    return [(lo, min(lo + size, n_trials)) for lo in range(0, n_trials, size)]


def _reduce_chunks(run_chunk, jobs, threads):
    """Run jobs (chunks, or batches of chunks) and return their results in job order."""
    if threads <= 1:
        return [run_chunk(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_chunk, jobs))


def _draw_sweep_chunk(cfg, cons, scales, snr_idx, snr_db, bounds):
    """Draw sweep trials [lo, hi) of one SNR point, one counter-based stream each.

    One Philox is re-keyed to each trial's stream (the same draws as
    :func:`~mimodet.rng.trial_rng`); the draws fill preallocated arrays
    and the observations are formed for the whole chunk at once.
    Returns (h_eff (T, N, N), transmitted indices (T, N), y_tilde (T, N),
    priors: None or per layer (T, q_n)).
    """
    n = cfg.n_layers
    lo, hi = bounds
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh stream: zero counter, empty buffers
    counter = state["state"]["counter"]
    orders = np.array([c.order for c in cons])
    q = [c.bits_per_symbol for c in cons]
    h = np.empty((hi - lo, n, n), dtype=complex)
    tx = np.empty((hi - lo, n), dtype=np.int64)
    noise = np.empty((hi - lo, 2, n))
    lam = np.empty((hi - lo, sum(q))) if cfg.priors_mode == "random" else None
    for j, trial in enumerate(range(lo, hi)):
        state["state"] = {"counter": counter,
                          "key": trial_key(cfg.master_seed, snr_idx, trial, CONTEXT_SWEEP)}
        bitgen.state = state
        h[j] = generate_channel(rng, n)
        tx[j] = rng.integers(orders)
        noise[j] = rng.standard_normal((2, n))
        if lam is not None:
            lam[j] = rng.normal(0.0, cfg.priors_sigma, lam.shape[1])
    h_eff = h * scales[None, None, :]
    x = np.stack([c.points[tx[:, i]] for i, c in enumerate(cons)], axis=1)
    sigma2 = _sigma2(snr_db, n)
    y = (h_eff @ x[:, :, None])[:, :, 0] + np.sqrt(sigma2 / 2.0) * (noise[:, 0] + 1j * noise[:, 1])
    priors = None if lam is None else np.split(lam, np.cumsum(q)[:-1], axis=1)
    return h_eff, tx, y, priors


def _sweep_batches(cfg):
    """Group the sweep's (snr_idx, lo, hi) chunks, in order, into detection calls.

    A call takes the next chunk, from the same or the next SNR point,
    while its trials x the largest order stay within 4096; every call
    holds at least one chunk.
    """
    cap = BATCH_CELLS // max(cfg.mods)
    batches, rows = [], 0
    for snr_idx in range(len(cfg.snr_db)):
        for lo, hi in _chunks(cfg.trials):
            if batches and rows + hi - lo <= cap:
                batches[-1].append((snr_idx, lo, hi))
                rows += hi - lo
            else:
                batches.append([(snr_idx, lo, hi)])
                rows = hi - lo
    return batches


def _result_rows(res, rows):
    """Rows ``rows`` (a slice) of a batched DetectionResult."""
    return dataclasses.replace(
        res, hard=res.hard[rows], dmin=res.dmin[rows], llr=tuple(lam[rows] for lam in res.llr),
        hard_index=res.hard_index[rows],
    )


def _sweep_partials(cfg, cons, reduce_chunk):
    """Draw, detect and reduce every chunk of a sweep; return each SNR point's partials.

    ``reduce_chunk(snr_idx, lo, h, tx, y, priors, res)`` maps one chunk's
    draws and its rows of the detection result to a partial; the partials
    of each SNR point come back in trial order.  Threads map over
    detection calls.
    """
    scales = np.array([c.unit_energy_scale for c in cons])

    def run_batch(batch):
        draws = [_draw_sweep_chunk(cfg, cons, scales, s, cfg.snr_db[s], (lo, hi))
                 for s, lo, hi in batch]
        h, _, y, priors = zip(*draws)
        priors = None if priors[0] is None else [np.concatenate(p) for p in zip(*priors)]
        res = detect_batch(
            np.concatenate(h), np.concatenate(y), cons, priors,
            detector=cfg.detector, distance_mode=cfg.distance_mode, quant=cfg.quant,
        )
        out, row = [], 0
        for (s, lo, hi), chunk in zip(batch, draws):
            out.append(reduce_chunk(s, lo, *chunk, _result_rows(res, slice(row, row + hi - lo))))
            row += hi - lo
        return out

    batches = _sweep_batches(cfg)
    parts = [[] for _ in cfg.snr_db]
    for batch, out in zip(batches, _reduce_chunks(run_batch, batches, cfg.threads)):
        for (s, _, _), part in zip(batch, out):
            parts[s].append(part)
    return parts


def _oracle_deviations(res, h, y, cons, priors):
    """Per trial of a detected chunk: (row, detector result, oracle result, |LLR deviation|)."""
    for j in range(len(h)):
        det = res.row(j)
        ora = exhaustive_map(h[j], y[j], cons, _trial_priors(priors, j))
        yield j, det, ora, np.abs(np.concatenate(det.llr) - np.concatenate(ora.llr))


def _sweep_chunk(cfg, cons, snr_idx, lo, h, tx, y, priors, res):
    """Reduce one detected chunk to its (vector, symbol, bit errors, LLR deviation
    sum, LLR count) partials and LLR deviation maximum."""
    snr_db = cfg.snr_db[snr_idx]
    devs = []
    checked = _oracle_deviations(res, h, y, cons, priors) if cfg.shadow_oracle else ()
    for j, det, ora, dev in checked:
        key = {"snr_db": snr_db, "snr_idx": snr_idx, "trial": lo + j,
               "seed": cfg.master_seed}
        if cfg.detector == "map2":
            tol = _SHADOW_RTOL * np.maximum(1.0, np.abs(np.concatenate(ora.llr)))
            if np.any(dev > tol) or not np.array_equal(det.hard, ora.hard):
                raise ShadowOracleMismatch(
                    "detector disagrees with exhaustive oracle",
                    record={**key, "detector": cfg.detector, "max_dev": float(dev.max())},
                )
            devs.append(dev)
        # candidate lists can only over-estimate the exact minimum
        elif det.dmin < ora.dmin - _SHADOW_RTOL * max(1.0, abs(ora.dmin)):
            raise ShadowOracleMismatch(
                "candidate-list minimum beats the exhaustive minimum", record=key,
            )

    sym_err = res.hard_index != tx
    bit_err = sum(
        int(np.sum(c.point_bits[res.hard_index[:, i]] != c.point_bits[tx[:, i]]))
        for i, c in enumerate(cons)
    )
    acc = np.array([np.sum(np.any(sym_err, axis=1)), np.sum(sym_err), bit_err,
                    sum(float(d.sum()) for d in devs), sum(len(d) for d in devs)], dtype=float)
    return acc, max((float(d.max()) for d in devs), default=0.0)


def run_sweep(cfg: SimConfig) -> list[TrialStats]:
    """Full Monte-Carlo sweep over the configured SNR grid, reduced chunk by chunk."""
    cfg.validate()
    cons = tuple(make_constellation(q) for q in cfg.mods)
    q_total = sum(c.bits_per_symbol for c in cons)

    def reduce_chunk(*chunk):
        return _sweep_chunk(cfg, cons, *chunk)

    stats = []
    for snr_db, parts in zip(cfg.snr_db, _sweep_partials(cfg, cons, reduce_chunk)):
        total = np.zeros(5)
        dev_max = 0.0
        for acc, dmax in parts:
            total += acc
            dev_max = max(dev_max, dmax)
        vec, sym, bit, dev_sum, dev_cnt = total
        stats.append(
            TrialStats(
                snr_db=snr_db,
                trials=cfg.trials,
                vector_errors=int(vec),
                symbol_errors=int(sym),
                bit_errors=int(bit),
                ser=sym / (cfg.trials * cfg.n_layers),
                ber=bit / (cfg.trials * q_total),
                llr_mae=(dev_sum / dev_cnt) if dev_cnt else float("nan"),
                llr_max=dev_max if dev_cnt else float("nan"),
            )
        )
    if cfg.out_path:
        write_csv(cfg.out_path, cfg, stats)
    return stats


def llr_fidelity(cfg: SimConfig) -> list[FidelityPoint]:
    """Mean/max deviation of detector LLRs from the float exhaustive oracle.

    Quantization (if configured) applies to the detector path only, so
    this measures the quantization-induced LLR degradation; without it
    the map2 detector must sit at numerical-noise level.
    """
    probe = dataclasses.replace(cfg, shadow_oracle=False, quant=None)
    probe.validate()
    if int(np.prod(cfg.mods)) > ENUM_BUDGET:
        raise ConfigError("oracle enumeration exceeds budget")
    if cfg.detector == "oracle":
        raise ConfigError("llr_fidelity needs a non-oracle detector")
    cons = tuple(make_constellation(q) for q in cfg.mods)

    def reduce_chunk(snr_idx, lo, h, tx, y, priors, res):
        devs = [dev for *_, dev in _oracle_deviations(res, h, y, cons, priors)]
        return (sum(float(d.sum()) for d in devs), max(float(d.max()) for d in devs),
                sum(len(d) for d in devs))

    points = []
    for snr_db, parts in zip(cfg.snr_db, _sweep_partials(cfg, cons, reduce_chunk)):
        dev_sum = sum(p[0] for p in parts)
        dev_max = max(p[1] for p in parts)
        count = sum(p[2] for p in parts)
        points.append(FidelityPoint(snr_db, cfg.trials, dev_sum / count, dev_max))
    return points


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_csv(path: str, cfg: SimConfig, stats: list[TrialStats]) -> None:
    lines = [",".join(_CSV_COLUMNS)]
    mods = "x".join(str(q) for q in cfg.mods)
    for st in stats:
        lines.append(",".join((
            _fmt(st.snr_db), str(st.trials), _fmt(st.ser), _fmt(st.ber),
            _fmt(st.llr_mae), _fmt(st.llr_max), cfg.detector, cfg.distance_mode,
            str(cfg.n_layers), mods, str(cfg.master_seed),
        )))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Batched uncoded experiments (zero priors, hard decisions)


def draw_uncoded_chunk(master_seed, snr_idx, chunk_idx, snr_db, constellations, n_trials):
    """Draw one chunk of uncoded trials from its counter-based stream.

    Returns (h_eff, x, y_tilde) stacked over trials; draw order matches
    the per-trial sweeps (channel, symbols layer by layer, noise).
    """
    rng = trial_rng(master_seed, snr_idx, chunk_idx, CONTEXT_BATCH)
    n = len(constellations)
    scales = np.array([c.unit_energy_scale for c in constellations])
    re = rng.standard_normal((n_trials, n, n))
    im = rng.standard_normal((n_trials, n, n))
    h_eff = (re + 1j * im) * np.sqrt(0.5) * scales[None, None, :]
    x = np.empty((n_trials, n), dtype=complex)
    for i, c in enumerate(constellations):
        x[:, i] = c.points[rng.integers(c.order, size=n_trials)]
    sigma2 = _sigma2(snr_db, n)
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal((n_trials, n)) + 1j * rng.standard_normal((n_trials, n))
    )
    y_tilde = np.einsum("tij,tj->ti", h_eff, x) + noise
    return h_eff, x, y_tilde


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


def _slice_layer(l, i, tr, r, c):
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
        _, _, d, r = _fix_layer(l, i, every, d, r, _slice_layer(l, i, every, r, c), radius)
    radius = d
    tr, d, r, prefix = every, np.zeros(t), yt, np.zeros(t, dtype=np.int64)
    for i, c in enumerate(constellations[:-1]):
        s, k, d, r = _fix_layer(l, i, tr, d, r, c.points[None, :], radius)
        tr, prefix = tr[s], prefix[s] * c.order + k
    x_last = _slice_layer(l, n - 1, tr, r, constellations[-1])
    s, _, d, _ = _fix_layer(l, n - 1, tr, d, r, x_last, radius)
    tr, prefix, x_last = tr[s], prefix[s], x_last[s, 0]
    # survivors are in (trial, prefix) order and lexsort is stable, so the
    # first row of each trial is its lowest-prefix minimizer
    order = np.lexsort((d, tr))
    win = order[np.r_[True, np.diff(tr[order]) != 0]]
    out = np.empty((t, n), dtype=complex)
    heads = np.unravel_index(prefix[win], [c.order for c in constellations[:-1]])
    for j, idx in enumerate(heads):
        out[tr[win], j] = constellations[j].points[idx]
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
    for lo, hi in _chunks(t, _ML_CHUNK):
        out[lo:hi] = _ml_search(l[lo:hi], yt[lo:hi], constellations)
    return out


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
    for lo, hi in _chunks(t, _WLD_CHUNK):
        batches = _candidate_batches(
            h_eff[lo:hi], y_tilde[lo:hi], constellations, None, n, True, None
        )
        out[lo:hi] = best_candidates(batches)[0]
    return out


def uncoded_ver_point(
    master_seed: int,
    snr_idx: int,
    snr_db: float,
    mods,
    trials: int,
    threads: int = 1,
) -> dict[str, float]:
    """Vector-error rates of the wld and exact-ML detectors at one SNR point.

    Both detectors run on identical trial data (paired comparison),
    drawn in 2048-trial chunks with one counter-based stream each.
    Returns {"wld": rate, "ml": rate}.
    """
    cons = tuple(make_constellation(q) for q in mods)

    def run_chunk(bounds):
        lo, hi = bounds
        h_eff, x, y_tilde = draw_uncoded_chunk(
            master_seed, snr_idx, lo // _VER_CHUNK, snr_db, cons, hi - lo
        )
        return [int(np.sum(np.any(detect(h_eff, y_tilde, cons) != x, axis=1)))
                for detect in (wld_hard_batch, ml_hard_batch)]

    parts = _reduce_chunks(run_chunk, _chunks(trials, _VER_CHUNK), threads)
    wld, ml = (sum(errs) for errs in zip(*parts))
    return {"wld": wld / trials, "ml": ml / trials}


# ---------------------------------------------------------------------------
# MU-MIMO classification Monte-Carlo


def _draw_mu_chunk(master_seed, bounds, n_tones, des, intf):
    """Draw MU-MIMO scenarios [lo, hi), one counter-based stream each.

    Returns raw channels (S, K, 2, 2), the noise-free received signal
    (S, K, 2) and unit-variance complex noise (S, K, 2); the observation
    at noise variance sigma^2 is signal + sigma * noise.
    """
    lo, hi = bounds
    h = np.empty((hi - lo, n_tones, 2, 2), dtype=complex)
    signal = np.empty((hi - lo, n_tones, 2), dtype=complex)
    base = np.empty_like(signal)
    for j, i in enumerate(range(lo, hi)):
        rng = trial_rng(master_seed, 0, i, CONTEXT_MUMIMO)
        re = rng.standard_normal((n_tones, 2, 2))
        im = rng.standard_normal((n_tones, 2, 2))
        h[j] = (re + 1j * im) * np.sqrt(0.5)
        x1 = des.points[rng.integers(des.order, size=n_tones)] * des.unit_energy_scale
        x2 = intf.points[rng.integers(intf.order, size=n_tones)] * intf.unit_energy_scale
        base[j] = np.sqrt(0.5) * (
            rng.standard_normal((n_tones, 2)) + 1j * rng.standard_normal((n_tones, 2))
        )
        signal[j] = h[j, :, :, 0] * x1[:, None] + h[j, :, :, 1] * x2[:, None]
    return h, signal, base


def mu_classification_rates(
    master_seed: int,
    n_tones: int,
    desired_order: int,
    interferer_order: int,
    snr_db_grid,
    scenarios: int,
    threads: int = 1,
) -> list[float]:
    """Correct-classification rate per SNR point.

    Noise realizations are shared across SNR points (scaled common
    random numbers), which makes the rate-vs-SNR trend monotone up to
    per-scenario granularity.  Each 64-scenario chunk is classified at
    every SNR point by one :func:`~mimodet.mumimo.window_scores` call:
    its channels are factored once, and each hypothesis detects all of
    the chunk's tones in a few batched calls.
    """
    des = make_constellation(desired_order)
    intf = make_constellation(interferer_order)
    sigma2 = np.array([2.0 / 10.0 ** (snr_db / 10.0) for snr_db in snr_db_grid])
    truth = np.array(MU_HYPOTHESIS_ORDERS) == interferer_order

    def run_chunk(bounds):
        h, signal, base = _draw_mu_chunk(master_seed, bounds, n_tones, des, intf)
        y = signal + np.sqrt(sigma2)[:, None, None, None] * base  # (P, S, K, 2)
        chosen = np.argmin(window_scores(h, y, des, sigma2, scenario0=bounds[0]), axis=0)
        return np.sum(truth[chosen], axis=1)

    parts = _reduce_chunks(run_chunk, _chunks(scenarios), threads)
    totals = np.sum(parts, axis=0)
    return [c / scenarios for c in totals]
