"""Monte-Carlo drivers over :mod:`mimodet.detect`: sweeps, LLR fidelity, batch experiments.

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

from .constellation import ModScheme, make_constellation
# bench/workloads.py calls each detector as simharness.<name>; bench/tracing.py looks it up there
from .detect import _check_detector, detect_batch, detect_instance, wld_hard_batch
from .detcore import BATCH_CELLS, symbols_of
from .errors import ConfigError, ShadowOracleMismatch
from .hwmodel import FixedPointFormat
from .mumimo import MU_HYPOTHESIS_ORDERS, window_scores
from .oracle import ENUM_BUDGET, ml_hard_batch
from .rng import CONTEXT_BATCH, CONTEXT_MUMIMO, CONTEXT_SWEEP, trial_rng, trial_streams

__all__ = [
    "SimConfig",
    "TrialStats",
    "FidelityPoint",
    "generate_channel",
    "run_sweep",
    "llr_fidelity",
    "write_csv",
    "draw_uncoded_chunk",
    "uncoded_ver_point",
    "mu_classification_rates",
]

_SWEEP_CHUNK = 64  # trials per sweep draw and reduction; fixes the float sum order
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
        _check_detector(self.detector, self.distance_mode, self.n_layers)
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


def generate_channel(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0,1) channel entries of any shape, every real part drawn before the imaginary."""
    re, im = rng.standard_normal((2, *shape))
    return (re + 1j * im) * np.sqrt(0.5)


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

    The draws (:func:`~mimodet.rng.trial_streams`) fill preallocated
    arrays and the observations are formed for the whole chunk at once.
    Returns (h_eff (T, N, N), transmitted indices (T, N), y_tilde (T, N),
    priors: None or per layer (T, q_n)).
    """
    n = cfg.n_layers
    lo, hi = bounds
    orders = np.array([c.order for c in cons])
    q = [c.bits_per_symbol for c in cons]
    h = np.empty((hi - lo, n, n), dtype=complex)
    tx = np.empty((hi - lo, n), dtype=np.int64)
    noise = np.empty((hi - lo, 2, n))
    draw_priors = cfg.priors_mode == "random"
    lam = np.empty((hi - lo, sum(q)))
    streams = trial_streams(cfg.master_seed, snr_idx, range(lo, hi), CONTEXT_SWEEP)
    for j, rng in enumerate(streams):
        h[j] = generate_channel(rng, (n, n))
        tx[j] = rng.integers(orders)
        noise[j] = rng.standard_normal((2, n))
        if draw_priors:
            lam[j] = rng.normal(0.0, cfg.priors_sigma, lam.shape[1])
    h_eff = h * scales[None, None, :]
    x = symbols_of(tx, cons)
    sigma2 = _sigma2(snr_db, n)
    y = (h_eff @ x[:, :, None])[:, :, 0] + np.sqrt(sigma2 / 2.0) * (noise[:, 0] + 1j * noise[:, 1])
    priors = np.split(lam, np.cumsum(q)[:-1], axis=1) if draw_priors else None
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


def _sweep_totals(cfg, cons, measure):
    """Draw, detect and reduce every chunk of a sweep; return each SNR point's totals.

    A point's totals sum its chunks' partials (:func:`_sweep_chunk`) in
    trial order and keep their largest LLR deviation; threads map over detection calls.
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
            rows = res.row(slice(row, row + hi - lo))
            out.append(_sweep_chunk(cfg, cons, s, lo, *chunk, rows, measure))
            row += hi - lo
        return out

    batches = _sweep_batches(cfg)
    totals = [np.zeros(5) for _ in cfg.snr_db]
    dev_max = [0.0] * len(cfg.snr_db)
    for batch, out in zip(batches, _reduce_chunks(run_batch, batches, cfg.threads)):
        for (s, _, _), (acc, dmax) in zip(batch, out):
            totals[s] += acc
            dev_max[s] = max(dev_max[s], dmax)
    return list(zip(totals, dev_max))


def _shadow_check(cfg, snr_idx, lo, res, ora, dev):
    """Raise ShadowOracleMismatch naming the first trial of a chunk that fails the check."""
    if cfg.detector == "map2":
        tol = _SHADOW_RTOL * np.maximum(1.0, np.abs(np.concatenate(ora.llr, axis=1)))
        bad = np.any(dev > tol, axis=1) | np.any(res.hard != ora.hard, axis=1)
    else:
        # candidate lists can only over-estimate the exact minimum
        bad = res.dmin < ora.dmin - _SHADOW_RTOL * np.maximum(1.0, np.abs(ora.dmin))
    if bad.any():
        j = int(np.argmax(bad))
        key = {"snr_db": cfg.snr_db[snr_idx], "snr_idx": snr_idx, "trial": lo + j,
               "seed": cfg.master_seed}
        if cfg.detector != "map2":
            raise ShadowOracleMismatch("candidate-list minimum beats the exhaustive minimum",
                                       record=key)
        raise ShadowOracleMismatch("detector disagrees with exhaustive oracle", record={
            **key, "detector": cfg.detector, "max_dev": float(dev[j].max())})


def _sweep_chunk(cfg, cons, snr_idx, lo, h, tx, y, priors, res, measure):
    """Reduce one detected chunk to its (vector, symbol, bit errors, LLR deviation
    sum, LLR count) partials and LLR deviation maximum; the exhaustive oracle
    runs on the chunk for the shadow check and when ``measure`` asks for them."""
    sym_err = res.hard_index != tx
    bit_err = sum(
        int(np.sum(c.point_bits[res.hard_index[:, i]] != c.point_bits[tx[:, i]]))
        for i, c in enumerate(cons)
    )
    acc = np.array([np.sum(np.any(sym_err, axis=1)), np.sum(sym_err), bit_err, 0, 0], dtype=float)
    if cfg.shadow_oracle or measure:
        ora = detect_batch(h, y, cons, priors, detector="oracle")
        dev = np.abs(np.concatenate(res.llr, axis=1) - np.concatenate(ora.llr, axis=1))
        if cfg.shadow_oracle:
            _shadow_check(cfg, snr_idx, lo, res, ora, dev)
        if measure:
            # per-trial sums added in trial order fix the float sum order
            acc[3:] = sum(dev.sum(axis=1).tolist()), dev.size
            return acc, float(dev.max())
    return acc, 0.0


def run_sweep(cfg: SimConfig) -> list[TrialStats]:
    """Full Monte-Carlo sweep over the configured SNR grid, reduced chunk by chunk."""
    cfg.validate()
    cons = tuple(make_constellation(q) for q in cfg.mods)
    q_total = sum(c.bits_per_symbol for c in cons)
    measure = cfg.shadow_oracle and cfg.detector == "map2"
    stats = []
    for snr_db, (total, dev_max) in zip(cfg.snr_db, _sweep_totals(cfg, cons, measure)):
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
    the map2 detector must sit at numerical-noise level.  It runs the
    sweep's chunk reduction with every trial measured and no shadow check.
    """
    probe = dataclasses.replace(cfg, shadow_oracle=False, quant=None)
    probe.validate()
    if int(np.prod(cfg.mods)) > ENUM_BUDGET:
        raise ConfigError("oracle enumeration exceeds budget")
    if cfg.detector == "oracle":
        raise ConfigError("llr_fidelity needs a non-oracle detector")
    cons = tuple(make_constellation(q) for q in cfg.mods)
    totals = _sweep_totals(dataclasses.replace(cfg, shadow_oracle=False), cons, measure=True)
    return [FidelityPoint(snr_db, cfg.trials, float(total[3] / total[4]), dev_max)
            for snr_db, (total, dev_max) in zip(cfg.snr_db, totals)]


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
    h_eff = generate_channel(rng, (n_trials, n, n)) * scales[None, None, :]
    tx = np.stack([rng.integers(c.order, size=n_trials) for c in constellations], axis=-1)
    x = symbols_of(tx, constellations)
    sigma2 = _sigma2(snr_db, n)
    re, im = rng.standard_normal((2, n_trials, n))
    noise = np.sqrt(sigma2 / 2.0) * (re + 1j * im)
    y_tilde = np.einsum("tij,tj->ti", h_eff, x) + noise
    return h_eff, x, y_tilde


def _check_run(snr_name, snr_db, **counts):
    """Reject an empty or non-finite SNR value or grid and counts below 1, naming each."""
    snr_db = np.atleast_1d(np.asarray(snr_db, dtype=float))
    if snr_db.size == 0 or not np.all(np.isfinite(snr_db)):
        raise ValueError(f"{snr_name} must be non-empty and finite")
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")


def _check_mu_run(snr_db_grid, n_tones, desired_order, interferer_order, scenarios, threads,
                  names=("snr_db_grid", "n_tones", "desired_order", "interferer_order",
                         "scenarios", "threads")):
    """Reject bad arguments of :func:`mu_classification_rates`, named by ``names`` in order."""
    snr, tones, des, order, count, workers = names
    _check_run(snr, snr_db_grid, **{tones: n_tones, count: scenarios, workers: threads})
    for name, value, allowed in ((des, desired_order, tuple(s.order for s in ModScheme)),
                                 (order, interferer_order, MU_HYPOTHESIS_ORDERS)):
        if value not in allowed:
            raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


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
    _check_run("snr_db", snr_db, trials=trials, threads=threads)
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
    for j, rng in enumerate(trial_streams(master_seed, 0, range(lo, hi), CONTEXT_MUMIMO)):
        h[j] = generate_channel(rng, (n_tones, 2, 2))
        x1 = des.points[rng.integers(des.order, size=n_tones)] * des.unit_energy_scale
        x2 = intf.points[rng.integers(intf.order, size=n_tones)] * intf.unit_energy_scale
        re, im = rng.standard_normal((2, n_tones, 2))
        base[j] = np.sqrt(0.5) * (re + 1j * im)
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
    its channels are factored once, and a few batched calls score all of
    the chunk's tones under every hypothesis.
    """
    _check_mu_run(snr_db_grid, n_tones, desired_order, interferer_order, scenarios, threads)
    des = make_constellation(desired_order)
    intf = make_constellation(interferer_order)
    sigma2 = np.array([_sigma2(snr_db, 2) for snr_db in snr_db_grid])
    truth = np.array(MU_HYPOTHESIS_ORDERS) == interferer_order

    def run_chunk(bounds):
        h, signal, base = _draw_mu_chunk(master_seed, bounds, n_tones, des, intf)
        y = signal + np.sqrt(sigma2)[:, None, None, None] * base  # (P, S, K, 2)
        chosen = np.argmin(window_scores(h, y, des, sigma2, scenario0=bounds[0]), axis=0)
        return np.sum(truth[chosen], axis=1)

    parts = _reduce_chunks(run_chunk, _chunks(scenarios), threads)
    totals = np.sum(parts, axis=0)
    return [c / scenarios for c in totals]
