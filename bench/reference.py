"""Reference computations for the detection benchmark, written apart from mimodet.

Nothing here imports mimodet.  Trial data is redrawn from the per-trial
Philox key recipe that the library documents (see README.md), and every
metric is computed by brute-force enumeration of the symbol grid.
Alphabets are passed in as arrays: ``points`` (Q,) complex and ``bits``
(Q, q) over {-1, +1}, where binary 0 maps to +1.
"""

from __future__ import annotations

import numpy as np

CONTEXT_SWEEP = 0
CONTEXT_BATCH = 1
CONTEXT_MUMIMO = 2

_MASK64 = (1 << 64) - 1


def philox(master_seed: int, snr_idx: int, counter: int, context: int) -> np.random.Generator:
    """Stream keyed by [master_seed, context << 48 | snr_idx << 32 | counter]."""
    key = np.array(
        [master_seed & _MASK64, (context << 48) | (snr_idx << 32) | counter], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def unit_scale(points: np.ndarray) -> float:
    """Multiplier giving unit average energy over a uniform draw of ``points``."""
    return 1.0 / np.sqrt(np.mean(np.abs(points) ** 2))


def draw_sweep_trial(master_seed, snr_idx, trial, snr_db, alphabets, priors_sigma=0.0):
    """One sweep trial: (h_eff, tx indices, y, priors or None).

    Draw order: channel real then imaginary parts, one symbol index per
    layer, noise real then imaginary parts, then one prior vector per
    layer when ``priors_sigma > 0``.  SNR is N / sigma^2.
    """
    rng = philox(master_seed, snr_idx, trial, CONTEXT_SWEEP)
    n = len(alphabets)
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    h = (re + 1j * im) * np.sqrt(0.5)
    idx = np.array([int(rng.integers(len(pts))) for pts, _ in alphabets])
    sigma2 = n / 10.0 ** (snr_db / 10.0)
    noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    scales = np.array([unit_scale(pts) for pts, _ in alphabets])
    h_eff = h * scales[None, :]
    x = np.array([pts[i] for (pts, _), i in zip(alphabets, idx)])
    y = h_eff @ x + noise
    priors = None
    if priors_sigma > 0:
        priors = [rng.normal(0.0, priors_sigma, bits.shape[1]) for _, bits in alphabets]
    return h_eff, idx, y, priors


def draw_uncoded_chunk(master_seed, snr_idx, chunk_idx, snr_db, alphabets, n_trials):
    """One chunk of batched trials: (h_eff (T,N,N), tx indices (T,N), y (T,N)).

    The whole chunk comes from one stream: channels, then symbol indices
    layer by layer, then noise.
    """
    rng = philox(master_seed, snr_idx, chunk_idx, CONTEXT_BATCH)
    n = len(alphabets)
    scales = np.array([unit_scale(pts) for pts, _ in alphabets])
    re = rng.standard_normal((n_trials, n, n))
    im = rng.standard_normal((n_trials, n, n))
    h_eff = (re + 1j * im) * np.sqrt(0.5) * scales[None, None, :]
    idx = np.empty((n_trials, n), dtype=np.intp)
    x = np.empty((n_trials, n), dtype=complex)
    for i, (pts, _) in enumerate(alphabets):
        idx[:, i] = rng.integers(len(pts), size=n_trials)
        x[:, i] = pts[idx[:, i]]
    sigma2 = n / 10.0 ** (snr_db / 10.0)
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal((n_trials, n)) + 1j * rng.standard_normal((n_trials, n))
    )
    y = np.einsum("tij,tj->ti", h_eff, x) + noise
    return h_eff, idx, y


def draw_mu_scenario(master_seed, scenario, n_tones, desired_points, interferer_points):
    """One MU-MIMO window: raw channels (K,2,2), noise-free signal (K,2), unit noise (K,2).

    The observation at SNR s (two-user total) is signal + sqrt(2 / 10^(s/10)) * noise.
    """
    rng = philox(master_seed, 0, scenario, CONTEXT_MUMIMO)
    re = rng.standard_normal((n_tones, 2, 2))
    im = rng.standard_normal((n_tones, 2, 2))
    h = (re + 1j * im) * np.sqrt(0.5)
    x1 = desired_points[rng.integers(len(desired_points), size=n_tones)]
    x1 = x1 * unit_scale(desired_points)
    x2 = interferer_points[rng.integers(len(interferer_points), size=n_tones)]
    x2 = x2 * unit_scale(interferer_points)
    noise = np.sqrt(0.5) * (
        rng.standard_normal((n_tones, 2)) + 1j * rng.standard_normal((n_tones, 2))
    )
    signal = h[:, :, 0] * x1[:, None] + h[:, :, 1] * x2[:, None]
    return h, signal, noise


def symbol_grid(point_sets) -> tuple[np.ndarray, np.ndarray]:
    """Every symbol vector, layer 0 slowest: (indices (M, N), vectors (M, N))."""
    idx = np.indices([len(p) for p in point_sets]).reshape(len(point_sets), -1).T
    x = np.stack([np.asarray(p)[idx[:, i]] for i, p in enumerate(point_sets)], axis=1)
    return idx, x


def distances(h, y, x, bias=None) -> np.ndarray:
    """||y - H x||^2 - bias for each row of x."""
    resid = np.asarray(y)[None, :] - x @ np.asarray(h).T
    d = np.sum(resid.real ** 2 + resid.imag ** 2, axis=1)
    return d if bias is None else d - bias


def brute_force(h, y, alphabets, priors=None):
    """Exhaustive minimum-distance search with max-log bit LLRs.

    Minimizes ||y - Hx||^2 - b(x)'lam over every symbol vector.  Returns
    (hard vector, its symbol indices, minimum metric, per-layer LLRs),
    where an LLR is the minimum over vectors whose bit is +1 minus the
    minimum over vectors whose bit is -1.
    """
    idx, x = symbol_grid([pts for pts, _ in alphabets])
    bias = np.zeros(len(x))
    if priors is not None:
        for i, (_, bits) in enumerate(alphabets):
            bias += (bits @ np.asarray(priors[i], dtype=float))[idx[:, i]]
    d = distances(h, y, x, bias)
    k = int(np.argmin(d))
    cube = d.reshape([len(pts) for pts, _ in alphabets])
    llrs = []
    for i, (_, bits) in enumerate(alphabets):
        # minimum over every vector whose layer-i symbol is each point
        per_point = cube.min(axis=tuple(a for a in range(cube.ndim) if a != i))
        pos = np.min(np.where(bits == 1, per_point[:, None], np.inf), axis=0)
        neg = np.min(np.where(bits == -1, per_point[:, None], np.inf), axis=0)
        llrs.append(pos - neg)
    return x[k], idx[k], float(d[k]), llrs


def mu_scores(channels, y, noise_var, desired_points, hypotheses):
    """Penalized classification score of each interferer hypothesis.

    score = K log|hyp| + sum_k min over (x1, x2) of
    ||y_k - h_k1 s1 x1 - h_k2 s2 x2||^2 / noise_var, with x1 from the
    desired alphabet and x2 from the hypothesis, each scaled to unit
    energy.  ``hypotheses`` maps order -> points.
    """
    k = channels.shape[0]
    a = channels[:, :, 0] * unit_scale(desired_points)  # (K, 2)
    r1 = y[:, None, :] - a[:, None, :] * desired_points[None, :, None]  # (K, Q1, 2)
    scores = {}
    for order, pts in hypotheses.items():
        b = channels[:, :, 1] * unit_scale(pts)
        r = r1[:, :, None, :] - b[:, None, None, :] * pts[None, None, :, None]
        d = np.sum(r.real ** 2 + r.imag ** 2, axis=3)  # (K, Q1, Q2)
        per_tone = d.reshape(k, -1).min(axis=1)
        scores[order] = k * np.log(order) + float(np.sum(per_tone)) / noise_var
    return scores


def mu_choice(scores) -> int:
    """Hypothesis order with the lowest score; ties go to the smaller order."""
    best = None
    for order in sorted(scores):
        if best is None or scores[order] < scores[best]:
            best = order
    return best
