"""Tests of the benchmark's own reference and of BENCHMARK.json's metric list.

Run with ``python3 -m pytest bench/test_reference.py``.  The alphabets here
are built locally, so these tests need numpy only.
"""

import json
from pathlib import Path

import numpy as np

import reference as ref
from tracing import metric_names


def _qam(order):
    """Square QAM on odd-integer levels with natural-binary bits over {-1, +1}."""
    pam = int(np.sqrt(order))
    levels = np.arange(-(pam - 1), pam, 2, dtype=float)
    points = (levels[:, None] + 1j * levels[None, :]).reshape(-1)
    q = int(np.log2(order))
    codes = np.arange(order)[:, None] >> np.arange(q - 1, -1, -1)[None, :]
    return points, (1 - 2 * (codes & 1)).astype(np.int8)


def _crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def test_noiseless_well_conditioned_trial_decodes_to_transmitted_symbols():
    rng = np.random.default_rng(11)
    alphabets = [_qam(16), _qam(4), _qam(16)]
    for _ in range(20):
        # diagonally dominant, so the columns stay far from collinear
        h = np.eye(3) * 4.0 + 0.3 * _crandn(rng, 3, 3)
        idx = np.array([rng.integers(len(p)) for p, _ in alphabets])
        x = np.array([p[i] for (p, _), i in zip(alphabets, idx)])
        hard, hard_idx, dmin, llrs = ref.brute_force(h, h @ x, alphabets)
        np.testing.assert_array_equal(hard, x)
        np.testing.assert_array_equal(hard_idx, idx)
        assert dmin <= 1e-20
        for (_, bits), i, llr in zip(alphabets, idx, llrs):
            # the sign of each LLR points at the transmitted bit
            assert np.all(llr * bits[i] < 0)


def test_layer_permutation_leaves_minimum_metric_unchanged():
    rng = np.random.default_rng(12)
    alphabets = [_qam(4), _qam(16), _qam(64)]
    for _ in range(10):
        h = _crandn(rng, 3, 3)
        x = np.array([p[rng.integers(len(p))] for p, _ in alphabets])
        y = h @ x + 0.5 * _crandn(rng, 3)
        priors = [rng.normal(0.0, 0.3, b.shape[1]) for _, b in alphabets]
        hard, _, dmin, llrs = ref.brute_force(h, y, alphabets, priors)
        perm = rng.permutation(3)
        hard_p, _, dmin_p, llrs_p = ref.brute_force(
            h[:, perm], y, [alphabets[i] for i in perm], [priors[i] for i in perm]
        )
        assert abs(dmin_p - dmin) <= 1e-12 * max(1.0, abs(dmin))
        np.testing.assert_array_equal(hard_p, hard[perm])
        for j, i in enumerate(perm):
            np.testing.assert_allclose(llrs_p[j], llrs[i], rtol=1e-12, atol=1e-12)


def test_mu_scores_prefer_the_transmitted_interferer_without_noise():
    rng = np.random.default_rng(13)
    desired = _qam(16)[0]
    hyps = {o: _qam(o)[0] for o in (4, 16, 64)}
    h = _crandn(rng, 8, 2, 2)
    x1 = desired[rng.integers(16, size=8)] * ref.unit_scale(desired)
    x2 = hyps[16][rng.integers(16, size=8)] * ref.unit_scale(hyps[16])
    y = h[:, :, 0] * x1[:, None] + h[:, :, 1] * x2[:, None]
    scores = ref.mu_scores(h, y, 1e-3, desired, hyps)
    assert abs(scores[16] - 8 * np.log(16)) <= 1e-9
    assert ref.mu_choice(scores) == 16


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == metric_names()
