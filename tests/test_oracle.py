import numpy as np
import pytest

from mimodet import (
    EnumerationBudgetError,
    exhaustive_axis_argmin,
    exhaustive_map,
    make_constellation,
    punctured_decompose,
    rescore_candidates,
    detect_one_sided,
    transform_observation,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def test_identity_zero_noise():
    cons = (make_constellation(16),) * 3
    rng = np.random.default_rng(0)
    x = np.array([c.points[rng.integers(c.order)] for c in cons])
    res = exhaustive_map(np.eye(3, dtype=complex), x, cons)
    assert res.dmin == 0.0
    assert np.array_equal(res.hard, x)


def test_bpsk_hand_case():
    cons = (make_constellation(2), make_constellation(2))
    l = np.array([[1, 0], [1, 1]], dtype=complex)
    y = np.array([1, 2], dtype=complex)
    res = exhaustive_map(l, y, cons)
    assert res.dmin == 0.0
    assert np.array_equal(res.hard, [1, 1])
    assert res.llr[0].tolist() == [-8.0]
    assert res.llr[1].tolist() == [-4.0]
    # full distance spectrum {0, 4, 8, 20}
    dists = sorted(
        np.sum(np.abs(y - l @ np.array([a, b])) ** 2)
        for a in (1, -1) for b in (1, -1)
    )
    assert dists == [0.0, 4.0, 8.0, 20.0]


def test_budget_guard():
    cons = (make_constellation(256),) * 4
    with pytest.raises(EnumerationBudgetError):
        exhaustive_map(np.eye(4, dtype=complex), np.zeros(4, dtype=complex), cons)


def test_negation_symmetry_membership():
    rng = np.random.default_rng(1)
    cons = (make_constellation(16), make_constellation(16))
    for _ in range(20):
        h = crandn(rng, 2, 2)
        y = crandn(rng, 2) * 2
        a = exhaustive_map(h, y, cons)
        b = exhaustive_map(h, -y, cons)
        assert b.dmin == pytest.approx(a.dmin, rel=1e-12)
        # the negated hard decision attains the same distance
        d_neg = np.sum(np.abs(-y - h @ (-a.hard)) ** 2)
        assert d_neg == pytest.approx(a.dmin, rel=1e-9, abs=1e-12)


def test_lower_bound_vs_candidate_lists():
    rng = np.random.default_rng(2)
    cons = (make_constellation(4),) * 4
    for _ in range(20):
        h = crandn(rng, 4, 4)
        yt = crandn(rng, 4)
        res = exhaustive_map(h, yt, cons)
        for m in range(4):
            d = punctured_decompose(h, m)
            cl = detect_one_sided(d, transform_observation(d, yt), cons)
            rs = rescore_candidates(cl, h, yt, cons)
            assert res.dmin <= rs.distances.min() + 1e-9


def test_axis_argmin_zero_priors_nearest():
    ax = make_constellation(64).real_axis
    rng = np.random.default_rng(3)
    for _ in range(500):
        beta = rng.uniform(0.1, 2)
        z = rng.normal(0, 8)
        # metric built from a residual z: quad = beta^2, u-term = -2 beta z
        lvl = exhaustive_axis_argmin(ax, beta * beta, 0.0, -2 * beta * z, np.zeros(3))
        ref = ax.levels[np.argmin((z - beta * ax.levels) ** 2)]
        assert lvl == ref


def test_axis_argmin_two_pam_closed_form():
    ax = make_constellation(4).real_axis
    rng = np.random.default_rng(4)
    for _ in range(500):
        beta = rng.uniform(0.1, 2)
        z = rng.normal(0, 3)
        lam = rng.normal(0, 4, 1)
        lvl = exhaustive_axis_argmin(ax, beta * beta, 0.0, -2 * beta * z, lam)
        assert lvl == (1.0 if 2 * beta * z + lam[0] > 0 else -1.0)


def test_priors_shift_the_oracle():
    cons = (make_constellation(4), make_constellation(4))
    l = np.eye(2, dtype=complex)
    y = np.zeros(2, dtype=complex)
    # heavy prior toward bit -1 on every bit of layer 0 flips its decision
    priors = [np.array([-50.0, -50.0]), np.zeros(2)]
    res = exhaustive_map(l, y, cons, priors)
    bits = cons[0].bits_of_points(res.hard[0])
    assert np.all(bits == -1)
