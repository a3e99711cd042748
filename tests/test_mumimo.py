import numpy as np
import pytest

from mimodet import (
    SingularChannelError,
    classify_interferer,
    count_distance_evals,
    make_constellation,
    mu_llr,
)
from mimodet.mumimo import MU_HYPOTHESIS_ORDERS, MuScenario, PrbLayout, window_scores


def draw_scenario(rng, k, desired_order, interf_order, sigma2, noiseless=False):
    des = make_constellation(desired_order)
    intf = make_constellation(interf_order)
    h = (rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))) / np.sqrt(2)
    x1 = des.points[rng.integers(des.order, size=k)] * des.unit_energy_scale
    x2 = intf.points[rng.integers(intf.order, size=k)] * intf.unit_energy_scale
    y = h[:, :, 0] * x1[:, None] + h[:, :, 1] * x2[:, None]
    if not noiseless:
        y = y + np.sqrt(sigma2 / 2) * (
            rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        )
    return MuScenario.create(h, y, des, sigma2)


def test_scenario_validation():
    with pytest.raises(ValueError):
        MuScenario.create(np.zeros((0, 2, 2)), np.zeros((0, 2)), 64, 0.1)
    with pytest.raises(ValueError):
        MuScenario.create(np.zeros((2, 2, 2)), np.zeros((3, 2)), 64, 0.1)
    for noise_var in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            MuScenario.create(np.zeros((2, 2, 2)), np.zeros((2, 2)), 64, noise_var)


def test_penalty_identity():
    # with the distance term removed, hypothesis scores differ by exactly
    # K * log of the constellation-size ratio
    rng = np.random.default_rng(0)
    s = draw_scenario(rng, 4, 4, 4, 1.0, noiseless=True)
    cls = classify_interferer(s)
    assert cls.chosen.order == 4
    for q in (16, 64, 256):
        want = s.n_tones * (np.log(q) - np.log(4))
        got = (cls.scores[q] - cls.distance_sums[q] / s.noise_var) - (
            cls.scores[4] - cls.distance_sums[4] / s.noise_var
        )
        assert got == pytest.approx(want, rel=1e-9)


def test_penalty_breaks_near_ties_toward_smaller_constellation():
    # at enormous noise the scaled distance sums collapse toward equality and
    # the size penalty decides: the smallest hypothesis wins
    rng = np.random.default_rng(6)
    for interf in (16, 256):
        s = draw_scenario(rng, 8, 4, interf, 1e12)
        assert classify_interferer(s).chosen.order == 4


@pytest.mark.parametrize("interf", [4, 16, 64, 256])
def test_noiseless_classification_is_exact(interf):
    rng = np.random.default_rng(interf)
    for _ in range(250):
        s = draw_scenario(rng, 24, 64, interf, 1e-9, noiseless=True)
        assert classify_interferer(s).chosen.order == interf


def bruteforce_distances(s, hyp, k):
    """||y - H x||^2 on tone k for every (desired, interferer) point pair."""
    h, y = s.channels[k], s.observations[k]
    x1 = s.desired.points * s.desired.unit_energy_scale
    x2 = hyp.points * hyp.unit_energy_scale
    resid = y - h[:, 0] * x1[:, None, None] - h[:, 1] * x2[None, :, None]
    return np.sum(np.abs(resid) ** 2, axis=2)


def bruteforce_llr(s, hyp, k):
    per1 = bruteforce_distances(s, hyp, k).min(axis=1) / s.noise_var
    bits = s.desired.point_bits
    return np.array([
        per1[bits[:, j] == 1].min() - per1[bits[:, j] == -1].min()
        for j in range(s.desired.bits_per_symbol)
    ])


def test_mu_llr_matches_bruteforce():
    rng = np.random.default_rng(1)
    s = draw_scenario(rng, 6, 16, 4, 0.05)
    intf = make_constellation(4)
    for k in range(s.n_tones):
        assert np.allclose(mu_llr(s, intf, k), bruteforce_llr(s, intf, k),
                           rtol=1e-9, atol=1e-9)


def test_mu_llr_zero_noise_sign():
    rng = np.random.default_rng(3)
    des = make_constellation(4)
    intf = make_constellation(4)
    h = (rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2))) / np.sqrt(2)
    x1 = des.points[1] * des.unit_energy_scale
    x2 = intf.points[2] * intf.unit_energy_scale
    y = h[:, :, 0] * x1 + h[:, :, 1] * x2
    s = MuScenario.create(h, y, des, 1e-9)
    lam = mu_llr(s, intf, 0)
    bits = des.bits_of_points(des.points[1])
    assert np.all(lam[bits == 1] <= 0)
    assert np.all(lam[bits == -1] >= 0)


def test_degenerate_interferer_reduces_to_single_user():
    rng = np.random.default_rng(4)
    des = make_constellation(4)
    h = np.zeros((1, 2, 2), dtype=complex)
    h[0, :, 0] = [1 + 0.5j, -0.3 + 0.2j]
    x1 = des.points[2] * des.unit_energy_scale
    noise = 0.05 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    y = (h[0, :, 0] * x1 + noise)[None, :]
    s = MuScenario.create(h, y, des, 0.05)
    lam = mu_llr(s, make_constellation(4), 0)
    d_su = np.array([
        np.sum(np.abs(y[0] - h[0, :, 0] * des.unit_energy_scale * p) ** 2)
        for p in des.points
    ]) / s.noise_var
    bits = des.point_bits
    ref = np.array([
        d_su[bits[:, j] == 1].min() - d_su[bits[:, j] == -1].min() for j in range(2)
    ])
    assert np.allclose(lam, ref, rtol=1e-9)

    # a window mixing interference-free and factored tones
    s = draw_scenario(rng, 6, 16, 16, 0.1)
    h = s.channels.copy()
    h[2, :, 1] = 0
    s = MuScenario.create(h, s.observations, s.desired, s.noise_var)
    cls = classify_interferer(s)
    for hyp in map(make_constellation, MU_HYPOTHESIS_ORDERS):
        want = sum(bruteforce_distances(s, hyp, k).min() for k in range(s.n_tones))
        assert cls.distance_sums[hyp.order] == pytest.approx(want, rel=1e-9)
        for k in range(s.n_tones):
            assert np.allclose(mu_llr(s, hyp, k), bruteforce_llr(s, hyp, k),
                               rtol=1e-9, atol=1e-9)


def test_vanishing_desired_column_raises():
    h = np.zeros((1, 2, 2), dtype=complex)
    h[0, :, 1] = [1, 1]
    s = MuScenario.create(h, np.ones((1, 2), dtype=complex), 64, 0.1)
    with pytest.raises(SingularChannelError):
        classify_interferer(s)


def test_stacked_window_scores_equal_classify_interferer(monkeypatch):
    # windows of a stack, interference-free tones included, score bit for bit
    # as they do alone; the rows go out in 10-row calls that straddle windows
    import mimodet.mumimo as mumimo

    rng = np.random.default_rng(8)
    des = make_constellation(16)
    monkeypatch.setattr(mumimo, "BATCH_CELLS", 10 * des.order)
    n_scn, k = 5, 7
    h = (rng.standard_normal((n_scn, k, 2, 2)) + 1j * rng.standard_normal((n_scn, k, 2, 2)))
    h[1, 3, :, 1] = 0
    h[4, [0, 6], :, 1] = 0
    noise_var = np.array([0.05, 0.4, 3.0])
    y = (rng.standard_normal((len(noise_var), n_scn, k, 2))
         + 1j * rng.standard_normal((len(noise_var), n_scn, k, 2)))
    scores = window_scores(h, y, des, noise_var)
    assert scores.shape == (len(MU_HYPOTHESIS_ORDERS), len(noise_var), n_scn)
    for p, nv in enumerate(noise_var):
        for s in range(n_scn):
            cls = classify_interferer(MuScenario.create(h[s], y[p, s], des, nv))
            assert [cls.scores[q] for q in MU_HYPOTHESIS_ORDERS] == scores[:, p, s].tolist()
            assert MU_HYPOTHESIS_ORDERS[np.argmin(scores[:, p, s])] == cls.chosen.order


def test_window_scores_name_the_scenario_and_tone_of_a_vanishing_desired_column():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((3, 4, 2, 2)) + 0j
    h[2, 1, :, 0] = 0
    h[2, 3, :, 0] = 0
    des = make_constellation(4)
    with pytest.raises(SingularChannelError, match=r"scenario 66, tone 1$"):
        window_scores(h, np.ones((1, 3, 4, 2), dtype=complex), des, np.ones(1), scenario0=64)


def test_mu_llr_rejects_unknown_hypothesis_and_tone():
    rng = np.random.default_rng(5)
    s = draw_scenario(rng, 2, 4, 4, 0.1)
    with pytest.raises(ValueError):
        mu_llr(s, make_constellation(2), 0)
    with pytest.raises(ValueError):
        mu_llr(s, make_constellation(4), 5)


def test_count_distance_evals():
    c, t, r = count_distance_evals(64)
    assert c == 60 * 64 and t == 200 * 64
    assert r == (140 + 60) / 140
    _, _, r4 = count_distance_evals(4)
    assert r4 == r  # independent of the constellation
    c2, t2, r2 = count_distance_evals(64, PrbLayout(classification_tones=24))
    assert c2 == 2 * c
    assert r2 == (140 + 120) / 140
    with pytest.raises(ValueError):
        count_distance_evals(0)
