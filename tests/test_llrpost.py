import numpy as np
import pytest

from mimodet import (
    MinimaMismatchError,
    combine_lists,
    detect_one_sided,
    exhaustive_map,
    llr_two_sided,
    make_constellation,
    punctured_decompose,
    rescore_candidates,
    transform_observation,
)
from mimodet.detcore import CandidateBatch
from mimodet.llrpost import _own_layer_minima, best_candidates, partition_minima


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def two_sided_lists(h, yt, cons, priors=None):
    out = []
    for m in (0, 1):
        d = punctured_decompose(h, m)
        out.append(detect_one_sided(d, transform_observation(d, yt), cons, priors))
    return out


def manual_list(symbols, distances, layer=0):
    """A hand-built one-trial batch of BPSK symbol vectors."""
    symbols = np.asarray(symbols, dtype=complex)
    return CandidateBatch(
        layer=layer, symbols=symbols[None], distances=np.asarray(distances, dtype=float)[None],
        prior_bias=np.zeros((1, len(distances))), distance_mode="L",
        index=make_constellation(2).point_indices(symbols)[None],
    )


def best_entry(*lists):
    """(symbols, distance, indices) of the best entry over the lists, for one trial."""
    x, d, idx = best_candidates(lists)
    return x[0], d[0], idx[0]


def test_hard_decision_singleton_and_ties():
    cl = manual_list([[1, 1]], [3.5])
    x, d, idx = best_entry(cl)
    assert d == 3.5 and np.array_equal(x, [1, 1]) and np.array_equal(idx, [0, 0])
    cl = manual_list([[1, 1], [-1, 1], [1, -1]], [2.0, 1.0, 1.0])
    x, d, idx = best_entry(cl)
    assert d == 1.0 and np.array_equal(x, [-1, 1])  # first minimum wins
    assert np.array_equal(idx, [1, 0])
    # across lists, the earlier list wins a tie
    x, _, _ = best_entry(manual_list([[1, -1]], [1.0]), cl)
    assert np.array_equal(x, [1, -1])


def test_hard_decision_random_matches_scan():
    rng = np.random.default_rng(0)
    dist = rng.normal(0, 5, 40)
    sym = np.stack([np.ones(40), -np.ones(40)], axis=1)
    cl = manual_list(sym, dist)
    _, d, _ = best_entry(cl)
    assert d == min(dist)


def test_two_sided_bpsk_hand_case():
    cons = (make_constellation(2), make_constellation(2))
    l = np.array([[1, 0], [1, 1]], dtype=complex)
    lists = two_sided_lists(l, np.array([1, 2], dtype=complex), cons)
    res = llr_two_sided(lists[0], lists[1], cons)
    assert res.llr[0][0] == pytest.approx(-8.0, rel=1e-12, abs=1e-12)
    assert res.llr[1][0] == pytest.approx(-4.0, rel=1e-12, abs=1e-12)
    assert np.array_equal(res.hard, [1, 1])
    assert res.dmin == pytest.approx(0.0, abs=1e-12)


def test_two_sided_zero_noise_sign_convention():
    rng = np.random.default_rng(1)
    cons = (make_constellation(16), make_constellation(64))
    for _ in range(20):
        h = crandn(rng, 2, 2)
        x = np.array([c.points[rng.integers(c.order)] for c in cons])
        res = llr_two_sided(*two_sided_lists(h, h @ x, cons), cons)
        assert np.array_equal(res.hard, x)
        for i, c in enumerate(cons):
            bits = c.bits_of_points(x[i])
            lam = res.llr[i]
            assert np.all(lam[bits == 1] <= 1e-12)
            assert np.all(lam[bits == -1] >= -1e-12)


@pytest.mark.parametrize("priors_on", [False, True])
def test_two_sided_matches_oracle_64qam(priors_on):
    rng = np.random.default_rng(2)
    cons = (make_constellation(64), make_constellation(64))
    for _ in range(40):
        h = crandn(rng, 2, 2)
        yt = crandn(rng, 2) * 2
        priors = None
        if priors_on:
            priors = [rng.normal(0, 2, 6), rng.normal(0, 2, 6)]
        res = llr_two_sided(*two_sided_lists(h, yt, cons, priors), cons)
        ora = exhaustive_map(h, yt, cons, priors)
        assert np.allclose(
            np.concatenate(res.llr), np.concatenate(ora.llr), rtol=1e-9, atol=1e-9
        )
        assert np.array_equal(res.hard, ora.hard)
        assert res.dmin == pytest.approx(ora.dmin, rel=1e-9, abs=1e-9)


def test_two_sided_consistency_check_fires():
    cons = (make_constellation(2), make_constellation(2))
    l1 = manual_list([[1, 1], [-1, 1]], [0.0, 8.0], layer=0)
    l2 = manual_list([[1, 1], [1, -1]], [3.0, 4.0], layer=1)
    with pytest.raises(MinimaMismatchError, match="minima disagree"):
        llr_two_sided(l1, l2, cons)


def test_two_sided_layer_order_enforced():
    cons = (make_constellation(2), make_constellation(2))
    l1 = manual_list([[1, 1]], [0.0], layer=0)
    with pytest.raises(ValueError):
        llr_two_sided(l1, l1, cons)


def test_combine_reduces_to_two_sided_for_two_layers():
    rng = np.random.default_rng(3)
    cons = (make_constellation(16), make_constellation(16))
    for _ in range(30):
        h = crandn(rng, 2, 2)
        yt = crandn(rng, 2)
        priors = [rng.normal(0, 1.5, 4), rng.normal(0, 1.5, 4)]
        lists = two_sided_lists(h, yt, cons, priors)
        a = llr_two_sided(lists[0], lists[1], cons)
        b = combine_lists(lists, cons)
        assert np.allclose(np.concatenate(a.llr), np.concatenate(b.llr), rtol=1e-12, atol=1e-12)
        assert np.array_equal(a.hard, b.hard)


def test_combine_identical_lists_matches_single_extraction():
    cons = (make_constellation(4), make_constellation(4))
    rng = np.random.default_rng(4)
    h = crandn(rng, 2, 2)
    yt = crandn(rng, 2)
    lists = two_sided_lists(h, yt, cons)
    # H-rescore so both lists carry the same metric on the same entries
    r0 = rescore_candidates(lists[0], h, yt)
    r1 = rescore_candidates(lists[1], h, yt)
    combined = combine_lists([r0, r1], cons)
    single = llr_two_sided(r0, r1, cons)
    assert np.array_equal(np.concatenate(combined.llr), np.concatenate(single.llr))


def test_combine_wl_minimal_against_union_reimplementation():
    rng = np.random.default_rng(5)
    cons = tuple(make_constellation(16) for _ in range(4))
    for _ in range(10):
        h = crandn(rng, 4, 4)
        yt = crandn(rng, 4)
        lists = []
        for m in range(4):
            d = punctured_decompose(h, m)
            cl = detect_one_sided(d, transform_observation(d, yt), cons)
            lists.append(rescore_candidates(cl, h, yt))
        res = combine_lists(lists, cons)
        # independent reimplementation: materialize the union and partition
        all_sym = np.concatenate([cl.symbols[0] for cl in lists])
        all_d = np.concatenate([cl.distances[0] for cl in lists])
        k = np.argmin(all_d)
        assert res.dmin == all_d[k]
        assert np.array_equal(res.hard, all_sym[k])
        for n, c in enumerate(cons):
            bits = c.bits_of_points(all_sym[:, n])
            for j in range(c.bits_per_symbol):
                pos = all_d[bits[:, j] == 1].min()
                neg = all_d[bits[:, j] == -1].min()
                assert res.llr[n][j] == pos - neg


def test_combine_monotonicity_and_realized_differences():
    rng = np.random.default_rng(6)
    cons = tuple(make_constellation(4) for _ in range(3))
    h = crandn(rng, 3, 3)
    yt = crandn(rng, 3)
    lists = []
    for m in range(3):
        d = punctured_decompose(h, m)
        cl = detect_one_sided(d, transform_observation(d, yt), cons)
        lists.append(rescore_candidates(cl, h, yt))
    res = combine_lists(lists, cons)
    assert all(res.dmin <= cl.distances.min() + 1e-12 for cl in lists)
    realized = np.concatenate([cl.distances[0] for cl in lists])
    for lam_n in res.llr:
        for v in lam_n:
            diffs = np.abs(realized[None, :] - realized[:, None] - v)
            assert diffs.min() <= 1e-9


def test_combine_sign_points_to_hard_decision():
    rng = np.random.default_rng(7)
    cons = tuple(make_constellation(16) for _ in range(4))
    h = crandn(rng, 4, 4)
    yt = crandn(rng, 4)
    lists = []
    for m in range(4):
        d = punctured_decompose(h, m)
        cl = detect_one_sided(d, transform_observation(d, yt), cons)
        lists.append(rescore_candidates(cl, h, yt))
    res = combine_lists(lists, cons)
    for n, c in enumerate(cons):
        bits = c.bits_of_points(res.hard[n])
        lam = res.llr[n]
        assert np.all(lam[bits == 1] <= 1e-12)
        assert np.all(lam[bits == -1] >= -1e-12)


def test_combine_requires_full_layer_cover():
    cons = (make_constellation(2), make_constellation(2))
    l0 = manual_list([[1, 1], [-1, 1]], [0.0, 1.0], layer=0)
    with pytest.raises(ValueError):
        combine_lists([l0, l0], cons)


@pytest.mark.parametrize("order", [2, 4, 16, 64, 256])
def test_own_layer_minima_equal_partition_minima(order):
    # a list's own layer is enumerated in index order, so its minima separate by axis
    c = make_constellation(order)
    rng = np.random.default_rng(order)
    d = rng.standard_normal((200, order)) ** 2
    tied = np.round(d * 2) / 2  # many exact ties
    inf = d.copy()
    inf[rng.random(d.shape) < 0.4] = np.inf
    inf[3] = np.inf  # a trial with every distance +inf
    for dist in (d, tied, inf):
        want = partition_minima(dist, c.point_bits)
        got = _own_layer_minima(dist, c)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


def test_llr_of_a_reordered_own_layer_list():
    # an own-layer list out of index order takes the general partition minima
    rng = np.random.default_rng(9)
    cons = (make_constellation(16), make_constellation(4))
    h = crandn(rng, 2, 2)
    lists = two_sided_lists(h, crandn(rng, 2), cons)
    order = rng.permutation(16)
    cl = lists[0]
    shuffled = cl._replace(
        symbols=cl.symbols[:, order], distances=cl.distances[:, order],
        prior_bias=cl.prior_bias[:, order], index=cl.index[:, order],
    )
    want = llr_two_sided(cl, lists[1], cons)
    got = llr_two_sided(shuffled, lists[1], cons)
    assert all(np.array_equal(a, b) for a, b in zip(want.llr, got.llr))
