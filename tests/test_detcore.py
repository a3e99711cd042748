from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodet import (
    PuncturedDecomposition,
    build_slicer_table,
    detect_one_sided,
    exhaustive_axis_argmin,
    hard_slice,
    make_constellation,
    punctured_decompose,
    rescore_candidates,
    soft_slice,
    split_prior,
    transform_observation,
)
from mimodet.detcore import (
    _constants,
    _locate,
    _slice_axis,
    _slicer_tables,
    detect_one_sided_batch,
    symbols_of,
)

RNG = np.random.default_rng


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def eye_decomp(l, layer=0):
    n = l.shape[0]
    perm = tuple((layer + i) % n for i in range(n))
    return PuncturedDecomposition(w=np.eye(n, dtype=complex), l=np.asarray(l, dtype=complex),
                                  layer=layer, perm=perm)


# --- constants -------------------------------------------------------------

def test_constants_trivial():
    l = np.array([[1, 0], [0, 1]], dtype=complex)
    k = _constants(l[None], np.zeros((1, 2), dtype=complex))
    assert k.enum_quad[0] == 1 and k.slice_quad[0, 0] == 1
    assert k.enum_lin_re[0] == 0 and k.enum_lin_im[0] == 0
    assert k.cross_re[0, 0] == 0 and k.cross_im[0, 0] == 0
    assert k.slice_lin_re[0, 0] == 0 and k.slice_lin_im[0, 0] == 0


def test_constants_hand_example():
    l = np.array([[1, 0], [1 + 1j, 2]], dtype=complex)
    y = np.array([1.0, 2.0], dtype=complex)
    k = _constants(l[None], y[None])
    assert (k.enum_quad[0], k.enum_lin_re[0], k.enum_lin_im[0]) == (3.0, -6.0, 4.0)
    assert (k.slice_quad[0, 0], k.cross_re[0, 0], k.cross_im[0, 0]) == (4.0, 4.0, -4.0)
    assert (k.slice_lin_re[0, 0], k.slice_lin_im[0, 0]) == (-8.0, 0.0)


def test_constants_sum_degenerates():
    l = np.eye(4, dtype=complex)
    l[1, 0] = 0.5 - 0.25j
    k4 = _constants(l[None], np.zeros((1, 4), dtype=complex))
    l2 = l[:2, :2]
    k2 = _constants(l2[None], np.zeros((1, 2), dtype=complex))
    assert k4.enum_quad[0] == k2.enum_quad[0]


# --- hard slicing ----------------------------------------------------------

def test_hard_slice_examples():
    ax4 = make_constellation(16).real_axis
    assert hard_slice(ax4, 0.3, 1.0) == 1.0
    assert hard_slice(ax4, 0.0, 1.0) == 1.0  # boundary tie goes up
    ax16 = make_constellation(256).real_axis
    assert hard_slice(ax16, 31.0, 2.0) == 15.0
    assert hard_slice(ax16, -1e9, 2.0) == -15.0


def test_hard_slice_matches_nearest_point():
    rng = RNG(0)
    ax = make_constellation(64).real_axis
    for _ in range(2000):
        beta = rng.uniform(0.05, 4.0)
        z = rng.normal(0, 10)
        got = hard_slice(ax, z, beta)
        ref = ax.levels[np.argmin((z - beta * ax.levels) ** 2)]
        assert got == ref


# --- soft boundaries -------------------------------------------------------

def test_table_zero_priors_reduces_to_midpoints():
    ax = make_constellation(64).real_axis
    beta = 1.7
    tab = build_slicer_table(ax, beta * beta, -0.4, np.zeros(3))
    assert tab.reachable.all()
    # interval bounds in query space map back to the scaled midpoints
    mids = beta * beta * (ax.levels[:-1] + ax.levels[1:])
    assert np.allclose(np.sort(-tab.breakpoints - tab.offset), np.sort(mids))


def test_two_pam_scalar_map_slicer():
    ax = make_constellation(4).real_axis
    rng = RNG(1)
    for _ in range(500):
        beta = rng.uniform(0.1, 3.0)
        lam = rng.normal(0, 4, 1)
        g = rng.normal(0, 3)
        tab = build_slicer_table(ax, beta * beta, g, lam)
        z = rng.normal(0, 4)
        u = -2.0 * beta * z - g  # query formed from the residual
        want = 1.0 if 2 * beta * z + lam[0] > 0 else -1.0
        assert soft_slice(tab, u) == want


def test_strong_prior_still_picks_optimum():
    # prior of +10 on the single bit keeps +1 even for negative residuals
    ax = make_constellation(4).real_axis
    beta = 1.0
    tab = build_slicer_table(ax, 1.0, 0.0, np.array([10.0]))
    z = -2.0
    u = -2.0 * beta * z
    assert 2 * beta * z + 10.0 > 0
    assert soft_slice(tab, u) == 1.0


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_soft_slice_matches_bruteforce(order):
    ax = make_constellation(order).real_axis
    rng = RNG(order)
    for _ in range(2000):
        quad = rng.uniform(0.01, 5)
        off = rng.normal(0, 5)
        lam = rng.normal(0, 3, ax.bits_per_level)
        tab = build_slicer_table(ax, quad, off, lam)
        u = rng.normal(0, 20)
        assert soft_slice(tab, u) == exhaustive_axis_argmin(ax, quad, off, u, lam)


def test_soft_slice_partition_covers_reals():
    ax = make_constellation(256).real_axis
    rng = RNG(9)
    for _ in range(50):
        lam = rng.normal(0, 5, 4)
        tab = build_slicer_table(ax, rng.uniform(0.1, 2), rng.normal(), lam)
        for u in rng.normal(0, 30, 200):
            inside = (tab.lo <= u) & (u < tab.hi)
            assert inside.sum() == 1
            assert soft_slice(tab, u) == ax.levels[np.argmax(inside)]


def test_dominated_levels_never_selected():
    ax = make_constellation(256).real_axis
    rng = RNG(11)
    saw_dominated = False
    for _ in range(300):
        lam = rng.normal(0, 8, 4)
        quad = rng.uniform(0.05, 0.5)
        tab = build_slicer_table(ax, quad, 0.0, lam)
        dominated = set(np.flatnonzero(~tab.reachable))
        saw_dominated = saw_dominated or bool(dominated)
        for u in rng.normal(0, 15, 50):
            lvl = exhaustive_axis_argmin(ax, quad, 0.0, u, lam)
            assert ax.levels.tolist().index(lvl) not in dominated
    assert saw_dominated  # strong priors must actually dominate sometimes


def test_soft_slice_zero_priors_equals_hard_slice():
    rng = RNG(12)
    for order in (4, 16, 64, 256):
        ax = make_constellation(order).real_axis
        for _ in range(300):
            beta = rng.uniform(0.1, 3.0)
            g = rng.normal(0, 2)
            tab = build_slicer_table(ax, beta * beta, g, np.zeros(ax.bits_per_level))
            z = rng.normal(0, 8)
            u = -2.0 * beta * z - g
            assert soft_slice(tab, u) == hard_slice(ax, z, beta)


def pairwise_tables(axis, quad, offset, lam):
    """The pairwise (T, P, P) boundary build for any priors: the zero-prior reference."""
    lv = axis.levels
    upper = lv[None, :] > lv[:, None]
    bias = np.zeros((len(lam), len(lv))) if not lam.any() else (axis.bits @ lam[:, :, None])[:, :, 0]
    neg_r = -(quad[:, None, None] * (lv[:, None] + lv[None, :]))
    if lam.any():
        diff = lv[:, None] - lv[None, :] + np.eye(len(lv))
        neg_r += (bias[:, :, None] - bias[:, None, :]) / diff
    lo = np.max(np.where(upper, neg_r, -np.inf), axis=2) - offset[:, None]
    hi = np.min(np.where(upper.T, neg_r, np.inf), axis=2) - offset[:, None]
    reachable = lo < hi
    key = np.where(reachable, lo, np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    return bias, lo, hi, reachable, order, key[np.arange(len(key))[:, None], order[:, 1:]]


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_zero_prior_tables_equal_pairwise_build(order):
    ax = make_constellation(order).real_axis
    rng = RNG(40 + order)
    n = 400
    quad = np.concatenate([
        rng.exponential(size=n),
        np.full(n, 5e-324),  # subnormal: quad * (p_i + p_k) stays exact
        rng.uniform(0, 1e-300, n),  # tiny: the offset swallows every midpoint
        np.zeros(n),  # interference-free MU tone: every midpoint is a signed zero
        rng.uniform(0.01, 5, n),
    ])
    offset = np.concatenate([
        rng.normal(0, 10, 4 * n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(17, 300, n),  # midpoints collapse
    ])
    lam = np.zeros((len(quad), ax.bits_per_level))
    got = _slicer_tables(ax, quad, offset, lam)
    want = pairwise_tables(ax, quad, offset, lam)
    for name, a, b in zip(("bias", "lo", "hi", "reachable", "order", "breakpoints"), got, want):
        assert a.shape == b.shape and np.array_equal(a, b), name
    # the collapsed cases really are collapsed: some middle levels are unreachable
    assert order == 4 or not want[3][-n:].all()
    # and the priors path still is the pairwise build
    lam = rng.normal(0, 3, lam.shape)
    for a, b in zip(_slicer_tables(ax, quad, offset, lam), pairwise_tables(ax, quad, offset, lam)):
        assert np.array_equal(a, b)


def exact_axis_argmin(axis, quad, offset, u):
    """Zero-prior axis argmin in exact rational arithmetic (ties to the lower level)."""
    metric = [Fraction(quad) * Fraction(p) ** 2 + (Fraction(offset) + Fraction(u)) * Fraction(p)
              for p in axis.levels]
    return float(axis.levels[metric.index(min(metric))])


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_zero_prior_slicer_at_and_beside_every_breakpoint(order):
    # dyadic constants keep every breakpoint exact, so u = breakpoint is an
    # exact tie that the closed lower edge must resolve like the oracle
    ax = make_constellation(order).real_axis
    lam = np.zeros(ax.bits_per_level)
    for quad, offset in ((1.0, 0.0), (0.5, -3.0), (2.0, 5.5), (0.25, 1.0)):
        tab = build_slicer_table(ax, quad, offset, lam)
        assert len(tab.breakpoints) == ax.size - 1
        for bp in tab.breakpoints:
            assert soft_slice(tab, bp) == exhaustive_axis_argmin(ax, quad, offset, bp, lam)
            # one ulp either side: the float oracle rounds a one-ulp metric gap
            # away into a tie, so the reference here is exact arithmetic
            for u in (np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)):
                assert soft_slice(tab, u) == exact_axis_argmin(ax, quad, offset, u)
            assert soft_slice(tab, np.nextafter(bp, -np.inf)) != soft_slice(tab, bp)


@pytest.mark.parametrize("n_bp", [1, 2, 3, 7, 15])
def test_locate_equals_a_brute_force_count(n_bp):
    # the uint8 count against a plain sum, for 1 to 15 breakpoints with +inf
    # padding, queries at and one ulp beside each breakpoint, signed zeros and NaN
    rng = RNG(90 + n_bp)
    t = 6
    bp = np.sort(rng.normal(0, 5, (t, n_bp)), axis=1)
    bp[1, -(n_bp + 1) // 2:] = np.inf
    bp[2, 0] = 0.0
    bp[3, :] = bp[3, :1]  # a repeated breakpoint counts once per copy
    u = np.concatenate([
        bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
        np.broadcast_to([0.0, -0.0, np.nan, np.inf, -np.inf], (t, 5)),
        rng.normal(0, 8, (t, 7)),
    ], axis=1)

    def brute(b, q):
        return np.sum(b[..., None, :] <= q[..., None], axis=-1)

    for b, q in ((bp[:1], u[:1]), (bp, u)):
        got = _locate(b[:, None, :], q)
        assert got.shape == q.shape and np.array_equal(got, brute(b, q))
    # the (T, 1, P) breakpoints against (T, P_re, P_im) queries of a level grid
    grid = u[:, :12].reshape(t, 3, 4)
    got = _locate(bp[:, None, None, :], grid)
    assert got.shape == grid.shape
    assert np.array_equal(got, brute(bp, grid.reshape(t, 12)).reshape(grid.shape))


# axis of each size: BPSK's imaginary axis has one level
AXES = {1: (2, "imag_axis"), 2: (4, "real_axis"), 4: (16, "real_axis"),
        8: (64, "real_axis"), 16: (256, "real_axis")}


@pytest.mark.parametrize("size", sorted(AXES))
def test_zero_prior_slice_axis_equals_the_tables_path(size):
    # zero priors skip the tables; index, value and bias must still be
    # the tables path's bit for bit, zero signs included
    order, name = AXES[size]
    ax = getattr(make_constellation(order), name)
    rng = RNG(70 + size)
    lv = ax.levels
    quad = np.concatenate([
        [1.0, 0.5, 2.0, 0.25, 0.0, 0.0, 0.0, 1e-20, 1e-20, 5e-324, 3.7],
        rng.exponential(size=8),
    ])
    offset = np.concatenate([
        [0.0, -3.0, 5.5, 1.0, 0.0, -0.0, 2.5, 1e19, -1e19, 0.0, -1e17],
        rng.normal(0, 10, 8),
    ])
    # every query kind per trial: the breakpoints, one ulp either side,
    # signed zeros, -offset and a spread of random values
    lo = -(quad[:, None] * (lv[:-1] + lv[1:])) - offset[:, None]
    u = np.concatenate([
        lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
        np.broadcast_to([0.0, -0.0], (len(quad), 2)), -offset[:, None],
        rng.normal(0, 20, (len(quad), 6)) * 10.0 ** rng.integers(-2, 20, (len(quad), 6)),
    ], axis=1)
    lam = np.zeros((len(quad), ax.bits_per_level))
    bias, _, _, reachable, order_, breakpoints = _slicer_tables(ax, quad, offset, lam)
    rows = np.arange(len(quad))[:, None]
    k_want = order_[rows, _locate(breakpoints[:, None, :], u)]
    p = lv[k_want]
    b_want = bias[rows, k_want]
    v_want = quad[:, None] * p * p + (offset[:, None] + u) * p - b_want
    k, v, b = _slice_axis(ax, quad, offset, lam, u)
    assert np.array_equal(k, k_want)
    assert v.tobytes() == v_want.tobytes()
    assert np.broadcast_to(b, b_want.shape).tobytes() == b_want.tobytes()
    # quad = 0 and tiny quad under a large offset leave no middle level reachable
    assert not reachable[4:9, 1:-1].any()


# --- one-sided detection ---------------------------------------------------

def test_detect_bpsk_hand_case():
    cons = (make_constellation(2), make_constellation(2))
    d = eye_decomp(np.array([[1, 0], [1, 1]]))
    cl = detect_one_sided(d, np.array([1, 2], dtype=complex), cons)
    assert cl.distances[0].tolist() == [0.0, 8.0]
    sym = symbols_of(cl.index, cons)
    assert sym[0, :, 0].tolist() == [1, -1]
    assert sym[0, :, 1].tolist() == [1, 1]


def test_detect_zero_noise_transmitted_attains_minimum():
    rng = RNG(13)
    cons = tuple(make_constellation(q) for q in (16, 64, 4))
    for _ in range(50):
        h = crandn(rng, 3, 3)
        x = np.array([c.points[rng.integers(c.order)] for c in cons])
        for m in range(3):
            d = punctured_decompose(h, m)
            y = transform_observation(d, h @ x)
            cl = detect_one_sided(d, y, cons)
            sym = symbols_of(cl.index, cons)
            i = np.flatnonzero(sym[0, :, m] == x[m])[0]
            assert np.allclose(sym[0, i], x)
            assert abs(cl.distances[0, i]) <= 1e-9 * max(1.0, np.sum(np.abs(y) ** 2))
            assert cl.distances.min() >= cl.distances[0, i] - 1e-9


def test_detect_matches_per_entry_bruteforce_with_priors():
    rng = RNG(14)
    cons = (make_constellation(64), make_constellation(64))
    q = 6
    for _ in range(30):
        h = crandn(rng, 2, 2)
        yt = crandn(rng, 2) * 3
        priors = [rng.normal(0, 2, q), rng.normal(0, 2, q)]
        d = punctured_decompose(h, 0)
        y = transform_observation(d, yt)
        cl = detect_one_sided(d, y, cons, priors)
        bias1 = cons[0].point_bits @ priors[0]
        bias2 = cons[1].point_bits @ priors[1]
        for i in (0, 17, 40, 63):
            x1 = symbols_of(cl.index, cons)[0, i, 0]
            vals = (
                np.abs(y[0] - d.l[0, 0] * x1) ** 2
                - bias1[i]
                + np.abs(y[1] - d.l[1, 0] * x1 - d.l[1, 1] * cons[1].points) ** 2
                - bias2
            )
            assert cl.distances[0, i] == pytest.approx(vals.min(), rel=1e-9)


def test_detect_mode_equivalence_bit_exact():
    # every sliced level of every candidate equals the brute-force axis argmin
    rng = RNG(15)
    cons = tuple(make_constellation(q) for q in (16, 4, 64))
    for trial in range(40):
        h = crandn(rng, 3, 3)
        yt = crandn(rng, 3) * 2
        priors = [rng.normal(0, 2, c.bits_per_symbol) for c in cons]
        d = punctured_decompose(h, trial % 3)
        y = transform_observation(d, yt)
        cl = detect_one_sided(d, y, cons, priors)
        k = _constants(d.l[None], y[None])
        sym = symbols_of(cl.index, cons)
        x1 = sym[0, :, d.layer]
        for i in range(1, 3):
            layer = d.perm[i]
            c = cons[layer]
            lam_re, lam_im = split_prior(c, priors[layer])
            u_re = k.cross_re[0, i - 1] * x1.real + k.cross_im[0, i - 1] * x1.imag
            u_im = k.cross_re[0, i - 1] * x1.imag - k.cross_im[0, i - 1] * x1.real
            for q in range(cl.distances.shape[1]):
                want_re = exhaustive_axis_argmin(
                    c.real_axis, k.slice_quad[0, i - 1], k.slice_lin_re[0, i - 1], u_re[q], lam_re
                )
                want_im = exhaustive_axis_argmin(
                    c.imag_axis, k.slice_quad[0, i - 1], k.slice_lin_im[0, i - 1], u_im[q], lam_im
                )
                assert sym[0, q, layer] == complex(want_re, want_im)
                assert cl.index[0, q, layer] == c.point_indices(sym[0, q, layer])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.25, 8.0))
def test_detect_scaling_invariance(seed, scale):
    rng = RNG(seed)
    cons = (make_constellation(16), make_constellation(16))
    h = crandn(rng, 2, 2)
    yt = crandn(rng, 2)
    d = punctured_decompose(h, 0)
    y = transform_observation(d, yt)
    base = detect_one_sided(d, y, cons)
    scaled_d = PuncturedDecomposition(w=d.w, l=d.l * scale, layer=d.layer, perm=d.perm)
    scaled = detect_one_sided(scaled_d, y * scale, cons)
    assert np.array_equal(base.index, scaled.index)
    assert np.allclose(scaled.distances, scale * scale * base.distances, rtol=1e-12)
    assert np.argmin(scaled.distances) == np.argmin(base.distances)


def test_detect_relative_form_bookkeeping():
    # the expanded form plus the dropped |y|^2 gives the absolute distances
    rng = RNG(16)
    cons = (make_constellation(16), make_constellation(16))
    h = crandn(rng, 2, 2)
    yt = crandn(rng, 2)
    d = punctured_decompose(h, 0)
    y = transform_observation(d, yt)
    cl = detect_one_sided(d, y, cons)
    direct = np.array([
        np.sum(np.abs(y - d.l @ x) ** 2) for x in symbols_of(cl.index, cons)[0]
    ])
    assert np.allclose(cl.distances[0], direct, rtol=1e-9)


def test_detect_input_validation():
    cons = (make_constellation(4), make_constellation(4))
    d = eye_decomp(np.eye(2))
    with pytest.raises(ValueError):
        detect_one_sided(d, np.zeros(3, dtype=complex), cons)
    with pytest.raises(ValueError):
        detect_one_sided(d, np.zeros(2, dtype=complex), cons, priors=[np.zeros(3), None])


def test_batch_kernel_bit_exact_vs_scalar():
    rng = RNG(17)
    cons = tuple(make_constellation(q) for q in (64, 16, 4, 64))
    ls, ys = [], []
    for _ in range(20):
        h = crandn(rng, 4, 4)
        d = punctured_decompose(h, 1)
        ls.append(d.l)
        ys.append(transform_observation(d, crandn(rng, 4)))
    l = np.stack(ls)
    y = np.stack(ys)
    batch = detect_one_sided_batch(l, y, cons, [(1, 2, 3, 0)])
    for t in range(20):
        d = PuncturedDecomposition(w=np.eye(4, dtype=complex), l=l[t], layer=1, perm=(1, 2, 3, 0))
        cl = detect_one_sided(d, y[t], cons)
        assert np.array_equal(cl.index[0], batch.index[t])
        assert np.array_equal(cl.distances[0], batch.distances[t])


def test_stacked_sides_need_the_same_constellations_in_order():
    cons = tuple(make_constellation(q) for q in (4, 16, 64))
    l = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
    y = np.zeros((4, 3), dtype=complex)
    with pytest.raises(ValueError, match="same constellations"):
        detect_one_sided_batch(l, y, cons, [(0, 1, 2), (1, 2, 0)])
    cons = tuple(make_constellation(q) for q in (16, 4, 16, 4))
    l = np.tile(np.eye(4, dtype=complex), (4, 1, 1))
    sides = detect_one_sided_batch(l, np.zeros((4, 4), dtype=complex), cons,
                                   [(0, 1, 2, 3), (2, 3, 0, 1)]).sides()
    assert [(b.layer, len(b.distances)) for b in sides] == [(0, 2), (2, 2)]
    with pytest.raises(ValueError, match="same number of trials per side"):
        detect_one_sided_batch(l[:3], np.zeros((3, 4), dtype=complex), cons,
                               [(0, 1, 2, 3), (2, 3, 0, 1)])


@pytest.mark.parametrize("perms", [0, (0, 1), [], [0, 1]])
def test_a_bare_or_flat_perm_is_rejected(perms):
    cons = (make_constellation(4),) * 2
    l = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    with pytest.raises(ValueError, match="one decomposition order per side"):
        detect_one_sided_batch(l, np.zeros((3, 2), dtype=complex), cons, perms)


# --- rescoring -------------------------------------------------------------

def test_rescore_two_layer_preserves_everything():
    rng = RNG(18)
    cons = (make_constellation(16), make_constellation(16))
    for _ in range(50):
        h = crandn(rng, 2, 2)
        yt = crandn(rng, 2)
        priors = [rng.normal(0, 2, 4), rng.normal(0, 2, 4)]
        d = punctured_decompose(h, 0)
        cl = detect_one_sided(d, transform_observation(d, yt), cons, priors)
        rs = rescore_candidates(cl, h, yt, cons)
        # unitary case: channel metric equals the factored metric exactly
        assert np.allclose(rs.distances, cl.distances, rtol=1e-9, atol=1e-9)
        assert np.argmin(rs.distances) == np.argmin(cl.distances)
        assert rs.distance_mode == "H"


def test_rescore_zero_noise_hits_zero():
    rng = RNG(19)
    cons = (make_constellation(4),) * 3
    h = crandn(rng, 3, 3)
    x = np.array([c.points[2] for c in cons])
    yt = h @ x
    d = punctured_decompose(h, 0)
    cl = detect_one_sided(d, transform_observation(d, yt), cons)
    rs = rescore_candidates(cl, h, yt, cons)
    i = np.flatnonzero(symbols_of(cl.index, cons)[0, :, 0] == x[0])[0]
    assert abs(rs.distances[0, i]) <= 1e-9 * np.sum(np.abs(yt) ** 2)


def test_rescore_matches_direct_channel_metric():
    rng = RNG(20)
    cons = tuple(make_constellation(q) for q in (16, 4, 16, 4))
    h = crandn(rng, 4, 4)
    yt = crandn(rng, 4) * 2
    priors = [rng.normal(0, 1.5, c.bits_per_symbol) for c in cons]
    d = punctured_decompose(h, 2)
    cl = detect_one_sided(d, transform_observation(d, yt), cons, priors)
    rs = rescore_candidates(cl, h, yt, cons)
    for i in (0, 5, 11, 15):
        x = symbols_of(cl.index, cons)[0, i]
        bias = sum(
            float(c.bits_of_points(x[j]) @ priors[j]) for j, c in enumerate(cons)
        )
        ref = np.sum(np.abs(yt - h @ x) ** 2) - bias
        assert rs.distances[0, i] == pytest.approx(ref, rel=1e-9, abs=1e-9)
