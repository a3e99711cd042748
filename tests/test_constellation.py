import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodet import ModScheme, make_constellation, split_prior

ALL_ORDERS = [2, 4, 16, 64, 256]


def level_of(axis, bits):
    """The axis level whose table row is ``bits``."""
    rows = [i for i, row in enumerate(axis.bits) if np.array_equal(row, bits)]
    assert len(rows) == 1
    return axis.levels[rows[0]]


def table_point(c, bits):
    """The point of a q-bit vector, read off the per-axis LTE tables."""
    return complex(level_of(c.real_axis, bits[c.real_bit_idx]),
                   level_of(c.imag_axis, bits[c.imag_bit_idx]))


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_gray_adjacency_both_axes(order):
    c = make_constellation(order)
    for axis in (c.real_axis, c.imag_axis):
        for i in range(axis.size - 1):
            assert np.sum(axis.bits[i] != axis.bits[i + 1]) == 1


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_map_demap_roundtrip_all_points(order):
    c = make_constellation(order)
    want = [table_point(c, bits) for bits in c.point_bits]
    assert np.array_equal(c.points, want)
    assert len(set(want)) == order
    assert np.array_equal(c.point_indices(c.points), np.arange(order))


def test_bpsk_degenerate_axis():
    c = make_constellation(2)
    assert c.imag_axis.size == 1
    assert c.imag_axis.bits_per_level == 0
    assert c.points.tolist() == [1 + 0j, -1 + 0j]
    assert c.point_bits.tolist() == [[1], [-1]]
    assert list(c.imag_bit_idx) == []


def test_qam4_lte_mapping():
    c = make_constellation(4)
    # binary 0 (bit +1) maps to level +1 on both axes
    assert list(c.real_axis.levels) == [-1, 1]
    assert c.real_axis.bits[c.real_axis.levels.tolist().index(1)][0] == 1
    assert table_point(c, np.array([1, 1])) == 1 + 1j
    assert table_point(c, np.array([-1, 1])) == -1 + 1j
    assert c.points[0] == 1 + 1j and c.points[2] == -1 + 1j


def test_qam64_axis_levels():
    c = make_constellation(64)
    assert list(c.real_axis.levels) == [-7, -5, -3, -1, 1, 3, 5, 7]
    assert c.real_axis.bits.shape == (8, 3)


def test_bit_index_partition():
    for order in ALL_ORDERS:
        c = make_constellation(order)
        merged = sorted(list(c.real_bit_idx) + list(c.imag_bit_idx))
        assert merged == list(range(c.bits_per_symbol))


def test_demap_rejects_non_point():
    c = make_constellation(16)
    with pytest.raises(ValueError):
        c.point_indices(np.array([0.5 + 1j]))
    with pytest.raises(ValueError):
        c.point_indices(np.array([5 + 1j]))


def test_split_prior_examples():
    c4 = make_constellation(4)
    lre, lim = split_prior(c4, [1.5, -2.0])
    assert list(lre) == [1.5] and list(lim) == [-2.0]
    c2 = make_constellation(2)
    lre, lim = split_prior(c2, [0.7])
    assert list(lre) == [0.7] and list(lim) == []
    c16 = make_constellation(16)
    lre, lim = split_prior(c16, np.zeros(4))
    assert not lre.any() and not lim.any()
    with pytest.raises(ValueError):
        split_prior(c16, np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from(ALL_ORDERS),
    data=st.data(),
)
def test_prior_split_is_exact(order, data):
    c = make_constellation(order)
    q = c.bits_per_symbol
    lam = np.array(data.draw(st.lists(
        st.floats(-50, 50, allow_nan=False), min_size=q, max_size=q)))
    lre, lim = split_prior(c, lam)
    for i in range(order):
        bits = c.point_bits[i]
        full = bits @ lam
        split = bits[c.real_bit_idx] @ lre + bits[c.imag_bit_idx] @ lim
        assert full == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_bits_of_points_matches_demap():
    for order in ALL_ORDERS:
        c = make_constellation(order)
        got = c.bits_of_points(c.points)
        for axis, bit_idx, coord in ((c.real_axis, c.real_bit_idx, c.points.real),
                                     (c.imag_axis, c.imag_bit_idx, c.points.imag)):
            rows = [axis.levels.tolist().index(v) for v in coord]
            assert np.array_equal(got[:, bit_idx], axis.bits[rows])


def test_unit_energy_scale():
    assert make_constellation(64).unit_energy_scale == pytest.approx(1 / np.sqrt(42))
    assert make_constellation(4).unit_energy_scale == pytest.approx(1 / np.sqrt(2))
    assert make_constellation(2).unit_energy_scale == pytest.approx(1.0)


def test_scheme_from_order():
    assert ModScheme.from_order(256) is ModScheme.QAM256
    with pytest.raises(ValueError):
        ModScheme.from_order(8)


def test_table_dump_lists_all_levels():
    c = make_constellation(16)
    lines = c.table_dump().splitlines()
    assert sum(ln.startswith("real ") for ln in lines) == 4
    assert sum(ln.startswith("imag ") for ln in lines) == 4
    assert "real +3 01" in lines


def _arrays(c):
    """Every array a constellation holds, by name."""
    out = {"points": c.points, "point_bits": c.point_bits, "level_grid": c.level_grid,
           "real_bit_idx": c.real_bit_idx, "imag_bit_idx": c.imag_bit_idx}
    for name, axis in (("real", c.real_axis), ("imag", c.imag_axis)):
        out[f"{name}.levels"], out[f"{name}.bits"] = axis.levels, axis.bits
        out[f"{name}.upper"], out[f"{name}.diff"] = axis.pairwise
    return out


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_constellation_is_built_once_and_read_only(order):
    from mimodet import constellation

    c = make_constellation(order)
    scheme = ModScheme.from_order(order)
    assert make_constellation(order) is c and make_constellation(scheme) is c
    for name, a in _arrays(c).items():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    fresh = constellation._build_constellation.__wrapped__(scheme)
    assert fresh is not c
    for axis in (c.real_axis, c.imag_axis):
        new = constellation._make_axis.__wrapped__(axis.size)
        assert np.array_equal(axis.levels, new.levels) and np.array_equal(axis.bits, new.bits)
    for name in ("points", "point_bits", "level_grid"):
        a, b = getattr(c, name), getattr(fresh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
