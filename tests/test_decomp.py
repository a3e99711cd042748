import numpy as np
import pytest

from mimodet import (
    DegenerateChannelError,
    SingularChannelError,
    ql_decompose,
    punctured_decompose,
    transform_observation,
)
from mimodet.decomp import punctured_decompose_batch, ql_decompose_batch


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def gram_schmidt_ql(h):
    """Independent oracle: orthogonalize columns from last to first."""
    n = h.shape[0]
    q = np.zeros_like(h)
    l = np.zeros((n, n), dtype=complex)
    for j in range(n - 1, -1, -1):
        v = h[:, j].copy()
        for i in range(n - 1, j, -1):
            l[i, j] = q[:, i].conj() @ h[:, j]
            v -= l[i, j] * q[:, i]
        l[j, j] = np.linalg.norm(v)
        q[:, j] = v / l[j, j]
    return q, l


def projector_oracle(h, idx):
    """Explicit-inverse projection complement, straight off the formula."""
    if not idx:
        return np.eye(h.shape[0], dtype=complex)
    hi = h[:, idx]
    return np.eye(h.shape[0]) - hi @ np.linalg.inv(hi.conj().T @ hi) @ hi.conj().T


def test_ql_identity():
    qd = ql_decompose(np.eye(3, dtype=complex))
    assert np.allclose(qd.q, np.eye(3)) and np.allclose(qd.l, np.eye(3))


def test_ql_diagonal_phase():
    qd = ql_decompose(np.diag([2.0, 3.0j]))
    assert np.allclose(qd.l, np.diag([2.0, 3.0]))
    assert np.allclose(qd.q, np.diag([1.0, 1.0j]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ql_random_against_gram_schmidt(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(200):
        h = crandn(rng, n, n)
        qd = ql_decompose(h)
        scale = np.linalg.norm(h)
        assert np.linalg.norm(qd.q @ qd.l - h) <= 1e-12 * scale
        assert np.linalg.norm(qd.q.conj().T @ qd.q - np.eye(n)) <= 1e-12
        assert np.linalg.norm(np.triu(qd.l, 1)) <= 1e-12 * scale
        diag = np.diagonal(qd.l)
        assert np.all(diag.real > 0) and np.all(diag.imag == 0)
        qo, lo = gram_schmidt_ql(h)
        assert np.allclose(qd.l, lo, rtol=1e-9, atol=1e-11 * scale)
        assert np.allclose(qd.q, qo, rtol=1e-9, atol=1e-11)


def test_ql_singular_raises():
    h = np.ones((3, 3), dtype=complex)
    with pytest.raises(SingularChannelError):
        ql_decompose(h)
    with pytest.raises(ValueError):
        ql_decompose(np.ones((2, 3), dtype=complex))


def test_ql_batch_rows_equal_single_factorizations():
    rng = np.random.default_rng(9)
    h = crandn(rng, 8, 3, 3)
    q, l = ql_decompose_batch(h)
    for t in range(len(h)):
        qd = ql_decompose(h[t])
        assert np.array_equal(q[t], qd.q) and np.array_equal(l[t], qd.l)
    h[5] = np.ones((3, 3))
    with pytest.raises(SingularChannelError):
        ql_decompose_batch(h)


@pytest.mark.parametrize("layer", [0, 1])
def test_punctured_two_layers_equals_ql(layer):
    # layer 0 is the QL factorization of H; layer 1, the second
    # triangularization, is the QL factorization of the column-swapped H
    rng = np.random.default_rng(4)
    for _ in range(100):
        h = crandn(rng, 2, 2)
        scale = np.linalg.norm(h)
        d = punctured_decompose(h, layer)
        if layer == 0:
            qd = ql_decompose(h)
            assert np.allclose(d.l, qd.l, rtol=1e-12, atol=1e-12 * scale)
            assert np.allclose(d.w, qd.q, rtol=1e-12, atol=1e-12)
        else:
            qo, lo = gram_schmidt_ql(h[:, ::-1])
            assert np.allclose(d.l, lo, rtol=1e-9, atol=1e-11 * scale)
            assert np.allclose(d.w, qo, rtol=1e-9, atol=1e-11)
        # triangular with real positive pivots
        assert abs(d.l[0, 1]) <= 1e-12 * scale
        diag = np.diagonal(d.l)
        assert np.all(diag.real > 0) and np.all(diag.imag == 0)


def test_punctured_identity_channel():
    d = punctured_decompose(np.eye(4, dtype=complex), 0)
    assert np.allclose(d.w, np.eye(4)) and np.allclose(d.l, np.eye(4))
    assert d.perm == (0, 1, 2, 3)


@pytest.mark.parametrize("layer", [0, 1, 2, 3])
def test_punctured_structure_and_projection_oracle(layer):
    rng = np.random.default_rng(40 + layer)
    for _ in range(100):
        h = crandn(rng, 4, 4)
        d = punctured_decompose(h, layer)
        scale = np.linalg.norm(h)
        hp = h[:, list(d.perm)]
        assert np.linalg.norm(d.w.conj().T @ hp - d.l) <= 1e-10 * scale
        # punctured pattern: row i nonzero only at columns {0, i}
        for r in range(4):
            for c in range(4):
                if c not in (0, r):
                    assert abs(d.l[r, c]) <= 1e-10 * scale
        diag = np.diagonal(d.l)
        assert np.all(diag.real > 0) and np.all(diag.imag == 0)
        assert np.allclose(np.diagonal(d.w.conj().T @ d.w).real, 1.0, atol=1e-12)
        # column-by-column against the explicit-inverse projector
        for i in range(4):
            idx = [j for j in range(1, 4) if j != i] if i else [1, 2, 3]
            p = projector_oracle(hp, idx)
            wt = p @ hp[:, i]
            w_ref = wt / np.sqrt(np.real(hp[:, i].conj() @ wt))
            assert np.allclose(d.w[:, i], w_ref, rtol=1e-9, atol=1e-11)


def test_punctured_detect_layer_permutation():
    rng = np.random.default_rng(5)
    h = crandn(rng, 4, 4)
    d = punctured_decompose(h, 2)
    assert d.layer == 2
    assert d.perm == (2, 3, 0, 1)


def test_punctured_degenerate_raises():
    h = np.eye(4, dtype=complex)
    h[:, 1] = h[:, 2]  # puncture sets become rank deficient
    with pytest.raises((DegenerateChannelError, SingularChannelError)):
        punctured_decompose(h, 0)


def test_transform_observation():
    rng = np.random.default_rng(6)
    h = crandn(rng, 3, 3)
    d = punctured_decompose(h, 1)
    y = crandn(rng, 3)
    assert np.allclose(transform_observation(d, y), d.w.conj().T @ y)
    with pytest.raises(ValueError):
        transform_observation(d, crandn(rng, 4))


def test_transformed_noise_covariance_diagonal():
    rng = np.random.default_rng(7)
    h = crandn(rng, 4, 4)
    d = punctured_decompose(h, 0)
    sigma2 = 0.7
    n_draws = 100_000
    noise = crandn(rng, n_draws, 4) * np.sqrt(sigma2)
    w_noise = noise @ d.w.conj()
    var = np.mean(np.abs(w_noise) ** 2, axis=0)
    se = sigma2 / np.sqrt(n_draws)
    assert np.all(np.abs(var - sigma2) < 5 * se)


def test_punctured_batch_matches_scalar():
    rng = np.random.default_rng(8)
    h = crandn(rng, 64, 4, 4)
    for layer in range(4):
        w, l = punctured_decompose_batch(h, [layer])
        for t in range(0, 64, 7):
            d = punctured_decompose(h[t], layer)
            scale = np.linalg.norm(h[t])
            assert np.allclose(w[t], d.w, rtol=1e-10, atol=1e-12)
            assert np.allclose(l[t], d.l, rtol=1e-10, atol=1e-12 * scale)


@pytest.mark.parametrize("layers", [1, [[0, 1]], [0.5]])
def test_punctured_batch_rejects_a_bare_layer(layers):
    h = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    with pytest.raises(ValueError, match="list the detection layers"):
        punctured_decompose_batch(h, layers)
