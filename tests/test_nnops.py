"""Low-level neural ops: forward/backward consistency and utilities."""

import numpy as np
import pytest

from recsynvc import nnops


def _fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f over array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def test_sigmoid_range_and_symmetry():
    x = np.linspace(-50, 50, 101)
    s = nnops.sigmoid(x)
    assert np.all(s >= 0) and np.all(s <= 1)
    np.testing.assert_allclose(s + nnops.sigmoid(-x), 1.0, atol=1e-12)


def _reference_sigmoid(x):
    """The masked form first written, kept as the bit-identity reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_reference():
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0,
                      800.0, -800.0, np.nan])
    assert np.array_equal(nnops.sigmoid(edges), _reference_sigmoid(edges), equal_nan=True)
    # gate blocks are column slices of a (B, 4H) array
    z = np.random.default_rng(0).standard_normal((8, 64)) * 20.0
    assert np.array_equal(nnops.sigmoid(z[:, :32]), _reference_sigmoid(z[:, :32]))


def test_glorot_scale():
    rng = np.random.default_rng(0)
    w = nnops.glorot(rng, (200, 300), 300, 200)
    assert w.shape == (200, 300)
    limit = np.sqrt(6.0 / 500)
    assert np.max(np.abs(w)) <= limit + 1e-12
    assert w.std() == pytest.approx(limit / np.sqrt(3), rel=0.1)


def test_dropout_mask_statistics_and_determinism():
    rng = np.random.default_rng(1)
    mask = nnops.dropout_mask(rng, (200, 200), 0.5)
    kept = mask > 0
    assert kept.mean() == pytest.approx(0.5, abs=0.02)
    # kept entries are scaled to preserve the expectation
    np.testing.assert_allclose(mask[kept], 2.0)
    again = nnops.dropout_mask(np.random.default_rng(1), (200, 200), 0.5)
    assert np.array_equal(mask, again)


def test_dropout_mask_p_zero_is_identity():
    rng = np.random.default_rng(2)
    mask = nnops.dropout_mask(rng, (5, 5), 0.0)
    np.testing.assert_array_equal(mask, 1.0)


def test_linear_backward_matches_fd():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((5, 6)) * 0.3
    b = rng.standard_normal(5) * 0.1

    def loss():
        return 0.5 * np.sum(nnops.linear(x, w, b) ** 2)

    y = nnops.linear(x, w, b)
    grads = {"lin.w": np.zeros_like(w), "lin.b": np.zeros_like(b)}
    dx = nnops.linear_backward(y, x, w, grads, "lin")
    np.testing.assert_allclose(grads["lin.w"], _fd_grad(loss, w), atol=1e-6)
    np.testing.assert_allclose(grads["lin.b"], _fd_grad(loss, b), atol=1e-6)
    np.testing.assert_allclose(dx, _fd_grad(loss, x), atol=1e-6)


def test_conv1d_same_matches_reference():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 9, 3))
    w = rng.standard_normal((4, 3, 5)) * 0.2
    b = rng.standard_normal(4) * 0.1
    y, _ = nnops.conv1d_same(x, w, b)
    assert y.shape == (2, 9, 4)
    # direct correlation sum with zero padding as the reference
    pad = 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    ref = np.empty_like(y)
    for bi in range(2):
        for t in range(9):
            for o in range(4):
                ref[bi, t, o] = b[o] + np.sum(xp[bi, t:t + 5, :] * w[o].T)
    np.testing.assert_allclose(y, ref, atol=1e-12)


def test_conv1d_backward_matches_fd():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 7, 2))
    w = rng.standard_normal((3, 2, 3)) * 0.3
    b = rng.standard_normal(3) * 0.1

    def loss():
        y, _ = nnops.conv1d_same(x, w, b)
        return 0.5 * np.sum(y ** 2)

    y, xp = nnops.conv1d_same(x, w, b)
    grads = {"c.w": np.zeros_like(w), "c.b": np.zeros_like(b)}
    dx = nnops.conv1d_same_backward(y, xp, w, grads, "c")
    np.testing.assert_allclose(grads["c.w"], _fd_grad(loss, w), atol=1e-6)
    np.testing.assert_allclose(grads["c.b"], _fd_grad(loss, b), atol=1e-6)
    np.testing.assert_allclose(dx, _fd_grad(loss, x), atol=1e-6)


def _per_tap_conv(x, w, b, dy):
    """Reference: one product per kernel tap, with an einsum weight gradient."""
    kernel, t_len = w.shape[2], x.shape[1]
    pad = kernel // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    y = b + sum(xp[:, j:j + t_len, :] @ w[:, :, j].T for j in range(kernel))
    dw = np.stack([np.einsum("bto,bti->oi", dy, xp[:, j:j + t_len, :])
                   for j in range(kernel)], axis=2)
    dxp = np.zeros_like(xp)
    for j in range(kernel):
        dxp[:, j:j + t_len, :] += dy @ w[:, :, j]
    return y, dxp[:, pad:pad + t_len, :], dw, dy.sum(axis=(0, 1))


@pytest.mark.parametrize("batch, t_len, kernel", [
    (2, 6, 1), (2, 1, 3), (3, 2, 5), (1, 7, 3), (1, 1, 1),
], ids=["kernel_1", "one_frame", "shorter_than_kernel", "batch_1", "all_one"])
def test_conv1d_matches_per_tap_reference(batch, t_len, kernel):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((batch, t_len, 3))
    w = rng.standard_normal((4, 3, kernel))
    b = rng.standard_normal(4)
    dy = rng.standard_normal((batch, t_len, 4))
    y_ref, dx_ref, dw_ref, db_ref = _per_tap_conv(x, w, b, dy)
    y, xp = nnops.conv1d_same(x, w, b)
    start = {"c.w": rng.standard_normal(w.shape), "c.b": rng.standard_normal(4)}
    grads = {k: v.copy() for k, v in start.items()}  # backward accumulates
    dx = nnops.conv1d_same_backward(dy, xp, w, grads, "c")
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads["c.w"] - start["c.w"], dw_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads["c.b"] - start["c.b"], db_ref, rtol=0, atol=1e-12)


def test_lstmp_step_backward_matches_fd():
    rng = np.random.default_rng(6)
    # input 3, hidden 4, projection 2; away from zero so gate kinks cannot bite
    shapes = {"l.wx": (16, 3), "l.wh": (16, 2), "l.b": (16,), "l.wp": (2, 4)}
    params = {k: 0.5 * rng.standard_normal(s) for k, s in shapes.items()}
    x = rng.standard_normal((2, 3))
    r0 = rng.standard_normal((2, 2)) * 0.1
    c0 = rng.standard_normal((2, 4)) * 0.1

    def loss():
        r, c = nnops.lstmp_step(params, "l", x, r0, c0)
        return 0.5 * np.sum(r ** 2) + 0.5 * np.sum(c ** 2)

    r, c = nnops.lstmp_step(params, "l", x, r0, c0)
    # the step cache as the layer backward builds it from the stored sequence
    gates = x @ params["l.wx"].T + r0 @ params["l.wh"].T + params["l.b"]
    h, _ = nnops.lstm_cell(gates, c0)
    cache = ((x, r0, c0, gates, np.tanh(c)), h)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dz = np.empty((2, 16))
    dr0, dc0 = nnops.lstmp_step_backward(params, "l", r, c, cache, dz)
    # the step backward leaves the wp, wx, wh, b and input gradients to the caller
    grads["l.wp"] += r.T @ h
    grads["l.wx"] += dz.T @ x
    grads["l.wh"] += dz.T @ r0
    grads["l.b"] += dz.sum(axis=0)
    dx = dz @ params["l.wx"]
    np.testing.assert_allclose(dx, _fd_grad(loss, x), atol=1e-6)
    np.testing.assert_allclose(dr0, _fd_grad(loss, r0), atol=1e-6)
    np.testing.assert_allclose(dc0, _fd_grad(loss, c0), atol=1e-6)
    for key in sorted(params):
        np.testing.assert_allclose(grads[key], _fd_grad(loss, params[key]),
                                   atol=1e-6, err_msg=key)


def test_clip_grad_norm_scales_globally():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = nnops.clip_grad_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(np.sum(g ** 2) for g in grads.values()))
    assert total == pytest.approx(1.0)
    # directions are preserved
    assert grads["a"][0] == pytest.approx(0.6)
    assert grads["b"][1] == pytest.approx(0.8)


def test_clip_grad_norm_no_op_below_threshold():
    grads = {"a": np.array([0.3, 0.4])}
    norm = nnops.clip_grad_norm(grads, 1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_allclose(grads["a"], [0.3, 0.4])
