"""Numpy layer primitives with hand-derived backward passes.

Everything runs in float64 on batch-first arrays.  Each forward returns the
activations the matching backward needs; backwards return input gradients and
accumulate parameter gradients into a dict keyed like the parameter store.

Conventions: a linear layer stores ``w`` with shape (out, in) and computes
``x @ w.T + b``.  LSTM gate blocks are ordered i, f, g, o along the 4H axis.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def dropout_mask(rng, shape, p):
    """Inverted-dropout mask: zeros with probability p, survivors scaled."""
    if p <= 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= p) / (1.0 - p)


# --- linear -----------------------------------------------------------------

def linear(x, w, b):
    return x @ w.T + b


def linear_backward(dy, x, w, grads, prefix):
    """dy, x may carry any leading shape; contraction is over those axes."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    grads[prefix + ".w"] += dy2.T @ x2
    grads[prefix + ".b"] += dy2.sum(axis=0)
    return dy @ w


# --- LSTM / LSTMP steps -------------------------------------------------------

def init_lstm(rng, params, prefix, input_dim, hidden_dim, recur_dim, proj_dim=None):
    """Allocate one LSTM (or LSTMP when proj_dim is given) into ``params``."""
    h4 = 4 * hidden_dim
    params[prefix + ".wx"] = glorot(rng, (h4, input_dim), input_dim, h4)
    params[prefix + ".wh"] = glorot(rng, (h4, recur_dim), recur_dim, h4)
    b = np.zeros(h4)
    b[hidden_dim:2 * hidden_dim] = 1.0  # forget-gate bias
    params[prefix + ".b"] = b
    if proj_dim is not None:
        params[prefix + ".wp"] = glorot(rng, (proj_dim, hidden_dim), hidden_dim, proj_dim)


def lstm_step(params, prefix, x, h_prev, c_prev):
    """One plain LSTM step.  Returns (h, c, cache)."""
    hidden = c_prev.shape[-1]
    z = x @ params[prefix + ".wx"].T + h_prev @ params[prefix + ".wh"].T + params[prefix + ".b"]
    i = sigmoid(z[:, :hidden])
    f = sigmoid(z[:, hidden:2 * hidden])
    g = np.tanh(z[:, 2 * hidden:3 * hidden])
    o = sigmoid(z[:, 3 * hidden:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc)


def lstm_step_backward(params, prefix, dh, dc, cache, grads):
    """Backward of one LSTM step.

    ``dh`` is the total gradient flowing into h_t, ``dc`` the accumulator
    arriving from step t+1.  Returns (dx, dh_prev, dc_prev).
    """
    x, h_prev, c_prev, i, f, g, o, tc = cache
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    df = dc_total * c_prev
    di = dc_total * g
    dg = dc_total * i
    dc_prev = dc_total * f
    dz = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ],
        axis=1,
    )
    grads[prefix + ".wx"] += dz.T @ x
    grads[prefix + ".wh"] += dz.T @ h_prev
    grads[prefix + ".b"] += dz.sum(axis=0)
    dx = dz @ params[prefix + ".wx"]
    dh_prev = dz @ params[prefix + ".wh"]
    return dx, dh_prev, dc_prev


def lstmp_step(params, prefix, x, r_prev, c_prev):
    """LSTM with output projection: recurrence runs on the projected state r."""
    h, c, cache = lstm_step(params, prefix, x, r_prev, c_prev)
    r = h @ params[prefix + ".wp"].T
    return r, c, (cache, h)


def lstmp_step_backward(params, prefix, dr, dc, cache, grads):
    """Backward of one LSTMP step; returns (dx, dr_prev, dc_prev)."""
    inner_cache, h = cache
    grads[prefix + ".wp"] += dr.T @ h
    dh = dr @ params[prefix + ".wp"]
    return lstm_step_backward(params, prefix, dh, dc, inner_cache, grads)


# --- 1-D convolution over time --------------------------------------------------

def conv1d_same(x, w, b):
    """(B, T, Cin) -> (B, T, Cout) with odd kernel and zero padding.

    Returns (y, padded input) so the backward can reuse the padding.
    """
    kernel = w.shape[2]
    pad = kernel // 2
    t_len = x.shape[1]
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    y = np.broadcast_to(b, (x.shape[0], t_len, w.shape[0])).copy()
    for j in range(kernel):
        y += xp[:, j:j + t_len, :] @ w[:, :, j].T
    return y, xp


def conv1d_same_backward(dy, xp, w, grads, prefix):
    kernel = w.shape[2]
    pad = kernel // 2
    t_len = dy.shape[1]
    dxp = np.zeros_like(xp)
    dw = grads[prefix + ".w"]
    for j in range(kernel):
        xs = xp[:, j:j + t_len, :]
        dw[:, :, j] += np.einsum("bto,bti->oi", dy, xs)
        dxp[:, j:j + t_len, :] += dy @ w[:, :, j]
    grads[prefix + ".b"] += dy.sum(axis=(0, 1))
    return dxp[:, pad:pad + t_len, :]


def clip_grad_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
