"""Numpy layer primitives with hand-derived backward passes.

Everything runs in float64 on batch-first arrays.  Each forward returns the
activations the matching backward needs; backwards return input gradients and
accumulate parameter gradients into a dict keyed like the parameter store.
The LSTM steps are the exception: they return only their state, and the step
backwards read caches their caller builds, carry the gradient one step back
and leave the gate gradients in a buffer, from which the caller forms the
input and weight gradients of a whole sequence.

Conventions: a linear layer stores ``w`` with shape (out, in) and computes
``x @ w.T + b``.  LSTM gate blocks are ordered i, f, g, o along the 4H axis.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows.

    ``out`` may be ``x`` itself.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(numerator, e, out=out)


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

def _gate_blocks(z, hidden):
    """Views of the i, f, g and o blocks of a (B, 4H) gate array."""
    return [z[:, k * hidden:(k + 1) * hidden] for k in range(4)]


def lstm_cell(z, c_prev):
    """Gates and cell update of one LSTM step from its pre-activations (B, 4H).

    Overwrites ``z`` with the gate activations and returns (h, c).
    """
    hidden = c_prev.shape[-1]
    # one sigmoid over the whole block, then the g block's tanh written back:
    # elementwise, so the bits are those of the three blocks taken one by one
    g = np.tanh(z[:, 2 * hidden:3 * hidden])
    sigmoid(z, out=z)
    z[:, 2 * hidden:3 * hidden] = g
    i, f, g, o = _gate_blocks(z, hidden)
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def lstm_step(params, prefix, x, h_prev, c_prev):
    """One plain LSTM step.  Returns (h, c).

    ``params[prefix + ".b"]`` is the (4H,) bias, or a (B, 4H) block of gates
    precomputed for this step, bias included, from input columns that ``x``
    does not hold; ``params[prefix + ".wx"]`` then holds only ``x``'s columns.
    """
    z = x @ params[prefix + ".wx"].T + h_prev @ params[prefix + ".wh"].T + params[prefix + ".b"]
    return lstm_cell(z, c_prev)


def lstm_step_backward(params, prefix, dh, dc, cache, dz):
    """Backward of one LSTM step through its gates and recurrent weights.

    ``dh`` is the total gradient flowing into h_t, ``dc`` the accumulator
    arriving from step t+1, ``cache`` (x, h_prev, c_prev, gate activations,
    tanh(c)).  Writes the gradient of the gate pre-activations into ``dz``
    (B, 4H), which may be the cache's gate block, and returns (dh_prev,
    dc_prev).  The input and weight gradients are linear in dz.
    """
    _, _, c_prev, gates, tc = cache
    i, f, g, o = _gate_blocks(gates, tc.shape[-1])
    dc_total = dc + dh * o * (1.0 - tc * tc)
    dc_prev = dc_total * f
    np.concatenate(
        [
            dc_total * g * i * (1.0 - i),
            dc_total * c_prev * f * (1.0 - f),
            dc_total * i * (1.0 - g * g),
            dh * tc * o * (1.0 - o),
        ],
        axis=1,
        out=dz,
    )
    return dz @ params[prefix + ".wh"], dc_prev


def lstmp_step(params, prefix, x, r_prev, c_prev):
    """LSTM with output projection, recurrent on the projected state r; returns (r, c)."""
    h, c = lstm_step(params, prefix, x, r_prev, c_prev)
    return h @ params[prefix + ".wp"].T, c


def lstmp_step_backward(params, prefix, dr, dc, cache, dz):
    """Backward of one LSTMP step; returns (dr_prev, dc_prev).

    As ``lstm_step_backward``, with ``cache`` (LSTM step cache, h); the
    ``wp`` gradient, dr.T @ h, is also left to the caller.
    """
    inner_cache, _ = cache
    dh = dr @ params[prefix + ".wp"]
    return lstm_step_backward(params, prefix, dh, dc, inner_cache, dz)


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
    """Input gradient of ``conv1d_same``; accumulates its ``w`` and ``b`` gradients.

    Flattened over (B, T + 2 pad), row r + j of the padded input meets row r
    of dy in tap j.  Padding dy with 2 pad zero frames per utterance makes
    the rows that would pair across utterances contribute nothing, so each
    tap is two GEMMs over contiguous row ranges.
    """
    cout, cin, kernel = w.shape
    batch, t_len, _ = dy.shape
    pad = kernel // 2
    rows = xp.shape[0] * xp.shape[1]
    dyp = np.zeros((batch, t_len + 2 * pad, cout))
    dyp[:, :t_len] = dy
    dyp = dyp.reshape(rows, cout)
    xf = xp.reshape(rows, cin)
    dxp = np.zeros((rows, cin))
    dw = grads[prefix + ".w"]
    for j in range(kernel):
        dw[:, :, j] += dyp[:rows - j].T @ xf[j:]
        dxp[j:] += dyp[:rows - j] @ np.ascontiguousarray(w[:, :, j])
    grads[prefix + ".b"] += dy.sum(axis=(0, 1))
    return dxp.reshape(xp.shape)[:, pad:pad + t_len, :]


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
