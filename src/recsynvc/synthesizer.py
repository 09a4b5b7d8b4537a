"""Decoder architectures mapping content features to 80-bin mel frames.

Three designs are available, in increasing capacity:

* ``simple``: feed-forward layer -> two LSTMP layers -> linear(80).  Purely
  input-driven; no feedback path.
* ``simple_ar``: the simple model with an autoregressive loop.  The previous
  output frame (dropout applied) is concatenated onto the first LSTMP input.
* ``taco2_ar``: previous output frame -> two-layer prenet (ReLU + dropout,
  always on) -> concatenated with the current content frame (and the speaker
  embedding when conditioned) -> two-layer LSTM -> linear(80) -> residual
  convolutional postnet.  No attention and no stop token: output length
  always equals input length, one output frame per content frame.

Autoregressive-path dropout stays active at generation time as well as during
training: teacher-forced forwards apply the ``dropout_masks`` they are given,
free-running ones draw them from ``dropout_seed``.  Teacher-forced forwards
consume the ground-truth frame t-1 (a zero vector at t = 0); free-running
forwards feed back the model's own previous output (pre-postnet for
``taco2_ar``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_WIDTH, ModelConfig
from .errors import ConfigError, VoiceConversionError
from .nnops import (
    conv1d_same,
    conv1d_same_backward,
    dropout_mask,
    glorot,
    linear,
    linear_backward,
    lstm_cell,
    lstm_step,
    lstm_step_backward,
    lstmp_step,
    lstmp_step_backward,
)
from .types import N_MELS, SpeakerEmbedding


@dataclass(frozen=True)
class ModelParameters:
    """Named weight tensors, the architecture they belong to, and their seed.

    ``input_dim`` (the content feature width, fixed by the upstream) and
    ``speaker_conditioned`` (A2A: the decoder reads a speaker embedding) are
    facts of the training inputs.  Only ``taco2_ar`` can be conditioned.  The
    tensor names and shapes are those ``parameter_shapes`` lists, as its
    builders, ``build_decoder`` and ``converter.load_model``, ensure.
    """

    config: ModelConfig
    input_dim: int
    speaker_conditioned: bool
    tensors: dict[str, np.ndarray]
    seed: int


def parameter_shapes(config: ModelConfig, input_dim: int,
                     speaker_conditioned: bool) -> dict[str, tuple[int, ...]]:
    """Name and shape of every decoder tensor, in the order ``build_decoder`` draws them.

    A recurrent layer ``name`` has ``name.wx`` (4H, input), ``name.wh`` (4H,
    recurrent input), ``name.b`` (4H,) and, for LSTMP, ``name.wp`` (proj, H).
    An ``input_dim`` outside 1..``config.MAX_WIDTH``, or speaker conditioning
    of a decoder other than ``taco2_ar``, raises ``ConfigError``.
    """
    if not 1 <= input_dim <= MAX_WIDTH:
        raise ConfigError(f"input_dim must lie in 1..{MAX_WIDTH}, got {input_dim}")
    if speaker_conditioned and config.type != "taco2_ar":
        raise ConfigError("speaker conditioning is only available for the taco2_ar decoder")
    hidden = config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {}

    def recurrent(name, d_in, d_rec, proj=None):
        shapes[f"{name}.wx"] = (4 * hidden, d_in)
        shapes[f"{name}.wh"] = (4 * hidden, d_rec)
        shapes[f"{name}.b"] = (4 * hidden,)
        if proj is not None:
            shapes[f"{name}.wp"] = (proj, hidden)

    if config.type in ("simple", "simple_ar"):
        proj = config.lstmp_proj_dim
        shapes["ffn.w"] = (hidden, input_dim)
        shapes["ffn.b"] = (hidden,)
        recurrent("lstmp1", hidden + (N_MELS if config.type == "simple_ar" else 0),
                  proj, proj)
        recurrent("lstmp2", proj, proj, proj)
        top = proj
    else:  # taco2_ar
        widths = (N_MELS,) + config.prenet_dims
        for i in range(len(config.prenet_dims)):
            shapes[f"prenet{i + 1}.w"] = (widths[i + 1], widths[i])
            shapes[f"prenet{i + 1}.b"] = (widths[i + 1],)
        dec_in = config.prenet_dims[-1] + input_dim
        if speaker_conditioned:
            dec_in += config.embedding_dim
        recurrent("lstm1", dec_in, hidden)
        recurrent("lstm2", hidden, hidden)
        top = hidden
    shapes["out.w"] = (N_MELS, top)
    shapes["out.b"] = (N_MELS,)
    if config.type == "taco2_ar":
        chans = _postnet_channels(config)
        for i, (cin, cout) in enumerate(zip(chans[:-1], chans[1:]), start=1):
            shapes[f"postnet{i}.w"] = (cout, cin, config.postnet_kernel)
            shapes[f"postnet{i}.b"] = (cout,)
    return shapes


def build_decoder(config: ModelConfig, input_dim: int, speaker_conditioned: bool,
                  seed: int) -> ModelParameters:
    """Deterministically initialize all weights for ``config``.

    Weights are Glorot-uniform with fans ``prod(shape[1:])`` and
    ``shape[0] * prod(shape[2:])``, drawn in ``parameter_shapes`` order;
    biases are zero except the recurrent forget gates, which start at 1.
    """
    rng = np.random.default_rng(seed)
    hidden = config.hidden_dim
    p: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config, input_dim, speaker_conditioned).items():
        prefix, kind = name.rsplit(".", 1)
        if kind == "b":
            p[name] = np.zeros(shape)
            if prefix in _layers(config):
                p[name][hidden:2 * hidden] = 1.0
        else:
            p[name] = glorot(rng, shape, math.prod(shape[1:]),
                             shape[0] * math.prod(shape[2:]))
    return ModelParameters(config=config, input_dim=int(input_dim),
                           speaker_conditioned=speaker_conditioned, tensors=p,
                           seed=int(seed))


def _postnet_channels(config: ModelConfig) -> list[int]:
    inner = [config.postnet_channels] * max(config.postnet_layers - 1, 0)
    return [N_MELS] + inner[: config.postnet_layers - 1] + [N_MELS]


# --- internal batched forwards/backwards --------------------------------------
#
# Every decoder is input -> two stacked recurrent layers -> linear(80), plus a
# postnet for ``taco2_ar``.  The stack input joins a feedback-free context
# (``_context``: ffn(content), or content and speaker embedding) with the
# fed-back previous frame (``_feedback``: masked frame, or prenet);
# ``_input_columns`` says which columns of the first layer's ``wx`` read each.
# Teacher-forced, ``_recurrent_forward`` and ``_recurrent_backward`` run the
# stack one layer at a time over the whole sequence, in time-major (T, B, .)
# arrays, so input projections and weight gradients are one GEMM per layer.
# Free-running, ``free_forward_batch`` projects the context of every frame
# onto the first layer's gates in one GEMM before the time loop, then steps
# the whole stack frame by frame through ``_recurrent_step``, multiplying
# only the fed-back columns per step.  Splitting the first layer's product
# in two changes its rounding, so free-running and teacher-forced outputs
# agree to rounding, not to the bit.  All internals take content
# (B, T, Din), optional prev (B, T, 80) and spk (B, E), run in float64 and
# return batch-first outputs.  A teacher-forced cache holds once each
# activation its backward reads, and nothing else (``teacher_forward_batch``
# lists them); the backward builds each step's cache from it, recomputing
# tanh of the cell state for one (B, H) tanh per step.
# ``backward_teacher_batch`` uses it up: it pops each layer's entry from the
# cache lists once that layer's backward has run, and overwrites the gate
# activations with their gradients.  It forms an input gradient only where a
# lower layer reads it: the prenet or ffn columns of the first layer's input.


def _prenet_forward(p, prev, masks):
    """Batched prenet over previous frames, (B, T, 80) or one step (B, 80)."""
    below, positive, keep = [], [], []
    x = prev
    for i, m in enumerate(masks):
        below.append(x)
        z = linear(x, p[f"prenet{i + 1}.w"], p[f"prenet{i + 1}.b"])
        x = np.maximum(z, 0.0) * m
        positive.append(z > 0.0)
        keep.append(m != 0.0)
    return x, (below, positive, keep)


def _prenet_backward(p, config, dout, cache, grads):
    below, positive, keep = cache
    # keep * scale has dropout_mask's values: survivors 1 / (1 - p), the rest 0
    scale = 1.0 / (1.0 - config.ar_dropout)
    dx = dout
    for i in reversed(range(len(config.prenet_dims))):
        dz = dx * (keep.pop() * scale)
        dz *= positive.pop()
        dx = linear_backward(dz, below.pop(), p[f"prenet{i + 1}.w"], grads, f"prenet{i + 1}")
    return dx


def _postnet_forward(p, config, y_before, frame_mask):
    """Residual refinement: conv stack with tanh on all but the last layer.

    ``y_before`` is zero past each row's length, and so is each tanh output,
    by ``frame_mask``: every layer reads zeros past a row's end, as at B = 1.
    The cache is each layer's padded input; from the second layer on, its
    unpadded middle is the masked tanh output of the layer below.
    """
    n_layers = config.postnet_layers
    x = y_before
    caches = []
    for i in range(1, n_layers + 1):
        x, xp = conv1d_same(x, p[f"postnet{i}.w"], p[f"postnet{i}.b"])
        caches.append(xp)
        if i < n_layers:
            np.tanh(x, out=x)
            x *= frame_mask[..., None]
    return y_before + x, caches


def _postnet_backward(p, config, d_residual, caches, grads, frame_mask):
    pad = config.postnet_kernel // 2
    t_len = d_residual.shape[1]
    dx = d_residual
    for i in range(config.postnet_layers, 0, -1):
        xp = caches.pop()
        dx = conv1d_same_backward(dx, xp, p[f"postnet{i}.w"], grads, f"postnet{i}")
        if i > 1:  # through the mask and the tanh of the layer below, whose output xp pads
            act = xp[:, pad:pad + t_len]
            dx *= frame_mask[..., None]
            dx *= 1.0 - act * act
    return dx


def _layers(config):
    """Parameter prefixes of the recurrent stack, bottom first."""
    return ("lstm1", "lstm2") if config.type == "taco2_ar" else ("lstmp1", "lstmp2")


def _zero_state(p, layers, batch):
    """One zero (recurrent output, cell) pair per layer."""
    return [(np.zeros((batch, p[f"{name}.wh"].shape[1])),
             np.zeros((batch, p[f"{name}.wh"].shape[0] // 4))) for name in layers]


def _recurrent_step(p, layers, x, state):
    """One time step up the stack; returns (top output, new state)."""
    new_state = []
    for name, (h, c) in zip(layers, state):
        step = lstmp_step if name.startswith("lstmp") else lstm_step
        x, c = step(p, name, x, h, c)
        new_state.append((x, c))
    return x, new_state


def _layer_forward(p, name, x):
    """One recurrent layer over a whole (T, B, D) input from zero state.

    The input projection is one GEMM over all T * B rows before the time
    loop; each step adds the recurrent term and applies the gates in place.
    Returns the (T, B, R) output and the cache ``_layer_backward`` reads.
    """
    t_len, batch, d_in = x.shape
    # a contiguous copy: the per-step (B, R) products run faster than on the view
    wh_t = np.ascontiguousarray(p[f"{name}.wh"].T)
    hidden = wh_t.shape[1] // 4
    projected = name.startswith("lstmp")
    gates = x.reshape(-1, d_in) @ p[f"{name}.wx"].T
    gates += p[f"{name}.b"]
    gates = gates.reshape(t_len, batch, 4 * hidden)
    # out[t] and cell[t] hold the state entering step t: zero at t = 0
    out = np.zeros((t_len + 1, batch, wh_t.shape[0]))
    cell = np.zeros((t_len + 1, batch, hidden))
    h = np.empty((t_len, batch, hidden)) if projected else out[1:]
    for t in range(t_len):
        z = gates[t]
        z += out[t] @ wh_t
        h[t], cell[t + 1] = lstm_cell(z, cell[t])
        if projected:
            out[t + 1] = h[t] @ p[f"{name}.wp"].T
    return out[1:], (x, gates, cell, h, out)


def _layer_backward(p, name, d_out, cache, grads, d_in):
    """Backward of ``_layer_forward``; returns the (T, B, d_in) gradient of the
    input's leading ``d_in`` columns, of every column when ``d_in`` is None.

    The time loop adds the recurrent gradient into ``d_out`` and writes each
    step's gate gradients over its gate activations; the weight gradients and
    the input gradient are then one GEMM each over the T * B rows.
    """
    x, gates, cell, h, out = cache
    t_len, batch, _ = x.shape
    projected = name.startswith("lstmp")
    step_backward = lstmp_step_backward if projected else lstm_step_backward
    d_rec = np.zeros((batch, out.shape[2]))
    d_cell = np.zeros((batch, cell.shape[2]))
    for t in range(t_len - 1, -1, -1):
        d = d_out[t]
        d += d_rec
        step_cache = (x[t], out[t], cell[t], gates[t], np.tanh(cell[t + 1]))
        if projected:
            step_cache = (step_cache, h[t])
        d_rec, d_cell = step_backward(p, name, d, d_cell, step_cache, gates[t])
    rows = t_len * batch
    if projected:
        grads[f"{name}.wp"] += d_out.reshape(rows, -1).T @ h.reshape(rows, -1)
    dz = gates.reshape(rows, -1)
    grads[f"{name}.wx"] += dz.T @ x.reshape(rows, -1)
    grads[f"{name}.wh"] += dz.T @ out[:-1].reshape(rows, -1)
    grads[f"{name}.b"] += dz.sum(axis=0)
    return (dz @ p[f"{name}.wx"][:, :d_in]).reshape(t_len, batch, -1)


def _recurrent_forward(p, layers, x_seq):
    """Run the stack over a (B, T, D) input from zero state, layer by layer."""
    x = np.ascontiguousarray(x_seq.transpose(1, 0, 2))
    caches = []
    for name in layers:
        x, cache = _layer_forward(p, name, x)
        caches.append(cache)
    return x.transpose(1, 0, 2), caches


def _recurrent_backward(p, layers, d_out, caches, grads, d_in):
    """Backward of ``_recurrent_forward``; returns the (B, T, d_in) gradient of the
    stack input's leading ``d_in`` columns, the only ones a layer below reads.

    Pops each layer's cache from ``caches`` as it goes, top layer first.
    """
    d = d_out.transpose(1, 0, 2).copy()
    for name in reversed(layers):
        d = _layer_backward(p, name, d, caches.pop(), grads, d_in if name == layers[0] else None)
    return d.transpose(1, 0, 2)


def _context(params, content, spk):
    """Feedback-free part of the stack input, and where the ffn ReLU passes, if any."""
    p = params.tensors
    if params.config.type != "taco2_ar":
        ffn_pre = linear(content, p["ffn.w"], p["ffn.b"])
        return np.maximum(ffn_pre, 0.0), ffn_pre > 0.0
    if not params.speaker_conditioned:
        return content, None
    spk_tiled = np.broadcast_to(spk[:, None, :], content.shape[:2] + spk.shape[1:])
    return np.concatenate([content, spk_tiled], axis=2), None


def dropout_masks(params: ModelParameters, frames: tuple[int, ...], rng) -> list:
    """The feedback path's dropout masks, in the order they are drawn from ``rng``.

    ``frames`` is the frame shape: (B, T) for whole sequences, (B,) for one step.
    ``simple_ar`` has one mask over the previous frame, ``taco2_ar`` one per
    prenet layer, ``simple`` none.
    """
    config = params.config
    if config.type == "simple":
        return []
    widths = (N_MELS,) if config.type == "simple_ar" else config.prenet_dims
    return [dropout_mask(rng, (*frames, width), config.ar_dropout) for width in widths]


def _feedback(params, prev, masks):
    """Fed-back part of the stack input, and the prenet cache (None without prenet).

    ``prev`` is a whole sequence, (B, T, 80), or one step, (B, 80), and
    ``masks`` are ``dropout_masks`` for its frames.  ``simple_ar`` feeds back
    the dropout-masked previous frame; ``taco2_ar`` the prenet of it.
    """
    config = params.config
    if config.type == "simple_ar":
        return prev * masks[0], None
    return _prenet_forward(params.tensors, prev, masks)


def _input_columns(params):
    """(fed-back, context) column slices of the first recurrent layer's ``wx``.

    ``simple_ar`` appends the fed-back frame to the context; ``taco2_ar``
    puts the prenet output in front of it.
    """
    config = params.config
    if config.type == "simple_ar":
        return slice(config.hidden_dim, None), slice(0, config.hidden_dim)
    split = config.prenet_dims[-1]
    return slice(0, split), slice(split, None)


def teacher_forward_batch(params: ModelParameters, content, prev, spk, masks, frame_mask):
    """Batched teacher-forced forward.

    ``masks`` are the ``dropout_masks`` of these (B, T) frames, the forward's
    only source of dropout; ``prev`` and ``masks`` are unread for ``simple``.
    ``frame_mask`` (B, T) holds 1.0 for each row's frames and 0.0 for its
    padding.  The pre-postnet outputs are zeroed on the padding, so the
    postnet reads zeros past a row's end, as it does at B = 1, and a row's
    outputs do not depend on how long the other rows of its batch are.
    Returns ``(main, before, cache)`` where ``before`` is the pre-postnet
    prediction (None for models without a postnet).  ``cache`` is the tuple
    ``(content, ffn_positive, input_cache, stack_caches, h_seq, post_caches,
    frame_mask)``:

    * ``ffn_positive``: where the ffn pre-activation is positive (bool), for
      ``simple`` and ``simple_ar``; None for ``taco2_ar``.
    * ``input_cache``: for ``taco2_ar`` the prenet lists ``(below, positive,
      keep)``, per layer its input, where its pre-activation is positive and
      its dropout keep pattern (both bool); the last layer's output is not
      kept, since the stack input holds it.  None for the other decoders.
    * ``stack_caches``: per recurrent layer, bottom first, its input and its
      gate activations, cell states, unprojected and fed-back outputs, in
      time-major (T, B, .) arrays.  tanh(cell) is not kept: the backward
      recomputes it one step at a time.
    * ``h_seq``: the input of ``out``, a (B, T, R) view of the top layer's
      output held in its ``stack_caches`` entry.
    * ``post_caches``: for ``taco2_ar`` the padded input of each postnet
      layer, which also holds the tanh output of the layer below; else None.
    * ``frame_mask``: the argument, which the backward applies too.

    ``backward_teacher_batch`` empties the lists, ``stack_caches``,
    ``post_caches`` and those of ``input_cache``, as it goes.
    """
    p, config = params.tensors, params.config
    context, ffn_positive = _context(params, content, spk)
    x_seq, input_cache = context, None
    if config.type != "simple":
        fed, input_cache = _feedback(params, prev, masks)
        # in the column order of ``_input_columns``
        parts = (context, fed) if config.type == "simple_ar" else (fed, context)
        x_seq = np.concatenate(parts, axis=-1)
    h_seq, stack_caches = _recurrent_forward(p, _layers(config), x_seq)
    y_before = linear(h_seq, p["out.w"], p["out.b"])
    y_before *= frame_mask[..., None]
    if config.type == "taco2_ar":
        main, post_caches = _postnet_forward(p, config, y_before, frame_mask)
        before = y_before
    else:
        main, before, post_caches = y_before, None, None
    return main, before, (content, ffn_positive, input_cache, stack_caches, h_seq,
                          post_caches, frame_mask)


class _Gradients(dict):
    """Gradient accumulators by parameter name, each zeros from its first use.

    The backward then holds only the gradients of the layers it has reached.
    """

    def __init__(self, tensors):
        super().__init__()
        self.tensors = tensors

    def __missing__(self, name):
        grad = self[name] = np.zeros_like(self.tensors[name])
        return grad


def backward_teacher_batch(params: ModelParameters, cache, d_main, d_before):
    """Parameter gradients for a teacher-forced forward, in parameter order.

    ``d_main`` and ``d_before`` are the loss gradients in the forward's two
    outputs; ``d_before`` is None exactly when the model has no postnet.
    Uses up ``cache``: its lists are empty when this returns.
    """
    content, ffn_positive, input_cache, stack_caches, h_seq, post_caches, frame_mask = cache
    p, config = params.tensors, params.config
    grads = _Gradients(p)
    dy_before = d_main
    if config.type == "taco2_ar":
        # main branch: identity + postnet residual; aux branch hits y_before directly
        dy_before = d_main + _postnet_backward(p, config, d_main, post_caches, grads,
                                                   frame_mask) + d_before
    dy_before = dy_before * frame_mask[..., None]  # the forward zeroed the padding
    dh_seq = linear_backward(dy_before, h_seq, p["out.w"], grads, "out")
    lower = config.prenet_dims[-1] if config.type == "taco2_ar" else config.hidden_dim
    dx_seq = _recurrent_backward(p, _layers(config), dh_seq, stack_caches, grads, lower)
    if config.type == "taco2_ar":
        _prenet_backward(p, config, dx_seq, input_cache, grads)
    else:
        linear_backward(dx_seq * ffn_positive, content, p["ffn.w"], grads, "ffn")
    # clip_grad_norm sums in dict order, so the order is part of the bits
    return {name: grads[name] for name in p}


def free_forward_batch(params: ModelParameters, content, spk, dropout_seed):
    """Batched free-running forward: each step feeds back the previous output.

    The context's share of the first layer's gates, bias included, is one
    GEMM over all frames before the time loop, a (B, T, 4H) block.  Each step
    then goes through ``lstm_step``/``lstmp_step`` with a mapping in which the
    first layer's ``wx`` holds only the fed-back columns and its ``b`` is that
    step's (B, 4H) block of context gates.
    """
    p, config = params.tensors, params.config
    if config.type == "simple":
        # no feedback path: free-running coincides with the teacher forward
        return teacher_forward_batch(params, content, None, spk, [],
                                     np.ones(content.shape[:2]))[0]
    layers = _layers(config)
    first = layers[0]
    batch, t_len, _ = content.shape
    rng = np.random.default_rng(dropout_seed)
    context, _ = _context(params, content, spk)
    fed_cols, context_cols = _input_columns(params)
    wx = p[f"{first}.wx"]
    gates = context @ wx[:, context_cols].T
    gates += p[f"{first}.b"]
    step_p = dict(p)
    step_p[f"{first}.wx"] = np.ascontiguousarray(wx[:, fed_cols])
    state = _zero_state(p, layers, batch)
    prev = np.zeros((batch, N_MELS))
    y_before = np.empty((batch, t_len, N_MELS))
    for t in range(t_len):
        fed, _ = _feedback(params, prev, dropout_masks(params, (batch,), rng))
        step_p[f"{first}.b"] = gates[:, t]
        h, state = _recurrent_step(step_p, layers, fed, state)
        prev = linear(h, p["out.w"], p["out.b"])
        y_before[:, t] = prev
    if config.type != "taco2_ar":
        return y_before
    return _postnet_forward(p, config, y_before, np.ones((batch, t_len)))[0]


# --- public single-utterance API ------------------------------------------------

def _check_embedding(params, embedding: SpeakerEmbedding | None):
    if params.speaker_conditioned:
        if embedding is None:
            raise VoiceConversionError("speaker-conditioned decoder needs an embedding")
        if embedding.dim != params.config.embedding_dim:
            raise VoiceConversionError(
                f"embedding dim {embedding.dim} != configured {params.config.embedding_dim}"
            )
        return embedding.vector.reshape(1, -1)
    if embedding is not None:
        raise VoiceConversionError(
            "embedding supplied to a decoder that is not speaker-conditioned")
    return None


def shift_frames_right(target_frames: np.ndarray) -> np.ndarray:
    """Previous-frame tensor for teacher forcing: zero vector at t = 0."""
    prev = np.zeros_like(target_frames)
    prev[..., 1:, :] = target_frames[..., :-1, :]
    return prev


def forward_free_running(params: ModelParameters, content,
                         embedding: SpeakerEmbedding | None,
                         dropout_seed: int) -> np.ndarray:
    """Generate (T, 80) mel frames from (T, ``input_dim``) content, one per content frame."""
    spk = _check_embedding(params, embedding)
    return free_forward_batch(params, content[None], spk, dropout_seed)[0]
