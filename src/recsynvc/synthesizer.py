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
training; passing the same ``dropout_seed`` therefore makes any forward fully
deterministic.  Teacher-forced forwards consume the ground-truth frame t-1
(a zero vector at t = 0); free-running forwards feed back the model's own
previous output (pre-postnet for ``taco2_ar``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import ModelConfig
from .errors import (
    DimensionMismatchError,
    ExtraEmbeddingError,
    InvalidConfigError,
    LengthMismatchError,
    MissingEmbeddingError,
)
from .nnops import (
    conv1d_same,
    conv1d_same_backward,
    dropout_mask,
    glorot,
    init_lstm,
    linear,
    linear_backward,
    lstm_step,
    lstm_step_backward,
    lstmp_step,
    lstmp_step_backward,
)
from .types import N_MELS, FeatureSequence, MelSpectrogram, SpeakerEmbedding


def decoder_meta(config: ModelConfig, input_dim: int) -> dict:
    """The checkpoint's ``"decoder"`` entry: the model config plus ``input_dim``."""
    meta = {"input_dim": int(input_dim), **asdict(config)}
    meta["prenet_dims"] = list(config.prenet_dims)
    return meta


def _has_type(value, type_name: str) -> bool:
    """Whether a JSON value fits a ``ModelConfig`` field annotation."""
    if type_name == "tuple[int, ...]":
        return isinstance(value, list) and all(_has_type(v, "int") for v in value)
    expected = {"bool": bool, "int": int, "float": (int, float), "str": str}[type_name]
    return isinstance(value, expected) and (type_name == "bool") == isinstance(value, bool)


def decoder_from_meta(meta: dict) -> tuple[ModelConfig, int]:
    """Inverse of ``decoder_meta``.

    A missing or unknown key, or a value of the wrong type, raises
    ``InvalidConfigError`` naming the entry.
    """
    types = {"input_dim": "int", **{f.name: f.type for f in fields(ModelConfig)}}
    unknown, missing = meta.keys() - types.keys(), types.keys() - meta.keys()
    if unknown or missing:
        raise InvalidConfigError(f"checkpoint decoder meta: unknown keys {sorted(unknown)}, "
                                 f"missing keys {sorted(missing)}")
    for key, value in meta.items():
        if not _has_type(value, types[key]):
            raise InvalidConfigError(f"checkpoint decoder meta {key!r}: {value!r} is not "
                                     f"{types[key]}")
    kwargs = dict(meta)
    input_dim = kwargs.pop("input_dim")
    kwargs["prenet_dims"] = tuple(kwargs["prenet_dims"])
    return ModelConfig(**kwargs), input_dim


@dataclass(frozen=True)
class ModelParameters:
    """Named weight tensors, the architecture they belong to, and their seed.

    ``input_dim`` is the content feature width, fixed by the upstream.
    """

    config: ModelConfig
    input_dim: int
    tensors: dict[str, np.ndarray]
    seed: int
    parameter_count: int = field(init=False)

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        for name, tensor in self.tensors.items():
            if not np.all(np.isfinite(tensor)):
                raise InvalidConfigError(f"tensor {name!r} contains non-finite values")
        object.__setattr__(
            self, "parameter_count", int(sum(t.size for t in self.tensors.values()))
        )


def build_decoder(config: ModelConfig, input_dim: int, seed: int) -> ModelParameters:
    """Deterministically initialize all weights for ``config``."""
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}
    hidden = config.hidden_dim
    if config.type in ("simple", "simple_ar"):
        proj = config.lstmp_proj_dim
        p["ffn.w"] = glorot(rng, (hidden, input_dim), input_dim, hidden)
        p["ffn.b"] = np.zeros(hidden)
        l1_in = hidden + (N_MELS if config.type == "simple_ar" else 0)
        init_lstm(rng, p, "lstmp1", l1_in, hidden, proj, proj_dim=proj)
        init_lstm(rng, p, "lstmp2", proj, hidden, proj, proj_dim=proj)
        p["out.w"] = glorot(rng, (N_MELS, proj), proj, N_MELS)
        p["out.b"] = np.zeros(N_MELS)
    else:  # taco2_ar
        widths = (N_MELS,) + config.prenet_dims
        for i in range(len(config.prenet_dims)):
            p[f"prenet{i + 1}.w"] = glorot(
                rng, (widths[i + 1], widths[i]), widths[i], widths[i + 1]
            )
            p[f"prenet{i + 1}.b"] = np.zeros(widths[i + 1])
        dec_in = config.prenet_dims[-1] + input_dim
        if config.speaker_conditioned:
            dec_in += config.embedding_dim
        init_lstm(rng, p, "lstm1", dec_in, hidden, hidden)
        init_lstm(rng, p, "lstm2", hidden, hidden, hidden)
        p["out.w"] = glorot(rng, (N_MELS, hidden), hidden, N_MELS)
        p["out.b"] = np.zeros(N_MELS)
        chans = _postnet_channels(config)
        for i, (cin, cout) in enumerate(zip(chans[:-1], chans[1:]), start=1):
            k = config.postnet_kernel
            p[f"postnet{i}.w"] = glorot(rng, (cout, cin, k), cin * k, cout * k)
            p[f"postnet{i}.b"] = np.zeros(cout)
    return ModelParameters(config=config, input_dim=int(input_dim), tensors=p,
                           seed=int(seed))


def _postnet_channels(config: ModelConfig) -> list[int]:
    inner = [config.postnet_channels] * max(config.postnet_layers - 1, 0)
    return [N_MELS] + inner[: config.postnet_layers - 1] + [N_MELS]


def zero_grads(params: ModelParameters) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


# --- internal batched forwards/backwards --------------------------------------
#
# Every decoder is input -> two stacked recurrent layers -> linear(80), plus a
# postnet for ``taco2_ar``.  The stack input joins a feedback-free context
# (``_context``: ffn(content), or content and speaker embedding) with the
# fed-back previous frame (``_decoder_input``: masked frame, or prenet).  The
# stack itself runs through ``_recurrent_step``: ``_recurrent_forward`` and
# ``_recurrent_backward`` over a whole teacher-forced sequence, and the loop in
# ``free_forward_batch`` one step at a time.  All internals take content
# (B, T, Din), optional prev (B, T, 80) and spk (B, E), run in float64 and
# return batch-first outputs.  ``cache`` objects are consumed by
# ``backward_teacher_batch``.


def _prenet_forward(p, config, prev, rng):
    """Batched prenet over previous frames, (B, T, 80) or one step (B, 80)."""
    masks, pre_acts, outs = [], [], []
    x = prev
    for i in range(len(config.prenet_dims)):
        z = linear(x, p[f"prenet{i + 1}.w"], p[f"prenet{i + 1}.b"])
        a = np.maximum(z, 0.0)
        m = dropout_mask(rng, a.shape, config.ar_dropout)
        x = a * m
        pre_acts.append(z)
        masks.append(m)
        outs.append(x)
    return x, (prev, pre_acts, masks, outs)


def _prenet_backward(p, config, dout, cache, grads):
    prev, pre_acts, masks, outs = cache
    dx = dout
    for i in reversed(range(len(config.prenet_dims))):
        da = dx * masks[i]
        dz = da * (pre_acts[i] > 0.0)
        below = prev if i == 0 else outs[i - 1]
        dx = linear_backward(dz, below, p[f"prenet{i + 1}.w"], grads, f"prenet{i + 1}")
    return dx


def _postnet_forward(p, config, y_before):
    """Residual refinement: conv stack with tanh on all but the last layer."""
    n_layers = config.postnet_layers
    x = y_before
    caches = []
    for i in range(1, n_layers + 1):
        y, xp = conv1d_same(x, p[f"postnet{i}.w"], p[f"postnet{i}.b"])
        x = np.tanh(y) if i < n_layers else y
        caches.append((xp, x if i < n_layers else None))
    return y_before + x, caches


def _postnet_backward(p, config, d_residual, caches, grads):
    n_layers = config.postnet_layers
    dx = d_residual
    for i in range(n_layers, 0, -1):
        xp, act = caches[i - 1]
        dy = dx if act is None else dx * (1.0 - act * act)
        dx = conv1d_same_backward(dy, xp, p[f"postnet{i}.w"], grads, f"postnet{i}")
    return dx


def _layers(config):
    """Parameter prefixes of the recurrent stack, bottom first."""
    return ("lstm1", "lstm2") if config.type == "taco2_ar" else ("lstmp1", "lstmp2")


def _zero_state(p, layers, batch):
    """One zero (recurrent output, cell) pair per layer."""
    return [(np.zeros((batch, p[f"{name}.wh"].shape[1])),
             np.zeros((batch, p[f"{name}.wh"].shape[0] // 4))) for name in layers]


def _recurrent_step(p, layers, x, state):
    """One time step up the stack; returns (top output, new state, caches)."""
    new_state, caches = [], []
    for name, (h, c) in zip(layers, state):
        step = lstmp_step if name.startswith("lstmp") else lstm_step
        x, c, cache = step(p, name, x, h, c)
        new_state.append((x, c))
        caches.append(cache)
    return x, new_state, caches


def _recurrent_forward(p, layers, x_seq):
    """Run the stack over a (B, T, D) input from zero state."""
    batch, t_len, _ = x_seq.shape
    state = _zero_state(p, layers, batch)
    out = np.empty((batch, t_len, state[-1][0].shape[1]))
    caches = []
    for t in range(t_len):
        y, state, step_caches = _recurrent_step(p, layers, x_seq[:, t], state)
        out[:, t] = y
        caches.append(step_caches)
    return out, caches


def _recurrent_backward(p, layers, d_out, caches, grads):
    """Backward of ``_recurrent_forward``; returns the input gradient (B, T, D)."""
    batch, t_len, _ = d_out.shape
    d_next = _zero_state(p, layers, batch)  # (d output, d cell) from step t + 1
    dx_seq = np.empty((batch, t_len, p[f"{layers[0]}.wx"].shape[1]))
    for t in range(t_len - 1, -1, -1):
        d = d_out[:, t]
        for i in reversed(range(len(layers))):
            step_backward = (lstmp_step_backward if layers[i].startswith("lstmp")
                             else lstm_step_backward)
            dh_next, dc = d_next[i]
            d, dh_prev, dc_prev = step_backward(p, layers[i], d + dh_next, dc,
                                                caches[t][i], grads)
            d_next[i] = (dh_prev, dc_prev)
        dx_seq[:, t] = d
    return dx_seq


def _context(params, content, spk):
    """Feedback-free part of the stack input, and the ffn pre-activation if any."""
    p = params.tensors
    if params.config.type != "taco2_ar":
        ffn_pre = linear(content, p["ffn.w"], p["ffn.b"])
        return np.maximum(ffn_pre, 0.0), ffn_pre
    if not params.config.speaker_conditioned:
        return content, None
    spk_tiled = np.broadcast_to(spk[:, None, :], content.shape[:2] + spk.shape[1:])
    return np.concatenate([content, spk_tiled], axis=2), None


def _decoder_input(params, context, prev, rng):
    """Stack input and the prenet cache its backward needs (None without prenet).

    ``context`` and ``prev`` are a whole sequence, (B, T, .), or one step,
    (B, .).  ``simple`` takes the context alone; ``simple_ar`` appends the
    dropout-masked previous frame; ``taco2_ar`` puts the prenet of the
    previous frame in front.
    """
    config = params.config
    if config.type == "simple":
        return context, None
    if config.type == "simple_ar":
        masked = prev * dropout_mask(rng, prev.shape, config.ar_dropout)
        return np.concatenate([context, masked], axis=-1), None
    pre_out, pre_cache = _prenet_forward(params.tensors, config, prev, rng)
    return np.concatenate([pre_out, context], axis=-1), pre_cache


def teacher_forward_batch(params: ModelParameters, content, prev, spk, dropout_seed):
    """Batched teacher-forced forward.

    Returns ``(main, before, cache)`` where ``before`` is the pre-postnet
    prediction (None for models without a postnet).
    """
    p, config = params.tensors, params.config
    rng = np.random.default_rng(dropout_seed)
    context, ffn_pre = _context(params, content, spk)
    x_seq, input_cache = _decoder_input(params, context, prev, rng)
    h_seq, step_caches = _recurrent_forward(p, _layers(config), x_seq)
    y_before = linear(h_seq, p["out.w"], p["out.b"])
    if config.type == "taco2_ar":
        main, post_caches = _postnet_forward(p, config, y_before)
        before = y_before
    else:
        main, before, post_caches = y_before, None, None
    return main, before, (content, ffn_pre, input_cache, step_caches, h_seq, post_caches)


def backward_teacher_batch(params: ModelParameters, cache, d_main, d_before=None):
    """Parameter gradients for a teacher-forced forward."""
    content, ffn_pre, input_cache, step_caches, h_seq, post_caches = cache
    p, config = params.tensors, params.config
    grads = zero_grads(params)
    dy_before = d_main
    if config.type == "taco2_ar":
        # main branch: identity + postnet residual; aux branch hits y_before directly
        dy_before = d_main + _postnet_backward(p, config, d_main, post_caches, grads)
        if d_before is not None:
            dy_before = dy_before + d_before
    dh_seq = linear_backward(dy_before, h_seq, p["out.w"], grads, "out")
    dx_seq = _recurrent_backward(p, _layers(config), dh_seq, step_caches, grads)
    if config.type == "taco2_ar":
        pre_dim = config.prenet_dims[-1]
        _prenet_backward(p, config, dx_seq[:, :, :pre_dim], input_cache, grads)
    else:
        dffn_pre = dx_seq[:, :, :config.hidden_dim] * (ffn_pre > 0.0)
        linear_backward(dffn_pre, content, p["ffn.w"], grads, "ffn")
    return grads


def free_forward_batch(params: ModelParameters, content, spk, dropout_seed):
    """Batched free-running forward: each step feeds back the previous output."""
    p, config = params.tensors, params.config
    if config.type == "simple":
        # no feedback path: free-running coincides with the teacher forward
        return teacher_forward_batch(params, content, None, spk, dropout_seed)[0]
    layers = _layers(config)
    batch, t_len, _ = content.shape
    rng = np.random.default_rng(dropout_seed)
    context, _ = _context(params, content, spk)
    state = _zero_state(p, layers, batch)
    prev = np.zeros((batch, N_MELS))
    y_before = np.empty((batch, t_len, N_MELS))
    for t in range(t_len):
        x, _ = _decoder_input(params, context[:, t], prev, rng)
        h, state, _ = _recurrent_step(p, layers, x, state)
        prev = linear(h, p["out.w"], p["out.b"])
        y_before[:, t] = prev
    if config.type != "taco2_ar":
        return y_before
    return _postnet_forward(p, config, y_before)[0]


# --- public single-utterance API ------------------------------------------------

def _content_frames(content, input_dim):
    if isinstance(content, FeatureSequence):
        content = content.frames
    frames = np.asarray(content, dtype=np.float64)
    if frames.ndim != 2:
        raise DimensionMismatchError(f"content must be T x D, got shape {frames.shape}")
    if frames.shape[1] != input_dim:
        raise DimensionMismatchError(
            f"content dim {frames.shape[1]} != decoder input_dim {input_dim}"
        )
    return frames


def _target_frames(target):
    frames = target.frames if isinstance(target, MelSpectrogram) else target
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != N_MELS:
        raise DimensionMismatchError(
            f"target must be T x {N_MELS}, got shape {frames.shape}"
        )
    return frames


def _check_embedding(config, embedding):
    if config.speaker_conditioned:
        if embedding is None:
            raise MissingEmbeddingError("speaker-conditioned decoder needs an embedding")
        if isinstance(embedding, SpeakerEmbedding):
            embedding = embedding.vector
        vec = np.asarray(embedding, dtype=np.float64)
        if vec.size != config.embedding_dim:
            raise DimensionMismatchError(
                f"embedding dim {vec.size} != configured {config.embedding_dim}"
            )
        return vec.reshape(1, -1)
    if embedding is not None:
        raise ExtraEmbeddingError(
            "embedding supplied to a decoder that is not speaker-conditioned"
        )
    return None


def shift_frames_right(target_frames: np.ndarray) -> np.ndarray:
    """Previous-frame tensor for teacher forcing: zero vector at t = 0."""
    prev = np.zeros_like(target_frames)
    prev[..., 1:, :] = target_frames[..., :-1, :]
    return prev


def forward_teacher(params: ModelParameters, content, target, embedding=None,
                    dropout_seed: int = 0) -> np.ndarray:
    """Teacher-forced prediction for one utterance; returns (T, 80)."""
    frames = _content_frames(content, params.input_dim)
    tgt = _target_frames(target)
    if frames.shape[0] != tgt.shape[0]:
        raise LengthMismatchError(
            f"content has {frames.shape[0]} frames but target has {tgt.shape[0]}"
        )
    spk = _check_embedding(params.config, embedding)
    prev = shift_frames_right(tgt)[None]
    return teacher_forward_batch(params, frames[None], prev, spk, dropout_seed)[0][0]


def forward_free_running(params: ModelParameters, content, embedding=None,
                         dropout_seed: int = 0) -> np.ndarray:
    """Generate (T, 80) mel frames from content alone; length equals len(content)."""
    frames = _content_frames(content, params.input_dim)
    spk = _check_embedding(params.config, embedding)
    return free_forward_batch(params, frames[None], spk, dropout_seed)[0]
