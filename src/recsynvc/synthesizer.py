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

from dataclasses import asdict, dataclass, field

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


def decoder_from_meta(meta: dict) -> tuple[ModelConfig, int]:
    """Inverse of ``decoder_meta``."""
    kwargs = dict(meta)
    input_dim = int(kwargs.pop("input_dim"))
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
# All internals take content (B, T, Din), optional prev (B, T, 80) and
# spk (B, E), run in float64, and return batch-first outputs.  ``cache``
# objects are consumed by the matching ``backward_teacher_batch``.


def _prenet_forward(p, config, prev, rng):
    """Batched prenet over a whole (B, T, 80) tensor of previous frames."""
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
        if i < n_layers:
            a = np.tanh(y)
        else:
            a = y
        caches.append((xp, a if i < n_layers else None))
        x = a
    return y_before + x, caches


def _postnet_backward(p, config, d_residual, caches, grads):
    n_layers = config.postnet_layers
    dx = d_residual
    for i in range(n_layers, 0, -1):
        xp, act = caches[i - 1]
        dy = dx if act is None else dx * (1.0 - act * act)
        dx = conv1d_same_backward(dy, xp, p[f"postnet{i}.w"], grads, f"postnet{i}")
    return dx


def _simple_forward_batch(params, content, prev, dropout_seed):
    """Shared teacher-mode forward for ``simple`` and ``simple_ar``."""
    p = params.tensors
    config = params.config
    batch, t_len, _ = content.shape
    proj = config.lstmp_proj_dim

    ffn_pre = linear(content, p["ffn.w"], p["ffn.b"])
    ffn_out = np.maximum(ffn_pre, 0.0)

    if config.type == "simple_ar":
        rng = np.random.default_rng(dropout_seed)
        mask = dropout_mask(rng, prev.shape, config.ar_dropout)
        x_seq = np.concatenate([ffn_out, prev * mask], axis=2)
    else:
        mask = None
        x_seq = ffn_out

    r1 = np.zeros((batch, proj))
    c1 = np.zeros((batch, config.hidden_dim))
    r2 = np.zeros((batch, proj))
    c2 = np.zeros((batch, config.hidden_dim))
    caches1, caches2 = [], []
    r2_seq = np.empty((batch, t_len, proj))
    for t in range(t_len):
        r1, c1, cache1 = lstmp_step(p, "lstmp1", x_seq[:, t], r1, c1)
        r2, c2, cache2 = lstmp_step(p, "lstmp2", r1, r2, c2)
        caches1.append(cache1)
        caches2.append(cache2)
        r2_seq[:, t] = r2
    y = linear(r2_seq, p["out.w"], p["out.b"])
    cache = ("simple", content, ffn_pre, mask, prev, x_seq, caches1, caches2, r2_seq)
    return y, None, cache


def _simple_backward_batch(params, cache, d_main, grads):
    _, content, ffn_pre, mask, prev, x_seq, caches1, caches2, r2_seq = cache
    p = params.tensors
    config = params.config
    batch, t_len, _ = content.shape
    hidden = config.hidden_dim
    proj = config.lstmp_proj_dim

    dr2_seq = linear_backward(d_main, r2_seq, p["out.w"], grads, "out")
    dr1_next = np.zeros((batch, proj))
    dc1 = np.zeros((batch, hidden))
    dr2_next = np.zeros((batch, proj))
    dc2 = np.zeros((batch, hidden))
    dx_seq = np.empty_like(x_seq)
    for t in range(t_len - 1, -1, -1):
        dr2 = dr2_seq[:, t] + dr2_next
        dr1_in, dr2_next, dc2 = lstmp_step_backward(p, "lstmp2", dr2, dc2, caches2[t], grads)
        dr1 = dr1_in + dr1_next
        dx, dr1_next, dc1 = lstmp_step_backward(p, "lstmp1", dr1, dc1, caches1[t], grads)
        dx_seq[:, t] = dx
    dffn_out = dx_seq[:, :, :hidden] if config.type == "simple_ar" else dx_seq
    dffn_pre = dffn_out * (ffn_pre > 0.0)
    linear_backward(dffn_pre, content, p["ffn.w"], grads, "ffn")


def _simple_free_batch(params, content, dropout_seed):
    p = params.tensors
    config = params.config
    batch, t_len, _ = content.shape
    proj = config.lstmp_proj_dim
    hidden = config.hidden_dim

    ffn_out = np.maximum(linear(content, p["ffn.w"], p["ffn.b"]), 0.0)
    if config.type == "simple":
        # no feedback path: free-running coincides with the teacher forward
        r1 = np.zeros((batch, proj))
        c1 = np.zeros((batch, hidden))
        r2 = np.zeros((batch, proj))
        c2 = np.zeros((batch, hidden))
        r2_seq = np.empty((batch, t_len, proj))
        for t in range(t_len):
            r1, c1, _ = lstmp_step(p, "lstmp1", ffn_out[:, t], r1, c1)
            r2, c2, _ = lstmp_step(p, "lstmp2", r1, r2, c2)
            r2_seq[:, t] = r2
        return linear(r2_seq, p["out.w"], p["out.b"])

    rng = np.random.default_rng(dropout_seed)
    r1 = np.zeros((batch, proj))
    c1 = np.zeros((batch, hidden))
    r2 = np.zeros((batch, proj))
    c2 = np.zeros((batch, hidden))
    prev = np.zeros((batch, N_MELS))
    out = np.empty((batch, t_len, N_MELS))
    for t in range(t_len):
        m = dropout_mask(rng, prev.shape, config.ar_dropout)
        x = np.concatenate([ffn_out[:, t], prev * m], axis=1)
        r1, c1, _ = lstmp_step(p, "lstmp1", x, r1, c1)
        r2, c2, _ = lstmp_step(p, "lstmp2", r1, r2, c2)
        prev = linear(r2, p["out.w"], p["out.b"])
        out[:, t] = prev
    return out


def _taco2_forward_batch(params, content, prev, spk, dropout_seed):
    p = params.tensors
    config = params.config
    batch, t_len, _ = content.shape
    hidden = config.hidden_dim

    rng = np.random.default_rng(dropout_seed)
    pre_out, pre_cache = _prenet_forward(p, config, prev, rng)
    if config.speaker_conditioned:
        spk_tiled = np.broadcast_to(spk[:, None, :], (batch, t_len, spk.shape[1]))
        dec_in = np.concatenate([pre_out, content, spk_tiled], axis=2)
    else:
        dec_in = np.concatenate([pre_out, content], axis=2)

    h1 = np.zeros((batch, hidden))
    c1 = np.zeros((batch, hidden))
    h2 = np.zeros((batch, hidden))
    c2 = np.zeros((batch, hidden))
    caches1, caches2 = [], []
    h2_seq = np.empty((batch, t_len, hidden))
    for t in range(t_len):
        h1, c1, cache1 = lstm_step(p, "lstm1", dec_in[:, t], h1, c1)
        h2, c2, cache2 = lstm_step(p, "lstm2", h1, h2, c2)
        caches1.append(cache1)
        caches2.append(cache2)
        h2_seq[:, t] = h2
    y_before = linear(h2_seq, p["out.w"], p["out.b"])
    y_after, post_caches = _postnet_forward(p, config, y_before)
    cache = ("taco2", pre_cache, caches1, caches2, h2_seq, post_caches)
    return y_after, y_before, cache


def _taco2_backward_batch(params, cache, d_main, d_before, grads):
    _, pre_cache, caches1, caches2, h2_seq, post_caches = cache
    p = params.tensors
    config = params.config
    batch = h2_seq.shape[0]
    t_len = h2_seq.shape[1]
    hidden = config.hidden_dim
    pre_dim = config.prenet_dims[-1]

    # main branch: identity + postnet residual; aux branch hits y_before directly
    dy_before = d_main + _postnet_backward(p, config, d_main, post_caches, grads)
    if d_before is not None:
        dy_before = dy_before + d_before
    dh2_seq = linear_backward(dy_before, h2_seq, p["out.w"], grads, "out")

    dh1_next = np.zeros((batch, hidden))
    dc1 = np.zeros((batch, hidden))
    dh2_next = np.zeros((batch, hidden))
    dc2 = np.zeros((batch, hidden))
    ddec_in = np.empty((batch, t_len, p["lstm1.wx"].shape[1]))
    for t in range(t_len - 1, -1, -1):
        dh2 = dh2_seq[:, t] + dh2_next
        dh1_in, dh2_next, dc2 = lstm_step_backward(p, "lstm2", dh2, dc2, caches2[t], grads)
        dh1 = dh1_in + dh1_next
        dx, dh1_next, dc1 = lstm_step_backward(p, "lstm1", dh1, dc1, caches1[t], grads)
        ddec_in[:, t] = dx
    _prenet_backward(p, config, ddec_in[:, :, :pre_dim], pre_cache, grads)


def _taco2_free_batch(params, content, spk, dropout_seed):
    p = params.tensors
    config = params.config
    batch, t_len, _ = content.shape
    hidden = config.hidden_dim

    rng = np.random.default_rng(dropout_seed)
    h1 = np.zeros((batch, hidden))
    c1 = np.zeros((batch, hidden))
    h2 = np.zeros((batch, hidden))
    c2 = np.zeros((batch, hidden))
    prev = np.zeros((batch, N_MELS))
    y_before = np.empty((batch, t_len, N_MELS))
    for t in range(t_len):
        x = prev
        for i in range(len(config.prenet_dims)):
            a = np.maximum(linear(x, p[f"prenet{i + 1}.w"], p[f"prenet{i + 1}.b"]), 0.0)
            x = a * dropout_mask(rng, a.shape, config.ar_dropout)
        parts = [x, content[:, t]]
        if config.speaker_conditioned:
            parts.append(spk)
        dec_in = np.concatenate(parts, axis=1)
        h1, c1, _ = lstm_step(p, "lstm1", dec_in, h1, c1)
        h2, c2, _ = lstm_step(p, "lstm2", h1, h2, c2)
        prev = linear(h2, p["out.w"], p["out.b"])
        y_before[:, t] = prev
    y_after, _ = _postnet_forward(p, config, y_before)
    return y_after


def teacher_forward_batch(params: ModelParameters, content, prev, spk, dropout_seed):
    """Batched teacher-forced forward.

    Returns ``(main, before, cache)`` where ``before`` is the pre-postnet
    prediction (None for models without a postnet).
    """
    if params.config.type == "taco2_ar":
        return _taco2_forward_batch(params, content, prev, spk, dropout_seed)
    return _simple_forward_batch(params, content, prev, dropout_seed)


def backward_teacher_batch(params: ModelParameters, cache, d_main, d_before=None):
    """Parameter gradients for a teacher-forced forward."""
    grads = zero_grads(params)
    if cache[0] == "taco2":
        _taco2_backward_batch(params, cache, d_main, d_before, grads)
    else:
        _simple_backward_batch(params, cache, d_main, grads)
    return grads


def free_forward_batch(params: ModelParameters, content, spk, dropout_seed):
    if params.config.type == "taco2_ar":
        return _taco2_free_batch(params, content, spk, dropout_seed)
    return _simple_free_batch(params, content, dropout_seed)


# --- public single-utterance API ------------------------------------------------

def _content_frames(content, input_dim):
    if isinstance(content, FeatureSequence):
        frames = np.asarray(content.frames, dtype=np.float64)
    else:
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
            raise MissingEmbeddingError(
                "speaker-conditioned decoder needs an embedding"
            )
        vec = embedding.vector if isinstance(embedding, SpeakerEmbedding) else np.asarray(embedding, dtype=np.float64)
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
    config = params.config
    frames = _content_frames(content, params.input_dim)
    tgt = _target_frames(target)
    if frames.shape[0] != tgt.shape[0]:
        raise LengthMismatchError(
            f"content has {frames.shape[0]} frames but target has {tgt.shape[0]}"
        )
    spk = _check_embedding(config, embedding)
    prev = shift_frames_right(tgt)[None]
    main, _, _ = teacher_forward_batch(
        params, frames[None], prev, spk, dropout_seed
    )
    return main[0]


def forward_free_running(params: ModelParameters, content, embedding=None,
                         dropout_seed: int = 0) -> np.ndarray:
    """Generate (T, 80) mel frames from content alone; length equals len(content)."""
    config = params.config
    frames = _content_frames(content, params.input_dim)
    spk = _check_embedding(config, embedding)
    return free_forward_batch(params, frames[None], spk, dropout_seed)[0]
