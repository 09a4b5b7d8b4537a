"""Span tracer for the benchmark's traced run.

Spans carry a name, a start, an end and the index of their parent span.  They
are kept in memory and written out when the run ends.  The tracer wraps the
public functions of each recsynvc module at the name its caller looks them up
(``from .x import y`` copies the binding, so patching only the defining
module would miss those calls).  Nothing is patched unless ``install`` is
called, so an untraced run executes the program's functions unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start, end=0.0, attrs=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions and from explicit ``span`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name, **attrs):
        idx = self._begin(name, attrs or None)
        try:
            yield self.spans[idx]
        finally:
            self._end(idx)

    def _begin(self, name, attrs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter(), attrs=attrs))
        self._open.append(idx)
        return idx

    def _end(self, idx):
        self._open.pop()
        self.spans[idx].end = time.perf_counter()

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` wrapped in a span.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        return dicts of counters attached to the span.
        """
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name, before(*args, **kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if after is not None:
                span = self.spans[idx]
                span.attrs = {**(span.attrs or {}), **after(result, *args, **kwargs)}
            return result

        return traced

    def install(self, patches):
        """Wrap every binding in ``patches``; bindings that do not exist are skipped."""
        for target, attr, name, before, after in patches:
            owner = _resolve(target)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{target}.{attr}")
                continue
            setattr(owner, attr, self.wrap(original, name, before, after))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines: name, parent index, start, end, counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.parent, s.start, s.end, s.attrs]) + "\n")


def _resolve(target):
    """Module ``a.b`` or class ``a.b:Cls`` named by a patch target."""
    module_name, _, cls = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
            if min(spans[c].end, s.end) > max(spans[c].start, s.start)
        )
        out.append(s.duration - covered)
    return out


# --- what is patched -----------------------------------------------------------
#
# Counters are computed from argument shapes.  FLOP counts cover the GEMMs of
# each kernel only (2 FLOPs per multiply-add); elementwise work is not counted.

def _lstm_flops(params, prefix, x, h_prev, c_prev):
    batch, d_in = x.shape
    return {"flop": 2 * batch * (d_in + h_prev.shape[1]) * 4 * c_prev.shape[-1]}


def _lstm_backward_flops(params, prefix, dh, dc, cache, grads):
    x, h_prev = cache[0], cache[1]
    return {"flop": 4 * x.shape[0] * (x.shape[1] + h_prev.shape[1]) * 4 * dh.shape[1]}


def _lstmp_flops(params, prefix, x, r_prev, c_prev):
    batch, d_in = x.shape
    hidden, proj = c_prev.shape[-1], r_prev.shape[1]
    return {"flop": 2 * batch * ((d_in + proj) * 4 * hidden + hidden * proj)}


def _lstmp_backward_flops(params, prefix, dr, dc, cache, grads):
    (x, r_prev, *_), h = cache
    batch, proj = dr.shape
    hidden = h.shape[1]
    return {"flop": 4 * batch * ((x.shape[1] + r_prev.shape[1]) * 4 * hidden + hidden * proj)}


def _conv_flops(x, w, b):
    cout, cin, kernel = w.shape
    return {"flop": 2 * x.shape[0] * x.shape[1] * cin * cout * kernel}


def _conv_backward_flops(dy, xp, w, grads, prefix):
    cout, cin, kernel = w.shape
    return {"flop": 4 * dy.shape[0] * dy.shape[1] * cin * cout * kernel}


def _linear_backward_flops(dy, x, w, grads, prefix):
    rows = dy.size // dy.shape[-1]
    return {"flop": 4 * rows * w.shape[0] * w.shape[1]}


def _n_frames(x):
    return x.frames.shape[0] if hasattr(x, "frames") else len(x)


def _free_running_frames(params, content, *args, **kwargs):
    return {"frames": _n_frames(content)}


def _dtw_cells(a, b):
    return {"cells": _n_frames(a) * _n_frames(b)}


def _mask_frames(params, content, target, mask, *args, **kwargs):
    return {"unmasked": float(mask.sum()), "padded": int(mask.size)}


def _calibration_pairs(table):
    sizes = [len(list(v)) for v in table.values()]
    total = sum(sizes)
    return {"pairs": (total * total - sum(n * n for n in sizes)) // 2
            + sum(n * (n - 1) // 2 for n in sizes)}


def _file_bytes_after(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _file_bytes(path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


R = "recsynvc."
# (module or module:Class, attribute, span name, before, after)
PATCHES = [
    # trainer
    (R + "trainer", "loss_and_grads", "trainer.loss_and_grads", _mask_frames, None),
    (R + "trainer:AdamOptimizer", "step", "trainer.adam_step", None, None),
    (R + "trainer", "clip_grad_norm", "nnops.clip_grad_norm", None, None),
    # synthesizer
    (R + "trainer", "teacher_forward_batch", "synthesizer.teacher_forward", None, None),
    (R + "trainer", "backward_teacher_batch", "synthesizer.teacher_backward", None, None),
    (R + "converter", "forward_free_running", "synthesizer.free_running",
     _free_running_frames, None),
    # nnops, at the synthesizer's bindings
    (R + "synthesizer", "lstm_step", "nnops.lstm_step", _lstm_flops, None),
    (R + "synthesizer", "lstm_step_backward", "nnops.lstm_step_backward",
     _lstm_backward_flops, None),
    (R + "synthesizer", "lstmp_step", "nnops.lstmp_step", _lstmp_flops, None),
    (R + "synthesizer", "lstmp_step_backward", "nnops.lstmp_step_backward",
     _lstmp_backward_flops, None),
    (R + "synthesizer", "conv1d_same", "nnops.conv1d_same", _conv_flops, None),
    (R + "synthesizer", "conv1d_same_backward", "nnops.conv1d_same_backward",
     _conv_backward_flops, None),
    (R + "synthesizer", "linear_backward", "nnops.linear_backward",
     _linear_backward_flops, None),
    # recognizer
    (R + "trainer", "extract_mel", "recognizer.extract_mel", None, None),
    (R + "evaluator", "extract_mel", "recognizer.extract_mel", None, None),
    (R + "recognizer", "extract_mel", "recognizer.extract_mel", None, None),
    (R + "cli", "extract_mel", "recognizer.extract_mel", None, None),
    (R + "trainer", "recognize", "recognizer.recognize", None, None),
    (R + "converter", "recognize", "recognizer.recognize", None, None),
    # converter
    (R + "cli", "convert", "converter.convert", None, None),
    (R + "converter", "load_model", "converter.load_model", None, None),
    (R + "converter", "vocode_native", "converter.vocode_native", None, None),
    (R + "cli", "speaker_encoder_adapter", "converter.speaker_encoder_adapter", None, None),
    # dsp
    (R + "converter", "griffin_lim", "dsp.griffin_lim", None, None),
    (R + "dsp", "istft", "dsp.istft", None, None),
    (R + "dsp", "stft", "dsp.stft", None, None),
    # evaluator
    (R + "cli", "mel_cepstra", "evaluator.mel_cepstra", None, None),
    (R + "cli", "mcd", "evaluator.mcd", None, None),
    (R + "evaluator", "dtw_align", "evaluator.dtw_align", _dtw_cells, None),
    (R + "cli", "wer", "evaluator.wer", None, None),
    (R + "cli", "transcribe_adapter", "evaluator.transcribe_adapter", None, None),
    (R + "evaluator", "calibrate_asv_threshold", "evaluator.calibrate_asv_threshold",
     _calibration_pairs, None),
    (R + "evaluator", "eer_threshold", "evaluator.eer_threshold", None, None),
    # I/O
    (R + "cli", "load_waveform", "audioio.load_waveform", None, None),
    (R + "trainer", "load_waveform", "audioio.load_waveform", None, None),
    (R + "converter", "load_waveform", "audioio.load_waveform", None, None),
    (R + "audioio", "load_waveform", "audioio.load_waveform", None, None),
    (R + "cli", "save_waveform", "audioio.save_waveform", None, None),
    (R + "converter", "save_waveform", "audioio.save_waveform", None, None),
    (R + "audioio", "save_waveform", "audioio.save_waveform", None, None),
    (R + "converter", "read_features", "featureio.read_features", None, None),
    (R + "recognizer", "read_features", "featureio.read_features", None, None),
    (R + "cli", "write_features", "featureio.write_features", None, None),
    (R + "converter", "write_features", "featureio.write_features", None, None),
    (R + "trainer", "save_checkpoint", "checkpoint.save_checkpoint", None, _file_bytes_after),
    (R + "cli", "load_checkpoint", "checkpoint.load_checkpoint", _file_bytes, None),
    (R + "converter", "load_checkpoint", "checkpoint.load_checkpoint", _file_bytes, None),
    # adapter processes, attributed to the adapter span that spawned them
    ("subprocess", "run", "subprocess.run", None, None),
]

# Spans reported with .calls and .s; the cli.* roots are opened by the harness.
ROOT_SPANS = ("cli.train", "cli.convert", "cli.evaluate")
LAYER_SPANS = tuple(dict.fromkeys(name for _, _, name, _, _ in PATCHES))
GFLOP_SPANS = tuple(n for n in LAYER_SPANS
                    if n.startswith("nnops.") and n != "nnops.clip_grad_norm")
SPAWNING_SPANS = ("converter.speaker_encoder_adapter", "evaluator.transcribe_adapter")


def per_layer_metrics(spans, n_passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``, averaged per traced pass.

    ``.s`` is self time, except on the ``cli.*`` roots, where ``.s`` is the
    command's whole duration and ``.unattributed_s`` its self time.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    spawns = defaultdict(int)
    for s, own in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += own
        total_s[s.name] += s.duration
        for key, value in (s.attrs or {}).items():
            attrs[s.name][key] += value
        if s.name == "subprocess.run" and s.parent is not None:
            spawns[spans[s.parent].name] += 1

    def per_pass(x):
        return x / n_passes

    out: dict[str, tuple[float, str]] = {}
    for name in ROOT_SPANS:
        out[f"{name}.calls"] = (per_pass(calls[name]), "count")
        out[f"{name}.s"] = (per_pass(total_s[name]), "s")
        out[f"{name}.unattributed_s"] = (per_pass(self_s[name]), "s")
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = (per_pass(calls[name]), "count")
        out[f"{name}.s"] = (per_pass(self_s[name]), "s")
    for name in GFLOP_SPANS:
        gflop = attrs[name]["flop"] / 1e9
        out[f"{name}.gflop"] = (per_pass(gflop), "GFLOP")
        out[f"{name}.gflop_per_s"] = (_ratio(gflop, total_s[name]), "GFLOP/s")

    # trainer.prepare: from each train command's start to its first step
    first_step = {}
    for s in spans:
        if s.name == "trainer.loss_and_grads":
            root = _root_of(spans, s)
            if root is not None and root not in first_step:
                first_step[root] = s.start - spans[root].start
    out["trainer.prepare.s"] = (per_pass(sum(first_step.values())), "s")
    lg = attrs["trainer.loss_and_grads"]
    out["trainer.pad_ratio"] = (_ratio(lg["unmasked"], lg["padded"]), "ratio")

    fr = "synthesizer.free_running"
    out[f"{fr}.frames"] = (per_pass(attrs[fr]["frames"]), "count")
    out[f"{fr}.ms_per_frame"] = (_ratio(1e3 * total_s[fr], attrs[fr]["frames"]), "ms")

    dtw = "evaluator.dtw_align"
    out[f"{dtw}.cells"] = (per_pass(attrs[dtw]["cells"]), "count")
    out[f"{dtw}.ns_per_cell"] = (_ratio(1e9 * total_s[dtw], attrs[dtw]["cells"]), "ns")

    cal = "evaluator.calibrate_asv_threshold"
    out[f"{cal}.pairs"] = (per_pass(attrs[cal]["pairs"]), "count")

    for name in SPAWNING_SPANS:
        out[f"{name}.spawns"] = (per_pass(spawns[name]), "count")
    enc = "converter.speaker_encoder_adapter"
    out[f"{enc}.cache_hit_ratio"] = (_ratio(calls[enc] - spawns[enc], calls[enc]), "ratio")

    for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        out[f"{name}.bytes"] = (per_pass(attrs[name]["bytes"]), "B")
    return out


def _root_of(spans, span):
    idx = span.parent
    while idx is not None and spans[idx].parent is not None:
        idx = spans[idx].parent
    return idx


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_names() -> list[str]:
    """Names ``per_layer_metrics`` emits, plus the traced run's own overhead metrics."""
    names = list(per_layer_metrics([], 1))
    return names + ["trace.overhead_s", "trace.spans"]

