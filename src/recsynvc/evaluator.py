"""Objective metric suite: DTW-aligned mel cepstral distortion, word error
rate, speaker-verification accept rate, and pairwise Pearson correlations.

Cepstra come from an orthonormal cosine transform of the 80-bin log-mel
frame; the power term c_0 is computed but excluded from distances.  DTW uses
squared Euclidean cost with steps {(1,0), (0,1), (1,1)} and ties broken in
favor of (1,1) then (1,0) so paths are unique and reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft

from .config import AudioConfig, default_config
from .converter import run_adapter
from .errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyInputError,
    InsufficientRowsError,
    LengthMismatchError,
    MissingFieldError,
    VoiceConversionError,
)
from .recognizer import extract_mel
from .types import FeatureSequence, Waveform

# (10 / ln 10) * sqrt(2): converts the mean cepstral L2 distance to decibels
MCD_CONSTANT = (10.0 / np.log(10.0)) * np.sqrt(2.0)

METRIC_LABELS = ("MCD", "WER", "ASV", "NAT", "SIM")


# --- cepstra ----------------------------------------------------------------------

def mel_cepstra(wave: Waveform, order: int = 24,
                audio: AudioConfig | None = None) -> FeatureSequence:
    """Per-frame cepstra c_1..c_order of the log-mel spectrogram.

    The DC term c_0 is dropped, so a constant spectrum (silence at the log
    floor) yields all-zero rows.
    """
    if audio is None:
        audio = default_config().audio
    mel = extract_mel(wave, audio)
    cepstra = scipy.fft.dct(mel.frames, type=2, norm="ortho", axis=1)
    return FeatureSequence(
        cepstra[:, 1:order + 1].astype(np.float32),
        audio.frame_shift_ms,
        source_name="cepstra",
    )


def _frames_of(x) -> np.ndarray:
    frames = x.frames if isinstance(x, FeatureSequence) else np.asarray(x)
    return np.asarray(frames, dtype=np.float64)


# --- alignment --------------------------------------------------------------------

def dtw_align(a, b) -> list[tuple[int, int]]:
    """Minimum-cost monotone alignment path from (0, 0) to (Ta-1, Tb-1).

    Cost is squared Euclidean per pair; allowed steps advance a, b, or both.
    """
    fa, fb = _frames_of(a), _frames_of(b)
    if fa.size == 0 or fb.size == 0:
        raise EmptyInputError("cannot align empty sequences")
    if fa.shape[1] != fb.shape[1]:
        raise DimensionMismatchError(
            f"sequence dims disagree: {fa.shape[1]} vs {fb.shape[1]}"
        )
    ta, tb = fa.shape[0], fb.shape[0]
    # pairwise squared Euclidean costs
    cost = (
        (fa * fa).sum(axis=1)[:, None]
        + (fb * fb).sum(axis=1)[None, :]
        - 2.0 * (fa @ fb.T)
    )
    np.maximum(cost, 0.0, out=cost)

    dist = np.empty((ta, tb))
    # predecessor codes: 0 = (1,1) diagonal, 1 = (1,0) advance a, 2 = (0,1) advance b
    move = np.zeros((ta, tb), dtype=np.uint8)
    dist[0, 0] = cost[0, 0]
    for j in range(1, tb):
        dist[0, j] = dist[0, j - 1] + cost[0, j]
        move[0, j] = 2
    for i in range(1, ta):
        dist[i, 0] = dist[i - 1, 0] + cost[i, 0]
        move[i, 0] = 1
        row = dist[i]
        above = dist[i - 1]
        crow = cost[i]
        mrow = move[i]
        for j in range(1, tb):
            best = above[j - 1]
            code = 0
            if above[j] < best:
                best = above[j]
                code = 1
            if row[j - 1] < best:
                best = row[j - 1]
                code = 2
            row[j] = best + crow[j]
            mrow[j] = code

    path = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while (i, j) != (0, 0):
        code = move[i, j]
        if code == 0:
            i, j = i - 1, j - 1
        elif code == 1:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return path


def path_cost(a, b, path) -> float:
    fa, fb = _frames_of(a), _frames_of(b)
    total = 0.0
    for i, j in path:
        diff = fa[i] - fb[j]
        total += float(diff @ diff)
    return total


# --- metrics ---------------------------------------------------------------------

def mcd(ref_cepstra, conv_cepstra) -> float:
    """Mel cepstral distortion in dB over the DTW-aligned pair."""
    ref, conv = _frames_of(ref_cepstra), _frames_of(conv_cepstra)
    if ref.size == 0 or conv.size == 0:
        raise EmptyInputError("cannot score empty cepstra")
    if ref.shape[1] != conv.shape[1]:
        raise DimensionMismatchError(
            f"cepstral dims disagree: {ref.shape[1]} vs {conv.shape[1]}"
        )
    path = dtw_align(ref, conv)
    dists = [float(np.linalg.norm(ref[i] - conv[j])) for i, j in path]
    return float(MCD_CONSTANT * np.mean(dists))


_PUNCT = re.compile(r"[^\w\s']", flags=re.UNICODE)


def normalize_text(text: str) -> list[str]:
    """Uppercase, strip punctuation except apostrophes, split on whitespace."""
    cleaned = _PUNCT.sub(" ", text.upper()).replace("_", " ")
    return cleaned.split()


def wer(ref_tokens, hyp_tokens) -> float:
    """100 x minimal edit distance / reference length."""
    ref = list(ref_tokens)
    hyp = list(hyp_tokens)
    if not ref:
        raise EmptyInputError("reference token list is empty")
    n, m = len(ref), len(hyp)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ref[i - 1] != hyp[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return 100.0 * prev[m] / n


def transcribe_adapter(wave_or_path, command) -> list[str]:
    """Run an external ASR process; returns normalized tokens from stdout."""
    import tempfile

    from .audioio import save_waveform

    with tempfile.TemporaryDirectory(prefix="asr_") as tmp:
        if isinstance(wave_or_path, Waveform):
            wav_path = Path(tmp) / "input.wav"
            save_waveform(wav_path, wave_or_path)
        else:
            wav_path = Path(wave_or_path)
        stdout, _ = run_adapter(command, [wav_path])
        return normalize_text(stdout)


def cosine_similarity(a, b) -> float:
    va = a.vector if hasattr(a, "vector") else np.asarray(a, dtype=np.float64)
    vb = b.vector if hasattr(b, "vector") else np.asarray(b, dtype=np.float64)
    denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
    if denom == 0.0:
        raise EmptyInputError("zero-norm embedding in trial pair")
    return float(np.dot(va, vb) / denom)


def asv_accept_rate(trials, threshold: float) -> float:
    """Percent of (converted, target) pairs with cosine similarity >= threshold."""
    trials = list(trials)
    if not trials:
        raise EmptyInputError("no verification trials")
    accepted = sum(1 for conv, tgt in trials
                   if cosine_similarity(conv, tgt) >= threshold)
    return 100.0 * accepted / len(trials)


def calibrate_asv_threshold(embeddings_by_speaker) -> float:
    """EER threshold from a multi-speaker embedding table.

    Genuine scores are all within-speaker cosine pairs, impostor scores all
    cross-speaker pairs.
    """
    speakers = sorted(embeddings_by_speaker)
    if len(speakers) < 2:
        raise EmptyInputError("threshold calibration needs >= 2 speakers")
    genuine, impostor = [], []
    for si, spk_a in enumerate(speakers):
        group_a = list(embeddings_by_speaker[spk_a])
        for i in range(len(group_a)):
            for j in range(i + 1, len(group_a)):
                genuine.append(cosine_similarity(group_a[i], group_a[j]))
        for spk_b in speakers[si + 1:]:
            for ea in group_a:
                for eb in embeddings_by_speaker[spk_b]:
                    impostor.append(cosine_similarity(ea, eb))
    return eer_threshold(genuine, impostor)


def eer_threshold(genuine_scores, impostor_scores) -> float:
    """Equal-error-rate threshold over genuine and impostor score sets."""
    genuine = np.asarray(sorted(genuine_scores), dtype=np.float64)
    impostor = np.asarray(sorted(impostor_scores), dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise EmptyInputError("need both genuine and impostor scores")
    candidates = np.unique(np.concatenate([genuine, impostor]))
    frr = np.searchsorted(genuine, candidates, "left") / genuine.size
    far = (impostor.size - np.searchsorted(impostor, candidates, "left")) / impostor.size
    return float(candidates[np.argmin(np.abs(far - frr))])


# --- correlation analysis ----------------------------------------------------------

def pearson(xs, ys) -> float:
    """Sample linear correlation coefficient."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatchError(f"lengths disagree: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise InsufficientRowsError("need at least 2 points for a correlation")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt((xc * xc).sum() * (yc * yc).sum()))
    if denom == 0.0:
        raise DegenerateVarianceError("an input has zero variance")
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


@dataclass(frozen=True)
class MetricsRow:
    """One system's scores; subjective columns are optional."""

    system: str
    mcd: float
    wer: float
    asv: float
    naturalness: float | None = None
    similarity: float | None = None

    def __post_init__(self):
        for key in ("mcd", "wer", "asv"):
            if getattr(self, key) is None:
                raise VoiceConversionError(f"metrics row {self.system!r} lacks {key}")
        if self.mcd < 0 or self.wer < 0:
            raise VoiceConversionError("mcd and wer must be non-negative")
        if not 0.0 <= self.asv <= 100.0:
            raise VoiceConversionError(f"asv must be a percentage, got {self.asv}")
        if self.naturalness is not None and not 1.0 <= self.naturalness <= 5.0:
            raise VoiceConversionError(
                f"naturalness must be a 1..5 score, got {self.naturalness}"
            )
        if self.similarity is not None and not 0.0 <= self.similarity <= 100.0:
            raise VoiceConversionError(
                f"similarity must be a percentage, got {self.similarity}"
            )


@dataclass(frozen=True)
class CorrelationResult:
    labels: tuple[str, ...]
    matrix: np.ndarray

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [[round(v, 6) for v in row] for row in self.matrix.tolist()],
        }


def correlation_matrix(rows) -> CorrelationResult:
    """Pairwise Pearson correlations over the five metric columns."""
    rows = list(rows)
    if len(rows) < 3:
        raise InsufficientRowsError(
            f"need at least 3 rows for a correlation matrix, got {len(rows)}"
        )
    for idx, row in enumerate(rows, start=1):
        if row.naturalness is None:
            raise MissingFieldError("naturalness", idx)
        if row.similarity is None:
            raise MissingFieldError("similarity", idx)
    columns = {
        "MCD": np.array([r.mcd for r in rows]),
        "WER": np.array([r.wer for r in rows]),
        "ASV": np.array([r.asv for r in rows]),
        "NAT": np.array([r.naturalness for r in rows]),
        "SIM": np.array([r.similarity for r in rows]),
    }
    for label, col in columns.items():
        if float(col.std()) == 0.0:
            raise DegenerateVarianceError(f"column {label} has zero variance")
    n = len(METRIC_LABELS)
    matrix = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            r = pearson(columns[METRIC_LABELS[i]], columns[METRIC_LABELS[j]])
            matrix[i, j] = matrix[j, i] = r
    return CorrelationResult(labels=METRIC_LABELS, matrix=matrix)


# --- metrics table I/O -----------------------------------------------------------

_TABLE_COLUMNS = ("system", "mcd", "wer", "asv", "naturalness", "similarity")


def read_metrics_table(path) -> list[MetricsRow]:
    """Read a tab-separated metrics table; blank and # lines are skipped."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header: list[str] | None = None
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if header is None:
                header = [p.strip().lower() for p in parts]
                unknown = set(header) - set(_TABLE_COLUMNS)
                if unknown:
                    raise MissingFieldError(
                        f"unknown column(s) {sorted(unknown)}", line_no
                    )
                continue
            values = dict(zip(header, (p.strip() for p in parts)))
            if "system" not in values:
                raise MissingFieldError("system", line_no)

            def _num(key, line_no=line_no, values=values):
                raw = values.get(key, "")
                if raw in ("", "-", "na", "NA"):
                    return None
                try:
                    return float(raw)
                except ValueError:
                    raise MissingFieldError(key, line_no)

            rows.append(MetricsRow(
                system=values["system"],
                mcd=_num("mcd"), wer=_num("wer"), asv=_num("asv"),
                naturalness=_num("naturalness"), similarity=_num("similarity"),
            ))
    return rows


def write_metrics_table(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_TABLE_COLUMNS) + "\n")
        for r in rows:
            cells = [r.system]
            for key in _TABLE_COLUMNS[1:]:
                value = getattr(r, key)
                cells.append("-" if value is None else f"{value:.6g}")
            fh.write("\t".join(cells) + "\n")
