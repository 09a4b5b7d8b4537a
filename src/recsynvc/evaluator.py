"""Per-utterance objective scoring: DTW-aligned mel cepstral distortion, word
error rate, and speaker-verification accept rate with its EER threshold.

Cepstra come from an orthonormal cosine transform of the 80-bin log-mel
frame; the power term c_0 is computed but excluded from distances.  DTW uses
squared Euclidean cost with steps {(1,0), (0,1), (1,1)} and ties broken in
favor of (1,1) then (1,0) so paths are unique and reproducible.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .config import AudioConfig
from .converter import run_adapter
from .errors import VoiceConversionError
from .recognizer import extract_mel
from .types import FeatureSequence, SpeakerEmbedding, Waveform, embedding_rows

# (10 / ln 10) * sqrt(2): converts the mean cepstral L2 distance to decibels
MCD_CONSTANT = (10.0 / np.log(10.0)) * np.sqrt(2.0)

#: Largest Ta x Tb grid ``dtw_align`` accepts: it holds 17 bytes per cell
#: (float64 cost and distance, uint8 move), so 25 M cells, a 50 s x 50 s pair
#: at 10 ms frames, take about 425 MB.
MAX_DTW_CELLS = 25_000_000


# --- cepstra ----------------------------------------------------------------------

@lru_cache(maxsize=16)
def _dct_basis(n: int) -> np.ndarray:
    """Rows 1..n-1 of the orthonormal DCT-II matrix of size n, shape (n - 1, n).

    Built once per size; the cached array is read-only.
    """
    k = np.arange(1, n)[:, None]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    basis.flags.writeable = False
    return basis


def mel_cepstra(wave: Waveform, order: int, audio: AudioConfig) -> FeatureSequence:
    """Per-frame cepstra c_1..c_order of the log-mel spectrogram, as float32.

    They are the orthonormal DCT-II of each log-mel frame, taken as one
    product with a cached basis.  The DC term c_0 is left out.  A constant
    added to a frame moves only c_0, so each frame's first bin is subtracted
    first; a constant spectrum (silence at the log floor) then yields exactly
    zero rows.
    """
    frames = extract_mel(wave, audio).frames
    frames = frames - frames[:, :1]
    cepstra = frames @ _dct_basis(frames.shape[1]).T
    return FeatureSequence(cepstra[:, :order].astype(np.float32), audio.frame_shift_ms)


def _frames_of(x) -> np.ndarray:
    frames = x.frames if isinstance(x, FeatureSequence) else np.asarray(x)
    return np.asarray(frames, dtype=np.float64)


# --- alignment --------------------------------------------------------------------

def dtw_align(a, b) -> list[tuple[int, int]]:
    """Minimum-cost monotone alignment path from (0, 0) to (Ta-1, Tb-1).

    Cost is squared Euclidean per pair; allowed steps advance a, b, or both.
    A pair of more than ``MAX_DTW_CELLS`` frame pairs raises
    ``VoiceConversionError`` before the grid is allocated.
    """
    fa, fb = _frames_of(a), _frames_of(b)
    if fa.size == 0 or fb.size == 0:
        raise VoiceConversionError("cannot align empty sequences")
    if fa.shape[1] != fb.shape[1]:
        raise VoiceConversionError(f"sequence dims disagree: {fa.shape[1]} vs {fb.shape[1]}")
    ta, tb = fa.shape[0], fb.shape[0]
    if ta * tb > MAX_DTW_CELLS:
        raise VoiceConversionError(f"cannot align {ta} x {tb} frames: DTW is capped at "
                                   f"{MAX_DTW_CELLS} cells")
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
    dist[0] = np.cumsum(cost[0])
    dist[:, 0] = np.cumsum(cost[:, 0])
    move[0, 1:] = 2
    move[1:, 0] = 1
    # Sweep the interior by anti-diagonals d = i + j: every cell of one depends
    # only on the two before it.  In the flat arrays the cells (i, d - i) of a
    # diagonal sit at d + i * (tb - 1), one strided slice per diagonal.
    flat_dist, flat_cost, flat_move = dist.ravel(), cost.ravel(), move.ravel()
    step = tb - 1

    def cells(d, lo, hi):
        return slice(d + lo * step, d + hi * step + 1, step)

    for d in range(2, ta + tb - 1) if ta > 1 and tb > 1 else ():
        lo, hi = max(1, d - step), min(ta - 1, d - 1)
        # ties keep the diagonal, then up: the first strictly smaller candidate wins
        best = flat_dist[cells(d - 2, lo - 1, hi - 1)]
        above = flat_dist[cells(d - 1, lo - 1, hi - 1)]
        left = flat_dist[cells(d - 1, lo, hi)]
        take_above = above < best
        best = np.where(take_above, above, best)
        take_left = left < best
        best = np.where(take_left, left, best)
        here = cells(d, lo, hi)
        flat_dist[here] = best + flat_cost[here]
        flat_move[here] = np.where(take_left, 2, take_above)

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


# --- metrics ---------------------------------------------------------------------

def mcd(ref_cepstra, conv_cepstra) -> float:
    """Mel cepstral distortion in dB over the DTW-aligned pair.

    Empty or differently wide cepstra raise ``dtw_align``'s errors.
    """
    ref, conv = _frames_of(ref_cepstra), _frames_of(conv_cepstra)
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
        raise VoiceConversionError("reference token list is empty")
    n, m = len(ref), len(hyp)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ref[i - 1] != hyp[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return 100.0 * prev[m] / n


def transcribe_adapter(wav_path, command) -> list[str]:
    """Run an external ASR process on a wav file; returns normalized tokens from stdout."""
    stdout, _ = run_adapter(command, [wav_path])
    return normalize_text(stdout)


def cosine_similarity(a: SpeakerEmbedding, b: SpeakerEmbedding) -> float:
    """Cosine of two unit embeddings, their dot product; ``embedding_rows`` checks widths."""
    va, vb = embedding_rows([a, b])
    return float(va @ vb)


def asv_accept_rate(converted, target: SpeakerEmbedding, threshold: float) -> float:
    """Percent of converted embeddings whose cosine with ``target`` is >= threshold."""
    rows = embedding_rows([*converted, target])
    scores = rows[:-1] @ rows[-1]
    if not scores.size:
        raise VoiceConversionError("no verification trials")
    return float(100.0 * np.count_nonzero(scores >= threshold) / len(scores))


def calibrate_asv_threshold(embeddings_by_speaker) -> float:
    """EER threshold from a multi-speaker embedding table.

    Genuine scores are all within-speaker cosine pairs, impostor scores all
    cross-speaker pairs, read off one Gram matrix of the embeddings.
    """
    speakers = sorted(embeddings_by_speaker)
    if len(speakers) < 2:
        raise VoiceConversionError("threshold calibration needs >= 2 speakers")
    groups = [list(embeddings_by_speaker[spk]) for spk in speakers]
    embeddings = [e for group in groups for e in group]
    if not embeddings:
        raise VoiceConversionError("threshold calibration needs embeddings")
    rows = embedding_rows(embeddings)
    speaker = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    i, j = np.triu_indices(len(embeddings), k=1)
    scores = (rows @ rows.T)[i, j]
    same = speaker[i] == speaker[j]
    return eer_threshold(scores[same], scores[~same])


def eer_threshold(genuine_scores, impostor_scores) -> float:
    """Equal-error-rate threshold over genuine and impostor score sets."""
    genuine = np.asarray(sorted(genuine_scores), dtype=np.float64)
    impostor = np.asarray(sorted(impostor_scores), dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise VoiceConversionError("need both genuine and impostor scores")
    candidates = np.unique(np.concatenate([genuine, impostor]))
    frr = np.searchsorted(genuine, candidates, "left") / genuine.size
    far = (impostor.size - np.searchsorted(impostor, candidates, "left")) / impostor.size
    return float(candidates[np.argmin(np.abs(far - frr))])
