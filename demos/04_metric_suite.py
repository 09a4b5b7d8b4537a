"""
Objective metric suite
======================

Walks through the three objective metrics (MCD, WER, ASV accept rate) on
small worked examples with known answers, plus the DTW alignment and EER
threshold calibration underneath them.
"""

import numpy as np

from recsynvc.config import Config
from recsynvc.evaluator import (
    MCD_CONSTANT,
    asv_accept_rate,
    calibrate_asv_threshold,
    cosine_similarity,
    dtw_align,
    mcd,
    mel_cepstra,
    normalize_text,
    wer,
)
from recsynvc.synthetic import make_utterance
from recsynvc.types import SpeakerEmbedding

# --- mel cepstral distortion -------------------------------------------------

# cepstra are the orthonormal DCT of the log-mel frames with the DC term
# dropped, so overall gain does not affect the score
# the order (24) and the analysis settings come from the default config
config = Config()
wave, _ = make_utterance([4, 0], 0, duration=0.6)
ceps = mel_cepstra(wave, config.evaluation.mcd_order, config.audio)
print(f"cepstra: {ceps.frames.shape[0]} frames x {ceps.frames.shape[1]} "
      "coefficients (c1..c24)")

print(f"mcd(x, x) = {mcd(ceps, ceps):.4f} dB")

# shifting one coefficient by 1.0 everywhere gives the dB constant exactly
offset = ceps.frames.astype(np.float64)
offset[:, 2] += 1.0
print(f"mcd(x, x + unit offset) = {mcd(ceps.frames, offset):.6f} dB "
      f"(constant {MCD_CONSTANT:.6f})")

# DTW lets sequences of different lengths score; the alignment is monotone
short = ceps.frames[::2]
path = dtw_align(ceps.frames, short)
print(f"dtw: aligned {ceps.frames.shape[0]} vs {short.shape[0]} frames "
      f"with a {len(path)}-step path; "
      f"mcd = {mcd(ceps.frames, short):.2f} dB")

# --- word error rate ----------------------------------------------------------

reference = normalize_text("PA KO TI SU")
hypothesis = normalize_text("pa ko su")
print(f"\nwer({reference} -> {hypothesis}) = "
      f"{wer(reference, hypothesis):.1f}%  (one deletion in four words)")
print(f"wer with one substitution = {wer(['A', 'B'], ['A', 'X']):.1f}%")

# --- speaker verification accept rate ------------------------------------------

rng = np.random.default_rng(0)
center_a, center_b = rng.standard_normal(16), rng.standard_normal(16)
speaker_a = [SpeakerEmbedding.from_raw(center_a + 0.1 * rng.standard_normal(16))
             for _ in range(5)]
speaker_b = [SpeakerEmbedding.from_raw(center_b + 0.1 * rng.standard_normal(16))
             for _ in range(5)]

# the decision threshold is calibrated at the equal error rate of
# within-speaker versus cross-speaker cosine scores
threshold = calibrate_asv_threshold({"A": speaker_a, "B": speaker_b})
print(f"\ncalibrated EER threshold: {threshold:.3f}")

target = speaker_a[0]
trials = speaker_a[1:] + speaker_b
rate = asv_accept_rate(trials, target, threshold)
sims = sorted(cosine_similarity(e, target) for e in trials)
print(f"accept rate vs speaker A target: {rate:.0f}% of 9 trials "
      f"(4 within-speaker, 5 cross-speaker; "
      f"cosines {sims[0]:.2f}..{sims[-1]:.2f})")
