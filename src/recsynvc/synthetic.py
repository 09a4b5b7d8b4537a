"""Deterministic synthetic speech-like corpora for smoke tests and demos.

Utterances are sequences of "phones" drawn from a small shared inventory;
each phone is a harmonic stack with its own pitch multiplier and harmonic
weights.  Speakers differ in base pitch and spectral tilt, so the same phone
sequence sounds different per speaker while the content stays recognizable.
Everything is a pure function of the seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audioio import save_waveform
from .manifest import write_manifest
from .types import DatasetManifest, UtteranceRecord, Waveform

# name, pitch multiplier, harmonic amplitude profile
_PHONES = (
    ("PA", 1.00, (1.0, 0.6, 0.3, 0.15, 0.08, 0.04)),
    ("KO", 0.84, (0.8, 1.0, 0.5, 0.25, 0.10, 0.05)),
    ("TI", 1.26, (1.0, 0.3, 0.6, 0.30, 0.15, 0.05)),
    ("SU", 0.94, (0.5, 0.9, 1.0, 0.40, 0.20, 0.10)),
    ("NE", 1.12, (1.0, 0.8, 0.2, 0.50, 0.10, 0.08)),
    ("RA", 0.89, (0.9, 0.4, 0.8, 0.20, 0.30, 0.06)),
    ("MO", 0.75, (1.0, 0.9, 0.7, 0.35, 0.18, 0.09)),
    ("VI", 1.41, (0.7, 1.0, 0.4, 0.60, 0.12, 0.07)),
)

_PHONE_SECONDS = 0.22
_GAP_SECONDS = 0.03


def speaker_profile(speaker_index: int) -> tuple[float, float]:
    """Base pitch (Hz) and spectral tilt for one synthetic speaker."""
    f0 = 110.0 * (1.25 ** speaker_index)
    tilt = 0.7 + 0.15 * (speaker_index % 4)
    return f0, tilt


def render_phones(names, speaker_index: int, sample_rate: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Synthesize one utterance from a phone-name sequence."""
    f0_base, tilt = speaker_profile(speaker_index)
    inventory = {name: (mult, weights) for name, mult, weights in _PHONES}
    phone_len = int(_PHONE_SECONDS * sample_rate)
    gap_len = int(_GAP_SECONDS * sample_rate)
    t = np.arange(phone_len) / sample_rate
    fade = np.minimum(np.arange(phone_len), np.arange(phone_len)[::-1])
    envelope = np.minimum(fade / (0.02 * sample_rate), 1.0)
    pieces = []
    for name in names:
        mult, weights = inventory[name]
        f0 = f0_base * mult * (1.0 + 0.02 * rng.standard_normal())
        phase = rng.uniform(0.0, 2 * np.pi, size=len(weights))
        sig = np.zeros(phone_len)
        for k, w in enumerate(weights, start=1):
            sig += w * (tilt ** (k - 1)) * np.sin(2 * np.pi * k * f0 * t + phase[k - 1])
        sig *= envelope / max(np.max(np.abs(sig)), 1e-9)
        pieces.append(0.3 * sig)
        pieces.append(np.zeros(gap_len))
    return np.concatenate(pieces[:-1]) if pieces else np.zeros(0)


def make_utterance(utt_seed, speaker_index: int, duration: float = 2.0,
                   sample_rate: int = 24000) -> tuple[Waveform, str]:
    """One synthetic utterance plus its transcript (the phone names)."""
    rng = np.random.default_rng(utt_seed)
    n_phones = max(int(duration / (_PHONE_SECONDS + _GAP_SECONDS)), 1)
    names = [str(_PHONES[i][0]) for i in rng.integers(0, len(_PHONES), n_phones)]
    samples = render_phones(names, speaker_index, sample_rate, rng)
    want = int(duration * sample_rate)
    if samples.size < want:
        samples = np.pad(samples, (0, want - samples.size))
    return Waveform(samples[:want], sample_rate), " ".join(names)


def make_toy_corpus(out_dir, n_utterances: int = 20, n_speakers: int = 1,
                    duration: float = 2.0, sample_rate: int = 24000,
                    seed: int = 0) -> Path:
    """Write wavs plus a manifest; returns the manifest path.

    Utterances are dealt round-robin across speakers.  Everything in the
    corpus is reproducible from ``seed``.
    """
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(n_utterances):
        speaker_index = i % n_speakers
        speaker_id = f"SPK{speaker_index + 1}"
        utt_id = f"{speaker_id}_{i:03d}"
        wave, transcript = make_utterance(
            [seed, i], speaker_index, duration, sample_rate
        )
        save_waveform(wav_dir / f"{utt_id}.wav", wave)
        # manifest-relative paths keep the corpus relocatable
        records.append(UtteranceRecord(
            utt_id=utt_id, speaker_id=speaker_id,
            wav_path=Path("wav") / f"{utt_id}.wav", transcript=transcript,
        ))
    manifest_path = out_dir / "manifest.jsonl"
    write_manifest(manifest_path, DatasetManifest(tuple(records)))
    return manifest_path
