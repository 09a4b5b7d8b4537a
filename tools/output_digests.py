#!/usr/bin/env python3
"""Run the toy pipeline for every decoder setup and print its output digests.

Usage: python3 tools/output_digests.py OUT_DIR

This writes small synthetic corpora under OUT_DIR and runs the CLI's
`extract-features` on the any-to-one corpus. Then, for `simple`, `simple_ar`,
`taco2_ar` (any-to-one) and speaker-conditioned `taco2_ar` (any-to-any), it
runs `train`, `convert` and `evaluate` (with stub ASR and speaker-encoder
commands). The any-to-any setup converts twice: toward one cached embedding
(`--target-embedding FILE`) and toward the average of all of them
(`--target-embeddings DIR`, into `converted_averaged`). The `s3r_taco2_ar`
setup is the paper's S3R path: `taco2_ar` trains on an external upstream
(`--upstream s3r_stub --feature-dir`), converts with `--feature-dir` and a
stub external vocoder, and is scored by MCD alone. Its 24-dim features, at a
20 ms shift, are every second frame of each corpus's mels through a fixed
seeded projection, one feature directory per corpus, since the toy corpora
share utterance ids. The stub vocoder writes a wav at the 24 kHz working rate,
so no resampling enters the digests.

It prints one `sha256  path` line, sorted by path relative to OUT_DIR, for
every `.s3ck`, `.mel.s3vc`, `.wav`, `report.tsv` and `summary.json` there and
every feature file that `extract-features` wrote into `features_a2o`.
Run it on two checkouts and diff the printed lines to show that a change
keeps every output bit for bit. BLAS runs on one thread, because the bits
depend on the thread count.

The bits also depend on the numpy version, the OpenBLAS version and the CPU
kernel OpenBLAS picks, so the digests follow three `# key: value` lines that
name them (`numpy`, `blas` with its version, `openblas_core`).
`output_digests.txt` beside this script holds the recorded output, and
`tests/test_output_digests.py` reruns the script and compares.
"""

import hashlib
import os
import shlex
import sys
from pathlib import Path

# BLAS threads are pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from recsynvc import cli  # noqa: E402
from recsynvc.blas import openblas_functions  # noqa: E402
from recsynvc.featureio import read_features, write_features  # noqa: E402
from recsynvc.synthetic import make_toy_corpus  # noqa: E402
from recsynvc.types import N_MELS, FeatureSequence  # noqa: E402

# (name, decoder type, any-to-any)
SETUPS = (
    ("simple", "simple", False),
    ("simple_ar", "simple_ar", False),
    ("taco2_ar", "taco2_ar", False),
    ("a2a_taco2_ar", "taco2_ar", True),
)
EMBEDDING_DIM = 16
DIGESTED = (".s3ck", ".mel.s3vc", ".wav", "report.tsv", "summary.json")
FEATURES = "features_a2o"  # extract-features output, every file digested
S3R = "s3r_taco2_ar"  # taco2_ar on an external upstream, with an external vocoder
S3R_DIM = 24

# stub adapters: a fixed transcript, and a hash of the wav's name to a unit vector
ASR_STUB = 'print("PA KO")\n'
ENCODER_STUB = f"""\
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, {str(SRC)!r})
import numpy as np
from recsynvc.featureio import write_features
from recsynvc.types import FeatureSequence

digest = hashlib.sha256(Path(sys.argv[1]).stem.encode()).digest()
rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
vec = rng.standard_normal({EMBEDDING_DIM})
write_features(sys.argv[2], FeatureSequence(frames=vec[None, :] / np.linalg.norm(vec),
                                            frame_shift_ms=10.0))
"""
# stub vocoder: per 10 ms mel frame, 240 samples of a 500 Hz sawtooth at 24 kHz
# whose loudness falls with the frame's mean log-mel; arithmetic only, no libm
VOCODER_STUB = f"""\
import sys

sys.path.insert(0, {str(SRC)!r})
import numpy as np
from recsynvc.audioio import save_waveform
from recsynvc.featureio import read_features
from recsynvc.types import Waveform

mel = read_features(sys.argv[1]).frames.astype(np.float64)
loudness = 0.5 / (1.0 + np.abs(mel.mean(axis=1)))
saw = np.arange(240) % 48 / 24.0 - 1.0
save_waveform(sys.argv[2], Waveform(np.outer(loudness, saw).reshape(-1), 24000))
"""


def _config(decoder_type: str) -> str:
    return f"""\
[model]
type = {decoder_type}
hidden_dim = 32
lstmp_proj_dim = 32
prenet_dims = 16,16
postnet_layers = 2
postnet_channels = 16
embedding_dim = {EMBEDDING_DIM}

[training]
learning_rate = 0.003
batch_size = 4
steps = 6
checkpoint_interval = 3
log_interval = 100

[audio]
griffin_lim_iters = 4
"""


def _command(path: Path, body: str) -> str:
    path.write_text(body, encoding="utf-8")
    return shlex.join([sys.executable, str(path)])


def _run(argv) -> None:
    if cli.main([str(a) for a in argv]) != 0:
        raise SystemExit(f"failed: recsynvc {' '.join(map(str, argv))}")


def _s3r_features(mel_dir: Path, out_dir: Path) -> Path:
    """Every second frame of each mel in ``mel_dir``, projected to ``S3R_DIM``."""
    projection = np.random.default_rng(0).standard_normal((N_MELS, S3R_DIM)) / N_MELS ** 0.5
    out_dir.mkdir()
    for path in sorted(mel_dir.glob("*.s3vc")):
        mel = read_features(path)
        write_features(out_dir / path.name, FeatureSequence(
            frames=mel.frames[::2].astype(np.float64) @ projection,
            frame_shift_ms=2 * mel.frame_shift_ms))
    return out_dir


def run_s3r(out: Path, single: Path, source: Path) -> None:
    run = out / S3R
    run.mkdir()
    config = run / "config.ini"
    config.write_text(_config("taco2_ar"), encoding="utf-8")
    vocoder = _command(run / "vocoder_stub.py", VOCODER_STUB)
    _run(["extract-features", source, "--out-dir", run / "mels_source"])
    train_features = _s3r_features(out / FEATURES, run / "s3r_a2o")
    source_features = _s3r_features(run / "mels_source", run / "s3r_source")
    _run(["train", single, "--upstream", "s3r_stub", "--feature-dir", train_features,
          "--out-dir", run / "train", "--config", config])
    _run(["convert", run / "train" / "final.s3ck", source, "--feature-dir", source_features,
          "--vocoder", f"external:{vocoder}", "--out-dir", run / "converted", "--config", config])
    _run(["evaluate", run / "converted", source, "--out-dir", run / "scores",
          "--config", config])


def run_pipeline(out: Path) -> None:
    asr = _command(out / "asr_stub.py", ASR_STUB)
    encoder = _command(out / "encoder_stub.py", ENCODER_STUB)
    single = make_toy_corpus(out / "corpus_a2o", n_utterances=6, n_speakers=1,
                             duration=0.4, seed=0)
    multi = make_toy_corpus(out / "corpus_a2a", n_utterances=6, n_speakers=3,
                            duration=0.4, seed=1)
    source = make_toy_corpus(out / "corpus_source", n_utterances=2, n_speakers=2,
                             duration=0.4, seed=2)
    _run(["extract-features", single, "--out-dir", out / FEATURES])
    for name, decoder_type, a2a in SETUPS:
        run = out / name
        run.mkdir()
        config = run / "config.ini"
        config.write_text(_config(decoder_type), encoding="utf-8")
        if a2a:
            _run(["train", multi, "--mode", "a2a", "--out-dir", run / "train",
                  "--config", config, "--speaker-encoder", encoder,
                  "--embeddings-cache", run / "embeddings"])
            target = ["--target-embedding", run / "embeddings" / "SPK1_000.s3vc"]
        else:
            _run(["train", single, "--out-dir", run / "train", "--config", config])
            target = []
        _run(["convert", run / "train" / "final.s3ck", source,
              "--out-dir", run / "converted", "--config", config, *target])
        if a2a:
            _run(["convert", run / "train" / "final.s3ck", source,
                  "--out-dir", run / "converted_averaged", "--config", config,
                  "--target-embeddings", run / "embeddings"])
        _run(["evaluate", run / "converted", source, "--out-dir", run / "scores",
              "--config", config, "--asr", asr, "--speaker-encoder", encoder,
              "--threshold", "0.5", *target])
    run_s3r(out, single, source)


def _openblas_core() -> str:
    """The kernel set OpenBLAS picked at load time, or "unknown"."""
    for (corename,) in openblas_functions("get_corename"):
        return corename().decode()
    return "unknown"


def platform_key() -> dict[str, str]:
    """The library versions and BLAS kernel that the digests depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "openblas_core": _openblas_core()}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=False)
    run_pipeline(out)
    for key, value in platform_key().items():
        print(f"# {key}: {value}")
    for path in sorted(out.rglob("*")):
        if path.is_file() and (path.name.endswith(DIGESTED) or path.parent.name == FEATURES):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
