"""Shared fixtures: toy corpora, a small trained checkpoint, adapter stubs."""

import shlex
import sys
import textwrap

import pytest

from helpers import toy_config
from recsynvc.config import AudioConfig
from recsynvc.manifest import load_manifest
from recsynvc.recognizer import mel_upstream
from recsynvc.synthetic import make_toy_corpus
from recsynvc.trainer import train


@pytest.fixture(scope="session")
def audio():
    return AudioConfig()


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    """20 single-speaker utterances, 0.4 s each, plus the loaded manifest."""
    root = tmp_path_factory.mktemp("toy_a2o")
    manifest_path = make_toy_corpus(root, n_utterances=20, n_speakers=1,
                                    duration=0.4, seed=0)
    manifest = load_manifest(manifest_path)
    return {"dir": root, "manifest_path": manifest_path, "manifest": manifest}


@pytest.fixture(scope="session")
def toy_corpus_multi(tmp_path_factory):
    """16 utterances across 4 speakers for any-to-any tests."""
    root = tmp_path_factory.mktemp("toy_a2a")
    manifest_path = make_toy_corpus(root, n_utterances=16, n_speakers=4,
                                    duration=0.4, seed=1)
    manifest = load_manifest(manifest_path)
    return {"dir": root, "manifest_path": manifest_path, "manifest": manifest}


@pytest.fixture(scope="session")
def quick_checkpoint(tmp_path_factory, toy_corpus):
    """A lightly trained single-target checkpoint for conversion tests."""
    out_dir = tmp_path_factory.mktemp("quick_ckpt")
    config = toy_config("simple", hidden_dim=32, lstmp_proj_dim=32,
                        steps=60, checkpoint_interval=60)
    run = train(toy_corpus["manifest"], mel_upstream(config.audio),
                config, out_dir)
    return {"run": run, "path": run.checkpoint_path, "config": config}


def _write_script(path, body):
    path.write_text("#!/usr/bin/env python3\n" + textwrap.dedent(body))
    path.chmod(0o755)
    return shlex.join([sys.executable, str(path)])


@pytest.fixture(scope="session")
def stub_vocoder(tmp_path_factory):
    """External vocoder stand-in: writes silence of the mel's duration."""
    script = tmp_path_factory.mktemp("stubs") / "vocoder_stub.py"
    return _write_script(script, """\
        import sys
        import numpy as np
        from recsynvc.audioio import save_waveform
        from recsynvc.featureio import read_features
        from recsynvc.types import Waveform

        seq = read_features(sys.argv[1])
        n = len(seq) * 240
        samples = np.full(n, 1e-4)
        save_waveform(sys.argv[2], Waveform(samples=samples, sample_rate=24000))
        """)


@pytest.fixture(scope="session")
def stub_speaker_encoder(tmp_path_factory):
    """External speaker encoder stand-in: hash of the wav stem to a sphere."""
    script = tmp_path_factory.mktemp("stubs") / "encoder_stub.py"
    return _write_script(script, """\
        import hashlib
        import sys
        from pathlib import Path
        import numpy as np
        from recsynvc.featureio import write_features
        from recsynvc.types import FeatureSequence

        stem = Path(sys.argv[1]).stem
        digest = hashlib.sha256(stem.encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        vec = rng.standard_normal(16)
        vec /= np.linalg.norm(vec)
        write_features(sys.argv[2],
                       FeatureSequence(frames=vec[None, :], frame_shift_ms=10.0))
        """)


@pytest.fixture(scope="session")
def stub_asr(tmp_path_factory):
    """External transcriber stand-in: constant two-token hypothesis."""
    script = tmp_path_factory.mktemp("stubs") / "asr_stub.py"
    return _write_script(script, """\
        import sys  # noqa: F401  (argv[1] is the wav path, ignored)
        print("PA KO")
        """)


@pytest.fixture(scope="session")
def failing_adapter(tmp_path_factory):
    """Adapter that always fails, for error-path tests."""
    script = tmp_path_factory.mktemp("stubs") / "failing_stub.py"
    return _write_script(script, """\
        import sys
        print("stub exploded", file=sys.stderr)
        sys.exit(3)
        """)
