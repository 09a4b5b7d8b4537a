"""Recognition-synthesis voice conversion.

Content features are extracted from source speech, then a trained decoder
renders them as mel spectrograms in the target voice, either for one fixed
target (A2O) or for arbitrary targets via speaker embeddings (A2A).
"""

from .audioio import load_waveform, resample_waveform, save_waveform
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import (
    AudioConfig,
    Config,
    EvalConfig,
    ModelConfig,
    TrainingConfig,
    load_config,
)
from .converter import (
    average_embedding,
    convert,
    read_embedding,
    speaker_encoder_adapter,
    vocode,
    vocode_external,
    vocode_native,
)
from .errors import VoiceConversionError
from .evaluator import (
    MetricsRow,
    asv_accept_rate,
    calibrate_asv_threshold,
    correlation_matrix,
    cosine_similarity,
    dtw_align,
    eer_threshold,
    mcd,
    mel_cepstra,
    normalize_text,
    pearson,
    transcribe_adapter,
    wer,
)
from .featureio import read_features, write_features
from .manifest import load_manifest, write_manifest
from .recognizer import (
    UpstreamSpec,
    extract_mel,
    external_upstream,
    mel_upstream,
    recognize,
    resample_features,
)
from .synthesizer import ModelParameters, build_decoder, forward_free_running
from .trainer import TrainRun, compute_loss, train_a2a, train_a2o
from .types import (
    DatasetManifest,
    FeatureSequence,
    MelSpectrogram,
    SpeakerEmbedding,
    UtteranceRecord,
    Waveform,
)

__version__ = "0.1.0"

__all__ = [
    "AudioConfig", "Checkpoint", "Config", "DatasetManifest",
    "EvalConfig", "FeatureSequence", "MelSpectrogram", "MetricsRow",
    "ModelConfig", "ModelParameters", "SpeakerEmbedding", "TrainRun",
    "TrainingConfig", "UpstreamSpec", "UtteranceRecord", "VoiceConversionError",
    "Waveform",
    "asv_accept_rate", "average_embedding", "build_decoder",
    "calibrate_asv_threshold", "compute_loss", "convert",
    "correlation_matrix", "cosine_similarity", "dtw_align",
    "eer_threshold", "extract_mel", "external_upstream", "forward_free_running",
    "load_checkpoint", "load_config", "load_manifest",
    "load_waveform", "mcd", "mel_cepstra", "mel_upstream", "normalize_text",
    "pearson", "read_embedding", "read_features", "recognize",
    "resample_features", "resample_waveform", "save_checkpoint",
    "save_waveform", "speaker_encoder_adapter", "train_a2a", "train_a2o",
    "transcribe_adapter", "vocode", "vocode_external", "vocode_native",
    "wer", "write_features", "write_manifest",
]
