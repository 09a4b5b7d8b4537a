"""Command-line pipeline driver.

Subcommands: ``extract-features``, ``train``, ``convert``, ``evaluate``,
``correlate``.  Machine-readable results go to files; everything printed to
standard error is diagnostic.  Exit status is 0 exactly when no error
occurred.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .audioio import load_waveform, save_waveform
from .benchmark import (
    METRIC_LABELS,
    comparison_report,
    correlation_matrix,
    load_benchmark_rows,
    max_deviation,
    published_correlations,
    read_metrics_table,
)
from .blas import one_blas_thread, run_threads
from .checkpoint import load_checkpoint
from .config import Config, load_config
from .container import write_atomic
from .converter import (
    average_embedding,
    convert,
    load_model,
    read_embedding,
    speaker_encoder_adapter,
    vocode,
    vocoder_command,
)
from .errors import (ConfigError, CorrelationFileError, FeatureFileError, VoiceConversionError,
                     naming)
from .evaluator import (
    asv_accept_rate,
    mcd,
    mel_cepstra,
    normalize_text,
    transcribe_adapter,
    wer,
)
from .featureio import feature_path, write_features
from .manifest import load_manifest
from .recognizer import MEL_UPSTREAM, extract_mel, external_upstream, mel_upstream
from .trainer import train


MAX_JOBS = 64  # --jobs ceiling, in threads per CPU; far above the two CPUs used


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _given(args, *names) -> list[str]:
    """The options among ``names`` that were passed, spelled as on the command line."""
    return ["--" + name.replace("_", "-") for name in names if getattr(args, name) is not None]


def _reject(flags, why: str) -> None:
    """Fail on any of ``flags``, naming them and ``why``, so no option is silently ignored."""
    if flags:
        raise VoiceConversionError(f"{', '.join(flags)}: {why}")


def _load_config(args) -> Config:
    return load_config(args.config) if args.config else Config()


def _write_json(path, obj) -> None:
    write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def _run_each(records, one, jobs: int, summary) -> int:
    """Run ``one`` on every record, ``jobs`` threads per CPU (``run_threads``); the exit status.

    One thread computes each record.  ``summary(done, total)`` gives the note
    printed first, then each failure gets one ``failed: <utt_id>: <error>``
    line, in manifest order.
    """
    records = list(records)
    futures = run_threads(one, records, jobs)
    failures = [f"failed: {record.utt_id}: {future.exception()}"
                for record, future in zip(records, futures) if future.exception() is not None]
    _note("\n".join([summary(len(records) - len(failures), len(records)), *failures]))
    return 1 if failures else 0


# --- extract-features ---------------------------------------------------------

def cmd_extract_features(args) -> int:
    config = _load_config(args)
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(record):
        mel = extract_mel(load_waveform(record.wav_path, config.audio), config.audio)
        write_features(feature_path(out_dir, record.utt_id), mel.as_features())

    return _run_each(manifest, one, 1,
                     lambda done, _: f"extracted {done} feature file(s) into {out_dir}")


# --- train ---------------------------------------------------------------------

def _a2a_encoder(args, embedding_dim: int):
    if args.embeddings_dir is not None:
        table_dir = Path(args.embeddings_dir)

        def encoder(record):
            return read_embedding(feature_path(table_dir, record.utt_id),
                                  expected_dim=embedding_dim)
        return encoder
    if args.speaker_encoder is not None:
        def encoder(record):
            return speaker_encoder_adapter(
                record.wav_path, args.speaker_encoder,
                cache_dir=args.embeddings_cache, utt_id=record.utt_id,
            )
        return encoder
    raise VoiceConversionError("a2a training needs --embeddings-dir or --speaker-encoder")


def cmd_train(args) -> int:
    a2a = args.mode == "a2a"
    if not a2a:
        _reject(_given(args, "embeddings_dir", "speaker_encoder", "embeddings_cache"),
                "read only by --mode a2a")
    if len(sources := _given(args, "embeddings_dir", "speaker_encoder")) == 2:
        _reject(sources, "pass one, not both")
    if args.speaker_encoder is None:
        _reject(_given(args, "embeddings_cache"), "read only with --speaker-encoder")
    config = _load_config(args)
    manifest = load_manifest(args.manifest)
    if args.upstream == MEL_UPSTREAM and args.feature_dir is None:
        spec = mel_upstream(config.audio)
    else:
        spec = external_upstream(args.upstream, args.feature_dir)
    run = train(manifest, spec, config, args.out_dir,
                _a2a_encoder(args, config.model.embedding_dim) if a2a else None,
                log_file=args.log_file)
    _note(f"final checkpoint: {run.checkpoint_path} "
          f"(step {config.training.steps}, loss {run.loss_history[-1]:.6f})")
    return 0


# --- convert ---------------------------------------------------------------------

def _target_embedding(args, params):
    if not params.speaker_conditioned:
        _reject(_given(args, "target_embeddings", "target_embedding"),
                "this checkpoint is not speaker-conditioned")
        return None
    expected = params.config.embedding_dim
    if args.target_embeddings is not None:
        emb_dir = Path(args.target_embeddings)
        files = sorted(emb_dir.glob("*.s3vc"))
        if not files:
            raise FeatureFileError(f"no .s3vc embeddings under {emb_dir}")
        return average_embedding(
            [read_embedding(f, expected_dim=expected) for f in files]
        )
    if args.target_embedding is not None:
        return read_embedding(args.target_embedding, expected_dim=expected)
    raise VoiceConversionError(
        "this checkpoint is speaker-conditioned; pass --target-embeddings DIR "
        "or --target-embedding FILE"
    )


def _is_own_wav(path: Path, record) -> bool:
    """Whether ``path`` is ``record``'s own wav; ``samefile`` also sees symlinks and hard links."""
    return path.exists() and record.wav_path.exists() and path.samefile(record.wav_path)


def cmd_convert(args) -> int:
    if len(targets := _given(args, "target_embeddings", "target_embedding")) == 2:
        _reject(targets, "pass one, not both")
    config = _load_config(args)
    if args.jobs < 1:
        raise VoiceConversionError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > MAX_JOBS:
        raise VoiceConversionError(f"--jobs must be at most {MAX_JOBS}, got {args.jobs}")
    # a bad vocoder, checkpoint or --feature-dir is one error, not one per utterance
    vocoder_command(args.vocoder)
    checkpoint = load_checkpoint(args.checkpoint)
    # the model reads a Checkpoint, which does not know its path
    with naming(args.checkpoint, ConfigError, ConfigError):
        model = load_model(checkpoint)
    model.upstream.at(args.feature_dir)
    manifest = load_manifest(args.source_manifest)
    embedding = _target_embedding(args, model.params)
    out_dir = Path(args.out_dir)
    for record in manifest:
        if _is_own_wav(wav := out_dir / f"{record.utt_id}.wav", record):
            raise VoiceConversionError(
                f"{record.utt_id}: converting into {wav} would overwrite its source wav")
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(record):
        mel = convert(record, checkpoint, args.feature_dir, s=embedding,
                      dropout_seed=config.evaluation.dropout_seed)
        write_features(out_dir / f"{record.utt_id}.mel.s3vc", mel.as_features())
        save_waveform(out_dir / f"{record.utt_id}.wav",
                      vocode(mel, model.audio, vocoder=args.vocoder))

    return _run_each(manifest, one, args.jobs, lambda done, total:
                     f"converted {done} / {total} utterance(s) into {out_dir}")


# --- evaluate ---------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    if args.speaker_encoder is None:
        _reject(_given(args, "target_embedding", "threshold", "embeddings_cache"),
                "read only with --speaker-encoder")
    elif args.threshold is None:
        raise VoiceConversionError("ASV with --speaker-encoder needs --threshold")
    elif not -1.0 <= args.threshold <= 1.0:  # false for nan too
        raise VoiceConversionError(
            f"--threshold must be a finite number in [-1, 1], got {args.threshold}")
    config = _load_config(args)
    manifest = load_manifest(args.reference_manifest)
    converted_dir = Path(args.converted_dir)
    scored = []  # (record, its converted wav)
    for record in manifest:
        conv_wav_path = converted_dir / f"{record.utt_id}.wav"
        if _is_own_wav(conv_wav_path, record):
            raise VoiceConversionError(
                f"{record.utt_id}: the converted wav {conv_wav_path} is its reference wav")
        if conv_wav_path.exists():
            scored.append((record, conv_wav_path))
        else:
            _note(f"warning: no converted wav for {record.utt_id}, skipping")
    # fail before any wav is read or any adapter started
    if not scored:
        raise VoiceConversionError("no converted utterances found to evaluate")
    if (args.speaker_encoder is not None and args.target_embedding is None
            and not any(record.wav_path.exists() for record, _ in scored)):
        raise VoiceConversionError("ASV needs reference wavs or --target-embedding")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    audio = config.audio

    rows: dict[str, dict[str, float]] = {}  # per scored utterance: its mcd and wer
    conv_embeddings = []
    target_embeddings = []

    for record, conv_wav_path in scored:
        row = rows[record.utt_id] = {}
        conv_wave = load_waveform(conv_wav_path, audio)

        ref_wave = None
        if record.wav_path.exists():
            ref_wave = load_waveform(record.wav_path, audio)
            row["mcd"] = mcd(
                mel_cepstra(ref_wave, config.evaluation.mcd_order, audio),
                mel_cepstra(conv_wave, config.evaluation.mcd_order, audio),
            )
        else:
            _note(f"warning: no reference wav for {record.utt_id}; "
                  "intrusive metrics skipped")

        if args.asr is not None and record.transcript is not None:
            ref_words = normalize_text(record.transcript)
            if ref_words:
                row["wer"] = wer(ref_words, transcribe_adapter(conv_wav_path, args.asr))
            else:
                _note(f"warning: transcript of {record.utt_id} has no words; WER skipped")

        if args.speaker_encoder is not None:
            conv_embeddings.append(speaker_encoder_adapter(
                conv_wav_path, args.speaker_encoder,
                cache_dir=args.embeddings_cache,
                utt_id=f"{record.utt_id}.converted",
            ))
            if ref_wave is not None:
                target_embeddings.append(speaker_encoder_adapter(
                    record.wav_path, args.speaker_encoder,
                    cache_dir=args.embeddings_cache,
                    utt_id=f"{record.utt_id}.reference",
                ))

    asv = None
    if conv_embeddings:
        target = (average_embedding(target_embeddings) if args.target_embedding is None
                  else read_embedding(args.target_embedding, expected_dim=conv_embeddings[0].dim))
        asv = asv_accept_rate(conv_embeddings, target, args.threshold)

    def mean(metric):
        values = [row[metric] for row in rows.values() if metric in row]
        return round(float(np.mean(values)), 4) if values else None

    report = ["utt_id\tmcd\twer\n"]
    for utt, row in rows.items():
        report.append(f"{utt}\t{row.get('mcd', float('nan')):.4f}"
                      f"\t{row.get('wer', float('nan')):.2f}\n")
    write_atomic(out_dir / "report.tsv", [line.encode("utf-8") for line in report])
    summary = {
        "n_utterances": len(rows),
        "mcd": mean("mcd"),
        "wer": mean("wer"),
        "asv": round(asv, 4) if asv is not None else None,
    }
    _write_json(out_dir / "summary.json", summary)
    _note(f"summary: {json.dumps(summary, sort_keys=True)}")
    return 0


# --- correlate ---------------------------------------------------------------------

def cmd_correlate(args) -> int:
    if args.table is not None:
        rows = read_metrics_table(args.table)
        published = None if args.published is None else published_correlations(args.published)
    else:
        rows = load_benchmark_rows()
        published = published_correlations(args.published)

    # rows unfit to correlate; only a --table has them
    with naming(args.table, CorrelationFileError, CorrelationFileError):
        matrix = correlation_matrix(rows)
    _note(f"computed a {len(METRIC_LABELS)}x{len(METRIC_LABELS)} "
          f"correlation matrix over {len(rows)} rows")
    payload = {
        "labels": list(METRIC_LABELS),
        "matrix": [[round(v, 6) for v in row] for row in matrix.tolist()],
        "subset": "all",
        "n_rows": len(rows),
    }
    if published is not None:
        deviation = max_deviation(matrix, published)
        payload["comparison"] = comparison_report(matrix, published)
        payload["max_deviation"] = round(deviation, 6)
        _note(f"max |deviation| = {deviation:.4f}")
        for row in payload["comparison"]:
            _note(f"  {row['pair']:<9} computed {row['computed']:+.3f}   "
                  f"published {row['published']:+.3f}   "
                  f"gap {row['deviation']:.4f}")
    _write_json(args.out, payload)
    return 0


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recsynvc",
        description="recognition-synthesis voice conversion pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-features",
                       help="compute the native mel features of a manifest")
    p.add_argument("manifest", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("train", help="train a decoder")
    p.add_argument("manifest", type=Path)
    p.add_argument("--mode", choices=("a2o", "a2a"), default="a2o")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--log-file", type=Path, default=None)
    p.add_argument("--embeddings-dir", type=Path, default=None,
                   help="a2a: directory of per-utterance embedding .s3vc files")
    p.add_argument("--speaker-encoder", default=None,
                   help="a2a: external encoder command")
    p.add_argument("--embeddings-cache", type=Path, default=None)
    p.add_argument("--upstream", default=MEL_UPSTREAM,
                   help="content upstream: 'mel' or an external feature name")
    p.add_argument("--feature-dir", type=Path, default=None,
                   help="directory of precomputed .s3vc files of an external "
                        "upstream, which give its width and frame shift")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("convert", help="convert a source manifest with the "
                                       "checkpoint's upstream and audio settings")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("source_manifest", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None,
                   help="INI file; convert reads only [evaluation] dropout_seed")
    p.add_argument("--vocoder", default="native",
                   help="'native' or 'external:<command>'")
    p.add_argument("--jobs", type=int, default=1,
                   help="utterances converted at once per CPU, on at most two CPUs "
                        f"(1 to {MAX_JOBS}); the bytes written do not depend on it "
                        "(README, 'Bytes and CPUs')")
    p.add_argument("--target-embeddings", type=Path, default=None,
                   help="directory of target-speaker embeddings to average")
    p.add_argument("--target-embedding", type=Path, default=None,
                   help="single target embedding file")
    p.add_argument("--feature-dir", type=Path, default=None,
                   help="directory of precomputed .s3vc files, for a model "
                        "trained on an external upstream")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("evaluate", help="score converted audio")
    p.add_argument("converted_dir", type=Path)
    p.add_argument("reference_manifest", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--asr", default=None, help="external transcriber command")
    p.add_argument("--speaker-encoder", default=None)
    p.add_argument("--embeddings-cache", type=Path, default=None)
    p.add_argument("--target-embedding", type=Path, default=None)
    p.add_argument("--threshold", type=float, default=None,
                   help="ASV accept threshold (cosine)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("correlate", help="pairwise metric correlation study")
    p.add_argument("--table", type=Path, default=None,
                   help="metrics TSV; defaults to the bundled benchmark table")
    p.add_argument("--published", type=Path, default=None,
                   help="JSON of published coefficients to compare against")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the bits depend on the count, and the program's own threads take the CPUs
        with one_blas_thread():
            return args.func(args)
    except (VoiceConversionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
