"""Command-line pipeline driver.

Subcommands: ``extract-features``, ``train``, ``convert``, ``evaluate``,
``correlate``.  Machine-readable results go to files; everything printed to
standard error is diagnostic.  Exit status is 0 exactly when no error
occurred.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .audioio import load_waveform, save_waveform
from .benchmark import (
    best_matching_subset,
    comparison_report,
    load_benchmark_rows,
    published_correlations,
)
from .checkpoint import load_checkpoint
from .config import Config, ModelConfig, default_config, load_config
from .converter import (
    average_embedding,
    convert,
    load_model,
    read_embedding,
    speaker_encoder_adapter,
    vocode,
)
from .errors import MissingEmbeddingError, VoiceConversionError
from .evaluator import (
    asv_accept_rate,
    correlation_matrix,
    mcd,
    mel_cepstra,
    normalize_text,
    read_metrics_table,
    transcribe_adapter,
    wer,
)
from .featureio import feature_path, write_features
from .manifest import load_manifest
from .recognizer import extract_mel, external_upstream, mel_upstream
from .trainer import train_a2a, train_a2o


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load_config(args) -> Config:
    config = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(
            config, training=dataclasses.replace(config.training, seed=args.seed)
        )
    return config


def _upstream_spec(args, audio):
    if args.upstream == "mel":
        return mel_upstream(audio)
    if args.feature_dir is None or args.feature_dim is None or args.frame_shift is None:
        raise VoiceConversionError(
            "external upstreams need --feature-dir, --feature-dim and --frame-shift"
        )
    return external_upstream(args.upstream, args.feature_dim, args.frame_shift,
                             args.feature_dir)


def _add_upstream_flags(sub):
    sub.add_argument("--upstream", default="mel",
                     help="content upstream: 'mel' or an external feature name")
    sub.add_argument("--feature-dir", type=Path, default=None,
                     help="directory of precomputed .s3vc files (external upstreams)")
    sub.add_argument("--feature-dim", type=int, default=None)
    sub.add_argument("--frame-shift", type=float, default=None,
                     help="external upstream frame shift in ms")


# --- extract-features ---------------------------------------------------------

def cmd_extract_features(args) -> int:
    config = _load_config(args)
    if args.upstream != "mel":
        return _fail(
            "feature extraction supports the native mel upstream only; "
            "external upstream features are produced by their own tools"
        )
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    written = 0
    index = []
    for record in manifest:
        path = feature_path(out_dir, record.utt_id)
        index.append((record.utt_id, path))
        if path.exists() and not args.force:
            continue
        try:
            wave = load_waveform(record.wav_path,
                                 target_rate=config.audio.sample_rate)
            mel = extract_mel(wave, config.audio)
            write_features(path, mel.as_features())
            written += 1
        except Exception as exc:
            failures.append((record.utt_id, exc))
    with open(out_dir / "index.tsv", "w", encoding="utf-8") as fh:
        for utt_id, path in sorted(index):
            if path.exists():
                fh.write(f"{utt_id}\t{path}\n")
    _note(f"extracted {written} feature file(s) into {out_dir}")
    if failures:
        for utt_id, exc in failures:
            _note(f"failed: {utt_id}: {exc}")
        return 1
    return 0


# --- train ---------------------------------------------------------------------

def _a2a_encoder(args, config):
    if args.embeddings_dir is not None:
        table_dir = Path(args.embeddings_dir)

        def encoder(record):
            return read_embedding(feature_path(table_dir, record.utt_id),
                                  expected_dim=config.model.embedding_dim)
        return encoder
    if args.speaker_encoder is not None:
        def encoder(record):
            return speaker_encoder_adapter(
                record.wav_path, args.speaker_encoder,
                cache_dir=args.embeddings_cache, utt_id=record.utt_id,
                expected_dim=config.model.embedding_dim,
            )
        return encoder
    raise MissingEmbeddingError(
        "a2a training needs --embeddings-dir or --speaker-encoder"
    )


def cmd_train(args) -> int:
    config = _load_config(args)
    role = "target_speaker" if args.mode == "a2o" else "multi_speaker"
    manifest = load_manifest(args.manifest, role=role)
    spec = _upstream_spec(args, config.audio)
    if args.mode == "a2o":
        run = train_a2o(manifest, spec, config, args.out_dir,
                        log_file=args.log_file)
    else:
        encoder = _a2a_encoder(args, config)
        run = train_a2a(manifest, spec, config, args.out_dir, encoder,
                        log_file=args.log_file)
    _note(f"final checkpoint: {run.checkpoint_path} "
          f"(step {run.step}, loss {run.loss_history[-1]:.6f})")
    return 0


# --- convert ---------------------------------------------------------------------

def _target_embedding(args, model: ModelConfig):
    if not model.speaker_conditioned:
        return None
    expected = model.embedding_dim
    if args.target_embeddings is not None:
        emb_dir = Path(args.target_embeddings)
        files = sorted(emb_dir.glob("*.s3vc"))
        if not files:
            raise MissingEmbeddingError(f"no .s3vc embeddings under {emb_dir}")
        return average_embedding(
            [read_embedding(f, expected_dim=expected) for f in files]
        )
    if args.target_embedding is not None:
        return read_embedding(args.target_embedding, expected_dim=expected)
    raise MissingEmbeddingError(
        "this checkpoint is speaker-conditioned; pass --target-embeddings DIR "
        "or --target-embedding FILE"
    )


def cmd_convert(args) -> int:
    config = _load_config(args)
    if args.jobs < 1:
        return _fail(f"--jobs must be at least 1, got {args.jobs}")
    checkpoint = load_checkpoint(args.checkpoint)
    # a bad checkpoint or a missing --feature-dir is one error, not one per utterance
    model = load_model(checkpoint)
    model.upstream_spec(args.feature_dir)
    manifest = load_manifest(args.source_manifest)
    embedding = _target_embedding(args, model.params.config)
    dropout_seed = args.seed if args.seed is not None else config.evaluation.dropout_seed
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(record):
        mel = convert(record, checkpoint, args.feature_dir, s=embedding,
                      dropout_seed=dropout_seed)
        write_features(out_dir / f"{record.utt_id}.mel.s3vc", mel.as_features())
        wave = vocode(mel, model.audio, vocoder=args.vocoder)
        save_waveform(out_dir / f"{record.utt_id}.wav", wave)
        return record.utt_id

    failures = []
    records = list(manifest)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [(r.utt_id, pool.submit(one, r)) for r in records]
        for utt_id, future in futures:
            try:
                future.result()
            except Exception as exc:
                failures.append((utt_id, exc))
    _note(f"converted {len(records) - len(failures)} / {len(records)} "
          f"utterance(s) into {out_dir}")
    if failures:
        for utt_id, exc in failures:
            _note(f"failed: {utt_id}: {exc}")
        return 1
    return 0


# --- evaluate ---------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    config = _load_config(args)
    manifest = load_manifest(args.reference_manifest)
    converted_dir = Path(args.converted_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    audio = config.audio

    mcd_scores: list[tuple[str, float]] = []
    wer_scores: list[tuple[str, float]] = []
    trials = []
    target_embeddings = []
    scored = []

    for record in manifest:
        conv_wav_path = converted_dir / f"{record.utt_id}.wav"
        if not conv_wav_path.exists():
            _note(f"warning: no converted wav for {record.utt_id}, skipping")
            continue
        scored.append(record.utt_id)
        conv_wave = load_waveform(conv_wav_path, target_rate=audio.sample_rate)

        ref_wave = None
        if record.wav_path.exists():
            ref_wave = load_waveform(record.wav_path, target_rate=audio.sample_rate)
            mcd_scores.append((record.utt_id, mcd(
                mel_cepstra(ref_wave, config.evaluation.mcd_order, audio),
                mel_cepstra(conv_wave, config.evaluation.mcd_order, audio),
            )))
        else:
            _note(f"warning: no reference wav for {record.utt_id}; "
                  "intrusive metrics skipped")

        if args.asr is not None and record.transcript:
            hyp = transcribe_adapter(conv_wav_path, args.asr)
            wer_scores.append((record.utt_id, wer(
                normalize_text(record.transcript), hyp
            )))

        if args.speaker_encoder is not None:
            conv_emb = speaker_encoder_adapter(
                conv_wav_path, args.speaker_encoder,
                cache_dir=args.embeddings_cache,
                utt_id=f"{record.utt_id}.converted",
            )
            trials.append((record.utt_id, conv_emb))
            if ref_wave is not None:
                target_embeddings.append(speaker_encoder_adapter(
                    record.wav_path, args.speaker_encoder,
                    cache_dir=args.embeddings_cache,
                    utt_id=f"{record.utt_id}.reference",
                ))

    if not scored:
        return _fail("no converted utterances found to evaluate")

    asv = None
    if trials:
        if args.target_embedding is not None:
            target = read_embedding(args.target_embedding)
        elif target_embeddings:
            target = average_embedding(target_embeddings)
        else:
            return _fail("ASV needs reference wavs or --target-embedding")
        threshold = args.threshold
        if threshold is None:
            threshold = config.evaluation.asv_threshold
        if threshold is None:
            return _fail("no ASV threshold configured; pass --threshold "
                         "or set [evaluation] asv_threshold")
        asv = asv_accept_rate([(e, target) for _, e in trials], threshold)

    per_utt = {utt: {} for utt in scored}
    for utt, value in mcd_scores:
        per_utt[utt]["mcd"] = value
    for utt, value in wer_scores:
        per_utt[utt]["wer"] = value
    with open(out_dir / "report.tsv", "w", encoding="utf-8") as fh:
        fh.write("utt_id\tmcd\twer\n")
        for utt in scored:
            row = per_utt[utt]
            fh.write(f"{utt}\t{row.get('mcd', float('nan')):.4f}"
                     f"\t{row.get('wer', float('nan')):.2f}\n")
    summary = {
        "n_utterances": len(scored),
        "mcd": round(float(np.mean([v for _, v in mcd_scores])), 4) if mcd_scores else None,
        "wer": round(float(np.mean([v for _, v in wer_scores])), 4) if wer_scores else None,
        "asv": round(asv, 4) if asv is not None else None,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _note(f"summary: {json.dumps(summary, sort_keys=True)}")
    return 0


# --- correlate ---------------------------------------------------------------------

def cmd_correlate(args) -> int:
    if args.table is not None:
        rows = read_metrics_table(args.table)
        published = None
        if args.published is not None:
            raw = json.loads(Path(args.published).read_text("utf-8"))
            published = {tuple(k.split(":")): float(v)
                         for k, v in raw["coefficients"].items()}
    else:
        rows = load_benchmark_rows()
        published = published_correlations()

    if published is not None:
        name, subset, result, deviation = best_matching_subset(rows, published)
        comparison = comparison_report(result, published)
        _note(f"best row subset: {name} ({len(subset)} rows), "
              f"max |deviation| = {deviation:.4f}")
        for row in comparison:
            _note(f"  {row['pair']:<9} computed {row['computed']:+.3f}   "
                  f"published {row['published']:+.3f}   "
                  f"gap {row['deviation']:.4f}")
    else:
        result = correlation_matrix(rows)
        name, deviation, comparison = "all", None, None
        _note(f"computed a {len(result.labels)}x{len(result.labels)} "
              f"correlation matrix over {len(rows)} rows")

    payload = result.to_dict()
    payload["subset"] = name
    payload["n_rows"] = len(rows)
    if comparison is not None:
        payload["comparison"] = comparison
        payload["max_deviation"] = round(deviation, 6)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recsynvc",
        description="recognition-synthesis voice conversion pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-features",
                       help="compute content features for a manifest")
    p.add_argument("manifest", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--force", action="store_true",
                   help="rewrite feature files that already exist")
    _add_upstream_flags(p)
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("train", help="train a decoder")
    p.add_argument("manifest", type=Path)
    p.add_argument("--mode", choices=("a2o", "a2a"), default="a2o")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--log-file", type=Path, default=None)
    p.add_argument("--embeddings-dir", type=Path, default=None,
                   help="a2a: directory of per-utterance embedding .s3vc files")
    p.add_argument("--speaker-encoder", default=None,
                   help="a2a: external encoder command")
    p.add_argument("--embeddings-cache", type=Path, default=None)
    _add_upstream_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("convert", help="convert a source manifest with the "
                                       "checkpoint's upstream and audio settings")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("source_manifest", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="dropout seed for the autoregressive path")
    p.add_argument("--vocoder", default="native",
                   help="'native' or 'external:<command>'")
    p.add_argument("--jobs", type=int, default=1)
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
        return args.func(args)
    except VoiceConversionError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
