#!/bin/sh
# Stub speaker encoder: "speaker_encoder.sh <lookup dir> <in.wav> <out.s3vc>"
# copies the precomputed embedding <lookup dir>/<wav name without .wav>.s3vc.
name=${2##*/}
exec cp "$1/${name%.wav}.s3vc" "$3"
