#!/bin/sh
# Stub ASR adapter: "asr.sh <in.wav>" prints a fixed transcript.  It starts
# no interpreter, so the benchmark measures the caller's adapter overhead.
echo "PA KO"
