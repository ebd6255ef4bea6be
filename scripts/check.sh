#!/bin/sh
# Repo gate: runs `make check` — go vet, gofmt, st2lint, the full test
# suite under the race detector, the decoder, adder and carry fuzz
# smoke, and the pinned simulate and repro passes. The Makefile is the one
# definition of the gate; this wrapper only gives it a script entry point,
# so the two cannot drift apart.
set -eu
cd "$(dirname "$0")/.."
exec make check "$@"
