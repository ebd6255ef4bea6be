#!/bin/sh
# Repo gate: runs `make check` — go vet, st2lint, the full test suite
# under the race detector, the decoder and adder fuzz smoke, the bench
# smoke, the DSE benchmark and the trend gate. The Makefile is the one
# definition of the gate; this wrapper only gives it a script entry point,
# so the two cannot drift apart.
set -eu
cd "$(dirname "$0")/.."
exec make check "$@"
