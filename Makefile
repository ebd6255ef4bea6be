GO ?= go

.PHONY: build test vet lint lint-clean race fuzz-smoke check bench bench-smoke bench-dse trend-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# st2lint: the determinism analyzers (DESIGN.md §11) plus the
# concurrency-safety and wire-taint analyzers (DESIGN.md §16). Exits
# non-zero on any finding not suppressed by //st2:det-ok <reason> /
# //st2:conc-ok <reason> and not in the committed (empty) baseline. The
# `go list` package-discovery step is cached under .cache/st2lint/,
# keyed on the toolchain, go.mod, and every non-testdata .go file, so
# repeat runs skip the subprocess.
lint:
	$(GO) run ./cmd/st2lint -cache .cache/st2lint -baseline .st2lint-baseline.json ./...

# Drop the cached go-list load (it self-invalidates on any .go edit;
# this is for reclaiming space or forcing a cold run).
lint-clean:
	rm -rf .cache/st2lint

# Race-detector run over the packages that exercise the parallel per-SM
# launch path (plus everything downstream of it).
race:
	$(GO) test -race ./...

# Short fuzz pass over the binary readers (one -fuzz pattern per `go
# test` invocation): the recording decoder and the columnar decoded-store
# reader. Seed corpora (valid, truncated, and oversized-declaration
# inputs) plus a few seconds of mutation must never panic, over-allocate,
# or round-trip unstably. The sliced-adder pass checks every Execute
# result field against the slice-by-slice reference model.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadRecording -fuzztime=5s ./internal/gpusim
	$(GO) test -run='^$$' -fuzz=FuzzReadDecoded -fuzztime=5s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzSlicedAdderExecute -fuzztime=5s ./internal/adder

# The gate CI runs: static analysis (vet + st2lint), the full test suite
# under the race detector, a short decoder and adder fuzz pass, a suite smoke pass
# with the run manifest sanity-checked, the record-vs-replay DSE
# benchmark with bit-identity verified, and the st2trend regression gate
# over both trend arrays.
check: vet lint race fuzz-smoke bench-smoke bench-dse trend-gate

bench:
	$(GO) test -bench=. -benchmem

# Scale-1 suite pass with the JSONL manifest enabled; fails on NaN or
# zero-instruction regressions. Appends to the BENCH_smoke.json trend
# array.
bench-smoke:
	./scripts/bench_smoke.sh

# st2trend regression gate: the newest BENCH_dse.json / BENCH_smoke.json
# entries must not regress against the best prior entries.
trend-gate:
	./scripts/trend_gate.sh

# Record-once/replay-many Figure 5 sweep vs the simulate-per-design
# baseline; fails unless rates are bit-identical and replay is faster.
# Writes BENCH_dse.json.
bench-dse:
	./scripts/bench_dse.sh
