GO ?= go

.PHONY: build test vet lint lint-clean race fuzz-smoke pinned examples check bench loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet, then gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

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
# test` invocation): the full columnar decoded-store file reader (the
# one on-disk trace format) and the shard workers' partial reader,
# OpenStore plus LoadKernels on a file. Seed corpora (valid, truncated, and
# oversized-declaration inputs) plus a few seconds of mutation must never
# panic, over-allocate, round-trip unstably, or load a kernel that differs
# from the full read's. The paged-memory pass replays random op streams
# against the flat []byte oracle. The sliced-adder pass checks every
# Execute result field against the slice-by-slice reference model, the
# ST² unit pass checks the columnar ExecuteWarp (sums, stall, statistics,
# CRF rows) against the per-lane oracle, the carry pass checks the
# packed boundary carries (byte-gather and shift-walk paths) against
# big.Int addition, the approximate-sum pass checks the one-addition
# uncorrected sliced sum against its slice-by-slice oracle, the
# predictor pass drives every registry design's bit-plane tables through
# random warp streams, geometries and bounds against the map-backed
# predictors, the plane pass holds the lane/plane transposes, the Peek
# planes, both judges, the masked and shared updates and VaLHALLA's
# majority count to their per-lane oracles for 1 to 63 boundaries, and
# the assembler pass checks that isa.Parse never panics, that every
# program it accepts validates, and that the program's text parses back
# with the same instruction count.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzMemory -fuzztime=5s ./internal/gpusim
	$(GO) test -run='^$$' -fuzz=FuzzReadStoreFile -fuzztime=5s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzOpenStore -fuzztime=5s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzSlicedAdderExecute -fuzztime=5s ./internal/adder
	$(GO) test -run='^$$' -fuzz=FuzzUnitExecuteWarp -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzCarriesAgainstBigInt -fuzztime=5s ./internal/bitmath
	$(GO) test -run='^$$' -fuzz=FuzzApproxSum -fuzztime=5s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzDesignWarp -fuzztime=5s ./internal/speculate
	$(GO) test -run='^$$' -fuzz=FuzzPlanes -fuzztime=5s ./internal/speculate
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=5s ./internal/isa

# The scale-4 simulate pass checked against perfbench's pinned output
# digests: the one bit-identity check at a scale where blocks retire and
# queued blocks launch mid-kernel. Then one scale-1 repro pass, which
# checks every figure, table and ablation driver's rows against their
# pinned digests. perfbench exits 0 on a digest mismatch, so its verdict
# line is checked. perfbench is its own module, so `go test ./...` does
# not reach it.
pinned:
	GOWORK=off GOTOOLCHAIN=local $(GO) test -C perfbench -run TestPinnedSimulate -count=1 .
	@out=$$(bash perfbench/run.sh --workload repro --seed 1 --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
	if echo "$$out" | grep -Eq '^verdict correct=true attempted=[0-9]+ failed=0 '; then \
		echo "$$out" | grep '^verdict'; \
	else \
		echo "$$out"; echo "pinned: the repro pass does not match its pinned digests"; exit 1; \
	fi

# Build every example under examples/ into .cache/examples/ and run each
# once; an example that exits nonzero fails the target and prints its
# output. Each runs in well under a second once built.
examples:
	@mkdir -p .cache/examples
	@for dir in examples/*/; do \
		name=$$(basename $$dir); \
		$(GO) build -o .cache/examples/$$name ./$$dir || exit 1; \
		out=$$(.cache/examples/$$name 2>&1) || { echo "$$out"; echo "examples: $$name exited nonzero"; exit 1; }; \
		echo "examples: $$name ok"; \
	done

# The gate CI runs: static analysis (vet, gofmt, st2lint), the full test
# suite under the race detector (which includes the readable golden of
# every figure's rows and the run-manifest sanity check), a short decoder,
# adder and carry fuzz pass, the pinned scale-4 simulate and scale-1
# repro passes, and one run of every example. It runs no timing-ratio
# gate: performance is measured with perfbench (`bash perfbench/run.sh`),
# never asserted here.
check: vet lint race fuzz-smoke pinned examples

bench:
	$(GO) test -bench=. -benchmem

# The size of the program, as one number: non-test .go lines outside
# perfbench/ (its own module), testdata/ (analyzer fixtures) and the
# dot-directories (.git/ and the build caches).
loc:
	@find . \( -path './.?*' -o -path ./perfbench -o -name testdata \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
