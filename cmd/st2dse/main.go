// Command st2dse runs the paper's design-space explorations: the
// carry-speculation sweep of Figure 5 and the slice-bitwidth study of
// Section V-B.
//
// The Figure 5 sweep records each kernel's adder-op stream once, decodes
// it once into flat structure-of-arrays form, and evaluates the designs
// over the parallel (kernel × design-batch) grid: each grid cell walks
// its kernel's arrays once, scoring a whole contiguous batch of designs
// per record (-sweep-workers bounds the pool; results are bit-identical
// at any count). -store extends that across processes: the first run
// simulates and decodes the suite once and saves the decoded form as a
// columnar st2gpu.decoded store; later runs load the flat arrays with no
// simulation and no varint decoding at all — both are paid once, ever.
//
// -shards distributes the sweep: the coordinator spawns N worker
// subprocesses (this same binary with -shard-worker), each of which
// opens the -store file and partially loads ONLY the kernel sections
// its cells name, and folds their integer cell counters in the fixed
// suite × design order — rows stay bit-identical to the in-process
// sweep at any (shards × sweep-workers) combination.
//
// Usage:
//
//	st2dse [-scale N] [-sms N] [-sweep-workers N]  # Figure 5 sweep
//	st2dse -store suite.decoded            # decode once, load thereafter
//	st2dse -store suite.decoded -shards 4  # distribute over 4 worker processes
//	st2dse -widths                         # slice-width characterization
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"st2gpu/internal/experiments"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
	"st2gpu/internal/report"
	"st2gpu/internal/trace"
)

func main() {
	var (
		scale    = flag.Int("scale", 1, "workload scale factor")
		sms      = flag.Int("sms", 2, "simulated SM count")
		widths   = flag.Bool("widths", false, "run the slice-bitwidth DSE instead of the speculation sweep")
		format   = flag.String("format", "text", "output format: text, csv, markdown, or json")
		sortCol  = flag.Bool("sort", false, "sort the Figure 5 sweep by miss rate instead of paper order")
		progress = flag.Bool("progress", false, "print [i/n] kernel progress lines to stderr")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address")
		store    = flag.String("store", "", "columnar decoded-store file: load the sweep's flat arrays from it if it exists (no simulation, no varint decode), else simulate and decode the suite once and save it first")
		recCap   = flag.Uint64("record-max-bytes", 0, "per-kernel recording byte cap (0 = default 1 GiB)")
		workers  = flag.Int("sweep-workers", 0, "worker pool for the (kernel × design) sweep grid (0 = GOMAXPROCS, 1 = sequential; results identical at any count)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this file")
		shards   = flag.Int("shards", 0, "distribute the sweep over this many worker subprocesses (requires -store; results identical to in-process)")
		shardW   = flag.Bool("shard-worker", false, "serve as a sweep shard worker on stdin/stdout (spawned by -shards; not for interactive use)")
	)
	flag.Parse()

	if *shardW {
		if err := experiments.ServeShardWorker(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	// One process-wide registry: the debug endpoint and the experiment
	// pipeline share it, so /metrics sees sweep-cell histograms accumulate.
	reg := metrics.New()
	if *pprof != "" {
		srv, err := metrics.ServeDebug(*pprof, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "st2dse: serving /debug/pprof, /debug/vars, and /metrics on http://%s\n", srv.Addr())
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.New()
		defer func() {
			if err := tr.WriteChromeTraceFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "st2dse: wrote %d spans to %s\n", tr.Len(), *traceOut)
		}()
	}

	if *widths {
		results, best, err := experiments.SliceWidthDSE()
		if err != nil {
			fatal(err)
		}
		tbl := report.New("Section V-B — slice width characterization",
			"slice bits", "structure", "slices", "supply (V)", "V/Vnom", "adder saving", "predictions/op", "chosen")
		for i, r := range results {
			marker := ""
			if i == best {
				marker = "<=" // paper: 8-bit
			}
			tbl.Add(r.SliceBits, r.Kind.String(), r.NumSlices,
				fmt.Sprintf("%.3f", r.ScaledSupply), fmt.Sprintf("%.2f", r.SupplyRatio),
				report.Pct(r.EnergySaving), r.PredictionsPerOp, marker)
		}
		printTable(tbl, *format)
		return
	}

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.NumSMs = *sms
	cfg.RecordMaxBytes = *recCap
	cfg.SweepWorkers = *workers
	cfg.Metrics = reg
	cfg.Obs = tr
	if *progress {
		cfg.Progress = func(done, total int, name string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, name)
		}
	}

	var rows []experiments.Fig5Row
	var err error
	switch {
	case *shards > 0:
		if *store == "" {
			fatal(fmt.Errorf("-shards needs -store: shard workers load their kernel sections from the store file"))
		}
		rows, err = sweepSharded(cfg, *store, *shards)
	case *store != "":
		var dec *trace.Decoded
		if dec, err = experiments.SuiteStore(cfg, *store, trace.StoreOptions{}, true); err == nil {
			rows, err = experiments.Fig5FromDecoded(cfg, dec, nil)
		}
	default:
		rows, err = experiments.Fig5(cfg, nil)
	}
	if err != nil {
		fatal(err)
	}
	tbl := report.New("Figure 5 — carry-speculation design space",
		"design", "avg thread misprediction rate")
	for _, r := range rows {
		tbl.Add(r.Design, report.Pct(r.MissRate))
	}
	if *sortCol {
		tbl.SortBy(1)
	}
	printTable(tbl, *format)
}

// sweepSharded distributes the Figure 5 sweep over shard worker
// subprocesses (this same binary re-run with -shard-worker), each
// loading only its assigned kernels' sections from the store. Rows are
// bit-identical to the in-process sweep.
func sweepSharded(cfg experiments.Config, storePath string, shards int) ([]experiments.Fig5Row, error) {
	if _, err := experiments.SuiteStore(cfg, storePath, trace.StoreOptions{}, false); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	conns, err := experiments.SpawnWorkers(shards, func() *exec.Cmd {
		return exec.Command(exe, "-shard-worker")
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "st2dse: sweeping over %d shard workers from %s\n", shards, storePath)
	return experiments.Fig5Sharded(cfg, storePath, nil, conns, experiments.ShardOptions{})
}

func printTable(t *report.Table, format string) {
	out, err := t.Render(format)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "st2dse:", err)
	os.Exit(1)
}
