// Command st2dse runs the paper's design-space explorations: the
// carry-speculation sweep of Figure 5 and the slice-bitwidth study of
// Section V-B.
//
// The Figure 5 sweep records each kernel's adder-op stream once, decodes
// it once into flat structure-of-arrays form, and evaluates the designs
// over the parallel (kernel × design-batch) grid: each grid cell walks
// its kernel's arrays once, scoring a whole contiguous batch of designs
// per record (-sweep-workers bounds the pool; results are bit-identical
// at any count). -reuse-trace extends that across processes: the first
// run simulates the suite once and saves the recording set; later runs
// decode straight from the file with zero simulation. -store goes one
// step further: the first run saves the decoded form itself as a
// columnar st2gpu.decoded store, and later runs load the flat arrays
// with no varint decoding at all — the decode is paid once, ever.
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
//	st2dse -reuse-trace suite.st2rec       # record once, decode thereafter
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
		reuse    = flag.String("reuse-trace", "", "recording-set file: replay the sweep from it if it exists, else simulate once and save it first")
		store    = flag.String("store", "", "columnar decoded-store file: load the sweep's flat arrays from it if it exists (no simulation, no varint decode), else build it — from -reuse-trace when given, or a fresh simulation — and save it first")
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
		rows, err = sweepSharded(cfg, *store, *reuse, *shards)
	case *store != "":
		rows, err = sweepUsingStore(cfg, *store, *reuse)
	case *reuse != "":
		rows, err = sweepReusingTrace(cfg, *reuse)
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

// reuseSet loads the recording set from path when it exists; otherwise
// it simulates the suite once and saves the capture there.
func reuseSet(cfg experiments.Config, path string) (*trace.Set, error) {
	set, err := trace.ReadSetFileLimit(path, cfg.RecordMaxBytes)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "st2dse: replaying %d kernels (%d bytes) from %s — no simulation\n",
			len(set.Names()), set.Bytes(), path)
	case os.IsNotExist(err):
		if set, err = experiments.RecordSuite(cfg); err != nil {
			return nil, err
		}
		if err := set.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "st2dse: recorded the suite once (%d bytes) to %s; future runs replay it\n",
			set.Bytes(), path)
	default:
		return nil, err
	}
	return set, nil
}

// sweepReusingTrace replays the sweep from path when the recording set
// already exists; otherwise it simulates the suite once, saves the set,
// and replays from the fresh capture.
func sweepReusingTrace(cfg experiments.Config, path string) ([]experiments.Fig5Row, error) {
	set, err := reuseSet(cfg, path)
	if err != nil {
		return nil, err
	}
	return experiments.Fig5FromSet(cfg, set, nil)
}

// sweepUsingStore runs the sweep from the columnar decoded store at
// storePath when it exists — no simulation and no varint decode, just a
// sequential column load. Otherwise it obtains a recording set (from
// reusePath when given, else a fresh simulation), decodes it once, saves
// the decoded form, and sweeps from that.
func sweepUsingStore(cfg experiments.Config, storePath, reusePath string) ([]experiments.Fig5Row, error) {
	dec, err := trace.ReadStoreFileTraced(storePath, cfg.RecordMaxBytes, cfg.SweepWorkers, cfg.Obs)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "st2dse: loaded %d decoded kernels (%d records, %d lanes) from %s — no simulation, no varint decode\n",
			len(dec.Names()), dec.NumOps(), dec.NumLanes(), storePath)
	case os.IsNotExist(err):
		var set *trace.Set
		if reusePath != "" {
			set, err = reuseSet(cfg, reusePath)
		} else {
			set, err = experiments.RecordSuite(cfg)
		}
		if err != nil {
			return nil, err
		}
		if dec, err = trace.DecodeSetTraced(set, cfg.Obs); err != nil {
			return nil, err
		}
		if err := dec.WriteStoreFileTraced(storePath, trace.StoreOptions{}, cfg.Obs); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "st2dse: decoded the suite once and stored it to %s; future runs load the flat arrays directly\n",
			storePath)
	default:
		return nil, err
	}
	return experiments.Fig5FromDecoded(cfg, dec, nil)
}

// ensureStore makes sure the decoded store exists at storePath,
// building it (from reusePath's recording set when given, else a fresh
// simulation) when missing.
func ensureStore(cfg experiments.Config, storePath, reusePath string) error {
	_, err := os.Stat(storePath)
	if err == nil {
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	var set *trace.Set
	if reusePath != "" {
		set, err = reuseSet(cfg, reusePath)
	} else {
		set, err = experiments.RecordSuite(cfg)
	}
	if err != nil {
		return err
	}
	dec, err := trace.DecodeSetTraced(set, cfg.Obs)
	if err != nil {
		return err
	}
	if err := dec.WriteStoreFileTraced(storePath, trace.StoreOptions{}, cfg.Obs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "st2dse: decoded the suite once and stored it to %s; future runs load kernel sections directly\n",
		storePath)
	return nil
}

// sweepSharded distributes the Figure 5 sweep over shard worker
// subprocesses (this same binary re-run with -shard-worker), each
// loading only its assigned kernels' sections from the store. Rows are
// bit-identical to the in-process sweep.
func sweepSharded(cfg experiments.Config, storePath, reusePath string, shards int) ([]experiments.Fig5Row, error) {
	if err := ensureStore(cfg, storePath, reusePath); err != nil {
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
