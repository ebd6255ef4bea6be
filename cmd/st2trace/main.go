// Command st2trace regenerates the paper's value/carry correlation
// analyses: the Figure 2 value-evolution dump for pathfinder and the
// Figure 3 carry-in correlation table.
//
// Both reports read the same captured adder-op stream. -store answers
// them from the columnar st2gpu.decoded store at that path with zero
// simulation; when the file does not exist yet, the suite is simulated
// (parallel SMs, parallel kernels) and decoded once and the store is
// written first. st2dse -store and st2shard -store read the same file.
//
// Usage:
//
//	st2trace -report fig2 [-gtid N] [-points N]
//	st2trace -report fig3 [-scale N]
//	st2trace -report fig3 -store suite.decoded [-store-compact]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"st2gpu/internal/experiments"
	"st2gpu/internal/obs"
	"st2gpu/internal/trace"
)

func main() {
	var (
		report   = flag.String("report", "fig3", "report: fig2 (value evolution) or fig3 (carry correlation)")
		gtid     = flag.Uint("gtid", 37, "thread to trace for fig2")
		points   = flag.Int("points", 30, "points per PC for fig2")
		scale    = flag.Int("scale", 1, "workload scale factor")
		sms      = flag.Int("sms", 2, "simulated SM count")
		recCap   = flag.Uint64("record-max-bytes", 0, "per-kernel recording byte cap (0 = default 1 GiB)")
		store    = flag.String("store", "", "columnar decoded-store file: answer the report from it if it exists (no simulation), else simulate and decode the suite once and save it first")
		storeRaw = flag.Bool("store-compact", false, "omit the derived Sum/Carries columns when -store builds the file (smaller file, slower loads)")
		workers  = flag.Int("sweep-workers", 0, "worker pool for the fig3 (kernel × scheme) grid (0 = GOMAXPROCS, 1 = sequential; results identical at any count)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this file")
	)
	flag.Parse()

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.NumSMs = *sms
	cfg.RecordMaxBytes = *recCap
	cfg.SweepWorkers = *workers
	if *traceOut != "" {
		cfg.Obs = obs.New()
		defer func() {
			if err := cfg.Obs.WriteChromeTraceFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "st2trace: wrote %d spans to %s\n", cfg.Obs.Len(), *traceOut)
		}()
	}

	var dec *trace.Decoded
	if *store != "" {
		var err error
		if dec, err = experiments.SuiteStore(cfg, *store, trace.StoreOptions{OmitDerived: *storeRaw}, true); err != nil {
			fatal(err)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()

	switch *report {
	case "fig2":
		var series []experiments.Fig2Series
		var err error
		if dec != nil {
			series, err = experiments.Fig2FromDecoded(cfg, dec, uint32(*gtid), *points)
		} else {
			series, err = experiments.Fig2(cfg, uint32(*gtid), *points)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pathfinder thread %d: addition results per PC in logical time\n", *gtid)
		for _, s := range series {
			fmt.Fprintf(tw, "PC%d\t", s.PC)
			for _, p := range s.Points {
				fmt.Fprintf(tw, "%d ", p.Value)
			}
			fmt.Fprintln(tw)
		}
	case "fig3":
		var rows []experiments.Fig3Row
		var err error
		if dec != nil {
			rows, err = experiments.Fig3FromDecoded(cfg, dec)
		} else {
			rows, err = experiments.Fig3(cfg)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(tw, "kernel\t%s\t%s\t%s\n",
			trace.Fig3Designs[0], trace.Fig3Designs[1], trace.Fig3Designs[2])
		for _, r := range rows {
			if r.Samples[0] == 0 && r.Samples[1] == 0 && r.Samples[2] == 0 {
				fmt.Fprintf(tw, "%s\t-\t-\t-\n", r.Kernel)
				continue
			}
			fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\n",
				r.Kernel, 100*r.Rates[0], 100*r.Rates[1], 100*r.Rates[2])
		}
		fmt.Fprintln(tw, "\n(paper's averages: 50% / 83% / 89%)")
	default:
		fatal(fmt.Errorf("unknown -report %q", *report))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "st2trace:", err)
	os.Exit(1)
}
