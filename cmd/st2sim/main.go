// Command st2sim runs kernels from the evaluation suite on the simulated
// ST² GPU (or the baseline) and reports instruction-mix, misprediction,
// and timing statistics.
//
// Usage:
//
//	st2sim [-kernel name|all] [-mode st2|baseline] [-scale N] [-sms N] [-report mix|mispred|cycles|full]
//	       [-json out.jsonl] [-trace-out run.trace.json] [-progress] [-pprof addr]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"text/tabwriter"

	"st2gpu/internal/core"
	"st2gpu/internal/experiments"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/isa"
	"st2gpu/internal/kernels"
	"st2gpu/internal/metrics"
	"st2gpu/internal/metrics/runlog"
	"st2gpu/internal/obs"
)

func main() {
	var (
		kernel   = flag.String("kernel", "all", "kernel name from the suite, or 'all'")
		mode     = flag.String("mode", "st2", "adder microarchitecture: st2 or baseline")
		scale    = flag.Int("scale", 1, "workload scale factor")
		sms      = flag.Int("sms", 2, "simulated SM count")
		report   = flag.String("report", "full", "report: mix, mispred, cycles, or full")
		list     = flag.Bool("list", false, "list available kernels and exit")
		app      = flag.String("app", "", "run a multi-kernel application (mergesort, fwt, bitonic, backprop)")
		jsonPath = flag.String("json", "", "append one JSONL run-manifest event per launch to this file")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this file (load in chrome://tracing or Perfetto)")
		progress = flag.Bool("progress", false, "print [i/n] kernel progress lines to stderr")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	all := append(kernels.Suite(), kernels.Extras()...)
	if *list {
		for _, w := range all {
			fmt.Printf("%-14s (%s)\n", w.Name, w.Suite)
		}
		for _, a := range kernels.Apps() {
			fmt.Printf("%-14s (application)\n", a.Name)
		}
		return
	}

	switch *report {
	case "mix", "mispred", "cycles", "full":
	default:
		fatal(fmt.Errorf("unknown -report %q (want mix, mispred, cycles, or full)", *report))
	}

	// The registry is process-wide so the pprof/expvar endpoint sees
	// counts accumulate across launches; manifest events snapshot it
	// after each launch.
	reg := metrics.New()
	if *pprof != "" {
		srv, err := metrics.ServeDebug(*pprof, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "st2sim: serving /debug/pprof, /debug/vars, and /metrics on http://%s\n", srv.Addr())
	}
	// The span tracer feeds the -trace-out timeline and the runlog v2
	// span events only; it never touches RunStats.
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.New()
		defer func() {
			if err := tr.WriteChromeTraceFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "st2sim: wrote %d spans to %s\n", tr.Len(), *traceOut)
		}()
	}
	var lg *runlog.Logger
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		lg = runlog.New(f)
	}

	if *app != "" {
		runApp(*app, *scale, *sms, *mode)
		return
	}

	adderMode := gpusim.ST2Adders
	switch *mode {
	case "st2":
	case "baseline":
		adderMode = gpusim.BaselineAdders
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}

	suite := kernels.Suite()
	if *kernel != "all" {
		i := slices.IndexFunc(all, func(w kernels.Workload) bool { return w.Name == *kernel })
		if i < 0 {
			fatal(fmt.Errorf("kernels: unknown workload %q", *kernel))
		}
		suite = all[i : i+1]
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	switch *report {
	case "mix":
		fmt.Fprintln(tw, "kernel\tALU.add\tFPU.add\tALU.other\tFPU.other\tother")
	case "mispred":
		fmt.Fprintln(tw, "kernel\tthread ops\tmispredicts\trate\trecompute(avg)\tCRF conflicts")
	case "cycles":
		fmt.Fprintln(tw, "kernel\tcycles\twarp instrs\tthread instrs\tIPC/SM\tSIMD eff")
	default:
		fmt.Fprintln(tw, "kernel\tmode\tcycles\tthread instrs\tadd frac\tmispred\tL1 hit\tDRAM tx")
	}

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.NumSMs = *sms
	cfg.Metrics = reg
	cfg.Obs = tr
	if *progress {
		cfg.Progress = func(done, total int, name string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, name)
		}
	}
	rss, err := experiments.RunSuite(cfg, suite, adderMode, lg)
	if err != nil {
		fatal(err)
	}
	for i, rs := range rss {
		printRow(tw, *report, suite[i].Name, rs)
	}
	if lg != nil && tr != nil {
		if err := lg.LogSpans("st2sim", tr); err != nil {
			fatal(fmt.Errorf("manifest spans: %w", err))
		}
	}
}

func printRow(tw *tabwriter.Writer, report, name string, rs *gpusim.RunStats) {
	tot := float64(rs.TotalThreadInstrs())
	switch report {
	case "mix":
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n", name,
			pct(rs.ThreadInstrs[isa.FUAluAdd], tot),
			pct(rs.ThreadInstrs[isa.FUFpAdd], tot),
			pct(rs.ThreadInstrs[isa.FUAluOther]+rs.ThreadInstrs[isa.FUIntMul]+rs.ThreadInstrs[isa.FUIntDiv], tot),
			pct(rs.ThreadInstrs[isa.FUFpMul]+rs.ThreadInstrs[isa.FUFpDiv]+rs.ThreadInstrs[isa.FUSfu], tot),
			pct(rs.ThreadInstrs[isa.FUMem]+rs.ThreadInstrs[isa.FUCtrl], tot))
	case "mispred":
		var ops, mis uint64
		var recompN, recompSum float64
		// Canonical kind order keeps the float fold independent of map
		// iteration order.
		for _, kind := range core.UnitKinds {
			u := rs.Units[kind]
			ops += u.ThreadOps
			mis += u.ThreadMispredicts
			if u.RecomputeHistogram != nil && u.RecomputeHistogram.Total() > 0 {
				recompSum += u.RecomputeHistogram.Mean() * float64(u.RecomputeHistogram.Total())
				recompN += float64(u.RecomputeHistogram.Total())
			}
		}
		mean := 0.0
		if recompN > 0 {
			mean = recompSum / recompN
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f%%\t%.2f\t%d\n",
			name, ops, mis, 100*rs.MispredictionRate(), mean, rs.CRF.Conflicts)
	case "cycles":
		var warpInstrs uint64
		for _, v := range rs.WarpInstrs {
			warpInstrs += v
		}
		ipc := float64(warpInstrs) / float64(rs.Cycles) / float64(rs.SMsUsed)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2f\t%.1f%%\n",
			name, rs.Cycles, warpInstrs, uint64(tot), ipc, 100*rs.SIMDEfficiency())
	default:
		aluAdd, fpuAdd := rs.AddFraction()
		fmt.Fprintf(tw, "%s\t%v\t%d\t%d\t%.1f%%\t%.2f%%\t%.1f%%\t%d\n",
			name, rs.Mode, rs.Cycles, uint64(tot),
			100*(aluAdd+fpuAdd), 100*rs.MispredictionRate(),
			100*rs.L1.HitRate(), rs.DRAMAccesses)
	}
}

// runApp executes a multi-kernel application and prints per-launch stats.
func runApp(name string, scale, sms int, mode string) {
	for _, a := range kernels.Apps() {
		if a.Name != name {
			continue
		}
		application, err := a.Build(scale)
		if err != nil {
			fatal(err)
		}
		cfg := gpusim.DefaultConfig()
		cfg.NumSMs = sms
		if mode == "baseline" {
			cfg.AdderMode = gpusim.BaselineAdders
		}
		stats, err := application.Run(cfg)
		if err != nil {
			fatal(err)
		}
		var cycles, instrs uint64
		for i, rs := range stats {
			fmt.Printf("%-18s %10d cycles %10d thread instrs  mispred %.2f%%\n",
				application.Launches[i].Name, rs.Cycles, rs.TotalThreadInstrs(),
				100*rs.MispredictionRate())
			cycles += rs.Cycles
			instrs += rs.TotalThreadInstrs()
		}
		fmt.Printf("%-18s %10d cycles %10d thread instrs  (verified)\n", "total", cycles, instrs)
		return
	}
	fatal(fmt.Errorf("unknown application %q", name))
}

func pct(n uint64, tot float64) float64 {
	if tot == 0 {
		return 0
	}
	return 100 * float64(n) / tot
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "st2sim:", err)
	os.Exit(1)
}
