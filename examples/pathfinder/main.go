// Pathfinder: the paper's motivating workload end-to-end.
//
// Runs the Rodinia pathfinder kernel (the Figure 2 hot loop) on the
// simulated ST² GPU and on the baseline, prints the per-PC value
// evolution of one thread (Figure 2), the carry-correlation rates
// (Figure 3), and the misprediction/energy outcome for this kernel.
//
// Run with:
//
//	go run ./examples/pathfinder
package main

import (
	"fmt"
	"log"

	"st2gpu/internal/circuit"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/power"
	"st2gpu/internal/trace"
)

// run simulates pathfinder in the given adder mode, recording its add
// stream when rec is non-nil, and checks its output.
func run(mode gpusim.AdderMode, rec *gpusim.Recorder) (*gpusim.RunStats, *gpusim.Device) {
	spec, err := kernels.Pathfinder(1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.AdderMode = mode
	d, err := gpusim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		d.SetRecorder(rec)
	}
	if err := spec.Setup(d.Memory()); err != nil {
		log.Fatal(err)
	}
	rs, err := d.Launch(spec.Kernel)
	if err != nil {
		log.Fatal(err)
	}
	if err := spec.Verify(d.Memory()); err != nil {
		log.Fatal(err)
	}
	return rs, d
}

func main() {
	// The baseline run records its add stream, decoded once for Figures
	// 2 and 3.
	rec := gpusim.NewRecorder(0)
	base, dBase := run(gpusim.BaselineAdders, rec)
	cfg := dBase.Config()
	set := trace.NewSet(1, cfg.NumSMs, cfg.Seed)
	set.Add("pathfinder", rec.Recording())
	dec, err := trace.DecodeSet(set)
	if err != nil {
		log.Fatal(err)
	}
	k, _ := dec.Kernel("pathfinder")

	// --- Figure 2: one thread's addition results per PC. ---
	vt := trace.NewValueTrace(k, 37, 8)
	fmt.Println("Figure 2 — thread 37's addition results, first iterations per PC:")
	for _, pc := range vt.PCs() {
		fmt.Printf("  PC%-3d:", pc)
		for _, p := range vt.Series(pc) {
			fmt.Printf(" %6d", p.Value)
		}
		fmt.Println()
	}
	fmt.Println("  (same-PC streams evolve gradually; cross-PC values differ wildly)")

	rates, err := k.EvalCorrBatch(trace.Fig3Designs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 3 — carry-in match rates on pathfinder:")
	for i, d := range trace.Fig3Designs {
		fmt.Printf("  %-18s %.1f%%\n", d, 100*rates[i].Value())
	}

	// --- ST² run: mispredictions, performance, energy. ---
	st2, dST2 := run(gpusim.ST2Adders, nil)
	fmt.Println("\nST² GPU vs baseline on pathfinder:")
	fmt.Printf("  thread misprediction rate  %.2f%%\n", 100*st2.MispredictionRate())
	slow := float64(st2.Cycles)/float64(base.Cycles) - 1
	fmt.Printf("  cycles                     %d → %d (%.2f%% overhead)\n",
		base.Cycles, st2.Cycles, 100*slow)

	tbl, err := power.DefaultTable(circuit.SAED90())
	if err != nil {
		log.Fatal(err)
	}
	bb := power.FromRun(base, dBase.Prices(), tbl)
	sb := power.FromRun(st2, dST2.Prices(), tbl)
	fmt.Printf("  system energy              %.3g J → %.3g J (%.1f%% saved)\n",
		bb.Total(), sb.Total(), 100*(1-sb.Total()/bb.Total()))
	fmt.Printf("  ALU+FPU component          %.3g J → %.3g J (%.1f%% saved)\n",
		bb[power.CompALUFPU], sb[power.CompALUFPU],
		100*(1-sb[power.CompALUFPU]/bb[power.CompALUFPU]))
	fmt.Println("\nOutputs verified bit-exact against the host oracle in both modes.")
}
