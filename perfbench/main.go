// Command perfbench is the repository's benchmark. It runs one workload of
// the ST² reproduction pipeline — repro (every paper figure and table),
// simulate (the suite under both adder modes) or sweep (the decoded-store
// read path, batched evaluation and shards) — checks the outputs, and
// prints every metric by name with its unit and better-direction, then the
// result as one JSON line.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced pass; --trace 1
// adds a traced pass, reports the per-layer metrics derived from its spans
// and writes them as a Chrome trace under --work. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: repro, simulate or sweep")
	flag.Int64Var(&o.seed, "seed", pinnedSeed, "seed: experiments.Config.Seed and gpusim.Config.Seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "body measuring budget in seconds (at least one iteration runs)")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced pass")
	flag.StringVar(&o.workDir, "work", ".bench_build", "scratch directory for store files and the Chrome trace")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
