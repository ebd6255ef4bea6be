// Command st2shard runs the distributed (kernel × design-batch) sweep
// over a columnar decoded store: a coordinator partitions the grid into
// cells and hands them to worker processes over a line-delimited JSON
// protocol; each worker opens the store and loads ONLY the kernel
// sections its cells name (selective section loading), so worker memory
// and load time scale with the assignment, not the suite. Cell results
// are integer counters folded in the fixed suite × design order — rows
// are bit-identical to the in-process st2dse sweep at any
// (shards × sweep-workers) combination, including after a crashed
// worker's cells are requeued.
//
// By default the coordinator spawns -shards local worker subprocesses
// (this same binary with -worker) over stdio. For multi-host sweeps,
// run the coordinator with -listen and one `st2shard -connect` worker
// per host:
//
//	st2shard -store suite.decoded                      # 2 local workers
//	st2shard -store suite.decoded -shards 8            # 8 local workers
//	st2shard -store suite.decoded -fig3                # Figure 3 grid
//	st2shard -store suite.decoded -listen :7070 -shards 3   # wait for 3 TCP workers
//	st2shard -connect coord:7070                       # worker, on each host
//	st2shard -worker                                   # stdio worker (spawned)
//
// Every host needs the store file (or a copy) at the same path passed
// by the coordinator's open message. The coordinator builds it (one
// simulation + one decode) when it is missing, exactly as
// `st2dse -store` and `st2trace -store` do, and refuses a store built
// at another -scale or -sms.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"time"

	"st2gpu/internal/experiments"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
	"st2gpu/internal/report"
	"st2gpu/internal/trace"
)

func main() {
	var (
		store    = flag.String("store", "", "columnar decoded-store file the workers load kernel sections from; built (one simulation + decode) if missing")
		shards   = flag.Int("shards", 2, "worker count: subprocesses to spawn, or TCP connections to wait for with -listen")
		workerM  = flag.Bool("worker", false, "serve as a shard worker on stdin/stdout (spawned by the coordinator)")
		connect  = flag.String("connect", "", "serve as a shard worker over TCP to this coordinator address")
		listen   = flag.String("listen", "", "coordinate over TCP: accept -shards worker connections on this address instead of spawning subprocesses")
		fig3     = flag.Bool("fig3", false, "run the Figure 3 correlation grid instead of the Figure 5 design sweep")
		scale    = flag.Int("scale", 1, "workload scale factor (must match the store)")
		sms      = flag.Int("sms", 2, "simulated SM count (must match the store)")
		workers  = flag.Int("sweep-workers", 0, "per-worker cell parallelism and inflight cap (0 = GOMAXPROCS; results identical at any count)")
		lease    = flag.Duration("lease", 0, "how long a worker may hold cells without returning results before it is declared hung and its cells requeued (0 = 2m)")
		retries  = flag.Int("max-attempts", 0, "dispatch attempts per cell before the sweep fails loudly (0 = 3)")
		format   = flag.String("format", "text", "output format: text, csv, markdown, or json")
		sortCol  = flag.Bool("sort", false, "sort the Figure 5 sweep by miss rate instead of paper order")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this file")
	)
	flag.Parse()

	switch {
	case *workerM:
		if err := experiments.ServeShardWorker(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *connect != "":
		conn, err := net.Dial("tcp", *connect)
		if err != nil {
			fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(os.Stderr, "st2shard: serving cells for coordinator %s\n", *connect)
		if err := experiments.ServeShardWorker(conn, conn); err != nil {
			fatal(err)
		}
		return
	}

	if *store == "" {
		fatal(fmt.Errorf("-store is required: shard workers load kernel sections from it (or use -worker / -connect)"))
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be ≥ 1, got %d", *shards))
	}

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.NumSMs = *sms
	cfg.SweepWorkers = *workers
	cfg.Metrics = metrics.New()
	if *traceOut != "" {
		cfg.Obs = obs.New()
		defer func() {
			if err := cfg.Obs.WriteChromeTraceFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "st2shard: wrote %d spans to %s\n", cfg.Obs.Len(), *traceOut)
		}()
	}
	if _, err := experiments.SuiteStore(cfg, *store, trace.StoreOptions{}, false); err != nil {
		fatal(err)
	}

	var conns []*experiments.ShardConn
	var err error
	if *listen != "" {
		conns, err = acceptWorkers(*listen, *shards)
	} else {
		exe, exeErr := os.Executable()
		if exeErr != nil {
			fatal(exeErr)
		}
		conns, err = experiments.SpawnWorkers(*shards, func() *exec.Cmd {
			return exec.Command(exe, "-worker")
		})
	}
	if err != nil {
		fatal(err)
	}
	opts := experiments.ShardOptions{Lease: *lease, MaxAttempts: *retries}

	if *fig3 {
		rows, err := experiments.Fig3Sharded(cfg, *store, conns, opts)
		if err != nil {
			fatal(err)
		}
		tbl := report.New("Figure 3 — carry correlation (sharded)",
			"kernel", trace.Fig3Designs[0], trace.Fig3Designs[1], trace.Fig3Designs[2])
		for _, r := range rows {
			tbl.Add(r.Kernel, report.Pct(r.Rates[0]), report.Pct(r.Rates[1]), report.Pct(r.Rates[2]))
		}
		printTable(tbl, *format)
		return
	}
	rows, err := experiments.Fig5Sharded(cfg, *store, nil, conns, opts)
	if err != nil {
		fatal(err)
	}
	tbl := report.New("Figure 5 — carry-speculation design space (sharded)",
		"design", "avg thread misprediction rate")
	for _, r := range rows {
		tbl.Add(r.Design, report.Pct(r.MissRate))
	}
	if *sortCol {
		tbl.SortBy(1)
	}
	printTable(tbl, *format)
}

// acceptWorkers waits for n TCP worker connections (each a
// `st2shard -connect` on some host) on addr.
func acceptWorkers(addr string, n int) ([]*experiments.ShardConn, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "st2shard: waiting for %d workers on %s\n", n, ln.Addr())
	conns := make([]*experiments.ShardConn, 0, n)
	for len(conns) < n {
		c, err := ln.Accept()
		if err != nil {
			experiments.CloseShardConns(conns)
			return nil, err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetKeepAlive(true)
			tc.SetKeepAlivePeriod(30 * time.Second)
		}
		fmt.Fprintf(os.Stderr, "st2shard: worker %d connected from %s\n", len(conns), c.RemoteAddr())
		conns = append(conns, &experiments.ShardConn{
			Name: fmt.Sprintf("tcp-%d(%s)", len(conns), c.RemoteAddr()),
			R:    c, W: c, C: c,
		})
	}
	return conns, nil
}

func printTable(t *report.Table, format string) {
	out, err := t.Render(format)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "st2shard:", err)
	os.Exit(1)
}
