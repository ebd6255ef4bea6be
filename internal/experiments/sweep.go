package experiments

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"st2gpu/internal/kernels"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
	"st2gpu/internal/trace"
)

// This file is the decode-once, evaluate-many sweep engine: a recording
// Set is decoded a single time into trace.Decoded flat arrays, and the
// (kernel × design-batch) grid of every predictor-only analysis is
// scheduled over a bounded worker pool. Each grid cell walks its kernel's
// arrays ONCE scoring a contiguous batch of designs (the design-batched
// kernel in trace amortizes the operand loads, true-carry masks and Peek
// computation across the batch), and writes its results into its own
// slots of the kernel-major result grid; the fold into rows happens
// afterwards in fixed suite × design order — the same per-worker-shard +
// fold-in-fixed-order rule the parallel simulator uses. The batch
// partition follows each kernel's lanes and the worker count (laneGrid),
// but each design's counters never depend on which batch it landed in
// (per-design predictor state is independent), so rows are
// bit-identical at any SweepWorkers count.

// runGrid runs n independent tasks over a fixed pool of `workers`
// goroutines (workers ≤ 0 means GOMAXPROCS) claiming task indices from
// a shared atomic counter — the same claim scheme as the simulator's SM
// pool, which gives each task a real worker id for the observability
// layer. fn receives (worker, task) and must write its result into
// caller-owned, task-indexed storage; runGrid itself shares nothing
// between tasks, which is what makes the schedule irrelevant to the
// outcome.
func runGrid(workers, n int, fn func(worker, t int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for t := 0; t < n; t++ {
			if err := fn(0, t); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				errs[t] = fn(w, t)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cellMeter is the sweep grids' observability tap: per-cell spans under
// one grid root span (cfg.Obs) and per-cell duration/throughput plus
// worker-occupancy histograms (cfg.Metrics). Everything it records is
// derived from wall-clock and scheduling, so none of it may — and none
// of it does — flow back into sweep results; a nil meter (observability
// disabled) makes every method a no-op.
type cellMeter struct {
	tr    *obs.Tracer // clock source; also the span sink when spans is set
	spans bool
	root  *obs.ActiveSpan
	busy  atomic.Int64

	cells    *metrics.Counter
	evalOps  *metrics.Counter
	durHist  *metrics.Histogram // log2(cell µs), open-ended at 2^40
	rateHist *metrics.Histogram // log2(cell eval-ops/s)
	occHist  *metrics.Histogram // busy workers sampled at cell start
}

// newCellMeter opens the grid's root span and registers the sweep
// metrics. Returns nil when both sinks are disabled.
func (c Config) newCellMeter(grid string, cells int) *cellMeter {
	if c.Metrics == nil && c.Obs == nil {
		return nil
	}
	m := &cellMeter{tr: c.Obs, spans: c.Obs.Enabled()}
	if m.tr == nil {
		// Metrics without spans still needs a clock for the duration
		// histograms; a private tracer provides one (no spans recorded).
		m.tr = obs.New()
	}
	if m.spans {
		m.root = c.Obs.Begin("sweep."+grid, obs.Int("cells", int64(cells)))
	}
	if c.Metrics != nil {
		m.cells = c.Metrics.Counter("sweep.cells")
		m.evalOps = c.Metrics.Counter("sweep.cell_eval_ops")
		m.durHist = c.Metrics.Histogram("sweep.cell_log2_us", 40)
		m.rateHist = c.Metrics.Histogram("sweep.cell_log2_eval_ops_per_sec", 48)
		m.occHist = c.Metrics.Histogram("sweep.busy_workers", 64)
	}
	return m
}

// cell marks one grid cell's start and returns its completion func.
// evalOps is the cell's design-evaluation volume (lanes × designs).
func (m *cellMeter) cell(worker int, kernel string, designs int, evalOps uint64) func() {
	if m == nil {
		return func() {}
	}
	start := m.tr.Elapsed()
	busy := m.busy.Add(1)
	var sp *obs.ActiveSpan
	if m.spans {
		sp = m.root.Child("cell",
			obs.Str("kernel", kernel),
			obs.Int("worker", int64(worker)),
			obs.Int("designs", int64(designs)),
			obs.Int("eval_ops", int64(evalOps)),
			obs.Int("queue_wait_us", (start-m.root.Start()).Microseconds()))
	}
	return func() {
		dur := m.tr.Elapsed() - start
		m.busy.Add(-1)
		sp.End()
		if m.cells == nil {
			return
		}
		m.cells.Add(1)
		m.evalOps.Add(evalOps)
		m.occHist.Observe(int(busy))
		m.durHist.Observe(bits.Len64(uint64(dur.Microseconds())))
		if secs := dur.Seconds(); secs > 0 {
			m.rateHist.Observe(bits.Len64(uint64(float64(evalOps) / secs)))
		}
	}
}

// close ends the grid's root span.
func (m *cellMeter) close() {
	if m != nil && m.spans {
		m.root.End()
	}
}

// foldFig5Rows folds the flat kernel-major (kernel × design) rate grid
// into Fig5 rows: per design, the mean of the per-kernel miss rates in
// fixed suite order. Shared by the in-process and sharded sweeps so
// both paths run the identical float fold.
func foldFig5Rows(designs []string, rates []stats.Rate, nk int) []Fig5Row {
	nd := len(designs)
	out := make([]Fig5Row, nd)
	vals := make([]float64, nk)
	for j, d := range designs {
		for i := 0; i < nk; i++ {
			vals[i] = rates[i*nd+j].Value()
		}
		out[j] = Fig5Row{Design: d, MissRate: stats.Mean(vals)}
	}
	return out
}

// foldFig3Rows folds the flat kernel-major (kernel × scheme) rate grid
// into per-kernel Fig3 rows plus the sample-weighted Average row, in
// fixed suite order. Shared by the in-process and sharded sweeps.
func foldFig3Rows(names []string, rates []stats.Rate) []Fig3Row {
	nk, nd := len(names), len(trace.Fig3Designs)
	rows := make([]Fig3Row, nk)
	var agg [3]stats.Rate
	for i := 0; i < nk; i++ {
		rows[i].Kernel = names[i]
		for j := 0; j < nd; j++ {
			r := rates[i*nd+j]
			rows[i].Rates[j] = r.Value()
			rows[i].Samples[j] = r.Total
			agg[j].Merge(r)
		}
	}
	var avg Fig3Row
	avg.Kernel = "Average"
	for j := range agg {
		avg.Rates[j] = agg[j].Value()
		avg.Samples[j] = agg[j].Total
	}
	return append(rows, avg)
}

// gridCell is one cell of the sweep grid: kernel `kernel`'s designs
// [lo, hi).
type gridCell struct{ kernel, lo, hi int }

// laneGrid partitions the (kernel × design) grid by decoded lanes:
// kernel k's nd designs split into clamp(⌈2·W·lanes_k / Σlanes⌉, 1, nd)
// contiguous batches, W being workers (≤ 0 means GOMAXPROCS). So each
// cell walks at most about 1/(2W) of the grid's lanes × designs volume
// unless its kernel runs out of designs to split, and a kernel holding
// at most Σlanes/(2W) lanes stays one cell, the maximum-amortization
// walk. Cells come in non-increasing lanes × designs order, kernel-major
// among equals, so the costliest cells are claimed first and the cheap
// ones fill in behind them.
func laneGrid(workers int, lanes []uint64, nd int) []gridCell {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var total uint64
	for _, n := range lanes {
		total += n
	}
	var cells []gridCell
	for k, n := range lanes {
		nb := 1
		if total > 0 {
			nb = int((2*uint64(workers)*n + total - 1) / total)
		}
		nb = max(1, min(nb, nd))
		for b := 0; b < nb; b++ {
			cells = append(cells, gridCell{k, b * nd / nb, (b + 1) * nd / nb})
		}
	}
	cost := func(c gridCell) uint64 { return lanes[c.kernel] * uint64(c.hi-c.lo) }
	sort.SliceStable(cells, func(a, b int) bool { return cost(cells[a]) > cost(cells[b]) })
	return cells
}

// sweepGrid evaluates every suite kernel of dec against designs on the
// lane-weighted grid and returns the flat kernel-major (kernel × design)
// result grid plus the suite's kernel names, its fixed fold order. Each
// cell writes only its own slots, so the grid needs no fold; the float
// folds over it run afterwards in suite × design order, and per-design
// results never depend on the batch a design landed in, so rows are
// bit-identical at any SweepWorkers count.
func sweepGrid[R any](cfg Config, dec *trace.Decoded, grid string, designs []string,
	eval func(*trace.DecodedKernel, []string) ([]R, error)) ([]R, []string, error) {
	if err := dec.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil {
		return nil, nil, err
	}
	ws := kernels.Suite()
	names := make([]string, len(ws))
	ks := make([]*trace.DecodedKernel, len(ws))
	lanes := make([]uint64, len(ws))
	for i, w := range ws {
		k, ok := dec.Kernel(w.Name)
		if !ok {
			return nil, nil, fmt.Errorf("experiments: decoded set is missing kernel %q", w.Name)
		}
		names[i], ks[i], lanes[i] = w.Name, k, uint64(k.NumLanes())
	}
	nd := len(designs)
	cells := laneGrid(cfg.SweepWorkers, lanes, nd)
	out := make([]R, len(ks)*nd)
	meter := cfg.newCellMeter(grid, len(cells))
	err := runGrid(cfg.SweepWorkers, len(cells), func(w, t int) error {
		c := cells[t]
		batch := designs[c.lo:c.hi]
		done := meter.cell(w, names[c.kernel], len(batch), lanes[c.kernel]*uint64(len(batch)))
		rs, err := eval(ks[c.kernel], batch)
		done()
		if err != nil {
			return err
		}
		copy(out[c.kernel*nd+c.lo:c.kernel*nd+c.hi], rs)
		return nil
	})
	meter.close()
	if err != nil {
		return nil, nil, err
	}
	return out, names, nil
}

// Fig5FromDecoded sweeps the design space over a decoded set: the
// lane-weighted (kernel × design-batch) grid runs on cfg.SweepWorkers
// workers and each cell is ONE array walk scoring its whole design
// batch — no varint decoding, no simulation, operand loads amortized
// across designs. Rows are bit-identical to Fig5 at any worker count.
func Fig5FromDecoded(cfg Config, dec *trace.Decoded, designs []string) ([]Fig5Row, error) {
	if designs == nil {
		designs = speculate.DesignSpace
	}
	rates, names, err := sweepGrid(cfg, dec, "fig5", designs, (*trace.DecodedKernel).EvalMissBatch)
	if err != nil {
		return nil, err
	}
	return foldFig5Rows(designs, rates, len(names)), nil
}

// Fig3FromDecoded runs the Figure 3 correlation analysis over a decoded
// set on the lane-weighted (kernel × scheme-batch) grid. Rows are
// bit-identical to Fig3 at any worker count.
func Fig3FromDecoded(cfg Config, dec *trace.Decoded) ([]Fig3Row, error) {
	rates, names, err := sweepGrid(cfg, dec, "fig3", trace.Fig3Designs, (*trace.DecodedKernel).EvalCorrBatch)
	if err != nil {
		return nil, err
	}
	return foldFig3Rows(names, rates), nil
}

// approxFromDecoded is the decoded-grid form of the approximate-adder
// study.
func approxFromDecoded(cfg Config, dec *trace.Decoded, designs []string) ([]ApproxRow, error) {
	res, names, err := sweepGrid(cfg, dec, "approx", designs, (*trace.DecodedKernel).EvalApproxBatch)
	if err != nil {
		return nil, err
	}
	// Aggregate in suite order so the floating-point sums do not depend
	// on the grid schedule.
	nk, nd := len(names), len(designs)
	out := make([]ApproxRow, nd)
	for j, d := range designs {
		var wrSum, reSum float64
		for i := 0; i < nk; i++ {
			wrSum += res[i*nd+j].Wrong.Value()
			reSum += res[i*nd+j].MeanRelErr
		}
		out[j] = ApproxRow{
			Design:       d,
			WrongResults: wrSum / float64(nk),
			MeanRelError: reSum / float64(nk),
		}
	}
	return out, nil
}
