package experiments

import (
	"fmt"
	"math/bits"
	"runtime"
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
// computation across the batch), and writes its results into a
// task-indexed slot; the fold into rows happens afterwards in fixed
// suite × design order — the same per-worker-shard + fold-in-fixed-order
// rule the parallel simulator uses. The batch partition varies with the
// worker count, but each design's counters never depend on which batch
// it landed in (per-design predictor state is independent), so rows are
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

// designBatches splits nd designs into contiguous [lo, hi) batches sized
// so the (kernel × batch) grid still has at least `workers` cells to
// keep every worker busy, clamped to [1, nd] batches. One worker gets
// one batch of everything — the maximum-amortization schedule.
func designBatches(workers, nk, nd int) [][2]int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nb := (workers + nk - 1) / nk
	if nb < 1 {
		nb = 1
	}
	if nb > nd {
		nb = nd
	}
	out := make([][2]int, nb)
	for b := 0; b < nb; b++ {
		out[b] = [2]int{b * nd / nb, (b + 1) * nd / nb}
	}
	return out
}

// foldBatches scatters per-cell batched results back into the flat
// (kernel × design) rate grid, in fixed order.
func foldBatches(rates []stats.Rate, cells [][]stats.Rate, batches [][2]int, nk, nd int) {
	nb := len(batches)
	for i := 0; i < nk; i++ {
		for b := 0; b < nb; b++ {
			lo := batches[b][0]
			for x, r := range cells[i*nb+b] {
				rates[i*nd+lo+x] = r
			}
		}
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

// suiteKernels resolves every suite kernel in the decoded set, in suite
// order — the fixed fold order of every grid below.
func suiteKernels(dec *trace.Decoded) ([]kernels.Workload, []*trace.DecodedKernel, error) {
	ws := kernels.Suite()
	ks := make([]*trace.DecodedKernel, len(ws))
	for i, w := range ws {
		k, ok := dec.Kernel(w.Name)
		if !ok {
			return nil, nil, fmt.Errorf("experiments: recording set is missing kernel %q", w.Name)
		}
		ks[i] = k
	}
	return ws, ks, nil
}

// Fig5FromDecoded sweeps the design space over a decoded set: the
// (kernel × design-batch) grid runs on cfg.SweepWorkers workers and each
// cell is ONE array walk scoring its whole design batch — no varint
// decoding, no simulation, operand loads amortized across designs. Rows
// are bit-identical to Fig5/Fig5FromSet at any worker count.
func Fig5FromDecoded(cfg Config, dec *trace.Decoded, designs []string) ([]Fig5Row, error) {
	if designs == nil {
		designs = speculate.DesignSpace
	}
	if err := dec.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil {
		return nil, err
	}
	ws, ks, err := suiteKernels(dec)
	if err != nil {
		return nil, err
	}
	nk, nd := len(ks), len(designs)
	batches := designBatches(cfg.SweepWorkers, nk, nd)
	nb := len(batches)
	cells := make([][]stats.Rate, nk*nb)
	meter := cfg.newCellMeter("fig5", nk*nb)
	err = runGrid(cfg.SweepWorkers, nk*nb, func(w, t int) error {
		i, b := t/nb, t%nb
		batch := designs[batches[b][0]:batches[b][1]]
		done := meter.cell(w, ws[i].Name, len(batch), uint64(ks[i].NumLanes())*uint64(len(batch)))
		rs, err := ks[i].EvalMissBatch(batch)
		done()
		if err != nil {
			return err
		}
		cells[t] = rs
		return nil
	})
	meter.close()
	if err != nil {
		return nil, err
	}
	rates := make([]stats.Rate, nk*nd)
	foldBatches(rates, cells, batches, nk, nd)
	return foldFig5Rows(designs, rates, nk), nil
}

// Fig3FromDecoded runs the Figure 3 correlation analysis over a decoded
// set with the (kernel × scheme-batch) grid on cfg.SweepWorkers workers.
// Rows are bit-identical to Fig3/Fig3FromSet at any worker count.
func Fig3FromDecoded(cfg Config, dec *trace.Decoded) ([]Fig3Row, error) {
	if err := dec.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil {
		return nil, err
	}
	ws, ks, err := suiteKernels(dec)
	if err != nil {
		return nil, err
	}
	nk, nd := len(ks), len(trace.Fig3Designs)
	batches := designBatches(cfg.SweepWorkers, nk, nd)
	nb := len(batches)
	cells := make([][]stats.Rate, nk*nb)
	meter := cfg.newCellMeter("fig3", nk*nb)
	err = runGrid(cfg.SweepWorkers, nk*nb, func(w, t int) error {
		i, b := t/nb, t%nb
		batch := trace.Fig3Designs[batches[b][0]:batches[b][1]]
		done := meter.cell(w, ws[i].Name, len(batch), uint64(ks[i].NumLanes())*uint64(len(batch)))
		rs, err := ks[i].EvalCorrBatch(batch)
		done()
		if err != nil {
			return err
		}
		cells[t] = rs
		return nil
	})
	meter.close()
	if err != nil {
		return nil, err
	}
	rates := make([]stats.Rate, nk*nd)
	foldBatches(rates, cells, batches, nk, nd)
	names := make([]string, nk)
	for i, w := range ws {
		names[i] = w.Name
	}
	return foldFig3Rows(names, rates), nil
}

// approxFromDecoded is the decoded-grid form of the approximate-adder
// study.
func approxFromDecoded(cfg Config, dec *trace.Decoded, designs []string) ([]ApproxRow, error) {
	if err := dec.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil {
		return nil, err
	}
	ws, ks, err := suiteKernels(dec)
	if err != nil {
		return nil, err
	}
	nk, nd := len(ks), len(designs)
	batches := designBatches(cfg.SweepWorkers, nk, nd)
	nb := len(batches)
	cells := make([][]trace.ApproxResult, nk*nb)
	meter := cfg.newCellMeter("approx", nk*nb)
	err = runGrid(cfg.SweepWorkers, nk*nb, func(w, t int) error {
		i, b := t/nb, t%nb
		batch := designs[batches[b][0]:batches[b][1]]
		done := meter.cell(w, ws[i].Name, len(batch), uint64(ks[i].NumLanes())*uint64(len(batch)))
		rs, err := ks[i].EvalApproxBatch(batch)
		done()
		if err != nil {
			return err
		}
		cells[t] = rs
		return nil
	})
	meter.close()
	if err != nil {
		return nil, err
	}
	res := make([]trace.ApproxResult, nk*nd)
	for i := 0; i < nk; i++ {
		for b := 0; b < nb; b++ {
			lo := batches[b][0]
			for x, r := range cells[i*nb+b] {
				res[i*nd+lo+x] = r
			}
		}
	}
	// Aggregate in suite order so the floating-point sums do not depend
	// on the grid schedule.
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
