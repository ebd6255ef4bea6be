// Package experiments contains one driver per figure and table of the
// paper's evaluation: each function runs the right simulations and
// returns the rows the paper plots, so the benchmarks in bench_test.go
// and the cmd/ tools regenerate every result from scratch.
package experiments

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/circuit"
	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/isa"
	"st2gpu/internal/kernels"
	"st2gpu/internal/metrics"
	"st2gpu/internal/metrics/runlog"
	"st2gpu/internal/obs"
	"st2gpu/internal/power"
	"st2gpu/internal/trace"
)

// Config parameterizes every experiment run.
type Config struct {
	Scale  int   // workload scale (1 = default evaluation size)
	NumSMs int   // simulated SM count
	Seed   int64 // determinism seed
	// ParallelSMs is forwarded to gpusim.Config.ParallelSMs: 0 lets each
	// launch use min(NumSMs, GOMAXPROCS) SM workers, 1 forces sequential
	// SM simulation. Results are identical either way.
	ParallelSMs int
	// RecordMaxBytes caps each kernel's in-memory adder-op recording
	// (0 = gpusim.DefaultRecordMaxBytes). Exceeding it fails the run with
	// a loud error instead of exhausting host memory.
	RecordMaxBytes uint64
	// SweepWorkers bounds the worker pool the decode-once sweep engine
	// schedules the (kernel × design) grid on: 0 lets the grid use
	// GOMAXPROCS workers, 1 forces sequential evaluation. Results are
	// bit-identical at any worker count.
	SweepWorkers int
	// Progress, when non-nil, is called after each kernel of a suite pass
	// finishes: done kernels so far, the suite total, and the kernel that
	// just completed. Calls are serialized; done is monotonic even when
	// kernels run concurrently.
	Progress func(done, total int, name string)
	// Metrics, when non-nil, receives experiment activity: every device
	// the experiment creates publishes its launch counters here, and the
	// sweep engine adds per-cell duration/throughput and worker-occupancy
	// histograms. Observability only — results are bit-identical with or
	// without a registry.
	Metrics *metrics.Registry
	// Obs, when non-nil, receives hierarchical spans (record → decode →
	// sweep cells, plus each launch's setup/simulate/fold) for the Chrome
	// trace and runlog v2 sinks. Observability only, like Metrics.
	Obs *obs.Tracer
}

// Default returns the configuration used by the benchmark harness.
func Default() Config { return Config{Scale: 1, NumSMs: 2, Seed: 1} }

// deviceConfig builds the simulator configuration for a mode.
func (c Config) deviceConfig(mode gpusim.AdderMode) gpusim.Config {
	dc := gpusim.DefaultConfig()
	dc.NumSMs = c.NumSMs
	dc.AdderMode = mode
	dc.Seed = c.Seed
	dc.ParallelSMs = c.ParallelSMs
	return dc
}

// newDevice builds a device for one experiment run with the configured
// observability (metrics registry, span tracer) installed. Many devices
// may share one registry: launch counters are atomic sums, so the folded
// totals are schedule-independent.
func (c Config) newDevice(dc gpusim.Config) (*gpusim.Device, error) {
	d, err := gpusim.New(dc)
	if err != nil {
		return nil, err
	}
	if c.Metrics != nil {
		d.SetMetrics(c.Metrics)
	}
	d.SetObs(c.Obs)
	return d, nil
}

// runSpec sets up, launches and verifies one workload spec on a fresh
// device with configuration dc.
func (c Config) runSpec(spec *kernels.Spec, dc gpusim.Config) (*gpusim.RunStats, *gpusim.Device, error) {
	d, err := c.newDevice(dc)
	if err != nil {
		return nil, nil, err
	}
	if spec.Setup != nil {
		if err := spec.Setup(d.Memory()); err != nil {
			return nil, nil, fmt.Errorf("experiments: %s setup: %w", spec.Name, err)
		}
	}
	rs, err := d.Launch(spec.Kernel)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: %w", spec.Name, err)
	}
	if spec.Verify != nil {
		if err := spec.Verify(d.Memory()); err != nil {
			return nil, nil, fmt.Errorf("experiments: %s output check: %w", spec.Name, err)
		}
	}
	return rs, d, nil
}

// recordSpec simulates one workload spec with a stream recorder
// installed (the parallel launch path stays enabled — recording shards
// are per-SM) and returns the captured adder-op stream.
func (c Config) recordSpec(spec *kernels.Spec, mode gpusim.AdderMode) (*gpusim.Recording, error) {
	d, err := c.newDevice(c.deviceConfig(mode))
	if err != nil {
		return nil, err
	}
	rec := gpusim.NewRecorder(c.RecordMaxBytes)
	d.SetRecorder(rec)
	if spec.Setup != nil {
		if err := spec.Setup(d.Memory()); err != nil {
			return nil, fmt.Errorf("experiments: %s setup: %w", spec.Name, err)
		}
	}
	if _, err := d.Launch(spec.Kernel); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", spec.Name, err)
	}
	if spec.Verify != nil {
		if err := spec.Verify(d.Memory()); err != nil {
			return nil, fmt.Errorf("experiments: %s output check: %w", spec.Name, err)
		}
	}
	return rec.Recording(), nil
}

// recordWorkload builds one named workload and records its stream.
func (c Config) recordWorkload(w kernels.Workload, mode gpusim.AdderMode) (*gpusim.Recording, error) {
	spec, err := w.Build(c.Scale)
	if err != nil {
		return nil, err
	}
	return c.recordSpec(spec, mode)
}

// decodeSuite records the suite once (RecordSuite) and decodes it once,
// its trace.decode_set span going to cfg.Obs.
func decodeSuite(cfg Config) (*trace.Decoded, error) {
	set, err := RecordSuite(cfg)
	if err != nil {
		return nil, err
	}
	return trace.DecodeSetTraced(set, cfg.Obs)
}

// RecordSuite simulates every suite kernel once under recording (kernels
// concurrent, SMs parallel within each launch) and returns the captured
// per-kernel streams, tagged with the capture configuration. Decode it
// once with trace.DecodeSet and evaluate any number of designs over the
// decoded form, or let SuiteStore persist that form so later processes
// skip the simulation and the decode.
func RecordSuite(cfg Config) (*trace.Set, error) {
	ws := kernels.Suite()
	recs := make([]*gpusim.Recording, len(ws))
	suiteSpan := cfg.Obs.Begin("experiments.record_suite",
		obs.Int("kernels", int64(len(ws))))
	err := cfg.forEachKernel(func(i int, w kernels.Workload) error {
		kernSpan := suiteSpan.Child("record." + w.Name)
		rec, err := cfg.recordWorkload(w, gpusim.BaselineAdders)
		if err != nil {
			kernSpan.End()
			return err
		}
		kernSpan.Add(
			obs.Int("records", int64(rec.NumOps())),
			obs.Int("bytes", int64(rec.Bytes())))
		kernSpan.End()
		recs[i] = rec
		return nil
	})
	suiteSpan.End()
	if err != nil {
		return nil, err
	}
	set := trace.NewSet(cfg.Scale, cfg.NumSMs, cfg.Seed)
	for i, w := range ws {
		set.Add(w.Name, recs[i])
	}
	return set, nil
}

// forEachKernel runs fn over the evaluation suite on the forEach pool;
// fn receives the kernel's index for order-preserving collection. If
// c.Progress is set it is invoked under a mutex as each kernel finishes.
func (c Config) forEachKernel(fn func(i int, w kernels.Workload) error) error {
	return c.forEachPassKernel(1, fn)
}

// forEachPassKernel runs fn over passes × the evaluation suite on one
// forEach pool, so no pass waits for the previous pass's slowest kernel.
// fn receives the cell index pass·len(suite) + kernel index. Progress
// counts kernels over all passes.
func (c Config) forEachPassKernel(passes int, fn func(cell int, w kernels.Workload) error) error {
	ws := kernels.Suite()
	total := passes * len(ws)
	var mu sync.Mutex
	done := 0
	return forEach(total, func(cell int) error {
		w := ws[cell%len(ws)]
		err := fn(cell, w)
		if c.Progress != nil {
			mu.Lock()
			done++
			c.Progress(done, total, w.Name)
			mu.Unlock()
		}
		return err
	})
}

// forEach runs fn(i) for every i in [0, n) concurrently (one goroutine
// per index, at most GOMAXPROCS at a time) and returns the error of the
// lowest failing index. Each invocation builds its own devices, so
// results are deterministic and order-independent as long as fn stores
// them by index.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
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

// runWorkload builds and runs one named workload.
func (c Config) runWorkload(w kernels.Workload, mode gpusim.AdderMode) (*gpusim.RunStats, *gpusim.Device, error) {
	spec, err := w.Build(c.Scale)
	if err != nil {
		return nil, nil, err
	}
	return c.runSpec(spec, c.deviceConfig(mode))
}

// RunSuite runs the full evaluation suite sequentially under one adder
// mode and returns the per-kernel RunStats in suite order. When lg is
// non-nil it emits one runlog manifest event per launch; with
// cfg.Metrics unset each launch gets a fresh metrics registry so every
// event's snapshot is self-contained, while a caller-provided registry
// is shared across launches (snapshots cumulative, and live exporters
// like /metrics see the whole suite). The verify phase is timed around
// the workload's output check (clamped to ≥1ns so manifests never
// report zero). cfg.Progress, if set, fires after each kernel.
func RunSuite(cfg Config, mode gpusim.AdderMode, lg *runlog.Logger) ([]*gpusim.RunStats, error) {
	ws := kernels.Suite()
	out := make([]*gpusim.RunStats, 0, len(ws))
	for i, w := range ws {
		spec, err := w.Build(cfg.Scale)
		if err != nil {
			return nil, err
		}
		dc := cfg.deviceConfig(mode)
		d, err := gpusim.New(dc)
		if err != nil {
			return nil, err
		}
		reg := cfg.Metrics
		if reg == nil {
			reg = metrics.New()
		}
		d.SetMetrics(reg)
		d.SetObs(cfg.Obs)
		if spec.Setup != nil {
			if err := spec.Setup(d.Memory()); err != nil {
				return nil, fmt.Errorf("experiments: %s setup: %w", spec.Name, err)
			}
		}
		rs, err := d.Launch(spec.Kernel)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.Name, err)
		}
		tVerify := time.Now() //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
		if spec.Verify != nil {
			if err := spec.Verify(d.Memory()); err != nil {
				return nil, fmt.Errorf("experiments: %s output check: %w", spec.Name, err)
			}
		}
		ph := d.LaunchTimings()
		if ph.Verify = time.Since(tVerify); ph.Verify <= 0 { //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
			ph.Verify = time.Nanosecond
		}
		if lg != nil {
			if err := lg.LogRun(cfg.Scale, dc, rs, ph, reg); err != nil {
				return nil, fmt.Errorf("experiments: %s manifest: %w", spec.Name, err)
			}
		}
		out = append(out, rs)
		if cfg.Progress != nil {
			cfg.Progress(i+1, len(ws), w.Name)
		}
	}
	return out, nil
}

// --- Figure 1: dynamic instruction mix ---

// MixRow is one bar of Figure 1.
type MixRow struct {
	Kernel   string
	ALUAdd   float64 // fraction of dynamic thread instructions
	FPUAdd   float64
	ALUOther float64
	FPUOther float64 // fp mul/div + SFU
	Other    float64 // memory, control, int mul/div
}

// Fig1 reproduces Figure 1: the ALU/FPU add share of every kernel's
// dynamic instructions, with an Average row appended.
func Fig1(cfg Config) ([]MixRow, error) {
	rows := make([]MixRow, 23)
	err := cfg.forEachKernel(func(i int, w kernels.Workload) error {
		rs, _, err := cfg.runWorkload(w, gpusim.BaselineAdders)
		if err != nil {
			return err
		}
		tot := float64(rs.TotalThreadInstrs())
		row := MixRow{
			Kernel:   w.Name,
			ALUAdd:   float64(rs.ThreadInstrs[isa.FUAluAdd]) / tot,
			FPUAdd:   float64(rs.ThreadInstrs[isa.FUFpAdd]) / tot,
			ALUOther: float64(rs.ThreadInstrs[isa.FUAluOther]+rs.ThreadInstrs[isa.FUIntMul]+rs.ThreadInstrs[isa.FUIntDiv]) / tot,
			FPUOther: float64(rs.ThreadInstrs[isa.FUFpMul]+rs.ThreadInstrs[isa.FUFpDiv]+rs.ThreadInstrs[isa.FUSfu]) / tot,
		}
		row.Other = 1 - row.ALUAdd - row.FPUAdd - row.ALUOther - row.FPUOther
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	var avg MixRow
	for _, row := range rows {
		avg.ALUAdd += row.ALUAdd
		avg.FPUAdd += row.FPUAdd
		avg.ALUOther += row.ALUOther
		avg.FPUOther += row.FPUOther
		avg.Other += row.Other
	}
	n := float64(len(rows))
	avg.Kernel = "Average"
	avg.ALUAdd /= n
	avg.FPUAdd /= n
	avg.ALUOther /= n
	avg.FPUOther /= n
	avg.Other /= n
	return append(rows, avg), nil
}

// --- Section III: carry-chain lengths ---

// CarryChainRow is one kernel's Section III carry statistics over its
// baseline add stream. A lane add's chain is its longest run of carry
// propagation (bitmath.CarryChainLength over its unit's width); it is
// short when it stays under one 8-bit slice. CarryRates[i] is the
// fraction of lane adds with an (i+1)-th slice boundary whose carry into
// slice i+1 is set, over CarrySamples[i] such adds.
type CarryChainRow struct {
	Kernel        string
	Ops           uint64 // lane adds
	ShortFraction float64
	MeanBits      float64
	CarryRates    [7]float64
	CarrySamples  [7]uint64
}

// CarryChains measures Section III's observation that most additions
// have short carry chains — why per-slice speculation works at all. The
// baseline suite is recorded and decoded as for Figure 3, and each
// kernel's decoded lanes are walked once. The appended "Average" row is
// the unweighted mean over the kernels that have adds; its CarryRates[i]
// averages the kernels with an i-th boundary sample, and its counts are
// suite totals.
func CarryChains(cfg Config) ([]CarryChainRow, error) {
	dec, err := decodeSuite(cfg)
	if err != nil {
		return nil, err
	}
	names := dec.Names()
	rows := make([]CarryChainRow, len(names))
	if err := forEach(len(names), func(i int) error {
		k, _ := dec.Kernel(names[i]) // names come from dec itself
		var err error
		rows[i], err = carryChains(names[i], k)
		return err
	}); err != nil {
		return nil, err
	}
	avg := CarryChainRow{Kernel: "Average"}
	var kernels int
	var rateKernels [7]int
	for _, r := range rows {
		avg.Ops += r.Ops
		if r.Ops == 0 {
			continue
		}
		kernels++
		avg.ShortFraction += r.ShortFraction
		avg.MeanBits += r.MeanBits
		for b, n := range r.CarrySamples {
			avg.CarrySamples[b] += n
			if n > 0 {
				rateKernels[b]++
				avg.CarryRates[b] += r.CarryRates[b]
			}
		}
	}
	if kernels > 0 {
		avg.ShortFraction /= float64(kernels)
		avg.MeanBits /= float64(kernels)
	}
	for b, n := range rateKernels {
		if n > 0 {
			avg.CarryRates[b] /= float64(n)
		}
	}
	return append(rows, avg), nil
}

// carryChains walks one decoded kernel's lanes for its CarryChainRow.
func carryChains(name string, k *trace.DecodedKernel) (CarryChainRow, error) {
	row := CarryChainRow{Kernel: name, Ops: uint64(k.NumLanes())}
	var short, chainBits uint64
	var carried [7]uint64
	for i, kind := range k.Kind {
		ac, err := kind.AdderConfig(8)
		if err != nil {
			return row, fmt.Errorf("experiments: %s: %w", name, err)
		}
		boundaries := ac.NumBoundaries()
		j := k.Off[i]
		for m := k.Active[i]; m != 0; m &= m - 1 {
			cin := uint(k.Cin[i] >> bits.TrailingZeros32(m) & 1)
			n := bitmath.CarryChainLength(k.EA[j], k.EB[j], cin, ac.Width)
			chainBits += uint64(n)
			if n < 8 {
				short++
			}
			for b := uint(0); b < boundaries; b++ {
				row.CarrySamples[b]++
				carried[b] += k.Carries[j] >> b & 1
			}
			j++
		}
	}
	if row.Ops == 0 {
		return row, nil
	}
	row.ShortFraction = float64(short) / float64(row.Ops)
	row.MeanBits = float64(chainBits) / float64(row.Ops)
	for b, n := range row.CarrySamples {
		if n > 0 {
			row.CarryRates[b] = float64(carried[b]) / float64(n)
		}
	}
	return row, nil
}

// --- Figure 2: value evolution in pathfinder ---

// Fig2Series is one PC's value stream.
type Fig2Series struct {
	PC     uint32
	Points []trace.ValuePoint
}

// Fig2 traces one pathfinder thread's additions per PC — the data behind
// the paper's Figure 2 (bottom). The kernel is simulated once with the
// parallel recording path, and its recording is decoded and walked as in
// Fig2FromDecoded.
func Fig2(cfg Config, gtid uint32, maxPts int) ([]Fig2Series, error) {
	spec, err := kernels.Pathfinder(cfg.Scale)
	if err != nil {
		return nil, err
	}
	rec, err := cfg.recordSpec(spec, gpusim.BaselineAdders)
	if err != nil {
		return nil, err
	}
	set := trace.NewSet(cfg.Scale, cfg.NumSMs, cfg.Seed)
	set.Add(fig2Kernel, rec)
	dec, err := trace.DecodeSet(set)
	if err != nil {
		return nil, err
	}
	return Fig2FromDecoded(cfg, dec, gtid, maxPts)
}

// fig2Kernel is the kernel Figure 2 traces.
const fig2Kernel = "pathfinder"

// Fig2FromDecoded fills the Figure 2 value trace from a decoded suite's
// pathfinder kernel with zero simulation. Its series equal Fig2's.
func Fig2FromDecoded(cfg Config, dec *trace.Decoded, gtid uint32, maxPts int) ([]Fig2Series, error) {
	if err := dec.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil {
		return nil, err
	}
	k, ok := dec.Kernel(fig2Kernel)
	if !ok {
		return nil, fmt.Errorf("experiments: decoded set is missing kernel %q", fig2Kernel)
	}
	vt := trace.NewValueTrace(k, gtid, maxPts)
	out := make([]Fig2Series, 0, 8)
	for _, pc := range vt.PCs() {
		out = append(out, Fig2Series{PC: pc, Points: vt.Series(pc)})
	}
	return out, nil
}

// --- Figure 3: carry-in correlation ---

// Fig3Row holds one kernel's three match rates (Fig3Designs order) and
// the number of boundary observations behind them (kernels whose threads
// execute each add PC only once contribute no per-thread-PC samples).
type Fig3Row struct {
	Kernel  string
	Rates   [3]float64
	Samples [3]uint64
}

// Fig3 measures the temporal/spatial carry correlation of every kernel
// plus the op-weighted suite aggregate (appended as "Average"). The
// suite is simulated once under the parallel recording path, decoded
// once into flat arrays, and the (kernel × scheme) grid runs on the
// decode-once sweep engine — every rate is bit-identical at any
// cfg.SweepWorkers count.
func Fig3(cfg Config) ([]Fig3Row, error) {
	dec, err := decodeSuite(cfg)
	if err != nil {
		return nil, err
	}
	return Fig3FromDecoded(cfg, dec)
}

// --- Figure 5: carry-speculation design space ---

// Fig5Row is one design's average thread misprediction rate.
type Fig5Row struct {
	Design   string
	MissRate float64
}

// Fig5 sweeps the speculation design space over the full suite with a
// single simulation pass per kernel (all designs observe the identical
// operation stream). The suite is recorded once under the parallel
// recording path, decoded once into flat arrays, and the
// (kernel × design) grid runs on the decode-once sweep engine — adding
// designs costs one array walk each, not a decode or a simulation.
// Rates are bit-identical at any cfg.SweepWorkers count. The returned
// rows follow the paper's Figure 5 left-to-right order; rates are
// unweighted kernel averages.
func Fig5(cfg Config, designs []string) ([]Fig5Row, error) {
	dec, err := decodeSuite(cfg)
	if err != nil {
		return nil, err
	}
	return Fig5FromDecoded(cfg, dec, designs)
}

// --- Figure 6 + Section VI: the final design on the real pipeline ---

// Fig6Row is one kernel under the hardware ST² path (CRF, contention,
// write-back arbitration).
type Fig6Row struct {
	Kernel        string
	MissRate      float64
	MeanRecompute float64 // slices recomputed per misprediction
	MaxRecompute  int
	CRFConflicts  uint64
}

// Fig6 runs the full suite on the ST² GPU and reports the per-kernel
// thread misprediction rates of Figure 6 plus the recompute statistics
// quoted in Section VI (1.94 average, 2.73 max). The Average row is
// appended last.
func Fig6(cfg Config) ([]Fig6Row, error) {
	rows := make([]Fig6Row, 23)
	err := cfg.forEachKernel(func(i int, w kernels.Workload) error {
		rs, _, err := cfg.runWorkload(w, gpusim.ST2Adders)
		if err != nil {
			return err
		}
		var merged Fig6Row
		merged.Kernel = w.Name
		merged.MissRate = rs.MispredictionRate()
		var mean float64
		var n float64
		// Canonical kind order: the float fold below must not depend on
		// map iteration order.
		for _, kind := range core.UnitKinds {
			u := rs.Units[kind]
			if u.RecomputeHistogram == nil || u.RecomputeHistogram.Total() == 0 {
				continue
			}
			mean += u.RecomputeHistogram.Mean() * float64(u.RecomputeHistogram.Total())
			n += float64(u.RecomputeHistogram.Total())
			if mx := u.RecomputeHistogram.Max(); mx > merged.MaxRecompute {
				merged.MaxRecompute = mx
			}
		}
		if n > 0 {
			merged.MeanRecompute = mean / n
		}
		merged.CRFConflicts = rs.CRF.Conflicts
		rows[i] = merged
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rateSum, recompSum float64
	maxRecomp := 0
	for _, merged := range rows {
		rateSum += merged.MissRate
		recompSum += merged.MeanRecompute
		if merged.MaxRecompute > maxRecomp {
			maxRecomp = merged.MaxRecompute
		}
	}
	avg := Fig6Row{
		Kernel:        "Average",
		MissRate:      rateSum / float64(len(rows)),
		MeanRecompute: recompSum / float64(len(rows)),
		MaxRecompute:  maxRecomp,
	}
	return append(rows, avg), nil
}

// --- Figure 7: energy breakdown ---

// Fig7Row is one kernel's baseline and ST² energy breakdown.
type Fig7Row struct {
	Kernel   string
	Baseline power.Breakdown
	ST2      power.Breakdown
	// Normalized savings.
	SystemSaving float64 // 1 − ST2.Total/Baseline.Total
	ChipSaving   float64 // excluding DRAM
	// Arithmetic intensity of the baseline run (ALU+FPU share of system
	// energy) — the paper's ">20% ALU+FPU system energy" classifier.
	ALUFPUShare float64
}

// Fig7Summary aggregates the paper's headline numbers.
type Fig7Summary struct {
	AvgSystemSaving float64
	AvgChipSaving   float64
	AvgALUFPUShare  float64 // baseline, of system energy
	AvgALUFPUChip   float64 // baseline, of chip energy
	// The ">20% ALU+FPU" subset.
	IntenseCount          int
	IntenseSystemSaving   float64
	IntenseChipSaving     float64
	MaxSystemSaving       float64
	MaxSystemSavingKernel string
}

// Fig7 runs every kernel under both adder microarchitectures and prices
// the activity with the power model.
func Fig7(cfg Config) ([]Fig7Row, Fig7Summary, error) {
	tbl, err := power.DefaultTable(circuit.SAED90())
	if err != nil {
		return nil, Fig7Summary{}, err
	}
	rows := make([]Fig7Row, 23)
	err = cfg.forEachKernel(func(i int, w kernels.Workload) error {
		base, dBase, err := cfg.runWorkload(w, gpusim.BaselineAdders)
		if err != nil {
			return err
		}
		st2, dST2, err := cfg.runWorkload(w, gpusim.ST2Adders)
		if err != nil {
			return err
		}
		row := Fig7Row{
			Kernel:   w.Name,
			Baseline: power.FromRun(base, dBase.Prices(), tbl),
			ST2:      power.FromRun(st2, dST2.Prices(), tbl),
		}
		row.SystemSaving = 1 - row.ST2.Total()/row.Baseline.Total()
		row.ChipSaving = 1 - row.ST2.Chip()/row.Baseline.Chip()
		row.ALUFPUShare = row.Baseline[power.CompALUFPU] / row.Baseline.Total()
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, Fig7Summary{}, err
	}
	var sum Fig7Summary
	for _, row := range rows {
		sum.AvgSystemSaving += row.SystemSaving
		sum.AvgChipSaving += row.ChipSaving
		sum.AvgALUFPUShare += row.ALUFPUShare
		sum.AvgALUFPUChip += row.Baseline[power.CompALUFPU] / row.Baseline.Chip()
		if row.ALUFPUShare > 0.20 {
			sum.IntenseCount++
			sum.IntenseSystemSaving += row.SystemSaving
			sum.IntenseChipSaving += row.ChipSaving
		}
		if row.SystemSaving > sum.MaxSystemSaving {
			sum.MaxSystemSaving = row.SystemSaving
			sum.MaxSystemSavingKernel = row.Kernel
		}
	}
	n := float64(len(rows))
	sum.AvgSystemSaving /= n
	sum.AvgChipSaving /= n
	sum.AvgALUFPUShare /= n
	sum.AvgALUFPUChip /= n
	if sum.IntenseCount > 0 {
		sum.IntenseSystemSaving /= float64(sum.IntenseCount)
		sum.IntenseChipSaving /= float64(sum.IntenseCount)
	}
	return rows, sum, nil
}

// --- Section VI: performance overhead ---

// PerfRow is one kernel's cycle comparison.
type PerfRow struct {
	Kernel     string
	BaseCycles uint64
	ST2Cycles  uint64
	Slowdown   float64 // (ST2−base)/base
}

// PerfOverhead reproduces the "execution time within 0.36% of baseline,
// worst case 3.5%" analysis. The Average row is appended last.
func PerfOverhead(cfg Config) ([]PerfRow, error) {
	rows := make([]PerfRow, 23)
	err := cfg.forEachKernel(func(i int, w kernels.Workload) error {
		base, _, err := cfg.runWorkload(w, gpusim.BaselineAdders)
		if err != nil {
			return err
		}
		st2, _, err := cfg.runWorkload(w, gpusim.ST2Adders)
		if err != nil {
			return err
		}
		rows[i] = PerfRow{
			Kernel:     w.Name,
			BaseCycles: base.Cycles,
			ST2Cycles:  st2.Cycles,
			Slowdown:   float64(st2.Cycles)/float64(base.Cycles) - 1,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, row := range rows {
		sum += row.Slowdown
	}
	rows = append(rows, PerfRow{Kernel: "Average", Slowdown: sum / float64(len(rows))})
	return rows, nil
}

// --- Section V-C: power-model calibration and validation ---

// PowerValidation reproduces the calibration workflow: run the 123
// micro-stressors on the baseline device, "measure" them on the synthetic
// silicon, solve Equation 1's factors, and validate on the 23-kernel
// suite.
func PowerValidation(cfg Config, noiseSigma float64) (power.ValidationReport, power.Model, error) {
	tbl, err := power.DefaultTable(circuit.SAED90())
	if err != nil {
		return power.ValidationReport{}, power.Model{}, err
	}
	silicon := power.NewSilicon(cfg.Seed, noiseSigma)
	// The synthetic silicon models a chip of 2× the simulated SM count so
	// the busy/idle split varies enough across stressors to identify
	// P_idleSM separately from P_const (the stressor grids span 1..4
	// blocks → 1..NumSMs busy SMs).
	chipSMs := 2 * cfg.NumSMs

	// The launches run on the forEach pool and are priced there; the
	// silicon's noise RNG is stateful, so measure calls it in index order
	// after the pool joins, keeping the model and report bit-identical at
	// any GOMAXPROCS.
	sample := func(name string, rs *gpusim.RunStats, d *gpusim.Device) power.Sample {
		return power.Sample{
			Name:    name,
			B:       power.FromRun(rs, d.Prices(), tbl),
			Seconds: tbl.Seconds(rs),
			IdleSMs: chipSMs - rs.SMsUsed,
		}
	}
	measure := func(ss []power.Sample) {
		for i := range ss {
			ss[i].Measured = silicon.Measure(ss[i].B, ss[i].Seconds, ss[i].IdleSMs)
		}
	}

	train := make([]power.Sample, kernels.NumMicro)
	err = forEach(kernels.NumMicro, func(i int) error {
		spec, err := kernels.Micro(i)
		if err != nil {
			return err
		}
		rs, d, err := cfg.runSpec(spec, cfg.deviceConfig(gpusim.BaselineAdders))
		if err != nil {
			return err
		}
		train[i] = sample(spec.Name, rs, d)
		return nil
	})
	if err != nil {
		return power.ValidationReport{}, power.Model{}, err
	}
	measure(train)
	model, err := power.Calibrate(train)
	if err != nil {
		return power.ValidationReport{}, power.Model{}, err
	}

	val := make([]power.Sample, len(kernels.Suite()))
	err = cfg.forEachKernel(func(i int, w kernels.Workload) error {
		rs, d, err := cfg.runWorkload(w, gpusim.BaselineAdders)
		if err != nil {
			return err
		}
		val[i] = sample(w.Name, rs, d)
		return nil
	})
	if err != nil {
		return power.ValidationReport{}, power.Model{}, err
	}
	measure(val)
	rep, err := power.Validate(model, val)
	return rep, model, err
}

// --- Section V-B / VI: circuit-level results ---

// SliceWidthDSE re-exports the Section V-B sweep.
func SliceWidthDSE() ([]circuit.SliceCharacterization, int, error) {
	tech := circuit.SAED90()
	crf := circuit.DefaultCRF()
	perBit := crf.ReadEnergy(tech) / float64(crf.BitsPerRow) * 8
	return tech.SliceWidthDSE([]uint{2, 4, 8, 16, 32}, perBit)
}

// Overheads reproduces the Section VI area/power overhead budget, using
// measured average adder utilization from a suite run when provided
// (falls back to the paper's conservative 25%).
func Overheads(adderUtilization float64) (circuit.OverheadBudget, error) {
	if adderUtilization <= 0 {
		adderUtilization = 0.25
	}
	return circuit.ComputeOverheads(circuit.TitanV(), circuit.DefaultLevelShifter(),
		circuit.DefaultCRF(), 8, 1.0, adderUtilization, 1.2e9)
}

// --- Section V-B: technology scaling ---

// ScalingRow compares the slice characterization under two process nodes.
type ScalingRow struct {
	Tech         string
	SliceBits    uint
	SupplyRatio  float64
	EnergySaving float64
}

// TechnologyScaling re-checks the paper's claim that "the relative energy
// differences across adder designs will persist when we scale the designs
// to the 12 nm FinFET process": it characterizes the 8-bit slice design
// under the 90 nm library used for the main results and under the
// FinFET-like node, and returns both (the savings fractions should agree
// within a few points even though absolute energies differ by ~50×).
func TechnologyScaling(widths []uint) ([]ScalingRow, error) {
	if widths == nil {
		widths = []uint{4, 8, 16}
	}
	out := make([]ScalingRow, 0, 2*len(widths))
	for _, tech := range []circuit.Technology{circuit.SAED90(), circuit.FinFET12()} {
		for _, w := range widths {
			c, err := tech.CharacterizeSlices(w)
			if err != nil {
				return nil, err
			}
			out = append(out, ScalingRow{
				Tech:         tech.Name,
				SliceBits:    w,
				SupplyRatio:  c.SupplyRatio,
				EnergySaving: c.EnergySaving,
			})
		}
	}
	return out, nil
}
