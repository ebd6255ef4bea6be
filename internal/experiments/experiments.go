// Package experiments contains one driver per figure and table of the
// paper's evaluation; each returns the rows the paper plots. The drivers
// fold shared suite passes (passes.go): a Config from Default() carries
// a memo with one pass of the suite per effective device configuration,
// shared by every copy of that Config and by no other Default() value.
package experiments

import (
	"fmt"
	"math/bits"
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
	// a loud error instead of exhausting host memory. The baseline suite
	// pass always records, so the cap applies to every driver that reads
	// it.
	RecordMaxBytes uint64
	// SweepWorkers bounds the worker pool the decode-once sweep engine
	// schedules the (kernel × design) grid on: 0 lets the grid use
	// GOMAXPROCS workers, 1 forces sequential evaluation. Results are
	// bit-identical at any worker count.
	SweepWorkers int
	// Progress, when non-nil, is called after each kernel of a suite pass
	// finishes: done kernels so far, the total of the passes launched
	// together, and the kernel that just completed. Only passes that
	// actually execute report progress; a pass reused from the memo
	// reports none. Calls are serialized; done is monotonic even when
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

	// memo holds the suite passes every copy of this Config shares; nil
	// in a Config literal, whose drivers each use a throwaway memo.
	memo *passMemo
}

// Default returns the configuration used by the benchmark harness, with
// a fresh memo of suite passes that every copy of it shares.
func Default() Config { return Config{Scale: 1, NumSMs: 2, Seed: 1, memo: new(passMemo)} }

// deviceConfig builds the simulator configuration for a mode.
func (c Config) deviceConfig(mode gpusim.AdderMode) gpusim.Config {
	dc := gpusim.DefaultConfig()
	dc.NumSMs = c.NumSMs
	dc.AdderMode = mode
	dc.Seed = c.Seed
	dc.ParallelSMs = c.ParallelSMs
	return dc
}

// run is one verified launch: its statistics, its device's energy
// prices, and its phase timings with the output check's time filled in.
type run struct {
	stats  *gpusim.RunStats
	prices map[core.UnitKind]core.EnergyParams
	phases gpusim.PhaseTimings
}

// runSpec sets up, launches and verifies one workload spec on a fresh
// device with configuration dc and the configured observability (metrics
// registry, span tracer) installed. Many devices may share one registry:
// launch counters are atomic sums, so the folded totals are
// schedule-independent. A non-nil rec records the add stream (the
// parallel launch path stays enabled: recording shards are per-SM). The
// verify phase is timed around the workload's output check, clamped to
// ≥1ns so manifests never report zero.
func (c Config) runSpec(spec *kernels.Spec, dc gpusim.Config, rec *gpusim.Recorder) (run, error) {
	d, err := gpusim.New(dc)
	if err != nil {
		return run{}, err
	}
	if c.Metrics != nil {
		d.SetMetrics(c.Metrics)
	}
	d.SetObs(c.Obs)
	d.SetRecorder(rec)
	if spec.Setup != nil {
		if err := spec.Setup(d.Memory()); err != nil {
			return run{}, fmt.Errorf("experiments: %s setup: %w", spec.Name, err)
		}
	}
	rs, err := d.Launch(spec.Kernel)
	if err != nil {
		return run{}, fmt.Errorf("experiments: %s: %w", spec.Name, err)
	}
	tVerify := time.Now() //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
	if spec.Verify != nil {
		if err := spec.Verify(d.Memory()); err != nil {
			return run{}, fmt.Errorf("experiments: %s output check: %w", spec.Name, err)
		}
	}
	ph := d.LaunchTimings()
	if ph.Verify = time.Since(tVerify); ph.Verify <= 0 { //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
		ph.Verify = time.Nanosecond
	}
	return run{stats: rs, prices: d.Prices(), phases: ph}, nil
}

// RecordSuite simulates every suite kernel once under recording (kernels
// concurrent, SMs parallel within each launch) and returns the captured
// per-kernel streams, tagged with the capture configuration. Decode it
// once with trace.DecodeSet and evaluate any number of designs over the
// decoded form, or let SuiteStore persist that form so later processes
// skip the simulation and the decode. Its pass is its own: it neither
// reads nor fills cfg's memo of suite passes.
func RecordSuite(cfg Config) (*trace.Set, error) {
	p := &suitePass{dc: cfg.deviceConfig(gpusim.BaselineAdders)}
	p.ready.Add(1)
	span := cfg.Obs.Begin("experiments.record_suite")
	cfg.runPasses([]*suitePass{p})
	span.End()
	if p.err != nil {
		return nil, p.err
	}
	return p.set(cfg), nil
}

// RunSuite runs the workloads ws sequentially under one adder mode and
// returns their RunStats in ws order. When lg is non-nil it emits one
// runlog manifest event per launch; with cfg.Metrics unset each launch
// gets a fresh metrics registry so every event's snapshot is
// self-contained, while a caller-provided registry is shared across
// launches (snapshots cumulative, and live exporters like /metrics see
// the whole suite). cfg.Progress, if set, fires after each kernel. These
// launches are the caller's own: they neither read nor fill cfg's memo
// of suite passes.
func RunSuite(cfg Config, ws []kernels.Workload, mode gpusim.AdderMode, lg *runlog.Logger) ([]*gpusim.RunStats, error) {
	out := make([]*gpusim.RunStats, 0, len(ws))
	c := cfg
	for i, w := range ws {
		spec, err := w.Build(cfg.Scale)
		if err != nil {
			return nil, err
		}
		if cfg.Metrics == nil {
			c.Metrics = metrics.New()
		}
		dc := cfg.deviceConfig(mode)
		r, err := c.runSpec(spec, dc, nil)
		if err != nil {
			return nil, err
		}
		if lg != nil {
			if err := lg.LogRun(cfg.Scale, dc, r.stats, r.phases, c.Metrics); err != nil {
				return nil, fmt.Errorf("experiments: %s manifest: %w", spec.Name, err)
			}
		}
		out = append(out, r.stats)
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
// dynamic instructions in the baseline pass, with an Average row
// appended.
func Fig1(cfg Config) ([]MixRow, error) {
	ps, err := cfg.suite(cfg.deviceConfig(gpusim.BaselineAdders))
	if err != nil {
		return nil, err
	}
	ws := kernels.Suite()
	rows := make([]MixRow, len(ws))
	var avg MixRow
	for i, r := range ps[0].runs {
		rs := r.stats
		tot := float64(rs.TotalThreadInstrs())
		row := MixRow{
			Kernel:   ws[i].Name,
			ALUAdd:   float64(rs.ThreadInstrs[isa.FUAluAdd]) / tot,
			FPUAdd:   float64(rs.ThreadInstrs[isa.FUFpAdd]) / tot,
			ALUOther: float64(rs.ThreadInstrs[isa.FUAluOther]+rs.ThreadInstrs[isa.FUIntMul]+rs.ThreadInstrs[isa.FUIntDiv]) / tot,
			FPUOther: float64(rs.ThreadInstrs[isa.FUFpMul]+rs.ThreadInstrs[isa.FUFpDiv]+rs.ThreadInstrs[isa.FUSfu]) / tot,
		}
		row.Other = 1 - row.ALUAdd - row.FPUAdd - row.ALUOther - row.FPUOther
		rows[i] = row
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
// have short carry chains — why per-slice speculation works at all. Each
// kernel's lanes in the shared decoded baseline pass are walked once. The appended "Average" row is
// the unweighted mean over the kernels that have adds; its CarryRates[i]
// averages the kernels with an i-th boundary sample, and its counts are
// suite totals.
func CarryChains(cfg Config) ([]CarryChainRow, error) {
	dec, err := cfg.decoded()
	if err != nil {
		return nil, err
	}
	names := dec.Names()
	rows := make([]CarryChainRow, len(names))
	if err := runGrid(0, len(names), func(_, i int) error {
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
// the paper's Figure 2 (bottom) — as Fig2FromDecoded over the shared
// decoded baseline pass.
func Fig2(cfg Config, gtid uint32, maxPts int) ([]Fig2Series, error) {
	dec, err := cfg.decoded()
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
// (kernel × scheme) grid runs on the decode-once sweep engine over the
// shared decoded baseline pass — every rate is bit-identical at any
// cfg.SweepWorkers count.
func Fig3(cfg Config) ([]Fig3Row, error) {
	dec, err := cfg.decoded()
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

// Fig5 sweeps the speculation design space over the full suite (all
// designs observe the identical operation stream). The (kernel × design)
// grid runs on the decode-once sweep engine over the shared decoded
// baseline pass — adding designs costs one array walk each, not a decode
// or a simulation. Rates are bit-identical at any cfg.SweepWorkers
// count. The returned rows follow the paper's Figure 5 left-to-right
// order; rates are unweighted kernel averages.
func Fig5(cfg Config, designs []string) ([]Fig5Row, error) {
	dec, err := cfg.decoded()
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

// Fig6 reports, from the ST² suite pass, the per-kernel thread
// misprediction rates of Figure 6 plus the recompute statistics quoted
// in Section VI (1.94 average, 2.73 max). The Average row is appended
// last.
func Fig6(cfg Config) ([]Fig6Row, error) {
	ps, err := cfg.suite(cfg.deviceConfig(gpusim.ST2Adders))
	if err != nil {
		return nil, err
	}
	ws := kernels.Suite()
	rows := make([]Fig6Row, len(ws))
	var rateSum, recompSum float64
	maxRecomp := 0
	for i, r := range ps[0].runs {
		rs := r.stats
		var merged Fig6Row
		merged.Kernel = ws[i].Name
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

// Fig7 prices every kernel's baseline and ST² suite passes with the
// power model.
func Fig7(cfg Config) ([]Fig7Row, Fig7Summary, error) {
	tbl, err := power.DefaultTable(circuit.SAED90())
	if err != nil {
		return nil, Fig7Summary{}, err
	}
	ps, err := cfg.suite(cfg.deviceConfig(gpusim.BaselineAdders), cfg.deviceConfig(gpusim.ST2Adders))
	if err != nil {
		return nil, Fig7Summary{}, err
	}
	base, st2 := ps[0], ps[1]
	ws := kernels.Suite()
	rows := make([]Fig7Row, len(ws))
	var sum Fig7Summary
	for i, w := range ws {
		row := Fig7Row{
			Kernel:   w.Name,
			Baseline: power.FromRun(base.runs[i].stats, base.runs[i].prices, tbl),
			ST2:      power.FromRun(st2.runs[i].stats, st2.runs[i].prices, tbl),
		}
		row.SystemSaving = 1 - row.ST2.Total()/row.Baseline.Total()
		row.ChipSaving = 1 - row.ST2.Chip()/row.Baseline.Chip()
		row.ALUFPUShare = row.Baseline[power.CompALUFPU] / row.Baseline.Total()
		rows[i] = row
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
// worst case 3.5%" analysis from the baseline and ST² suite passes. The
// Average row is appended last.
func PerfOverhead(cfg Config) ([]PerfRow, error) {
	ps, err := cfg.suite(cfg.deviceConfig(gpusim.BaselineAdders), cfg.deviceConfig(gpusim.ST2Adders))
	if err != nil {
		return nil, err
	}
	base, st2 := ps[0], ps[1]
	ws := kernels.Suite()
	rows := make([]PerfRow, len(ws))
	var sum float64
	for i, w := range ws {
		b, s := base.runs[i].stats.Cycles, st2.runs[i].stats.Cycles
		rows[i] = PerfRow{
			Kernel:     w.Name,
			BaseCycles: b,
			ST2Cycles:  s,
			Slowdown:   float64(s)/float64(b) - 1,
		}
		sum += rows[i].Slowdown
	}
	return append(rows, PerfRow{Kernel: "Average", Slowdown: sum / float64(len(rows))}), nil
}

// --- Section V-C: power-model calibration and validation ---

// PowerValidation reproduces the calibration workflow: run the 123
// micro-stressors on the baseline device, "measure" them on the synthetic
// silicon, solve Equation 1's factors, and validate on the baseline
// suite pass.
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

	// The launches run on the runGrid pool and are priced there; the
	// silicon's noise RNG is stateful, so measure calls it in index order
	// after the pool joins, keeping the model and report bit-identical at
	// any GOMAXPROCS.
	sample := func(name string, r run) power.Sample {
		return power.Sample{
			Name:    name,
			B:       power.FromRun(r.stats, r.prices, tbl),
			Seconds: tbl.Seconds(r.stats),
			IdleSMs: chipSMs - r.stats.SMsUsed,
		}
	}
	measure := func(ss []power.Sample) {
		for i := range ss {
			ss[i].Measured = silicon.Measure(ss[i].B, ss[i].Seconds, ss[i].IdleSMs)
		}
	}

	train := make([]power.Sample, kernels.NumMicro)
	err = runGrid(0, kernels.NumMicro, func(_, i int) error {
		spec, err := kernels.Micro(i)
		if err != nil {
			return err
		}
		r, err := cfg.runSpec(spec, cfg.deviceConfig(gpusim.BaselineAdders), nil)
		if err != nil {
			return err
		}
		train[i] = sample(spec.Name, r)
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

	ps, err := cfg.suite(cfg.deviceConfig(gpusim.BaselineAdders))
	if err != nil {
		return power.ValidationReport{}, power.Model{}, err
	}
	ws := kernels.Suite()
	val := make([]power.Sample, len(ws))
	for i, w := range ws {
		val[i] = sample(w.Name, ps[0].runs[i])
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
