package gpusim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"st2gpu/internal/circuit"
	"st2gpu/internal/core"
	"st2gpu/internal/isa"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// Kernel is a launch request: a validated program, its grid geometry, and
// the parameter buffer kernels read through the Param space.
type Kernel struct {
	Program  *isa.Program
	GridDim  int // blocks
	BlockDim int // threads per block
	Params   []uint64
}

// serializeParams renders the param buffer once per launch; every SM's
// param-space loads index into the shared read-only result.
func (k *Kernel) serializeParams() []byte {
	buf := make([]byte, 8*len(k.Params))
	for i, p := range k.Params {
		binary.LittleEndian.PutUint64(buf[i*8:], p)
	}
	return buf
}

// paramLoad reads size (4 or 8) bytes at off from a serialized param
// buffer. The size is validated before the bounds check so that a bounds
// check passing for a smaller size can never let the 8-byte read run past
// the buffer.
func paramLoad(buf []byte, off, size uint64) (uint64, error) {
	if size != 4 && size != 8 {
		return 0, fmt.Errorf("gpusim: unsupported param access size %d", size)
	}
	if off+size > uint64(len(buf)) || off+size < off {
		return 0, fmt.Errorf("gpusim: param read [%#x,%#x) outside %d-byte param buffer",
			off, off+size, len(buf))
	}
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(buf[off:])), nil
	}
	return binary.LittleEndian.Uint64(buf[off:]), nil
}

// Validate checks the launch geometry.
func (k *Kernel) Validate() error {
	if k.Program == nil {
		return fmt.Errorf("gpusim: kernel has no program")
	}
	if err := k.Program.Validate(); err != nil {
		return err
	}
	if k.GridDim <= 0 || k.BlockDim <= 0 {
		return fmt.Errorf("gpusim: bad launch geometry %d×%d", k.GridDim, k.BlockDim)
	}
	if k.BlockDim > 1024 {
		return fmt.Errorf("gpusim: block dim %d exceeds 1024", k.BlockDim)
	}
	return nil
}

// Device is the simulated GPU.
type Device struct {
	cfg    Config
	mem    *Memory
	prices map[core.UnitKind]core.EnergyParams
	rec    *Recorder
	// l2Stats accumulates the per-SM L2 shard counters across launches
	// (the device-level cumulative view RunStats.L2 reports). Written
	// only at fold time, after all SM workers have joined.
	l2Stats CacheStats

	// met publishes launch activity into an installed metrics.Registry
	// (nil: disabled). timings holds the previous Launch's wall-clock
	// phase breakdown; both are launch-serial like the rest of Device.
	met     *deviceMetrics
	timings PhaseTimings

	// obs receives setup/simulate/fold spans per launch (nil: disabled).
	// Like timings, spans are observability-only: nothing they carry
	// feeds back into RunStats.
	obs *obs.Tracer

	// cycleCheck, when set, runs on every SM at the top of every
	// simulated cycle and fails the launch on error; tests install it to
	// check invariants of the SM loop.
	cycleCheck func(*smState) error

	// recordCheck, when set, receives every warp add's columns as observe
	// hands them to an installed Recorder (the j-th set bit of active owns
	// ea[j] and eb[j]; the slices are valid only during the call); tests
	// install it to compare a recording with the stream the SMs produced.
	// It is called from every SM worker and does not change their count.
	recordCheck func(kind core.UnitKind, pc, gtidBase, active, cin uint32, ea, eb []uint64)
}

// SetObs installs (or clears, with nil) the span tracer. Every Launch
// then emits a gpusim.launch span with setup/simulate/fold children;
// span data never influences simulation results, so tracing composes
// with the parallel launch path and any worker count.
func (d *Device) SetObs(tr *obs.Tracer) { d.obs = tr }

// LaunchTimings returns the wall-clock phase breakdown of the most
// recent Launch (Verify left zero for the caller to fill). Launches are
// serial per device, so this is simply "the last launch".
func (d *Device) LaunchTimings() PhaseTimings { return d.timings }

// SetRecorder installs (or clears, with nil) a warp-add stream recorder.
// Recording leaves the parallel launch path enabled: each SM records
// into its own shard and Launch folds them in SM-ID order. When a
// metrics registry is installed, each launch publishes the bytes it
// recorded on the "sim.record_bytes" gauge.
func (d *Device) SetRecorder(r *Recorder) { d.rec = r }

// New builds a device from the configuration.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tech := circuit.SAED90()
	prices := make(map[core.UnitKind]core.EnergyParams)
	for _, kind := range []core.UnitKind{core.ALU, core.ALU32, core.FPU, core.DPU} {
		c, err := kind.AdderConfig(cfg.SliceBits)
		if err != nil {
			return nil, err
		}
		p, err := core.DeriveEnergyParams(tech, c.Width, cfg.SliceBits)
		if err != nil {
			return nil, err
		}
		prices[kind] = p
	}
	return &Device{
		cfg:    cfg,
		mem:    NewMemory(cfg.GlobalMemBytes),
		prices: prices,
	}, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Memory exposes device global memory for host staging.
func (d *Device) Memory() *Memory { return d.mem }

// Prices returns the per-unit energy pricing.
func (d *Device) Prices() map[core.UnitKind]core.EnergyParams { return d.prices }

// latency returns (producer latency, FU occupancy) in cycles for an
// opcode; memory ops are priced in execMemory instead.
func (d *Device) latency(op isa.Opcode) (lat, occ uint64) {
	switch op.Class() {
	case isa.FUAluAdd, isa.FUAluOther:
		return 4, 2
	case isa.FUIntMul:
		return 5, 2
	case isa.FUIntDiv:
		// Hardware expands division into an instruction sequence.
		return 24, 8
	case isa.FUFpAdd, isa.FUFpMul:
		if op == isa.OpFFma {
			return 4, 2
		}
		return 4, 2
	case isa.FUFpDiv:
		return 44, 16
	case isa.FUSfu:
		return 20, 8
	case isa.FUMem:
		return 4, 2 // overridden by execMemory's latency
	default:
		return 1, 1
	}
}

// RunStats is the outcome of one kernel launch.
type RunStats struct {
	Kernel string
	Mode   AdderMode

	Cycles uint64 // max over SMs (they run concurrently)

	ThreadInstrs map[isa.FUClass]uint64
	WarpInstrs   map[isa.FUClass]uint64

	// ST² unit statistics, merged across SMs, by unit kind.
	Units map[core.UnitKind]core.UnitStats
	// BaselineAdderOps counts thread-level add/sub ops per unit kind when
	// running baseline adders (for pricing).
	BaselineAdderOps map[core.UnitKind]uint64

	CRF speculate.CRFStats

	// PerSMCycles is every used SM's cycle count in SM-ID order; Cycles
	// is its maximum. The spread is the launch's load imbalance.
	PerSMCycles []uint64

	// RecomputeHist merges every unit's slices-recomputed-per-
	// misprediction histogram (units with fewer slices clamp into the
	// shared bucket range). MispredLanesHist counts warp-level add ops by
	// how many of their lanes mispredicted (0..32).
	RecomputeHist    *stats.Histogram
	MispredLanesHist *stats.Histogram

	RegReads, RegWrites uint64
	SharedAccesses      uint64
	ParamAccesses       uint64
	L1                  CacheStats
	L2                  CacheStats
	DRAMAccesses        uint64
	AtomicLaneOps       uint64
	ST2StallCycles      uint64

	SMsUsed int
}

// TotalThreadInstrs sums the dynamic thread-level instruction count.
func (r *RunStats) TotalThreadInstrs() uint64 {
	var t uint64
	for _, v := range r.ThreadInstrs {
		t += v
	}
	return t
}

// AddFraction returns the fraction of dynamic thread instructions that
// are ALU or FPU add/sub — the Figure 1 metric (DPU adds included with
// FPU adds, as in the paper's "FPU Add" bucket).
func (r *RunStats) AddFraction() (aluAdd, fpuAdd float64) {
	t := float64(r.TotalThreadInstrs())
	if t == 0 {
		return 0, 0
	}
	return float64(r.ThreadInstrs[isa.FUAluAdd]) / t, float64(r.ThreadInstrs[isa.FUFpAdd]) / t
}

// SIMDEfficiency returns executed thread-slots over issued warp-slots
// (thread instrs / (warp instrs × 32)): 1.0 means no divergence or
// partial-warp waste.
func (r *RunStats) SIMDEfficiency() float64 {
	var warp uint64
	for _, v := range r.WarpInstrs {
		warp += v
	}
	if warp == 0 {
		return 0
	}
	return float64(r.TotalThreadInstrs()) / float64(warp*32)
}

// CycleImbalance returns (max−min)/max over the used SMs' cycle counts:
// 0 means perfectly balanced, 1 means at least one SM finished instantly
// while another ran the critical path.
func (r *RunStats) CycleImbalance() float64 {
	if len(r.PerSMCycles) == 0 || r.Cycles == 0 {
		return 0
	}
	min := r.PerSMCycles[0]
	for _, c := range r.PerSMCycles[1:] {
		if c < min {
			min = c
		}
	}
	return float64(r.Cycles-min) / float64(r.Cycles)
}

// MispredictionRate returns the overall thread misprediction rate across
// all ST² units.
func (r *RunStats) MispredictionRate() float64 {
	var mis, tot uint64
	for _, u := range r.Units {
		mis += u.ThreadMispredicts
		tot += u.ThreadOps
	}
	if tot == 0 {
		return 0
	}
	return float64(mis) / float64(tot)
}

// Launch runs the kernel to completion and returns its statistics.
//
// SMs are simulated concurrently by a bounded worker pool of
// min(NumSMs, GOMAXPROCS) goroutines (Config.ParallelSMs overrides; 1
// forces the sequential debugging path). Every SM owns its complete
// simulation state — warps, L1, L2 shard, ST² units, CRF — so per-SM
// execution is deterministic regardless of worker count; per-SM
// statistics are folded into RunStats in SM-ID order after all workers
// join, and the reported Cycles is the maximum over SMs, modeling their
// concurrent execution. Global memory is the one shared structure: loads
// and stores go through striped locks and cross-SM atomics commit their
// read-modify-write under the stripe lock, so the only cross-SM ordering
// a race-free kernel can observe is the (commutative) accumulation order
// of its atomics. An installed Recorder does not serialize the launch:
// each SM records into its own shard and the shards fold in SM-ID order,
// so the recorded stream is bit-identical at any worker count.
func (d *Device) Launch(k *Kernel) (*RunStats, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	launchSpan := d.obs.Begin("gpusim.launch",
		obs.Str("kernel", k.Program.Name),
		obs.Int("grid", int64(k.GridDim)),
		obs.Int("block", int64(k.BlockDim)))
	setupSpan := launchSpan.Child("setup")
	tSetup := time.Now() //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
	run := &RunStats{
		Kernel:           k.Program.Name,
		Mode:             d.cfg.AdderMode,
		ThreadInstrs:     make(map[isa.FUClass]uint64),
		WarpInstrs:       make(map[isa.FUClass]uint64),
		Units:            make(map[core.UnitKind]core.UnitStats),
		BaselineAdderOps: make(map[core.UnitKind]uint64),
		RecomputeHist:    stats.NewHistogram(d.maxSlices()),
		MispredLanesHist: stats.NewHistogram(core.WarpSize),
	}

	// Distribute blocks round-robin over SMs.
	numSMs := d.cfg.NumSMs
	if k.GridDim < numSMs {
		numSMs = k.GridDim
	}
	run.SMsUsed = numSMs

	params := k.serializeParams()
	code := d.decodeProgram(k.Program)
	sms := make([]*smState, numSMs)
	for smID := range sms {
		sm, err := d.newSM(smID, k, params, code)
		if err != nil {
			return nil, err
		}
		for b := smID; b < k.GridDim; b += numSMs {
			sm.blockQueue = append(sm.blockQueue, b)
		}
		if d.met != nil {
			sm.shard = d.met.reg.NewShard()
		}
		if d.rec != nil {
			sm.rec = d.rec.newShard()
		}
		sms[smID] = sm
	}
	d.timings = PhaseTimings{Setup: clampPhase(time.Since(tSetup))} //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
	setupSpan.End()

	workers := d.cfg.smWorkers(numSMs)
	simSpan := launchSpan.Child("simulate",
		obs.Int("sms", int64(numSMs)),
		obs.Int("workers", int64(workers)))
	tSim := time.Now() //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
	if workers == 1 {
		for _, sm := range sms {
			if err := sm.run(); err != nil {
				return nil, err
			}
		}
	} else {
		errs := make([]error, numSMs)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= numSMs {
						return
					}
					errs[i] = sms[i].run()
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	d.timings.Simulate = clampPhase(time.Since(tSim)) //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
	simSpan.End()

	foldSpan := launchSpan.Child("fold")
	tFold := time.Now() //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
	for _, sm := range sms {
		d.foldSM(run, sm)
	}
	if d.rec != nil {
		recSpan := foldSpan.Child("record.fold")
		shards := make([]*recShard, len(sms))
		for i, sm := range sms {
			shards[i] = sm.rec
		}
		recBytes := d.rec.fold(shards)
		if d.met != nil {
			// Registered lazily so plain (non-recording) runs keep their
			// registry snapshot — and the runlog golden files — unchanged.
			d.met.reg.Gauge("sim.record_bytes").Set(float64(recBytes))
		}
		recSpan.Add(obs.Int("bytes", int64(recBytes)))
		recSpan.End()
	}
	d.foldMetrics(run, sms)
	d.timings.Fold = clampPhase(time.Since(tFold)) //st2:det-ok wall-clock phase timing; feeds runlog timings only, never simulation results
	foldSpan.End()
	launchSpan.Add(obs.Int("cycles", int64(run.Cycles)))
	launchSpan.End()
	return run, nil
}

// foldMetrics publishes the launch into the installed metrics registry:
// per-SM shards fold in SM-ID order, then launch-level values are added
// directly (single-threaded).
func (d *Device) foldMetrics(run *RunStats, sms []*smState) {
	if d.met == nil {
		return
	}
	shards := make([]*metrics.Shard, len(sms))
	for i, sm := range sms {
		shards[i] = sm.shard
	}
	d.met.reg.Fold(shards...)
	d.publishLaunch(run)
}

func (d *Device) newSM(id int, k *Kernel, params []byte, code []decodedInstr) (*smState, error) {
	l1, err := NewCache(d.cfg.L1KB, d.cfg.LineBytes, d.cfg.L1Ways)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(d.cfg.L2KB, d.cfg.LineBytes, d.cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	sm := &smState{
		dev:              d,
		id:               id,
		lastWarp:         -1,
		kernel:           k,
		params:           params,
		code:             code,
		l1:               l1,
		l2:               l2,
		liveBlocks:       make(map[int]int),
		barrierArrived:   make(map[int]int),
		baselineAdderOps: make(map[core.UnitKind]uint64),
		stats:            newSMStats(),
	}
	// Execution pipe pools (Volta-like counts).
	sm.pools[poolALU] = make([]uint64, d.cfg.SchedulersPerSM)
	sm.pools[poolFP32] = make([]uint64, d.cfg.SchedulersPerSM)
	sm.pools[poolSFU] = make([]uint64, 1)
	sm.pools[poolMEM] = make([]uint64, 2)

	for _, mk := range []struct {
		kind core.UnitKind
		dst  **core.Unit
	}{
		{core.ALU32, &sm.alu32},
		{core.ALU, &sm.alu64},
		{core.FPU, &sm.fpu},
		{core.DPU, &sm.dpu},
	} {
		u, err := core.NewUnit(mk.kind, d.cfg.SliceBits, d.prices[mk.kind])
		if err != nil {
			return nil, err
		}
		*mk.dst = u
	}

	if d.cfg.AdderMode == ST2Adders {
		if d.cfg.UseCRF {
			entries := d.cfg.CRFEntries
			if entries == 0 {
				entries = 16
			}
			crf, err := speculate.NewCRF(entries, 32, 7, len(code), d.cfg.Seed+int64(id))
			if err != nil {
				return nil, err
			}
			// Peek sits in the slices, in front of the CRF's history.
			sm.crf, sm.spec = crf, crf
			if !d.cfg.DisablePeek {
				sm.spec = speculate.WithPeek(sm.alu64.Geometry(), crf)
			}
		} else {
			b, err := speculate.NewBounds(programPCs(len(code)), uint64(k.GridDim)*uint64(k.BlockDim))
			if err != nil {
				return nil, err
			}
			if sm.spec, err = speculate.NewDesign(d.cfg.Speculation, sm.alu64.Geometry(), b); err != nil {
				return nil, err
			}
		}
	}
	return sm, nil
}

// programPCs lists the PCs of an n-instruction program, the PC axis of
// a live predictor's tables.
func programPCs(n int) []uint32 {
	pcs := make([]uint32, n)
	for i := range pcs {
		pcs[i] = uint32(i)
	}
	return pcs
}

// foldSM merges one finished SM's statistics into the run. Callers fold
// SMs in SM-ID order after every worker has joined, so the result is
// identical to the sequential path's fold.
func (d *Device) foldSM(run *RunStats, sm *smState) {
	if sm.cycle > run.Cycles {
		run.Cycles = sm.cycle
	}
	// The per-SM counters are dense arrays; only non-zero classes land in
	// the RunStats maps so reports (and the runlog manifest) keep seeing
	// exactly the classes the kernel executed.
	for c, v := range sm.stats.ThreadInstrs {
		if v != 0 {
			run.ThreadInstrs[isa.FUClass(c)] += v
		}
	}
	for c, v := range sm.stats.WarpInstrs {
		if v != 0 {
			run.WarpInstrs[isa.FUClass(c)] += v
		}
	}
	for _, u := range sm.units() {
		agg := run.Units[u.Kind]
		agg.Merge(u.Stats())
		run.Units[u.Kind] = agg
	}
	for kind, n := range sm.baselineAdderOps {
		run.BaselineAdderOps[kind] += n
	}
	for _, u := range sm.units() {
		us := u.Stats()
		run.RecomputeHist.MergeClamped(us.RecomputeHistogram)
		run.MispredLanesHist.MergeClamped(us.MispredLanesHistogram)
	}
	run.PerSMCycles = append(run.PerSMCycles, sm.cycle)
	if sm.crf != nil {
		sm.crf.Flush()
		run.CRF.Merge(sm.crf.Stats())
	}
	run.RegReads += sm.stats.RegReads
	run.RegWrites += sm.stats.RegWrites
	run.SharedAccesses += sm.stats.SharedAccesses
	run.ParamAccesses += sm.stats.ParamAccesses
	l1 := sm.l1.Stats()
	run.L1.Accesses += l1.Accesses
	run.L1.Hits += l1.Hits
	run.L1.Misses += l1.Misses
	run.DRAMAccesses += sm.stats.DRAMAccesses
	run.AtomicLaneOps += sm.stats.AtomicLaneOps
	run.ST2StallCycles += sm.stats.ST2StallCycles
	d.l2Stats.Merge(sm.l2.Stats())
	run.L2 = d.l2Stats // cumulative; device-level
}
