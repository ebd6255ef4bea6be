// Package gpusim is the repository's substitute for GPGPU-Sim (Section V
// of the paper): a SIMT GPU simulator that executes PTX-lite kernels
// (internal/isa) on a Volta-like device model — streaming multiprocessors
// with warp schedulers, a scoreboard, functional-unit pools, an L1/L2
// cache hierarchy and a DRAM latency model — while driving every integer
// and floating-point add/sub through the ST² execution units
// (internal/core) and collecting the activity counters the power model
// (internal/power) prices.
//
// The timing model is warp-level and in-order per warp: a warp issues its
// next instruction when its operands are ready (scoreboard), the target
// functional unit is free, and — for ST² adds — stalls one extra cycle on
// a carry misprediction, exactly the pipeline behaviour of Section IV-C.
//
// SMs inside one launch are simulated concurrently by a bounded worker
// pool (Config.ParallelSMs); every SM owns its complete simulation state,
// so results are bit-identical across worker counts.
package gpusim

import (
	"fmt"
	"runtime"

	"st2gpu/internal/speculate"
)

// SchedPolicy selects the warp scheduler's pick order.
type SchedPolicy int

const (
	// LRR: loose round-robin — rotate the starting warp every cycle.
	LRR SchedPolicy = iota
	// GTO: greedy-then-oldest — keep issuing the same warp until it
	// stalls, then fall back to the oldest ready warp.
	GTO
)

func (p SchedPolicy) String() string {
	if p == GTO {
		return "gto"
	}
	return "lrr"
}

// AdderMode selects the adder microarchitecture the device runs.
type AdderMode int

const (
	// BaselineAdders: conventional full-width adders at nominal voltage.
	BaselineAdders AdderMode = iota
	// ST2Adders: sliced speculative adders with the configured speculation
	// design and the per-SM CRF.
	ST2Adders
)

func (m AdderMode) String() string {
	if m == ST2Adders {
		return "st2"
	}
	return "baseline"
}

// Config describes the simulated device. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	Name string

	// SM geometry.
	NumSMs          int
	SchedulersPerSM int // warp schedulers (Volta: 4 processing blocks)
	MaxWarpsPerSM   int
	MaxBlocksPerSM  int
	Scheduler       SchedPolicy

	// Adder microarchitecture.
	AdderMode   AdderMode
	SliceBits   uint
	Speculation string // speculate design name; FinalDesign when empty
	// UseCRF routes speculation through the hardware CRF (with write-back
	// contention); false uses the idealized trace-level predictor (the
	// Figure 5 DSE path).
	UseCRF bool
	// DisablePeek turns off the static Peek filter (ablation).
	DisablePeek bool
	// CRFEntries sizes the per-SM Carry Register File (power-of-two; the
	// paper's design is 16 = PC[3:0] indexing). 0 means 16.
	CRFEntries int

	// Memory system.
	GlobalMemBytes uint64
	L1KB           int
	L2KB           int
	LineBytes      int
	L1Ways         int
	L2Ways         int
	L1HitLatency   uint64
	L2HitLatency   uint64
	DRAMLatency    uint64
	SharedLatency  uint64

	// Determinism.
	Seed int64

	// MaxCycles aborts runaway simulations.
	MaxCycles uint64

	// ParallelSMs bounds the worker pool that simulates SMs concurrently
	// inside one Launch. 0 (the default) uses min(NumSMs, GOMAXPROCS); 1
	// restores the sequential debugging path; larger values are clamped
	// to the SM count. Worker count never changes results: every SM owns
	// its complete simulation state, so RunStats is bit-identical across
	// settings (see the concurrency model in DESIGN.md). Negative values
	// fail validation.
	ParallelSMs int
}

// DefaultConfig returns a scaled-down TITAN V-like device: the SM
// microarchitecture matches (4 schedulers, 64 warps), while the SM count
// defaults to 4 so the 23-kernel suite simulates in seconds — energy is
// reported per unit of work, so the SM count does not change the
// breakdown shape. Set NumSMs to 80 for the full chip.
func DefaultConfig() Config {
	return Config{
		Name:            "titanv-sim",
		NumSMs:          4,
		SchedulersPerSM: 4,
		MaxWarpsPerSM:   64,
		MaxBlocksPerSM:  16,
		AdderMode:       ST2Adders,
		SliceBits:       8,
		Speculation:     speculate.FinalDesign,
		UseCRF:          true,
		GlobalMemBytes:  64 << 20,
		L1KB:            128,
		L2KB:            4096, // TITAN V has 4.5 MB; rounded to a power-of-two set count

		LineBytes:     128,
		L1Ways:        4,
		L2Ways:        16,
		L1HitLatency:  28,
		L2HitLatency:  190,
		DRAMLatency:   430,
		SharedLatency: 24,
		Seed:          1,
		MaxCycles:     200_000_000,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumSMs <= 0 || c.SchedulersPerSM <= 0 || c.MaxWarpsPerSM <= 0 || c.MaxBlocksPerSM <= 0 {
		return fmt.Errorf("gpusim: non-positive SM geometry: %+v", c)
	}
	if c.MaxWarpsPerSM%c.SchedulersPerSM != 0 {
		return fmt.Errorf("gpusim: MaxWarpsPerSM %d not divisible by schedulers %d",
			c.MaxWarpsPerSM, c.SchedulersPerSM)
	}
	if c.SliceBits == 0 || c.SliceBits > 8 {
		// The CRF holds 7 prediction bits per lane; slices narrower than
		// 8 bits on a 64-bit adder would not fit its geometry.
		return fmt.Errorf("gpusim: slice bits %d outside [1,8]", c.SliceBits)
	}
	if c.GlobalMemBytes == 0 {
		return fmt.Errorf("gpusim: no global memory")
	}
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("gpusim: cache line %d not a power of two", c.LineBytes)
	}
	// Caches are built per SM at launch; check their geometry here so a
	// bad config fails at New, not mid-launch.
	if _, _, err := cacheGeometry(c.L1KB, c.LineBytes, c.L1Ways); err != nil {
		return fmt.Errorf("%w (L1)", err)
	}
	if _, _, err := cacheGeometry(c.L2KB, c.LineBytes, c.L2Ways); err != nil {
		return fmt.Errorf("%w (L2)", err)
	}
	if c.MaxCycles == 0 {
		return fmt.Errorf("gpusim: MaxCycles is zero")
	}
	if c.AdderMode == ST2Adders && c.Speculation == "" {
		return fmt.Errorf("gpusim: ST2 mode needs a speculation design")
	}
	if c.CRFEntries != 0 && (c.CRFEntries < 1 || c.CRFEntries&(c.CRFEntries-1) != 0) {
		return fmt.Errorf("gpusim: CRF entries %d not a power of two", c.CRFEntries)
	}
	if c.ParallelSMs < 0 {
		return fmt.Errorf("gpusim: negative ParallelSMs %d", c.ParallelSMs)
	}
	return nil
}

// smWorkers resolves ParallelSMs into the worker-pool size for a launch
// occupying numSMs SMs.
func (c Config) smWorkers(numSMs int) int {
	w := c.ParallelSMs
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > numSMs {
		w = numSMs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TitanVConfig returns the full-chip configuration: all 80 SMs of the
// TITAN V. Simulations are ~20× slower than DefaultConfig; per-unit-of-
// work statistics (misprediction rates, energy shares) match the
// scaled-down default, which is why the experiment harness uses the
// latter.
func TitanVConfig() Config {
	c := DefaultConfig()
	c.Name = "titanv-full"
	c.NumSMs = 80
	return c
}
