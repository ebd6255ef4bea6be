package gpusim

import (
	"time"

	"st2gpu/internal/metrics"
)

// PhaseTimings is the wall-clock (host) time one Launch spent in each
// phase. It is observability data, deliberately kept out of RunStats:
// RunStats is bit-identical across runs and worker counts, wall-clock
// time is not. Verify is zero until the caller that runs the workload's
// output check fills it in.
type PhaseTimings struct {
	Setup    time.Duration // SM/unit construction and block distribution
	Simulate time.Duration // worker-pool simulation of all SMs
	Fold     time.Duration // per-SM statistics fold
	Verify   time.Duration // host-oracle output check (caller-filled)
}

// Total sums the recorded phases.
func (t PhaseTimings) Total() time.Duration {
	return t.Setup + t.Simulate + t.Fold + t.Verify
}

// clampPhase guarantees a measured phase is visible (> 0) even when the
// host clock's resolution swallows a very short phase.
func clampPhase(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Nanosecond
	}
	return d
}

// deviceMetrics caches the registry handles a Device publishes into.
// Counters and histograms that SM workers produce are written through
// per-SM shards (lock-free on the hot path, folded in SM-ID order after
// the workers join); launch-level values are written directly at fold
// time, which is single-threaded.
type deviceMetrics struct {
	reg *metrics.Registry

	launches     *metrics.Counter
	smCycles     *metrics.Counter // sum of per-SM cycle counts
	maxCycles    *metrics.Gauge   // last launch's critical-path cycles
	warpInstrs   *metrics.Counter
	threadInstrs *metrics.Counter
	threadOps    *metrics.Counter // ST² adder thread-ops
	mispredicts  *metrics.Counter
	stallCycles  *metrics.Counter
	crfReads     *metrics.Counter
	crfConflicts *metrics.Counter

	recompute    *metrics.Histogram // slices recomputed per misprediction
	mispredLanes *metrics.Histogram // mispredicted lanes per warp add op
	imbalance    *metrics.Histogram // per-SM cycles as % of the slowest SM
}

// newDeviceMetrics registers (or re-binds) the simulator's metric set on
// reg. Names are stable: the same registry can serve many devices and
// launches, accumulating across them.
func newDeviceMetrics(reg *metrics.Registry, maxSlices int) *deviceMetrics {
	return &deviceMetrics{
		reg:          reg,
		launches:     reg.Counter("sim.launches"),
		smCycles:     reg.Counter("sim.sm_cycles"),
		maxCycles:    reg.Gauge("sim.last_launch_cycles"),
		warpInstrs:   reg.Counter("sim.warp_instrs"),
		threadInstrs: reg.Counter("sim.thread_instrs"),
		threadOps:    reg.Counter("sim.st2_thread_ops"),
		mispredicts:  reg.Counter("sim.st2_mispredicts"),
		stallCycles:  reg.Counter("sim.st2_stall_cycles"),
		crfReads:     reg.Counter("sim.crf_reads"),
		crfConflicts: reg.Counter("sim.crf_conflicts"),
		recompute:    reg.Histogram("sim.recompute_per_mispredict", maxSlices),
		mispredLanes: reg.Histogram("sim.mispred_lanes_per_warp", 32),
		imbalance:    reg.Histogram("sim.sm_cycle_imbalance_pct", 100),
	}
}

// SetMetrics installs a registry the device publishes launch activity
// into (nil disables). Install before Launch; the same registry may be
// shared by many devices — counters accumulate across all of them.
func (d *Device) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		d.met = nil
		return
	}
	d.met = newDeviceMetrics(reg, d.maxSlices())
}

// maxSlices returns the largest slice count over the device's units (the
// 64-bit ALU), sizing the recompute histogram's buckets.
func (d *Device) maxSlices() int {
	return int(64 / d.cfg.SliceBits)
}

// publishShard writes one finished SM's totals into its metrics shard.
// Called once at the end of smState.run — zero cost per simulated
// instruction — on the worker goroutine, so everything goes through the
// lock-free shard, never the shared registry.
func (sm *smState) publishShard() {
	if sm.shard == nil {
		return
	}
	m := sm.dev.met
	s := sm.shard
	s.Count(m.smCycles, sm.cycle)
	var warp, thread uint64
	for _, v := range sm.stats.WarpInstrs {
		warp += v
	}
	for _, v := range sm.stats.ThreadInstrs {
		thread += v
	}
	s.Count(m.warpInstrs, warp)
	s.Count(m.threadInstrs, thread)
	s.Count(m.stallCycles, sm.stats.ST2StallCycles)
	for _, u := range sm.units() {
		us := u.Stats()
		s.Count(m.threadOps, us.ThreadOps)
		s.Count(m.mispredicts, us.ThreadMispredicts)
		if us.RecomputeHistogram != nil {
			for v, n := range us.RecomputeHistogram.Counts {
				s.ObserveN(m.recompute, v, n)
			}
		}
		if us.MispredLanesHistogram != nil {
			for v, n := range us.MispredLanesHistogram.Counts {
				s.ObserveN(m.mispredLanes, v, n)
			}
		}
	}
}

// publishLaunch records launch-level metrics after the fold: CRF traffic
// (read post-Flush, so it includes the end-of-kernel commit) and the
// per-SM cycle-imbalance distribution. Single-threaded; writes the
// registry directly.
func (d *Device) publishLaunch(run *RunStats) {
	if d.met == nil {
		return
	}
	m := d.met
	m.launches.Add(1)
	m.maxCycles.Set(float64(run.Cycles))
	m.crfReads.Add(run.CRF.Reads)
	m.crfConflicts.Add(run.CRF.Conflicts)
	if run.Cycles > 0 {
		for _, c := range run.PerSMCycles {
			m.imbalance.Observe(int(100 * c / run.Cycles))
		}
	}
}
