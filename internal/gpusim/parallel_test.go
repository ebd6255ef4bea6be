package gpusim

import (
	"reflect"
	"sync/atomic"
	"testing"

	"st2gpu/internal/isa"
	"st2gpu/internal/metrics"
)

// Cross-checks for the parallel per-SM launch path: the worker count must
// not change a single statistic or architectural result. These tests are
// the ones `make check` runs under the race detector to keep the
// striped-lock design honest.

func parallelConfig(workers int, mode AdderMode) Config {
	cfg := DefaultConfig()
	cfg.NumSMs = 8
	cfg.ParallelSMs = workers
	cfg.AdderMode = mode
	return cfg
}

// atomicsKernel hammers four shared histogram bins from every block, so
// SMs running on different workers contend on the same global addresses.
func atomicsKernel(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("xatomics")
	gtid := b.Reg()
	bin := b.Reg()
	addr := b.Reg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IRem(isa.U32, bin, isa.R(gtid), isa.Imm(4))
	b.IMad(isa.U64, addr, isa.R(bin), isa.Imm(4), isa.Imm(0x100))
	b.AtomAdd(isa.Global, isa.U32, isa.R(addr), isa.Imm(1))
	b.Exit()
	return b.MustBuild()
}

// barrierKernel reverses each block through shared memory (two barrier
// phases per block).
func barrierKernel(t testing.TB) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("xbarrier")
	tid := b.Reg()
	ntid := b.Reg()
	v := b.Reg()
	saddr := b.Reg()
	raddr := b.Reg()
	gaddr := b.Reg()
	rt := b.Reg()
	gtid := b.Reg()
	base := b.Shared(128 * 4)
	b.MovSpecial(tid, isa.SRegTid)
	b.MovSpecial(ntid, isa.SRegNTid)
	b.IMul(isa.U32, v, isa.R(tid), isa.R(tid))
	b.IMad(isa.U64, saddr, isa.R(tid), isa.Imm(4), isa.Imm(base))
	b.St(isa.Shared, isa.U32, isa.R(saddr), isa.R(v))
	b.Bar()
	b.ISub(isa.U32, rt, isa.R(ntid), isa.Imm(1))
	b.ISub(isa.U32, rt, isa.R(rt), isa.R(tid))
	b.IMad(isa.U64, raddr, isa.R(rt), isa.Imm(4), isa.Imm(base))
	b.Ld(isa.Shared, isa.U32, v, isa.R(raddr))
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IMad(isa.U64, gaddr, isa.R(gtid), isa.Imm(4), isa.Imm(0x8000))
	b.St(isa.Global, isa.U32, isa.R(gaddr), isa.R(v))
	b.Exit()
	return b.MustBuild()
}

// fpKernel drives the FPU and DPU ST² paths (mantissa adds with a
// misprediction-prone dependent chain).
func fpKernel(t testing.TB) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("xfp")
	gtid := b.Reg()
	x := b.Reg()
	s := b.Reg()
	d64 := b.Reg()
	addr := b.Reg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x1000))
	b.Ld(isa.Global, isa.F32, x, isa.R(addr))
	b.FMul(isa.F32, s, isa.R(x), isa.ImmF32(0.5))
	for i := 0; i < 6; i++ {
		b.FAdd(isa.F32, s, isa.R(s), isa.R(x))
		b.FSub(isa.F32, x, isa.R(x), isa.ImmF32(0.125))
	}
	b.Cvt(isa.F64, d64, isa.R(s), isa.F32)
	b.FAdd(isa.F64, d64, isa.R(d64), isa.ImmF64(0.5))
	b.Cvt(isa.F32, s, isa.R(d64), isa.F64)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x40000))
	b.St(isa.Global, isa.F32, isa.R(addr), isa.R(s))
	b.Exit()
	return b.MustBuild()
}

// TestParallelMatchesSequential asserts Launch with the worker pool on
// (ParallelSMs=8, one goroutine per SM — forced explicitly so the pool
// runs even on single-core hosts where auto resolves to 1) and off
// (ParallelSMs=1) produces identical RunStats and memory contents on an
// atomics kernel, a barrier kernel, and an FP-heavy kernel. Because
// every SM owns its complete simulation state (including its L2 shard),
// equality is exact — no field, L2 included, is allowed to drift with
// the worker count.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name    string
		prog    *isa.Program
		grid    int
		block   int
		outAddr uint64
		outN    int
		setup   func(m *Memory) error
	}{
		{"atomics", atomicsKernel(t), 64, 64, 0x100, 4, nil},
		{"barrier", barrierKernel(t), 32, 128, 0x8000, 32 * 128, nil},
		{"fp", fpKernel(t), 32, 128, 0x40000, 32 * 128, func(m *Memory) error {
			in := make([]float32, 32*128)
			for i := range in {
				in[i] = float32(i%257) * 0.375
			}
			return m.WriteF32s(0x1000, in)
		}},
	}
	for _, mode := range []AdderMode{BaselineAdders, ST2Adders} {
		for _, tc := range cases {
			run := func(workers int) (*RunStats, []uint32) {
				d, err := New(parallelConfig(workers, mode))
				if err != nil {
					t.Fatal(err)
				}
				if tc.setup != nil {
					if err := tc.setup(d.Memory()); err != nil {
						t.Fatal(err)
					}
				}
				rs, err := d.Launch(&Kernel{Program: tc.prog, GridDim: tc.grid, BlockDim: tc.block})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
				}
				out, err := d.Memory().ReadU32s(tc.outAddr, tc.outN)
				if err != nil {
					t.Fatal(err)
				}
				return rs, out
			}
			seqRS, seqOut := run(1)
			parRS, parOut := run(8)
			if !reflect.DeepEqual(seqRS, parRS) {
				t.Errorf("%s/%v: RunStats diverge between sequential and parallel:\nseq: %+v\npar: %+v",
					tc.name, mode, seqRS, parRS)
			}
			if !reflect.DeepEqual(seqOut, parOut) {
				t.Errorf("%s/%v: memory contents diverge between sequential and parallel", tc.name, mode)
			}
		}
	}
}

// TestMetricsFoldBitIdentical runs the same launch with a fresh metrics
// registry at several worker counts and requires identical snapshots:
// per-SM shards fold in SM-ID order and every folded value is a sum, so
// ParallelSMs must never change a single metric bit.
func TestMetricsFoldBitIdentical(t *testing.T) {
	prog := fpKernel(t)
	run := func(workers int) map[string]any {
		d, err := New(parallelConfig(workers, ST2Adders))
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		d.SetMetrics(reg)
		in := make([]float32, 32*128)
		for i := range in {
			in[i] = float32(i%257) * 0.375
		}
		if err := d.Memory().WriteF32s(0x1000, in); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Launch(&Kernel{Program: prog, GridDim: 32, BlockDim: 128}); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	seq := run(1)
	for _, workers := range []int{2, 8} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Errorf("metrics snapshot diverges at ParallelSMs=%d:\nseq: %v\npar: %v", workers, seq, par)
		}
	}
	if v, ok := seq["sim.launches"]; !ok || v.(uint64) != 1 {
		t.Errorf("sim.launches = %v, want 1", seq["sim.launches"])
	}
	if v := seq["sim.st2_thread_ops"].(uint64); v == 0 {
		t.Error("sim.st2_thread_ops is zero — shards not publishing")
	}
}

// TestRunStatsObservabilityFields checks the new RunStats surface on a
// real launch: per-SM cycles, the imbalance metric, and both
// misprediction histograms.
func TestRunStatsObservabilityFields(t *testing.T) {
	d, err := New(parallelConfig(0, ST2Adders))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 32*128)
	for i := range in {
		in[i] = float32(i%257) * 0.375
	}
	if err := d.Memory().WriteF32s(0x1000, in); err != nil {
		t.Fatal(err)
	}
	rs, err := d.Launch(&Kernel{Program: fpKernel(t), GridDim: 32, BlockDim: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.PerSMCycles) != rs.SMsUsed {
		t.Fatalf("PerSMCycles has %d entries, want %d", len(rs.PerSMCycles), rs.SMsUsed)
	}
	var maxSM uint64
	for _, c := range rs.PerSMCycles {
		if c > maxSM {
			maxSM = c
		}
	}
	if maxSM != rs.Cycles {
		t.Errorf("max(PerSMCycles) = %d, Cycles = %d", maxSM, rs.Cycles)
	}
	if imb := rs.CycleImbalance(); imb < 0 || imb >= 1 {
		t.Errorf("CycleImbalance = %g outside [0,1)", imb)
	}
	if rs.MispredLanesHist == nil || rs.MispredLanesHist.Total() == 0 {
		t.Error("MispredLanesHist empty on an ST² FP launch")
	}
	var mispred uint64
	for _, u := range rs.Units {
		mispred += u.ThreadMispredicts
	}
	if mispred > 0 && rs.RecomputeHist.Total() != mispred {
		t.Errorf("RecomputeHist total %d != thread mispredicts %d",
			rs.RecomputeHist.Total(), mispred)
	}
	ph := d.LaunchTimings()
	if ph.Setup <= 0 || ph.Simulate <= 0 || ph.Fold <= 0 {
		t.Errorf("phase timings not all positive: %+v", ph)
	}
}

// TestParallelAtomicsLoseNoUpdates drives heavy cross-SM atomic
// contention through the parallel path and checks the exact final counts:
// a lost read-modify-write would show up as a short bin.
func TestParallelAtomicsLoseNoUpdates(t *testing.T) {
	d, err := New(parallelConfig(8, ST2Adders))
	if err != nil {
		t.Fatal(err)
	}
	const grid, block = 64, 256
	rs, err := d.Launch(&Kernel{Program: atomicsKernel(t), GridDim: grid, BlockDim: block})
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Memory().ReadU32s(0x100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		if got != grid*block/4 {
			t.Errorf("bin %d: got %d, want %d (lost atomic updates)", i, got, grid*block/4)
		}
	}
	if rs.AtomicLaneOps != grid*block {
		t.Errorf("atomic lane ops = %d, want %d", rs.AtomicLaneOps, grid*block)
	}
}

func TestParallelSMsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ParallelSMs = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ParallelSMs should fail validation")
	}
	for _, w := range []int{0, 1, 3, 100} {
		cfg.ParallelSMs = w
		if err := cfg.Validate(); err != nil {
			t.Errorf("ParallelSMs=%d should validate: %v", w, err)
		}
	}
}

// TestParallelErrorPropagates injects an out-of-bounds access on one SM's
// blocks and checks the launch reports it instead of deadlocking a worker.
func TestParallelErrorPropagates(t *testing.T) {
	b := isa.NewBuilder("oneoob")
	gtid := b.Reg()
	addr := b.Reg()
	p := b.PredReg()
	b.MovSpecial(gtid, isa.SRegGtid)
	// Block 5's first thread reads far outside memory; everyone else is fine.
	b.Setp(isa.EQ, isa.U32, p, isa.R(gtid), isa.Imm(5*32))
	b.Mov(isa.U64, addr, isa.Imm(1<<40)).Guarded(p, false)
	b.Ld(isa.Global, isa.U32, addr, isa.R(addr)).Guarded(p, false)
	b.Exit()
	d, err := New(parallelConfig(8, BaselineAdders))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(&Kernel{Program: b.MustBuild(), GridDim: 16, BlockDim: 32}); err == nil {
		t.Fatal("out-of-bounds access on one SM must fail the whole launch")
	}
}

// TestMemoryAtomicAdd exercises the striped-lock RMW primitive directly,
// including spans that straddle a stripe boundary.
func TestMemoryAtomicAdd(t *testing.T) {
	m := NewMemory(1 << 20)
	if _, err := m.AtomicAdd(8, 4, 5); err != nil {
		t.Fatal(err)
	}
	old, err := m.AtomicAdd(8, 4, 3)
	if err != nil || old != 5 {
		t.Errorf("AtomicAdd old = %d, %v; want 5", old, err)
	}
	v, _ := m.Load(8, 4)
	if v != 8 {
		t.Errorf("final value %d, want 8", v)
	}
	// Straddles the 128-byte stripe boundary at 0x80.
	if _, err := m.AtomicAdd(0x80-4, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AtomicAdd(1<<20-2, 4, 1); err == nil {
		t.Error("out-of-bounds AtomicAdd should fail")
	}
	if _, err := m.AtomicAdd(0, 3, 1); err == nil {
		t.Error("unsupported size should fail")
	}

	// Hammer one word from many goroutines; the race detector plus the
	// exact final count verify the RMW is indivisible.
	done := make(chan struct{})
	var launched atomic.Int32
	const workers, iters = 8, 1000
	for g := 0; g < workers; g++ {
		go func() {
			launched.Add(1)
			for i := 0; i < iters; i++ {
				if _, err := m.AtomicAdd(0x200, 8, 1); err != nil {
					t.Error(err)
					break
				}
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < workers; g++ {
		<-done
	}
	if launched.Load() != workers {
		t.Fatal("not all workers ran")
	}
	v, _ = m.Load(0x200, 8)
	if v != workers*iters {
		t.Errorf("concurrent AtomicAdd total = %d, want %d", v, workers*iters)
	}
}

// TestParamLoadBounds pins the paramLoad contract: the size is validated
// before the bounds check, so a stale check can never let the 8-byte read
// run past the buffer (the old code panicked on size∉{4,8} near the end
// of the buffer).
func TestParamLoadBounds(t *testing.T) {
	k := &Kernel{Params: []uint64{0x1122334455667788, 42}}
	buf := k.serializeParams()
	if len(buf) != 16 {
		t.Fatalf("serialized %d bytes, want 16", len(buf))
	}
	if v, err := paramLoad(buf, 0, 8); err != nil || v != 0x1122334455667788 {
		t.Errorf("u64 read: %#x, %v", v, err)
	}
	if v, err := paramLoad(buf, 4, 4); err != nil || v != 0x11223344 {
		t.Errorf("u32 read: %#x, %v", v, err)
	}
	if _, err := paramLoad(buf, 12, 8); err == nil {
		t.Error("read past the buffer should error")
	}
	if _, err := paramLoad(buf, 14, 2); err == nil {
		t.Error("unsupported size must error, not fall through to an 8-byte read")
	}
	if _, err := paramLoad(buf, ^uint64(0)-3, 4); err == nil {
		t.Error("offset overflow should error")
	}
	if _, err := paramLoad(nil, 0, 4); err == nil {
		t.Error("empty param buffer should error")
	}
}
