package gpusim_test

import (
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/isa"
	"st2gpu/internal/kernels"
)

// TestIssueGateNeverStale runs the whole scale-1 suite, barrier kernels
// included, under both schedulers at the default warp limits and at the
// refill limits (blocks retire and queued blocks launch mid-kernel), with
// the issue-gate check installed: at every cycle of every launch the
// scan's gate arrays must agree with the warps and pipes they summarize.
func TestIssueGateNeverStale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole suite four times")
	}
	for _, sched := range []gpusim.SchedPolicy{gpusim.LRR, gpusim.GTO} {
		for _, refill := range []bool{false, true} {
			cfg := gpusim.DefaultConfig()
			cfg.NumSMs = 2
			cfg.Scheduler = sched
			if refill {
				cfg.MaxWarpsPerSM = 16
				cfg.MaxBlocksPerSM = 2
			}
			for _, w := range kernels.Suite() {
				spec, err := w.Build(1)
				if err != nil {
					t.Fatal(err)
				}
				d, err := gpusim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				d.CheckIssueGate()
				if err := spec.Setup(d.Memory()); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Launch(spec.Kernel); err != nil {
					t.Fatalf("scheduler %v, refill %v, %s: %v", sched, refill, w.Name, err)
				}
			}
		}
	}
}

// TestBarrierReleasedByLateExit launches blocks whose first warp runs a
// loop and exits while the block's other warps already wait at a
// barrier. The exit leaves every remaining live warp arrived, so it, not
// an arrival, must release the block; otherwise the launch deadlocks.
// The issue-gate check runs at every cycle.
func TestBarrierReleasedByLateExit(t *testing.T) {
	b := isa.NewBuilder("xlateexit")
	tid, i, gtid, addr := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	first, more := b.PredReg(), b.PredReg()
	b.MovSpecial(tid, isa.SRegTid)
	b.Setp(isa.LT, isa.U32, first, isa.R(tid), isa.Imm(32))
	b.BraTo("bar", first, true)
	b.Mov(isa.U32, i, isa.Imm(0))
	b.Label("loop")
	b.IAdd(isa.U32, i, isa.R(i), isa.Imm(1))
	b.Setp(isa.LT, isa.U32, more, isa.R(i), isa.Imm(40))
	b.BraTo("loop", more, false)
	b.Exit()
	b.Label("bar")
	b.Bar()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x8000))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(tid))
	b.Exit()
	prog := b.MustBuild()

	const grid, block = 4, 128
	for _, sched := range []gpusim.SchedPolicy{gpusim.LRR, gpusim.GTO} {
		cfg := gpusim.DefaultConfig()
		cfg.NumSMs = 2
		cfg.Scheduler = sched
		d, err := gpusim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.CheckIssueGate()
		if _, err := d.Launch(&gpusim.Kernel{Program: prog, GridDim: grid, BlockDim: block}); err != nil {
			t.Fatalf("scheduler %v: %v", sched, err)
		}
		out, err := d.Memory().ReadU32s(0x8000, grid*block)
		if err != nil {
			t.Fatal(err)
		}
		for g, v := range out {
			want := uint32(0)
			if tid := g % block; tid >= 32 {
				want = uint32(tid)
			}
			if v != want {
				t.Fatalf("scheduler %v: thread %d stored %d, want %d", sched, g, v, want)
			}
		}
	}
}
