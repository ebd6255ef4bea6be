package gpusim

import (
	"testing"

	"st2gpu/internal/core"
	"st2gpu/internal/isa"
)

func testDevice(t *testing.T, mode AdderMode) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	cfg.AdderMode = mode
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// vecAddKernel: out[i] = a[i] + b[i] for u32 arrays.
func vecAddKernel(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("vecadd")
	gtid := b.Reg()
	n := b.Reg()
	av := b.Reg()
	bv := b.Reg()
	addr := b.Reg()
	sum := b.Reg()
	p := b.PredReg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.Ld(isa.Param, isa.U32, n, isa.Imm(0)) // params[0] = n
	b.Setp(isa.GE, isa.U32, p, isa.R(gtid), isa.R(n))
	b.BraTo("done", p, false)
	// addr = gtid*4 + base; a at 0x1000, b at 0x11000, out at 0x21000
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x1000))
	b.Ld(isa.Global, isa.U32, av, isa.R(addr))
	b.IAdd(isa.U64, addr, isa.R(addr), isa.Imm(0x10000))
	b.Ld(isa.Global, isa.U32, bv, isa.R(addr))
	b.IAdd(isa.U32, sum, isa.R(av), isa.R(bv))
	b.IAdd(isa.U64, addr, isa.R(addr), isa.Imm(0x10000))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(sum))
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

func TestVecAddEndToEnd(t *testing.T) {
	for _, mode := range []AdderMode{BaselineAdders, ST2Adders} {
		d := testDevice(t, mode)
		const n = 1000
		a := make([]uint32, n)
		bvals := make([]uint32, n)
		for i := range a {
			a[i] = uint32(i * 3)
			bvals[i] = uint32(i*7 + 1)
		}
		if err := d.Memory().WriteU32s(0x1000, a); err != nil {
			t.Fatal(err)
		}
		if err := d.Memory().WriteU32s(0x11000, bvals); err != nil {
			t.Fatal(err)
		}
		k := &Kernel{Program: vecAddKernel(t), GridDim: 8, BlockDim: 128, Params: []uint64{n}}
		rs, err := d.Launch(k)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		out, err := d.Memory().ReadU32s(0x21000, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != a[i]+bvals[i] {
				t.Fatalf("mode %v: out[%d] = %d, want %d", mode, i, out[i], a[i]+bvals[i])
			}
		}
		if rs.Cycles == 0 {
			t.Error("no cycles recorded")
		}
		if rs.TotalThreadInstrs() == 0 {
			t.Error("no instructions recorded")
		}
		// 1024 threads ran, 1000 did the add (plus address adds).
		if rs.ThreadInstrs[isa.FUAluAdd] < 3000 {
			t.Errorf("mode %v: ALU adds = %d, want ≥3000", mode, rs.ThreadInstrs[isa.FUAluAdd])
		}
		if mode == ST2Adders {
			if rs.Units[core.ALU32].ThreadOps == 0 || rs.Units[core.ALU].ThreadOps == 0 {
				t.Error("ST² units saw no operations")
			}
			if rs.CRF.Reads == 0 {
				t.Error("CRF never read")
			}
		} else if rs.BaselineAdderOps[core.ALU32] == 0 {
			t.Error("baseline adder ops not counted")
		}
	}
}

// Divergent kernel: odd threads take a different path than even threads.
func TestDivergenceReconverges(t *testing.T) {
	b := isa.NewBuilder("diverge")
	gtid := b.Reg()
	bit := b.Reg()
	v := b.Reg()
	addr := b.Reg()
	p := b.PredReg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.And(isa.U32, bit, isa.R(gtid), isa.Imm(1))
	b.Setp(isa.EQ, isa.U32, p, isa.R(bit), isa.Imm(0))
	b.BraTo("even", p, false)
	// odd path: v = gtid*100
	b.IMul(isa.U32, v, isa.R(gtid), isa.Imm(100))
	b.Bra("store")
	b.Label("even")
	// even path: v = gtid+7
	b.IAdd(isa.U32, v, isa.R(gtid), isa.Imm(7))
	b.Label("store")
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x1000))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(v))
	b.Exit()
	prog := b.MustBuild()

	d := testDevice(t, ST2Adders)
	k := &Kernel{Program: prog, GridDim: 2, BlockDim: 64, Params: nil}
	if _, err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
	out, err := d.Memory().ReadU32s(0x1000, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		want := uint32(i + 7)
		if i%2 == 1 {
			want = uint32(i * 100)
		}
		if got != want {
			t.Fatalf("thread %d: got %d want %d", i, got, want)
		}
	}
}

// Loop kernel: each thread sums 1..k where k = tid%7+1.
func TestLoopExecution(t *testing.T) {
	b := isa.NewBuilder("loop")
	gtid := b.Reg()
	k := b.Reg()
	i := b.Reg()
	acc := b.Reg()
	addr := b.Reg()
	p := b.PredReg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IRem(isa.U32, k, isa.R(gtid), isa.Imm(7))
	b.IAdd(isa.U32, k, isa.R(k), isa.Imm(1))
	b.Mov(isa.U32, i, isa.Imm(1))
	b.Mov(isa.U32, acc, isa.Imm(0))
	b.Label("loop")
	b.IAdd(isa.U32, acc, isa.R(acc), isa.R(i))
	b.IAdd(isa.U32, i, isa.R(i), isa.Imm(1))
	b.Setp(isa.LE, isa.U32, p, isa.R(i), isa.R(k))
	b.BraTo("loop", p, false)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x4000))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(acc))
	b.Exit()
	prog := b.MustBuild()

	d := testDevice(t, ST2Adders)
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 96}); err != nil {
		t.Fatal(err)
	}
	out, _ := d.Memory().ReadU32s(0x4000, 96)
	for tid, got := range out {
		kk := uint32(tid%7 + 1)
		want := kk * (kk + 1) / 2
		if got != want {
			t.Fatalf("thread %d: sum(1..%d) = %d, want %d", tid, kk, got, want)
		}
	}
}

// Shared memory + barrier: block-wide reversal through shared memory.
func TestSharedMemoryAndBarrier(t *testing.T) {
	b := isa.NewBuilder("reverse")
	tid := b.Reg()
	ntid := b.Reg()
	v := b.Reg()
	saddr := b.Reg()
	raddr := b.Reg()
	gaddr := b.Reg()
	rt := b.Reg()
	base := b.Shared(256 * 4)
	b.MovSpecial(tid, isa.SRegTid)
	b.MovSpecial(ntid, isa.SRegNTid)
	// shared[tid] = tid*tid
	b.IMul(isa.U32, v, isa.R(tid), isa.R(tid))
	b.IMad(isa.U64, saddr, isa.R(tid), isa.Imm(4), isa.Imm(base))
	b.St(isa.Shared, isa.U32, isa.R(saddr), isa.R(v))
	b.Bar()
	// rt = ntid-1-tid; v = shared[rt]
	b.ISub(isa.U32, rt, isa.R(ntid), isa.Imm(1))
	b.ISub(isa.U32, rt, isa.R(rt), isa.R(tid))
	b.IMad(isa.U64, raddr, isa.R(rt), isa.Imm(4), isa.Imm(base))
	b.Ld(isa.Shared, isa.U32, v, isa.R(raddr))
	// out[gtid] = v
	gtid := b.Reg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IMad(isa.U64, gaddr, isa.R(gtid), isa.Imm(4), isa.Imm(0x8000))
	b.St(isa.Global, isa.U32, isa.R(gaddr), isa.R(v))
	b.Exit()
	prog := b.MustBuild()
	if prog.SharedBytes != 256*4 {
		t.Fatalf("shared bytes = %d", prog.SharedBytes)
	}

	d := testDevice(t, ST2Adders)
	const bd = 256
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 3, BlockDim: bd}); err != nil {
		t.Fatal(err)
	}
	out, _ := d.Memory().ReadU32s(0x8000, 3*bd)
	for g, got := range out {
		tid := g % bd
		rt := bd - 1 - tid
		if got != uint32(rt*rt) {
			t.Fatalf("gtid %d: got %d want %d", g, got, rt*rt)
		}
	}
}

// Atomic histogram on global memory.
func TestGlobalAtomics(t *testing.T) {
	b := isa.NewBuilder("atomics")
	gtid := b.Reg()
	bin := b.Reg()
	addr := b.Reg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IRem(isa.U32, bin, isa.R(gtid), isa.Imm(4))
	b.IMad(isa.U64, addr, isa.R(bin), isa.Imm(4), isa.Imm(0x100))
	b.AtomAdd(isa.Global, isa.U32, isa.R(addr), isa.Imm(1))
	b.Exit()
	prog := b.MustBuild()

	d := testDevice(t, ST2Adders)
	rs, err := d.Launch(&Kernel{Program: prog, GridDim: 4, BlockDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d.Memory().ReadU32s(0x100, 4)
	for i, got := range out {
		if got != 64 {
			t.Fatalf("bin %d: got %d want 64", i, got)
		}
	}
	if rs.AtomicLaneOps != 256 {
		t.Errorf("atomic lane ops = %d", rs.AtomicLaneOps)
	}
}

// FP32/FP64 arithmetic and the FPU/DPU ST² units.
func TestFloatKernel(t *testing.T) {
	b := isa.NewBuilder("fp")
	gtid := b.Reg()
	x := b.Reg()
	y := b.Reg()
	addr := b.Reg()
	s := b.Reg()
	d64 := b.Reg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x1000))
	b.Ld(isa.Global, isa.F32, x, isa.R(addr))
	b.FMul(isa.F32, y, isa.R(x), isa.ImmF32(2.0))
	b.FAdd(isa.F32, s, isa.R(x), isa.R(y))      // s = 3x
	b.FSub(isa.F32, s, isa.R(s), isa.ImmF32(1)) // s = 3x-1
	b.Cvt(isa.F64, d64, isa.R(s), isa.F32)
	b.FAdd(isa.F64, d64, isa.R(d64), isa.ImmF64(0.5))
	b.Cvt(isa.F32, s, isa.R(d64), isa.F64)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x5000))
	b.St(isa.Global, isa.F32, isa.R(addr), isa.R(s))
	b.Exit()
	prog := b.MustBuild()

	d := testDevice(t, ST2Adders)
	const n = 256
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i) * 0.25
	}
	if err := d.Memory().WriteF32s(0x1000, in); err != nil {
		t.Fatal(err)
	}
	rs, err := d.Launch(&Kernel{Program: prog, GridDim: 2, BlockDim: 128})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d.Memory().ReadF32s(0x5000, n)
	for i, got := range out {
		want := float32(float64(3*in[i]-1) + 0.5)
		if got != want {
			t.Fatalf("lane %d: got %g want %g", i, got, want)
		}
	}
	if rs.Units[core.FPU].ThreadOps == 0 {
		t.Error("FPU unit saw no mantissa ops")
	}
	if rs.Units[core.DPU].ThreadOps == 0 {
		t.Error("DPU unit saw no mantissa ops")
	}
}

// ST² and baseline must produce identical results and instruction counts;
// ST² may take (slightly) more cycles, never fewer.
func TestST2MatchesBaselineResults(t *testing.T) {
	run := func(mode AdderMode) (*RunStats, []uint32) {
		d := testDevice(t, mode)
		const n = 2048
		a := make([]uint32, n)
		bv := make([]uint32, n)
		for i := range a {
			a[i] = uint32(i * 12345)
			bv[i] = uint32(i*999 + 77)
		}
		_ = d.Memory().WriteU32s(0x1000, a)
		_ = d.Memory().WriteU32s(0x11000, bv)
		rs, err := d.Launch(&Kernel{Program: vecAddKernel(t), GridDim: 16, BlockDim: 128, Params: []uint64{n}})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := d.Memory().ReadU32s(0x21000, n)
		return rs, out
	}
	rsB, outB := run(BaselineAdders)
	rsS, outS := run(ST2Adders)
	for i := range outB {
		if outB[i] != outS[i] {
			t.Fatalf("result divergence at %d: %d vs %d", i, outB[i], outS[i])
		}
	}
	if rsB.TotalThreadInstrs() != rsS.TotalThreadInstrs() {
		t.Errorf("instruction counts differ: %d vs %d", rsB.TotalThreadInstrs(), rsS.TotalThreadInstrs())
	}
	if rsS.Cycles < rsB.Cycles {
		t.Errorf("ST² (%d cycles) should not be faster than baseline (%d)", rsS.Cycles, rsB.Cycles)
	}
	slowdown := float64(rsS.Cycles)/float64(rsB.Cycles) - 1
	if slowdown > 0.10 {
		t.Errorf("ST² slowdown %.1f%% is far beyond the paper's ≤3.5%%", 100*slowdown)
	}
}

func TestKernelValidation(t *testing.T) {
	d := testDevice(t, ST2Adders)
	if _, err := d.Launch(&Kernel{Program: nil, GridDim: 1, BlockDim: 32}); err == nil {
		t.Error("nil program should fail")
	}
	prog := vecAddKernel(t)
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 0, BlockDim: 32}); err == nil {
		t.Error("zero grid should fail")
	}
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 2000}); err == nil {
		t.Error("oversized block should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.MaxWarpsPerSM = 63 },
		func(c *Config) { c.SliceBits = 0 },
		func(c *Config) { c.SliceBits = 16 },
		func(c *Config) { c.GlobalMemBytes = 0 },
		func(c *Config) { c.LineBytes = 100 },
		func(c *Config) { c.L1KB = 0 },
		func(c *Config) { c.L1Ways = 2048 },
		func(c *Config) { c.L2KB = 3000 },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.Speculation = ""; c.AdderMode = ST2Adders },
	}
	for i, mod := range cases {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if BaselineAdders.String() != "baseline" || ST2Adders.String() != "st2" {
		t.Error("mode strings")
	}
}

func TestOutOfBoundsMemoryFails(t *testing.T) {
	b := isa.NewBuilder("oob")
	r := b.Reg()
	b.Mov(isa.U64, r, isa.Imm(1<<40))
	b.Ld(isa.Global, isa.U32, r, isa.R(r))
	b.Exit()
	prog := b.MustBuild()
	d := testDevice(t, ST2Adders)
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 32}); err == nil {
		t.Error("out-of-bounds load should fail the launch")
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	b := isa.NewBuilder("divz")
	r := b.Reg()
	b.Mov(isa.U32, r, isa.Imm(5))
	b.IDiv(isa.U32, r, isa.R(r), isa.Imm(0))
	b.Exit()
	prog := b.MustBuild()
	d := testDevice(t, ST2Adders)
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 32}); err == nil {
		t.Error("division by zero should fail the launch")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (*RunStats, []uint32) {
		d := testDevice(t, ST2Adders)
		const n = 512
		a := make([]uint32, n)
		for i := range a {
			a[i] = uint32(i)
		}
		_ = d.Memory().WriteU32s(0x1000, a)
		_ = d.Memory().WriteU32s(0x11000, a)
		rs, err := d.Launch(&Kernel{Program: vecAddKernel(t), GridDim: 4, BlockDim: 128, Params: []uint64{n}})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := d.Memory().ReadU32s(0x21000, n)
		return rs, out
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.Cycles != r2.Cycles || r1.MispredictionRate() != r2.MispredictionRate() {
		t.Error("simulation not deterministic")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("results not deterministic")
		}
	}
}

func TestCacheBasics(t *testing.T) {
	c, err := NewCache(4, 128, 2) // 4 KB, 32 lines, 2-way, 16 sets
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Error("cold access should miss")
	}
	if !c.Access(0) || !c.Access(64) {
		t.Error("same line should hit")
	}
	if c.Access(128) {
		t.Error("different line should miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate %g", st.HitRate())
	}
	// LRU eviction within a set: lines mapping to set 0 are multiples of
	// 128*16 = 2048.
	c.Reset()
	c.Access(0)
	c.Access(2048)
	c.Access(4096) // evicts line 0
	if c.Access(0) {
		t.Error("evicted line should miss")
	}
	if !c.Access(4096) {
		t.Error("most recent line should hit")
	}
	if _, err := NewCache(0, 128, 2); err == nil {
		t.Error("bad geometry should error")
	}
	if _, err := NewCache(1, 128, 32); err == nil {
		t.Error("too many ways should error")
	}
}

func TestMemoryHelpers(t *testing.T) {
	m := NewMemory(4096)
	if m.Size() != 4096 {
		t.Error("size")
	}
	if err := m.WriteF64s(0, []float64{1.5, -2.5}); err != nil {
		t.Fatal(err)
	}
	f, err := m.ReadF64s(0, 2)
	if err != nil || f[0] != 1.5 || f[1] != -2.5 {
		t.Errorf("f64 round trip: %v %v", f, err)
	}
	if err := m.WriteU64s(16, []uint64{42}); err != nil {
		t.Fatal(err)
	}
	u, _ := m.ReadU64s(16, 1)
	if u[0] != 42 {
		t.Error("u64 round trip")
	}
	if _, err := m.Load(4090, 8); err == nil {
		t.Error("straddling load should fail")
	}
	if err := m.Store(4096, 4, 1); err == nil {
		t.Error("out-of-bounds store should fail")
	}
	if _, err := m.Load(0, 3); err == nil {
		t.Error("odd size should fail")
	}
	v, err := m.Load(16, 8)
	if err != nil || v != 42 {
		t.Error("load")
	}
	if err := m.Store(24, 4, 7); err != nil {
		t.Fatal(err)
	}
	v, _ = m.Load(24, 4)
	if v != 7 {
		t.Error("store/load 4B")
	}
}

// Partial warps: block size not a multiple of 32.
func TestPartialWarp(t *testing.T) {
	b := isa.NewBuilder("partial")
	gtid := b.Reg()
	addr := b.Reg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x2000))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(gtid))
	b.Exit()
	prog := b.MustBuild()
	d := testDevice(t, ST2Adders)
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 2, BlockDim: 50}); err != nil {
		t.Fatal(err)
	}
	out, _ := d.Memory().ReadU32s(0x2000, 100)
	for i, got := range out {
		if got != uint32(i) {
			t.Fatalf("thread %d wrote %d", i, got)
		}
	}
}

// The GTO scheduler must produce identical architectural results and a
// plausible cycle count relative to LRR.
func TestGTOScheduler(t *testing.T) {
	run := func(pol SchedPolicy) (*RunStats, []uint32) {
		cfg := DefaultConfig()
		cfg.NumSMs = 2
		cfg.Scheduler = pol
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 1024
		a := make([]uint32, n)
		for i := range a {
			a[i] = uint32(i * 13)
		}
		_ = d.Memory().WriteU32s(0x1000, a)
		_ = d.Memory().WriteU32s(0x11000, a)
		rs, err := d.Launch(&Kernel{Program: vecAddKernel(t), GridDim: 8, BlockDim: 128, Params: []uint64{n}})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := d.Memory().ReadU32s(0x21000, n)
		return rs, out
	}
	lrr, outL := run(LRR)
	gto, outG := run(GTO)
	for i := range outL {
		if outL[i] != outG[i] {
			t.Fatalf("scheduler changed results at %d", i)
		}
	}
	if lrr.TotalThreadInstrs() != gto.TotalThreadInstrs() {
		t.Error("instruction counts must not depend on the scheduler")
	}
	ratio := float64(gto.Cycles) / float64(lrr.Cycles)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("GTO/LRR cycle ratio %.2f implausible (%d vs %d)", ratio, gto.Cycles, lrr.Cycles)
	}
	if LRR.String() != "lrr" || GTO.String() != "gto" {
		t.Error("policy strings")
	}
}

func TestSIMDEfficiency(t *testing.T) {
	// Full warps, no divergence → efficiency 1.
	d := testDevice(t, BaselineAdders)
	const n = 512
	a := make([]uint32, n)
	_ = d.Memory().WriteU32s(0x1000, a)
	_ = d.Memory().WriteU32s(0x11000, a)
	rs, err := d.Launch(&Kernel{Program: vecAddKernel(t), GridDim: 4, BlockDim: 128, Params: []uint64{n}})
	if err != nil {
		t.Fatal(err)
	}
	// Not exactly 1: the predicated-off guard branch issues with zero
	// active lanes and still counts as a warp instruction.
	uniform := rs.SIMDEfficiency()
	if uniform < 0.9 || uniform > 1.0 {
		t.Errorf("uniform kernel SIMD efficiency = %.3f, want ≈1", uniform)
	}
	// Divergent kernel: odd/even split halves the efficiency of the
	// divergent region.
	b := isa.NewBuilder("div2")
	tid := b.Reg()
	v := b.Reg()
	p := b.PredReg()
	b.MovSpecial(tid, isa.SRegTid)
	b.And(isa.U32, v, isa.R(tid), isa.Imm(1))
	b.Setp(isa.EQ, isa.U32, p, isa.R(v), isa.Imm(0))
	b.BraTo("odd", p, true)
	for i := 0; i < 8; i++ {
		b.IAdd(isa.U32, v, isa.R(v), isa.Imm(1))
	}
	b.Bra("join")
	b.Label("odd")
	for i := 0; i < 8; i++ {
		b.IAdd(isa.U32, v, isa.R(v), isa.Imm(2))
	}
	b.Label("join")
	b.Exit()
	d2 := testDevice(t, BaselineAdders)
	rs2, err := d2.Launch(&Kernel{Program: b.MustBuild(), GridDim: 1, BlockDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	if e := rs2.SIMDEfficiency(); e > uniform-0.1 {
		t.Errorf("divergent kernel SIMD efficiency = %.3f, expected well below %.3f", e, uniform)
	}
	if (&RunStats{WarpInstrs: map[isa.FUClass]uint64{}}).SIMDEfficiency() != 0 {
		t.Error("empty stats should be 0")
	}
}

func TestTitanVConfigRuns(t *testing.T) {
	cfg := TitanVConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumSMs != 80 {
		t.Fatalf("SMs = %d", cfg.NumSMs)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A small grid only occupies a few of the 80 SMs.
	const n = 256
	a := make([]uint32, n)
	_ = d.Memory().WriteU32s(0x1000, a)
	_ = d.Memory().WriteU32s(0x11000, a)
	rs, err := d.Launch(&Kernel{Program: vecAddKernel(t), GridDim: 2, BlockDim: 128, Params: []uint64{n}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.SMsUsed != 2 {
		t.Errorf("SMs used = %d, want 2 (grid-limited)", rs.SMsUsed)
	}
}

// Pipeline timing contracts: dependent instructions are spaced by the
// producer latency; independent instructions pipeline through the FU.
func TestPipelineTimingContracts(t *testing.T) {
	run := func(build func(b *isa.Builder)) uint64 {
		b := isa.NewBuilder("timing")
		build(b)
		b.Exit()
		prog := b.MustBuild()
		cfg := DefaultConfig()
		cfg.NumSMs = 1
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 32})
		if err != nil {
			t.Fatal(err)
		}
		return rs.Cycles
	}
	// A chain of N dependent adds is spaced by the producer latency (4
	// cycles); N independent adds issue back to back (a single warp is
	// bounded by its 1-IPC issue, not the 4 ALU pipes). The cycle ratio
	// must therefore approach the ALU latency.
	const n = 64
	dep := run(func(b *isa.Builder) {
		r := b.Reg()
		b.Mov(isa.U32, r, isa.Imm(1))
		for i := 0; i < n; i++ {
			b.IAdd(isa.U32, r, isa.R(r), isa.Imm(1))
		}
	})
	indep := run(func(b *isa.Builder) {
		rs := b.Regs(8)
		for _, r := range rs {
			b.Mov(isa.U32, r, isa.Imm(1))
		}
		for i := 0; i < n; i++ {
			r := rs[i%8]
			b.IAdd(isa.U32, r, isa.R(r), isa.Imm(1))
		}
	})
	if dep <= indep {
		t.Fatalf("dependent chain (%d cycles) must be slower than independent stream (%d)", dep, indep)
	}
	ratio := float64(dep) / float64(indep)
	if ratio < 3.0 || ratio > 4.5 {
		t.Errorf("dep/indep cycle ratio %.2f, expected ≈4 (the ALU latency)", ratio)
	}
	// Division is far slower than addition.
	divChain := run(func(b *isa.Builder) {
		r := b.Reg()
		b.Mov(isa.U32, r, isa.Imm(0x7FFFFFFF))
		for i := 0; i < n; i++ {
			b.IDiv(isa.U32, r, isa.R(r), isa.Imm(1))
		}
	})
	if divChain < dep*3 {
		t.Errorf("division chain (%d) should dwarf the add chain (%d)", divChain, dep)
	}
}
