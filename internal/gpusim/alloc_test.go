package gpusim

import (
	"runtime/debug"
	"testing"

	"st2gpu/internal/isa"
)

// loopKernel runs iters iterations of a loop whose body touches every hot
// execution path: integer and FP adds through the ST² units, scalar ALU
// and SFU ops, a guarded add, a divergent branch that reconverges, a global
// load and store, SETP and the backward branch.
func loopKernel(t testing.TB, iters uint64) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("xloop")
	gtid, i, acc, f, addr, v := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	more, even := b.PredReg(), b.PredReg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.Mov(isa.U32, i, isa.Imm(0))
	b.Mov(isa.U32, acc, isa.R(gtid))
	b.Mov(isa.F32, f, isa.ImmF32(1))
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x1000))
	b.And(isa.U32, v, isa.R(gtid), isa.Imm(1))
	b.Setp(isa.EQ, isa.U32, even, isa.R(v), isa.Imm(0))
	b.Label("loop")
	b.IAdd(isa.U32, acc, isa.R(acc), isa.R(i))
	b.FAdd(isa.F32, f, isa.R(f), isa.ImmF32(0.5))
	b.Xor(isa.U32, acc, isa.R(acc), isa.Imm(0x5a5a))
	b.ISub(isa.U32, acc, isa.R(acc), isa.Imm(3)).Guarded(even, false)
	b.BraTo("skip", even, false)
	b.Sqrt(isa.F32, f, isa.R(f))
	b.Label("skip")
	b.Ld(isa.Global, isa.U32, v, isa.R(addr))
	b.IAdd(isa.U32, v, isa.R(v), isa.R(acc))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(v))
	b.IAdd(isa.U32, i, isa.R(i), isa.Imm(1))
	b.Setp(isa.LT, isa.U32, more, isa.R(i), isa.Imm(iters))
	b.BraTo("loop", more, false)
	b.Exit()
	return b.MustBuild()
}

// TestLaunchAllocsIndependentOfInstructionCount pins the allocation-free
// issue path: a launch allocates its per-launch state (SMs, warps, caches,
// the decoded program) and nothing per executed instruction, so the same
// loop kernel at N and 8N iterations allocates exactly as much. The
// garbage collector is paused while counting: a collection that happens to
// run mid-launch adds a few runtime-internal allocations of its own.
func TestLaunchAllocsIndependentOfInstructionCount(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	configs := map[string]func(*Config){
		"baseline":      func(c *Config) { c.AdderMode = BaselineAdders },
		"st2-crf":       func(c *Config) {},
		"st2-predictor": func(c *Config) { c.UseCRF = false },
	}
	for name, set := range configs {
		t.Run(name, func(t *testing.T) {
			allocs := func(iters uint64) float64 {
				cfg := DefaultConfig()
				cfg.NumSMs = 2
				cfg.ParallelSMs = 1
				cfg.GlobalMemBytes = 1 << 20
				set(&cfg)
				d, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				k := &Kernel{Program: loopKernel(t, iters), GridDim: 4, BlockDim: 96}
				return testing.AllocsPerRun(3, func() {
					if _, err := d.Launch(k); err != nil {
						t.Fatal(err)
					}
				})
			}
			if n, n8 := allocs(16), allocs(128); n8 != n {
				t.Errorf("launch allocations grow with instruction count: %v at 16 iterations, %v at 128", n, n8)
			}
		})
	}
}
