package gpusim

import (
	"math"
	"testing"

	"st2gpu/internal/isa"
)

// opSentinel is what the destination holds before the op under test runs;
// lanes the guard disables must still hold it afterwards.
const opSentinel = 0xDEADBEEFCAFEF00D

// runOp builds a program around stage: a prologue computing the guard
// predicate (even block-local thread ids pass) and setting the
// destination to opSentinel, then stage, then a store of every thread's
// destination to 0x100 + 8·tid. stage calls guard right after emitting
// the instruction under test, which guards it when guarded is set. It
// launches one block of blockDim threads (a multiple of 32 or not) and
// returns each thread's stored value and whether the guard passed for it.
// mode selects the adders add/sub instructions run on.
func runOp(t *testing.T, mode AdderMode, blockDim int, guarded bool, stage func(b *isa.Builder, dst isa.Reg, guard func())) (vals []uint64, active []bool) {
	t.Helper()
	b := isa.NewBuilder("op")
	dst := b.Reg()
	tid, bit, addr := b.Reg(), b.Reg(), b.Reg()
	even := b.PredReg()
	b.MovSpecial(tid, isa.SRegTid)
	b.And(isa.U32, bit, isa.R(tid), isa.Imm(1))
	b.Setp(isa.EQ, isa.U32, even, isa.R(bit), isa.Imm(0))
	b.Mov(isa.U64, dst, isa.Imm(opSentinel))
	stage(b, dst, func() {
		if guarded {
			b.Guarded(even, false)
		}
	})
	b.IMad(isa.U64, addr, isa.R(tid), isa.Imm(8), isa.Imm(0x100))
	b.St(isa.Global, isa.U64, isa.R(addr), isa.R(dst))
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.GlobalMemBytes = 1 << 20
	cfg.AdderMode = mode
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: blockDim}); err != nil {
		t.Fatal(err)
	}
	vals = make([]uint64, blockDim)
	active = make([]bool, blockDim)
	for l := range vals {
		v, err := d.Memory().Load(0x100+8*uint64(l), 8)
		if err != nil {
			t.Fatal(err)
		}
		vals[l], active[l] = v, !guarded || l%2 == 0
	}
	return vals, active
}

// maskedVariants are the launches every opcode test runs: a full warp with
// every lane active, then half the lanes disabled by a guard on a full
// warp and on a partial second warp, under both adder modes.
var maskedVariants = []struct {
	mode     AdderMode
	blockDim int
	guarded  bool
}{
	{ST2Adders, 32, false},
	{ST2Adders, 32, true},
	{ST2Adders, 48, true},
	{BaselineAdders, 48, true},
}

// evalOp runs the instruction stage emits last (r0 = <op>(inputs...),
// inputs staged with typed movs) under every masked variant and returns
// its result. Every executing thread must produce the same value and
// every disabled thread must keep opSentinel.
func evalOp(t *testing.T, stage func(b *isa.Builder, dst isa.Reg)) uint64 {
	t.Helper()
	var want uint64
	for i, v := range maskedVariants {
		vals, active := runOp(t, v.mode, v.blockDim, v.guarded, func(b *isa.Builder, dst isa.Reg, guard func()) {
			stage(b, dst)
			guard()
		})
		if i == 0 {
			want = vals[0]
		}
		for l, got := range vals {
			if active[l] && got != want {
				t.Errorf("%v block %d guarded=%v: thread %d got %#x, want %#x", v.mode, v.blockDim, v.guarded, l, got, want)
			}
			if !active[l] && got != opSentinel {
				t.Errorf("%v block %d: disabled thread %d was written: %#x", v.mode, v.blockDim, l, got)
			}
		}
	}
	return want
}

// movI stages an integer constant of the given type.
func movI(b *isa.Builder, ty isa.Type, v uint64) isa.Reg {
	r := b.Reg()
	b.Mov(ty, r, isa.Imm(v))
	return r
}

func f32b(v float32) uint64 { return uint64(math.Float32bits(v)) }
func f64b(v float64) uint64 { return math.Float64bits(v) }

func TestIntegerOpcodeSemantics(t *testing.T) {
	neg5 := uint64(0xFFFFFFFB) // raw 32-bit -5
	cases := []struct {
		name string
		emit func(b *isa.Builder, dst isa.Reg)
		want uint64
	}{
		{"add.u32 wraps", func(b *isa.Builder, d isa.Reg) {
			b.IAdd(isa.U32, d, isa.R(movI(b, isa.U32, 0xFFFFFFFF)), isa.Imm(2))
		}, 1},
		{"sub.s64", func(b *isa.Builder, d isa.Reg) {
			b.ISub(isa.S64, d, isa.R(movI(b, isa.S64, 5)), isa.Imm(7))
		}, ^uint64(1)},
		{"mov.u32 truncates", func(b *isa.Builder, d isa.Reg) {
			b.Mov(isa.U32, d, isa.Imm(1<<40|9))
		}, 9},
		{"and.u64", func(b *isa.Builder, d isa.Reg) {
			b.And(isa.U64, d, isa.R(movI(b, isa.U64, 0xFF00FF)), isa.Imm(0x0FF0))
		}, 0xF0},
		{"or.u64", func(b *isa.Builder, d isa.Reg) {
			b.Or(isa.U64, d, isa.R(movI(b, isa.U64, 0xF0)), isa.Imm(0x0F))
		}, 0xFF},
		{"xor.u64", func(b *isa.Builder, d isa.Reg) {
			b.Xor(isa.U64, d, isa.R(movI(b, isa.U64, 0xFF)), isa.Imm(0x0F))
		}, 0xF0},
		{"shl.u32 truncates", func(b *isa.Builder, d isa.Reg) {
			b.Shl(isa.U32, d, isa.R(movI(b, isa.U32, 0x80000001)), isa.Imm(1))
		}, 2},
		{"min.s32 negative", func(b *isa.Builder, d isa.Reg) {
			b.IMin(isa.S32, d, isa.R(movI(b, isa.S32, neg5)), isa.Imm(3))
		}, ^uint64(4)}, // -5 sign-extended
		{"max.s32 negative", func(b *isa.Builder, d isa.Reg) {
			b.IMax(isa.S32, d, isa.R(movI(b, isa.S32, neg5)), isa.Imm(3))
		}, 3},
		{"min.u32 wraps", func(b *isa.Builder, d isa.Reg) {
			b.IMin(isa.U32, d, isa.R(movI(b, isa.U32, neg5)), isa.Imm(3))
		}, 3}, // 0xFFFFFFFB > 3 unsigned
		{"min.s64", func(b *isa.Builder, d isa.Reg) {
			b.IMin(isa.S64, d, isa.R(movI(b, isa.S64, ^uint64(8))), isa.Imm(2))
		}, ^uint64(8)},
		{"max.u64", func(b *isa.Builder, d isa.Reg) {
			b.IMax(isa.U64, d, isa.R(movI(b, isa.U64, 1<<40)), isa.Imm(7))
		}, 1 << 40},
		{"not.u64", func(b *isa.Builder, d isa.Reg) {
			b.Not(isa.U64, d, isa.R(movI(b, isa.U64, 0x0F0F)))
		}, ^uint64(0x0F0F)},
		{"shr.s32 arithmetic", func(b *isa.Builder, d isa.Reg) {
			b.Shr(isa.S32, d, isa.R(movI(b, isa.S32, 0x80000000)), isa.Imm(4))
		}, 0xFFFFFFFFF8000000},
		{"shr.u32 logical", func(b *isa.Builder, d isa.Reg) {
			b.Shr(isa.U32, d, isa.R(movI(b, isa.U32, 0x80000000)), isa.Imm(4))
		}, 0x08000000},
		{"shr.s64 arithmetic", func(b *isa.Builder, d isa.Reg) {
			b.Shr(isa.S64, d, isa.R(movI(b, isa.S64, 1<<63)), isa.Imm(8))
		}, 0xFF80000000000000}, // arithmetic shift fill
		{"shr.u64 logical", func(b *isa.Builder, d isa.Reg) {
			b.Shr(isa.U64, d, isa.R(movI(b, isa.U64, 1<<63)), isa.Imm(8))
		}, 1 << 55},
		{"abs.s32", func(b *isa.Builder, d isa.Reg) {
			b.Abs(isa.S32, d, isa.R(movI(b, isa.S32, neg5)))
		}, 5},
		{"abs.s64", func(b *isa.Builder, d isa.Reg) {
			b.Abs(isa.S64, d, isa.R(movI(b, isa.S64, ^uint64(76))))
		}, 77},
		{"mul.u64 wide", func(b *isa.Builder, d isa.Reg) {
			b.IMul(isa.U64, d, isa.R(movI(b, isa.U64, 1<<33)), isa.Imm(4))
		}, 1 << 35},
		{"mad.u64", func(b *isa.Builder, d isa.Reg) {
			b.IMad(isa.U64, d, isa.R(movI(b, isa.U64, 1<<32)), isa.Imm(2), isa.Imm(5))
		}, 1<<33 + 5},
		{"div.s32 negative", func(b *isa.Builder, d isa.Reg) {
			b.IDiv(isa.S32, d, isa.R(movI(b, isa.S32, 0xFFFFFFF9)), isa.Imm(2))
		}, ^uint64(2)}, // -3, sign-extended canonical S32 form
		{"rem.s32 negative", func(b *isa.Builder, d isa.Reg) {
			b.IRem(isa.S32, d, isa.R(movI(b, isa.S32, 0xFFFFFFF9)), isa.Imm(2))
		}, ^uint64(0)}, // -1, sign-extended canonical S32 form
		{"div.s64", func(b *isa.Builder, d isa.Reg) {
			b.IDiv(isa.S64, d, isa.R(movI(b, isa.S64, ^uint64(99))), isa.Imm(7))
		}, ^uint64(13)}, // -14
		{"rem.s64", func(b *isa.Builder, d isa.Reg) {
			b.IRem(isa.S64, d, isa.R(movI(b, isa.S64, ^uint64(99))), isa.Imm(7))
		}, ^uint64(1)}, // -2
		{"div.u64", func(b *isa.Builder, d isa.Reg) {
			b.IDiv(isa.U64, d, isa.R(movI(b, isa.U64, 1<<40)), isa.Imm(1<<10))
		}, 1 << 30},
		{"rem.u64", func(b *isa.Builder, d isa.Reg) {
			b.IRem(isa.U64, d, isa.R(movI(b, isa.U64, (1<<40)+123)), isa.Imm(1<<20))
		}, 123},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := evalOp(t, c.emit); got != c.want {
				t.Errorf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestFloatOpcodeSemantics(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *isa.Builder, dst isa.Reg)
		want uint64
	}{
		{"add.f32", func(b *isa.Builder, d isa.Reg) {
			b.FAdd(isa.F32, d, isa.R(movI(b, isa.F32, f32b(1.5))), isa.ImmF32(0.25))
		}, f32b(1.75)},
		{"sub.f64", func(b *isa.Builder, d isa.Reg) {
			b.FSub(isa.F64, d, isa.R(movI(b, isa.F64, f64b(1))), isa.ImmF64(4))
		}, f64b(-3)},
		{"mul.f64", func(b *isa.Builder, d isa.Reg) {
			b.FMul(isa.F64, d, isa.R(movI(b, isa.F64, f64b(1.5))), isa.ImmF64(-2))
		}, f64b(-3)},
		{"fma.f64", func(b *isa.Builder, d isa.Reg) {
			b.FFma(isa.F64, d, isa.R(movI(b, isa.F64, f64b(2))), isa.ImmF64(3), isa.ImmF64(0.5))
		}, f64b(6.5)},
		{"div.f64", func(b *isa.Builder, d isa.Reg) {
			b.FDiv(isa.F64, d, isa.R(movI(b, isa.F64, f64b(1))), isa.ImmF64(4))
		}, f64b(0.25)},
		{"min.f64", func(b *isa.Builder, d isa.Reg) {
			b.FMin(isa.F64, d, isa.R(movI(b, isa.F64, f64b(-1))), isa.ImmF64(2))
		}, f64b(-1)},
		{"max.f32", func(b *isa.Builder, d isa.Reg) {
			b.FMax(isa.F32, d, isa.R(movI(b, isa.F32, f32b(-1))), isa.ImmF32(2))
		}, f32b(2)},
		{"neg.f64", func(b *isa.Builder, d isa.Reg) {
			b.FNeg(isa.F64, d, isa.R(movI(b, isa.F64, f64b(3.5))))
		}, f64b(-3.5)},
		{"abs.f32", func(b *isa.Builder, d isa.Reg) {
			b.FAbs(isa.F32, d, isa.R(movI(b, isa.F32, f32b(-7))))
		}, f32b(7)},
		{"sqrt.f64", func(b *isa.Builder, d isa.Reg) {
			b.Sqrt(isa.F64, d, isa.R(movI(b, isa.F64, f64b(9))))
		}, f64b(3)},
		{"rsqrt.f64", func(b *isa.Builder, d isa.Reg) {
			b.Rsqrt(isa.F64, d, isa.R(movI(b, isa.F64, f64b(4))))
		}, f64b(0.5)},
		{"rcp.f64", func(b *isa.Builder, d isa.Reg) {
			b.Rcp(isa.F64, d, isa.R(movI(b, isa.F64, f64b(8))))
		}, f64b(0.125)},
		{"ex2.f64", func(b *isa.Builder, d isa.Reg) {
			b.Exp2(isa.F64, d, isa.R(movI(b, isa.F64, f64b(10))))
		}, f64b(1024)},
		{"lg2.f64", func(b *isa.Builder, d isa.Reg) {
			b.Log2(isa.F64, d, isa.R(movI(b, isa.F64, f64b(1024))))
		}, f64b(10)},
		{"sin.f64 zero", func(b *isa.Builder, d isa.Reg) {
			b.Sin(isa.F64, d, isa.R(movI(b, isa.F64, f64b(0))))
		}, f64b(0)},
		{"cos.f64 zero", func(b *isa.Builder, d isa.Reg) {
			b.Cos(isa.F64, d, isa.R(movI(b, isa.F64, f64b(0))))
		}, f64b(1)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := evalOp(t, c.emit); got != c.want {
				t.Errorf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestCvtSemantics(t *testing.T) {
	cases := []struct {
		name     string
		from, to isa.Type
		in       uint64
		want     uint64
	}{
		{"u32→f32", isa.U32, isa.F32, 7, f32b(7)},
		{"s32→f32 negative", isa.S32, isa.F32, 0xFFFFFFFD, f32b(-3)},
		{"u32→f64", isa.U32, isa.F64, 1000, f64b(1000)},
		{"s64→f64 negative", isa.S64, isa.F64, ^uint64(11), f64b(-12)},
		{"f32→s32 truncates", isa.F32, isa.S32, f32b(-2.9), ^uint64(1)},
		{"f32→u32", isa.F32, isa.U32, f32b(3.7), 3},
		{"f64→f32", isa.F64, isa.F32, f64b(1.5), f32b(1.5)},
		{"f32→f64", isa.F32, isa.F64, f32b(0.5), f64b(0.5)},
		{"f64→s64", isa.F64, isa.S64, f64b(-123.9), ^uint64(122)},
		{"u64→u32 truncates", isa.U64, isa.U32, 1<<40 | 5, 5},
		{"s32→s64 sign extends", isa.S32, isa.S64, 0xFFFFFFFF, ^uint64(0)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := evalOp(t, func(b *isa.Builder, d isa.Reg) {
				src := b.Reg()
				b.Mov(c.from, src, isa.Imm(c.in))
				b.Cvt(c.to, d, isa.R(src), c.from)
			})
			if got != c.want {
				t.Errorf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

// Every comparison operator × representative type, captured through Selp.
// The predicate starts at the opposite of the expected result, so threads
// the guard disables must read it back unchanged.
func TestSetpSemantics(t *testing.T) {
	check := func(name string, ty isa.Type, cmp isa.CmpOp, a, b uint64, want bool) {
		t.Helper()
		for _, v := range maskedVariants {
			vals, active := runOp(t, v.mode, v.blockDim, v.guarded, func(bb *isa.Builder, d isa.Reg, guard func()) {
				ra := bb.Reg()
				rb := bb.Reg()
				bb.Mov(ty, ra, isa.Imm(a))
				bb.Mov(ty, rb, isa.Imm(b))
				p := bb.PredReg()
				initial := uint64(1)
				if want {
					initial = 0
				}
				bb.Setp(isa.EQ, isa.U32, p, isa.Imm(1), isa.Imm(initial))
				bb.Setp(cmp, ty, p, isa.R(ra), isa.R(rb))
				guard()
				bb.Selp(isa.U64, d, isa.Imm(1), isa.Imm(0), p)
			})
			for l, got := range vals {
				if exp := want == active[l]; (got == 1) != exp {
					t.Errorf("%s %v block %d guarded=%v: thread %d got %d, want %v", name, v.mode, v.blockDim, v.guarded, l, got, exp)
				}
			}
		}
	}
	neg := uint64(0xFFFFFFFC)
	check("lt.s32 neg", isa.S32, isa.LT, neg, 3, true)
	check("lt.u32 neg-as-big", isa.U32, isa.LT, neg, 3, false)
	check("le.s32 equal", isa.S32, isa.LE, 5, 5, true)
	check("gt.s64", isa.S64, isa.GT, ^uint64(1), ^uint64(6), true)
	check("ge.u64", isa.U64, isa.GE, 9, 9, true)
	check("ne.u32", isa.U32, isa.NE, 1, 2, true)
	check("eq.f32", isa.F32, isa.EQ, f32b(1.5), f32b(1.5), true)
	check("lt.f32", isa.F32, isa.LT, f32b(-0.5), f32b(0.25), true)
	check("gt.f64", isa.F64, isa.GT, f64b(2.5), f64b(2.4), true)
	check("le.f64 nan is false", isa.F64, isa.LE, f64b(math.NaN()), f64b(1), false)
}
