package kernels

import (
	"fmt"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/isa"
)

// NumMicro is the size of the power-model calibration suite: the paper
// develops "a suite of 123 micro-benchmarks that isolate and stress
// specific GPU hardware components" (Section V-C).
const NumMicro = 123

// microBlockDim is every stressor's block size.
const microBlockDim = 128

// The global-memory stressors' address arithmetic, shared by their
// builders and their input reach so the two cannot drift apart.
const (
	streamStrideBytes = 1024          // gmem_stream: per-iteration address step
	scatterMask       = (4 << 20) - 4 // gmem_scatter: byte-offset mask of the hash walk
)

// microFamily is one component-stressing kernel template.
type microFamily struct {
	name  string
	build func(b *isa.Builder, iters int)
	// inWords is the number of AddrIn0 words the family's program can
	// read at the given thread count and loop count: Micro stages only
	// that prefix of the stressor's input stream. Nil means the program
	// never loads from AddrIn0.
	inWords func(threads, iters int) int
}

// microFamilies isolates each power-model component: integer add, logic,
// multiply, divide, FP add, FP mul/FMA, FP div, FP64, SFU, shared memory,
// streaming global loads, scattered global loads, and atomics. 123
// instances are generated by sweeping the loop intensity of each family.
var microFamilies = []microFamily{
	{"ialu_add", func(b *isa.Builder, iters int) {
		acc, x := microSeed(b)
		microLoop(b, iters, func() {
			b.IAdd(isa.U32, acc, isa.R(acc), isa.R(x))
			b.IAdd(isa.U32, x, isa.R(x), isa.Imm(3))
			b.ISub(isa.U32, acc, isa.R(acc), isa.Imm(1))
		})
		microStore(b, acc)
	}, nil},
	{"ialu_logic", func(b *isa.Builder, iters int) {
		acc, x := microSeed(b)
		microLoop(b, iters, func() {
			b.Xor(isa.U32, acc, isa.R(acc), isa.R(x))
			b.Shl(isa.U32, x, isa.R(x), isa.Imm(1))
			b.Or(isa.U32, x, isa.R(x), isa.Imm(1))
			b.And(isa.U32, acc, isa.R(acc), isa.Imm(0xFFFFFF))
		})
		microStore(b, acc)
	}, nil},
	{"imul", func(b *isa.Builder, iters int) {
		acc, x := microSeed(b)
		microLoop(b, iters, func() {
			b.IMul(isa.U32, acc, isa.R(acc), isa.R(x))
			b.IMad(isa.U32, acc, isa.R(acc), isa.Imm(3), isa.Imm(7))
		})
		microStore(b, acc)
	}, nil},
	{"idiv", func(b *isa.Builder, iters int) {
		acc, x := microSeed(b)
		b.IAdd(isa.U32, x, isa.R(x), isa.Imm(3)) // never zero
		microLoop(b, iters, func() {
			b.IDiv(isa.U32, acc, isa.R(acc), isa.R(x))
			b.IAdd(isa.U32, acc, isa.R(acc), isa.Imm(0x10001))
		})
		microStore(b, acc)
	}, nil},
	{"fadd", func(b *isa.Builder, iters int) {
		acc, x := microSeed(b)
		b.Cvt(isa.F32, acc, isa.R(acc), isa.U32)
		b.Cvt(isa.F32, x, isa.R(x), isa.U32)
		microLoop(b, iters, func() {
			b.FAdd(isa.F32, acc, isa.R(acc), isa.R(x))
			b.FSub(isa.F32, acc, isa.R(acc), isa.ImmF32(0.25))
			b.FAdd(isa.F32, x, isa.R(x), isa.ImmF32(0.125))
		})
		microStore(b, acc)
	}, nil},
	{"fmul", func(b *isa.Builder, iters int) {
		acc, x := microSeed(b)
		b.Cvt(isa.F32, acc, isa.R(acc), isa.U32)
		b.Cvt(isa.F32, x, isa.R(x), isa.U32)
		b.FAdd(isa.F32, x, isa.R(x), isa.ImmF32(1.0001))
		microLoop(b, iters, func() {
			b.FMul(isa.F32, acc, isa.R(acc), isa.ImmF32(1.0001))
			b.FFma(isa.F32, acc, isa.R(acc), isa.ImmF32(0.9999), isa.R(x))
		})
		microStore(b, acc)
	}, nil},
	{"fdiv", func(b *isa.Builder, iters int) {
		acc, x := microSeed(b)
		b.Cvt(isa.F32, acc, isa.R(acc), isa.U32)
		b.Cvt(isa.F32, x, isa.R(x), isa.U32)
		b.FAdd(isa.F32, x, isa.R(x), isa.ImmF32(1.5))
		microLoop(b, iters, func() {
			b.FDiv(isa.F32, acc, isa.R(acc), isa.R(x))
			b.FDiv(isa.F32, acc, isa.R(x), isa.R(acc))
		})
		microStore(b, acc)
	}, nil},
	{"fp64", func(b *isa.Builder, iters int) {
		acc, x := microSeed(b)
		b.Cvt(isa.F64, acc, isa.R(acc), isa.U32)
		b.Cvt(isa.F64, x, isa.R(x), isa.U32)
		microLoop(b, iters, func() {
			b.FAdd(isa.F64, acc, isa.R(acc), isa.R(x))
			b.FFma(isa.F64, acc, isa.R(acc), isa.ImmF64(0.999), isa.ImmF64(0.5))
			b.FSub(isa.F64, x, isa.R(x), isa.ImmF64(0.01))
		})
		acc32 := b.Reg()
		b.Cvt(isa.F32, acc32, isa.R(acc), isa.F64)
		microStore(b, acc32)
	}, nil},
	{"sfu", func(b *isa.Builder, iters int) {
		acc, _ := microSeed(b)
		b.Cvt(isa.F32, acc, isa.R(acc), isa.U32)
		b.FMul(isa.F32, acc, isa.R(acc), isa.ImmF32(0.001))
		microLoop(b, iters, func() {
			b.Sin(isa.F32, acc, isa.R(acc))
			b.FAdd(isa.F32, acc, isa.R(acc), isa.ImmF32(1.1))
			b.Sqrt(isa.F32, acc, isa.R(acc))
		})
		microStore(b, acc)
	}, nil},
	{"shared", func(b *isa.Builder, iters int) {
		sh := b.Shared(256 * 4)
		tid, v, addr := b.Reg(), b.Reg(), b.Reg()
		b.MovSpecial(tid, isa.SRegTid)
		b.IMad(isa.U64, addr, isa.R(tid), isa.Imm(4), isa.Imm(sh))
		b.Mov(isa.U32, v, isa.R(tid))
		microLoop(b, iters, func() {
			b.St(isa.Shared, isa.U32, isa.R(addr), isa.R(v))
			b.Ld(isa.Shared, isa.U32, v, isa.R(addr))
			b.IAdd(isa.U32, v, isa.R(v), isa.Imm(1))
		})
		microStore(b, v)
	}, nil},
	{"gmem_stream", func(b *isa.Builder, iters int) {
		gtid, v, addr, acc := b.Reg(), b.Reg(), b.Reg(), b.Reg()
		b.MovSpecial(gtid, isa.SRegGtid)
		b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(AddrIn0))
		b.Mov(isa.U32, acc, isa.Imm(0))
		microLoop(b, iters, func() {
			b.Ld(isa.Global, isa.U32, v, isa.R(addr))
			b.IAdd(isa.U32, acc, isa.R(acc), isa.R(v))
			b.IAdd(isa.U64, addr, isa.R(addr), isa.Imm(streamStrideBytes))
		})
		microStore(b, acc)
	}, func(threads, iters int) int {
		// Thread gtid reads word gtid + k·stride/4 in iteration k.
		return threads + streamStrideBytes/4*(iters-1)
	}},
	{"gmem_scatter", func(b *isa.Builder, iters int) {
		gtid, v, addr, acc := b.Reg(), b.Reg(), b.Reg(), b.Reg()
		b.MovSpecial(gtid, isa.SRegGtid)
		// A multiplicative-hash walk defeats both caches.
		b.IMad(isa.U32, v, isa.R(gtid), isa.Imm(2654435761), isa.Imm(12345))
		b.Mov(isa.U32, acc, isa.Imm(0))
		microLoop(b, iters, func() {
			b.And(isa.U32, addr, isa.R(v), isa.Imm(scatterMask))
			b.IAdd(isa.U64, addr, isa.R(addr), isa.Imm(AddrIn0))
			b.Ld(isa.Global, isa.U32, v, isa.R(addr))
			b.IMad(isa.U32, v, isa.R(v), isa.Imm(2654435761), isa.Imm(17))
			b.IAdd(isa.U32, acc, isa.R(acc), isa.R(v))
		})
		microStore(b, acc)
	}, func(int, int) int { return scatterMask/4 + 1 }},
	{"atomics", func(b *isa.Builder, iters int) {
		gtid, bin, addr := b.Reg(), b.Reg(), b.Reg()
		b.MovSpecial(gtid, isa.SRegGtid)
		b.And(isa.U32, bin, isa.R(gtid), isa.Imm(63))
		b.IMad(isa.U64, addr, isa.R(bin), isa.Imm(4), isa.Imm(AddrOut1))
		microLoop(b, iters, func() {
			b.AtomAdd(isa.Global, isa.U32, isa.R(addr), isa.Imm(1))
		})
		zero := b.Reg()
		b.Mov(isa.U32, zero, isa.Imm(0))
		microStore(b, zero)
	}, nil},
}

// microLoop wraps body in a counted loop. The loop counter adds are part
// of every stressor's baseline activity, as on real hardware.
func microLoop(b *isa.Builder, iters int, body func()) {
	i := b.Reg()
	p := b.PredReg()
	b.Mov(isa.U32, i, isa.Imm(0))
	b.Label("mloop")
	body()
	b.IAdd(isa.U32, i, isa.R(i), isa.Imm(1))
	b.Setp(isa.LT, isa.U32, p, isa.R(i), isa.Imm(uint64(iters)))
	b.BraTo("mloop", p, false)
}

// microStore writes the accumulator so the loop has an architectural
// effect, then exits.
func microStore(b *isa.Builder, acc isa.Reg) {
	gtid, addr := b.Reg(), b.Reg()
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(AddrOut0))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(acc))
	b.Exit()
}

// microSeed allocates the two working registers every arithmetic
// stressor uses and seeds them from the thread id so lanes carry
// distinct value streams.
func microSeed(b *isa.Builder) (acc, x isa.Reg) {
	acc, x = b.Reg(), b.Reg()
	b.MovSpecial(acc, isa.SRegGtid)
	b.IMad(isa.U32, x, isa.R(acc), isa.Imm(7), isa.Imm(13))
	return acc, x
}

// microInput draws the first n words of stressor i's input stream. The
// stream is fixed per stressor, so a shorter draw is a prefix of a longer.
func microInput(i, n int) []uint32 {
	data := make([]uint32, n)
	r := rng(int64(1000 + i))
	for j := range data {
		data[j] = r.Uint32()
	}
	return data
}

// Micro builds stressor i ∈ [0, NumMicro): family i%len, loop intensity
// growing with i/len. Every instance is a complete runnable Spec. Its
// Setup stages only the prefix of the input stream the family can read
// at AddrIn0, so every word the program loads is the same as if the
// whole 4 MiB buffer had been written.
func Micro(i int) (*Spec, error) {
	if i < 0 || i >= NumMicro {
		return nil, fmt.Errorf("kernels: micro index %d outside [0,%d)", i, NumMicro)
	}
	fam := microFamilies[i%len(microFamilies)]
	level := i/len(microFamilies) + 1
	iters := 8 * level
	name := fmt.Sprintf("micro_%s_%d", fam.name, level)

	b := isa.NewBuilder(name)
	fam.build(b, iters)
	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("kernels: building %s: %w", name, err)
	}

	grid := 1 + i%4
	var words int
	if fam.inWords != nil {
		words = fam.inWords(grid*microBlockDim, iters)
	}
	data := microInput(i, words)
	return &Spec{
		Name:  name,
		Suite: "micro",
		Kernel: &gpusim.Kernel{
			// Varying grid sizes vary the busy/idle SM split, which the
			// calibration needs to identify P_idleSM separately from
			// P_const (a fixed grid would make the two columns collinear).
			Program:  prog,
			GridDim:  grid,
			BlockDim: microBlockDim,
		},
		Setup: func(m *gpusim.Memory) error {
			if err := m.WriteU32s(AddrIn0, data); err != nil {
				return err
			}
			return m.WriteU32s(AddrOut1, make([]uint32, 64))
		},
	}, nil
}
