// DSE: write your own kernel, sweep the carry-speculation design space.
//
// Builds a small custom PTX-lite kernel with the Builder API, runs it once
// on the simulated GPU with its add stream recorded, and prints how every
// Figure 5 speculation mechanism would have fared on that stream — the
// workflow for exploring new predictor designs.
//
// Run with:
//
//	go run ./examples/dse
package main

import (
	"fmt"
	"log"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/isa"
	"st2gpu/internal/speculate"
	"st2gpu/internal/trace"
)

// buildHistogram3x3 is a small stencil kernel: each thread sums a 3×3
// neighbourhood — nine loads and eight dependent adds per pixel, a mix of
// small-magnitude data adds and large-magnitude address arithmetic.
func buildHistogram3x3(width, height int) *isa.Program {
	b := isa.NewBuilder("stencil3x3")
	gtid := b.Reg()
	x := b.Reg()
	y := b.Reg()
	acc := b.Reg()
	v := b.Reg()
	idx := b.Reg()
	t := b.Reg()
	addr := b.Reg()

	b.MovSpecial(gtid, isa.SRegGtid)
	b.IRem(isa.U32, x, isa.R(gtid), isa.Imm(uint64(width)))
	b.IDiv(isa.U32, y, isa.R(gtid), isa.Imm(uint64(width)))
	b.Mov(isa.U32, acc, isa.Imm(0))
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			// clamped neighbour index
			b.IAdd(isa.S32, t, isa.R(y), isa.ImmI(int64(dy)))
			b.IMax(isa.S32, t, isa.R(t), isa.Imm(0))
			b.IMin(isa.S32, t, isa.R(t), isa.Imm(uint64(height-1)))
			b.IMul(isa.U32, idx, isa.R(t), isa.Imm(uint64(width)))
			b.IAdd(isa.S32, t, isa.R(x), isa.ImmI(int64(dx)))
			b.IMax(isa.S32, t, isa.R(t), isa.Imm(0))
			b.IMin(isa.S32, t, isa.R(t), isa.Imm(uint64(width-1)))
			b.IAdd(isa.U32, idx, isa.R(idx), isa.R(t))
			b.Shl(isa.U64, addr, isa.R(idx), isa.Imm(2))
			b.IAdd(isa.U64, addr, isa.R(addr), isa.Imm(1<<20))
			b.Ld(isa.Global, isa.U32, v, isa.R(addr))
			b.IAdd(isa.U32, acc, isa.R(acc), isa.R(v))
		}
	}
	b.Shl(isa.U64, addr, isa.R(gtid), isa.Imm(2))
	b.IAdd(isa.U64, addr, isa.R(addr), isa.Imm(8<<20))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(acc))
	b.Exit()
	return b.MustBuild()
}

func main() {
	const width, height = 128, 32
	prog := buildHistogram3x3(width, height)
	fmt.Printf("custom kernel: %d instructions, %d registers\n\n", len(prog.Instrs), prog.NumRegs)

	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.AdderMode = gpusim.BaselineAdders
	d, err := gpusim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Stage a smooth image — neighbouring pixels correlate, like real data.
	img := make([]uint32, width*height)
	for i := range img {
		img[i] = uint32(100 + (i%width)/4 + (i/width)*3)
	}
	if err := d.Memory().WriteU32s(1<<20, img); err != nil {
		log.Fatal(err)
	}

	rec := gpusim.NewRecorder(0)
	d.SetRecorder(rec)
	rs, err := d.Launch(&gpusim.Kernel{Program: prog, GridDim: width * height / 128, BlockDim: 128})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d thread instructions\n\n", rs.TotalThreadInstrs())

	// Decode the recording once, then sweep the full Figure 5 design space
	// plus the XOR-hash ablation in a single pass over it: every design
	// observes the identical operation stream.
	set := trace.NewSet(1, cfg.NumSMs, cfg.Seed)
	set.Add(prog.Name, rec.Recording())
	dec, err := trace.DecodeSet(set)
	if err != nil {
		log.Fatal(err)
	}
	k, _ := dec.Kernel(prog.Name)
	designs := append(append([]string{}, speculate.DesignSpace...), "Ltid+Prev+XorPC4+Peek", "oracle")
	miss, err := k.EvalMissBatch(designs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-26s %s\n", "design", "thread misprediction rate")
	for i, name := range designs {
		marker := ""
		if name == speculate.FinalDesign {
			marker = "  <= ST² ships this"
		}
		fmt.Printf("%-26s %6.2f%%%s\n", name, 100*miss[i].Value(), marker)
	}
	fmt.Println("\n(XOR-hash indexing should show no benefit over ModPC4 — Section IV-B.)")
}
