// Quickstart: drive an ST² adder unit directly.
//
// This example builds the paper's final design — a 64-bit sliced
// speculative adder with the Ltid+Prev+ModPC4+Peek carry-speculation
// mechanism backed by a Carry Register File — and feeds it a loop-shaped
// value stream, printing how the speculation warms up, what each
// misprediction costs, and the resulting energy relative to the baseline
// adder.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"st2gpu/internal/adder"
	"st2gpu/internal/circuit"
	"st2gpu/internal/core"
	"st2gpu/internal/speculate"
)

func main() {
	// 1. Price the unit from the circuit characterization (the Synopsys
	// stand-in): nominal reference adder vs. voltage-scaled 8-bit slices.
	tech := circuit.SAED90()
	price, err := core.DeriveEnergyParams(tech, 64, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit characterization (%s):\n", tech.Name)
	fmt.Printf("  slice supply        %.3f V (%.0f%% of nominal)\n",
		price.ScaledSupply, 100*price.SupplyRatio)
	fmt.Printf("  reference adder     %.3g J/op\n", price.RefAdderEnergy)
	fmt.Printf("  ST² slices (8×)     %.3g J/op before mispredictions\n",
		8*price.SliceEnergy)

	// 2. Build the 64-bit ALU unit and its speculation source: the
	// hardware CRF (16 rows, each 7 boundary planes × 32 lanes) plus the
	// Peek filter.
	unit, err := core.NewUnit(core.ALU, 8, price)
	if err != nil {
		log.Fatal(err)
	}
	// The loop below is a one-instruction program at PC 3, whose low 4
	// bits index the CRF row.
	const pc = 3
	crf := speculate.NewDefaultCRF(pc+1, 42)
	spec := &core.CRFSpeculator{CRF: crf, Geom: unit.Geometry()}

	// 3. Execute a warp-wide loop: every lane accumulates a stride —
	// the "consecutive operations from the same code location are highly
	// correlated" regime of the paper.
	acc := [32]uint64{}
	for lane := range acc {
		acc[lane] = uint64(lane) * 1000
	}
	fmt.Println("\niter  mispredicted-lanes  cycles  recomputed-slices")
	// A warp add arrives as packed columns: the j-th set bit of the active
	// mask owns the j-th effective-operand pair (all 32 lanes here, all
	// additions, so no lane injects a carry and the operands are as-is).
	const active = ^uint32(0)
	b := make([]uint64, core.WarpSize)
	for l := range b {
		b[l] = 7
	}
	for iter := 0; iter < 10; iter++ {
		crf.BeginCycle(uint64(iter + 1))
		before := unit.Stats()
		sums, stall := unit.ExecuteWarp(spec, pc, 0, active, 0, acc[:], b)
		copy(acc[:], sums) // always bit-exact: ST² guarantees correctness
		after := unit.Stats()
		cycles := 1
		if stall {
			cycles = 2
		}
		fmt.Printf("%4d  %18d  %6d  %17d\n", iter,
			after.ThreadMispredicts-before.ThreadMispredicts, cycles,
			after.RecomputedSlices-before.RecomputedSlices)
	}

	// 4. Anatomy of one misprediction, on the raw adder engine.
	fmt.Println("\nanatomy of a misprediction (0xFF + 0x01, all-zero prediction):")
	raw := unit.Adder().Execute(0xFF, 0x01, adder.Add, 0)
	fmt.Print(raw.Describe(unit.Adder().Config()))

	// 5. The aggregate: accuracy and energy vs. the baseline adder.
	st := unit.Stats()
	fmt.Printf("\nthread misprediction rate  %.1f%%\n", 100*st.ThreadMispredictionRate())
	fmt.Printf("adder energy: ST² %.3g J vs baseline %.3g J  (saving %.0f%%)\n",
		st.EnergyST2, st.EnergyBaseline, 100*(1-st.EnergyST2/st.EnergyBaseline))
	fmt.Println("\nEvery sum above is exact — mispredictions cost a cycle, never a bit.")
}
