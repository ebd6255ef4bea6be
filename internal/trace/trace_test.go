package trace

import (
	"testing"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/speculate"
)

// feed pushes a synthetic stream through any tracer: per (pc, warp),
// slowly evolving operands on four active lanes — the paper's correlated
// regime.
func feed(t *testing.T, tr addTracer, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		for pc := uint32(0); pc < 4; pc++ {
			var batch [32]laneOp
			for lane := 0; lane < 4; lane++ {
				ea := uint64(i)*3 + uint64(pc)*1000 + uint64(lane)
				eb := uint64(pc) * 17
				batch[lane] = laneOp{Active: true, EA: ea, EB: eb, Sum: ea + eb}
			}
			tr.TraceWarpAdds(core.ALU, pc, 0, &batch)
		}
	}
}

// feedBounds bounds the stream feed presents: PCs 0-3 and one warp.
func feedBounds(t *testing.T) speculate.Bounds {
	t.Helper()
	b, err := speculate.NewBounds([]uint32{0, 1, 2, 3}, 32)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValueTrace(t *testing.T) {
	var kb kernelBuilder
	feed(t, &kb, 32)
	vt := NewValueTrace(&kb.k, 2, 16)
	pcs := vt.PCs()
	if len(pcs) != 4 {
		t.Fatalf("PCs = %v", pcs)
	}
	s := vt.Series(0)
	if len(s) != 16 {
		t.Fatalf("series capped at MaxPts: got %d", len(s))
	}
	// Values from one PC evolve gradually (consecutive deltas are small).
	for i := 1; i < len(s); i++ {
		d := s[i].Value - s[i-1].Value
		if d < 0 {
			d = -d
		}
		if d > 100 {
			t.Fatalf("PC0 stream jumped by %d", d)
		}
		if s[i].Time <= s[i-1].Time {
			t.Fatal("logical time must increase")
		}
	}
	// Logical time counts every add the thread executes: four PCs per
	// iteration, so PC0's points sit four ticks apart.
	if s[0].Time != 1 || s[1].Time != 5 {
		t.Errorf("PC0 times %d, %d; want 1, 5", s[0].Time, s[1].Time)
	}
	// Signed interpretation of 32-bit results.
	var kb32 kernelBuilder
	var one [32]laneOp
	one[0] = laneOp{Active: true, Sum: 0xFFFFFFFF}
	kb32.TraceWarpAdds(core.ALU32, 0, 0, &one)
	if NewValueTrace(&kb32.k, 0, 4).Series(0)[0].Value != -1 {
		t.Error("ALU32 results should sign-extend")
	}
	// Other threads are ignored.
	if len(NewValueTrace(&kb.k, 99, 4).PCs()) != 0 {
		t.Error("ValueTrace leaked other threads")
	}
}

// The paper's Figure 3 ordering: Prev+Gtid (no PC) is much worse than
// Prev+FullPC+Gtid, and Ltid sharing is at least comparable to Gtid.
func TestCorrMeterOrdering(t *testing.T) {
	m, err := NewCorrMeter(feedBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 400)
	rates := m.Rates()
	noPC, gtidPC, ltidPC := rates[0], rates[1], rates[2]
	if !(noPC < gtidPC) {
		t.Errorf("Prev+Gtid (%.3f) should trail Prev+FullPC+Gtid (%.3f)", noPC, gtidPC)
	}
	if gtidPC < 0.8 {
		t.Errorf("PC-indexed match rate %.3f; the paper reports ≈0.83", gtidPC)
	}
	if ltidPC < gtidPC-0.05 {
		t.Errorf("Ltid sharing (%.3f) should not trail Gtid (%.3f) badly", ltidPC, gtidPC)
	}
	if _, err := m.MatchRate("bogus"); err == nil {
		t.Error("unknown design should error")
	}
}

func TestDSEMeterFinalDesignWins(t *testing.T) {
	m, err := NewDSEMeter(nil, feedBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Designs) != len(speculate.DesignSpace) {
		t.Fatal("nil designs should default to the Figure 5 space")
	}
	feed(t, m, 400)
	final, err := m.MissRate(speculate.FinalDesign)
	if err != nil {
		t.Fatal(err)
	}
	valhalla, _ := m.MissRate("VaLHALLA")
	staticZero, _ := m.MissRate("staticZero")
	if final >= valhalla {
		t.Errorf("final design (%.3f) should beat VaLHALLA (%.3f)", final, valhalla)
	}
	if final >= staticZero {
		t.Errorf("final design (%.3f) should beat staticZero (%.3f)", final, staticZero)
	}
	if _, err := m.MissRate("bogus"); err == nil {
		t.Error("unknown design should error")
	}
	if _, err := m.Rate("bogus"); err == nil {
		t.Error("unknown design rate should error")
	}
	r, err := m.Rate(speculate.FinalDesign)
	if err != nil || r.Total == 0 {
		t.Error("raw rate should be populated")
	}
}

func TestDSEMeterUnknownDesignFails(t *testing.T) {
	if _, err := NewDSEMeter([]string{"nope"}, feedBounds(t)); err == nil {
		t.Error("unknown design should fail construction")
	}
}

// End-to-end: replay a recorded pathfinder simulation through the
// meters and walk its decoded form for Figure 2; confirm the Figure 2
// PCs and Figure 3 ordering appear.
func TestTracersOnPathfinder(t *testing.T) {
	set := recordPathfinder(t)
	rec, _ := set.Get("pathfinder")
	dec, err := DecodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := dec.Kernel("pathfinder")
	b, err := k.bounds()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCorrMeter(b)
	if err != nil {
		t.Fatal(err)
	}
	dse, err := NewDSEMeter([]string{"staticZero", speculate.FinalDesign}, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(rec, Multi{cm, dse}); err != nil {
		t.Fatal(err)
	}
	vt := NewValueTrace(k, 5, 200)
	if len(vt.PCs()) < 4 {
		t.Errorf("pathfinder thread should execute several add PCs, got %v", vt.PCs())
	}
	rates := cm.Rates()
	if rates[1] <= rates[0] {
		t.Errorf("FullPC bucketing (%.3f) should beat no-PC (%.3f) on pathfinder", rates[1], rates[0])
	}
	final, _ := dse.MissRate(speculate.FinalDesign)
	zero, _ := dse.MissRate("staticZero")
	if final >= zero {
		t.Errorf("final design (%.3f) should beat staticZero (%.3f) on pathfinder", final, zero)
	}
}

// A mispredict flagged by the DSE meter corresponds exactly to what the
// sliced adder would detect.
func TestDSEMeterMatchesAdderSemantics(t *testing.T) {
	m, err := NewDSEMeter([]string{"staticZero"}, feedBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	// 0xFF+0x01 produces a boundary carry staticZero always misses.
	var b1 [32]laneOp
	b1[0] = laneOp{Active: true, EA: 0xFF, EB: 0x01, Sum: 0x100}
	m.TraceWarpAdds(core.ALU, 0, 0, &b1)
	// 1+2 produces none (and peek is irrelevant to staticZero).
	var b2 [32]laneOp
	b2[0] = laneOp{Active: true, EA: 1, EB: 2, Sum: 3}
	m.TraceWarpAdds(core.ALU, 0, 0, &b2)
	r, _ := m.Rate("staticZero")
	if r.Hits != 1 || r.Total != 2 {
		t.Errorf("rate = %+v, want 1/2", r)
	}
	// Cross-check against ground truth.
	if bitmath.BoundaryCarriesPacked(0xFF, 0x01, 0, 64, 8) != 1 {
		t.Error("ground truth changed?")
	}
}

// The approximate-adder meter: peeked boundaries never corrupt results,
// wrong predictions do, and the final design corrupts far fewer results
// than staticZero on a correlated stream.
func TestApproxMeter(t *testing.T) {
	m, err := NewApproxMeter(nil, feedBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Designs) != 2 {
		t.Fatalf("default designs = %v", m.Designs)
	}
	feed(t, m, 300)
	zeroWrong, err := m.WrongRate("staticZero")
	if err != nil {
		t.Fatal(err)
	}
	finalWrong, err := m.WrongRate(speculate.FinalDesign)
	if err != nil {
		t.Fatal(err)
	}
	if finalWrong >= zeroWrong {
		t.Errorf("final design (%.3f wrong) should corrupt fewer results than staticZero (%.3f)",
			finalWrong, zeroWrong)
	}
	if _, err := m.WrongRate("bogus"); err == nil {
		t.Error("unknown design should error")
	}
	if _, err := m.MeanRelError("bogus"); err == nil {
		t.Error("unknown design should error")
	}
	if _, err := NewApproxMeter([]string{"nope"}, feedBounds(t)); err == nil {
		t.Error("unknown design should fail construction")
	}
}

// Single-op sanity: a dropped carry produces exactly the expected wrong
// value, and the meter's relative-error tracking sees it.
func TestApproxMeterSingleOp(t *testing.T) {
	m, err := NewApproxMeter([]string{"staticZero"}, feedBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	// 0xC0 + 0x40 = 0x100; dropping the carry into slice 1 yields 0.
	// (MSBs disagree, so Peek cannot save staticZero here.)
	var b1 [32]laneOp
	b1[0] = laneOp{Active: true, EA: 0xC0, EB: 0x40, Sum: 0x100}
	m.TraceWarpAdds(core.ALU, 0, 0, &b1)
	wrong, _ := m.WrongRate("staticZero")
	if wrong != 1 {
		t.Fatalf("wrong rate = %v, want 1", wrong)
	}
	re, _ := m.MeanRelError("staticZero")
	if re != 1 { // |0-256|/256
		t.Errorf("relative error = %v, want 1", re)
	}
}

func TestChainMeter(t *testing.T) {
	m := NewChainMeter()
	// Small positive operands: chains stay inside one slice.
	var b1 [32]laneOp
	for l := 0; l < 8; l++ {
		b1[l] = laneOp{Active: true, EA: uint64(l), EB: 3}
	}
	m.TraceWarpAdds(core.ALU, 0, 0, &b1)
	if m.Ops != 8 {
		t.Fatalf("ops = %d", m.Ops)
	}
	if f := m.ShortChainFraction(); f != 1 {
		t.Errorf("small operands should all be short-chain: %.2f", f)
	}
	// Crossing zero from a negative value ripples the carry to the top
	// (the paper's PC3-style full-width chain).
	var b2 [32]laneOp
	b2[0] = laneOp{Active: true, EA: ^uint64(0), EB: 2} // -1 + 2
	m.TraceWarpAdds(core.ALU, 1, 0, &b2)
	if m.MeanChainLength() <= 1 {
		t.Errorf("negative result should lengthen the mean chain: %.2f", m.MeanChainLength())
	}
	if m.BoundaryCarryRate[6].Hits == 0 {
		t.Error("negative result should carry at the top boundary")
	}
	if m.Lengths[core.ALU].Total() != 9 {
		t.Errorf("histogram total = %d", m.Lengths[core.ALU].Total())
	}
}

// End-to-end on pathfinder: the Section III observation — most adds have
// chains within one slice.
func TestChainMeterOnPathfinder(t *testing.T) {
	rec, _ := recordPathfinder(t).Get("pathfinder")
	m := NewChainMeter()
	if err := replay(rec, m); err != nil {
		t.Fatal(err)
	}
	if m.Ops == 0 {
		t.Fatal("no ops traced")
	}
	short := m.ShortChainFraction()
	t.Logf("pathfinder: %.1f%% of chains fit in one slice (mean %.2f bits)",
		100*short, m.MeanChainLength())
	if short < 0.5 {
		t.Errorf("pathfinder's small-value adds should mostly be short-chain: %.2f", short)
	}
}
