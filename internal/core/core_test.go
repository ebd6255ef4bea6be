package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"st2gpu/internal/adder"
	"st2gpu/internal/bitmath"
	"st2gpu/internal/circuit"
	"st2gpu/internal/speculate"
)

func testParams(t *testing.T) EnergyParams {
	t.Helper()
	p, err := DeriveEnergyParams(circuit.SAED90(), 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUnitKindStrings(t *testing.T) {
	if ALU.String() != "ALU" || FPU.String() != "FPU" || DPU.String() != "DPU" ||
		ALU32.String() != "ALU32" || UnitKind(9).String() != "UnitKind(9)" {
		t.Error("UnitKind strings wrong")
	}
}

func TestUnitKindGeometry(t *testing.T) {
	cases := []struct {
		k     UnitKind
		width uint
	}{{ALU, 64}, {ALU32, 32}, {FPU, 24}, {DPU, 52}}
	for _, c := range cases {
		cfg, err := c.k.AdderConfig(8)
		if err != nil {
			t.Fatalf("%v: %v", c.k, err)
		}
		if cfg.Width != c.width {
			t.Errorf("%v width = %d, want %d", c.k, cfg.Width, c.width)
		}
	}
	if _, err := UnitKind(9).AdderConfig(8); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestDeriveEnergyParams(t *testing.T) {
	p := testParams(t)
	if p.NumSlices != 8 {
		t.Errorf("slices = %d", p.NumSlices)
	}
	if p.SupplyRatio <= 0.4 || p.SupplyRatio >= 0.8 {
		t.Errorf("supply ratio %.3f outside the paper's ≈0.6 region", p.SupplyRatio)
	}
	// The slice at scaled voltage must be much cheaper than the reference.
	if 8*p.SliceEnergy >= p.RefAdderEnergy {
		t.Errorf("8 slices (%.3g) should cost less than the reference (%.3g)",
			8*p.SliceEnergy, p.RefAdderEnergy)
	}
	if _, err := DeriveEnergyParams(circuit.SAED90(), 0, 8); err == nil {
		t.Error("bad geometry should error")
	}
}

// The headline: at the paper's observed behaviour (9% thread mispredict
// rate, ~2 slices recomputed each), the per-adder saving lands near 70%.
func TestAdderSavingNearPaper(t *testing.T) {
	p := testParams(t)
	saving := p.AdderSavingFraction(1.94, 0.09)
	if saving < 0.55 || saving > 0.92 {
		t.Errorf("adder saving %.3f outside the paper's ≈0.70 neighbourhood", saving)
	}
	// Perfect prediction saves even more.
	perfect := p.AdderSavingFraction(0, 0)
	if perfect <= saving {
		t.Errorf("perfect prediction (%.3f) should beat realistic (%.3f)", perfect, saving)
	}
}

func TestST2WarpEnergyMonotonicity(t *testing.T) {
	p := testParams(t)
	base := p.ST2WarpEnergy(32, 0, 0)
	withRecompute := p.ST2WarpEnergy(32, 10, 5)
	if withRecompute <= base {
		t.Error("recomputation must cost energy")
	}
	if p.BaselineWarpEnergy(32) != 32*p.RefAdderEnergy {
		t.Error("baseline pricing wrong")
	}
}

func newTestUnit(t *testing.T, kind UnitKind) *Unit {
	t.Helper()
	cfg, err := kind.AdderConfig(8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DeriveEnergyParams(circuit.SAED90(), cfg.Width, 8)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(kind, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// fullWarp builds the packed columns of a 32-lane warp add: lane l's
// raw operands are f(l), transformed to effective operands by the unit's
// adder.
func fullWarp(u *Unit, op adder.Op, f func(l int) (uint64, uint64)) (active, cin uint32, ea, eb []uint64) {
	ea, eb = make([]uint64, WarpSize), make([]uint64, WarpSize)
	for l := 0; l < WarpSize; l++ {
		a, b := f(l)
		var c uint
		ea[l], eb[l], c = u.Adder().EffectiveOperands(a, b, op)
		cin |= uint32(c) << l
	}
	return ^uint32(0), cin, ea, eb
}

// mispredicts runs one warp add and returns its stall flag and how many
// of its lanes mispredicted.
func mispredicts(u *Unit, spec speculate.Predictor, pc, gtidBase, active, cin uint32, ea, eb []uint64) (bool, uint64) {
	before := u.Stats().ThreadMispredicts
	_, stall := u.ExecuteWarp(spec, pc, gtidBase, active, cin, ea, eb)
	return stall, u.Stats().ThreadMispredicts - before
}

// Exactness: every lane's result equals the reference for random operands
// under the hardware CRF speculator.
func TestExecuteWarpExact(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(64, 1)
	spec := speculate.WithPeek(u.Geometry(), crf)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		op := adder.Add
		if rng.Intn(2) == 1 {
			op = adder.Sub
		}
		var a, b [WarpSize]uint64
		active, cin, ea, eb := fullWarp(u, op, func(l int) (uint64, uint64) {
			a[l], b[l] = rng.Uint64(), rng.Uint64()
			return a[l], b[l]
		})
		crf.BeginCycle(uint64(i))
		sums, _ := u.ExecuteWarp(spec, uint32(rng.Intn(64)), 0, active, cin, ea, eb)
		if len(sums) != WarpSize {
			t.Fatalf("%d sums for a full warp", len(sums))
		}
		for l := 0; l < WarpSize; l++ {
			want := a[l] + b[l]
			if op == adder.Sub {
				want = a[l] - b[l]
			}
			if sums[l] != want {
				t.Fatalf("lane %d: got %#x want %#x", l, sums[l], want)
			}
		}
	}
	if u.Stats().ThreadOps != 500*WarpSize {
		t.Fatalf("thread ops = %d", u.Stats().ThreadOps)
	}
}

func TestExecuteWarpInactiveLanes(t *testing.T) {
	u := newTestUnit(t, ALU)
	spec := speculate.NewStaticZero(u.Geometry())
	sums, _ := u.ExecuteWarp(spec, 0, 0, 1<<3, 0, []uint64{5}, []uint64{7})
	if len(sums) != 1 || sums[0] != 12 || u.Stats().ThreadOps != 1 {
		t.Errorf("partial warp wrong: sums %v, stats %+v", sums, u.Stats())
	}
	// Fully inactive warp is a no-op.
	sums, stall := u.ExecuteWarp(spec, 0, 0, 0, 0, nil, nil)
	if sums != nil || stall || u.Stats().WarpOps != 1 {
		t.Errorf("empty warp: sums %v, stall %v, stats %+v", sums, stall, u.Stats())
	}
}

// Warp-level stall semantics: one mispredicted lane makes the whole warp
// take 2 cycles; zero mispredictions take 1.
func TestWarpStallSemantics(t *testing.T) {
	u := newTestUnit(t, ALU)
	spec := speculate.NewStaticZero(u.Geometry())
	// Operands with no boundary carries and MSBs clear: staticZero never
	// wrong → 1 cycle. (Low slice-MSBs avoid carries entirely.)
	active, cin, ea, eb := fullWarp(u, adder.Add, func(l int) (uint64, uint64) { return 0x01, 0x02 })
	if stall, mis := mispredicts(u, spec, 0, 0, active, cin, ea, eb); stall || mis != 0 {
		t.Fatalf("clean warp: stall %v, %d mispredicts", stall, mis)
	}
	// Lane 5 carries into slice 1 (0xFF + 0x01); staticZero is wrong there.
	active, cin, ea, eb = fullWarp(u, adder.Add, func(l int) (uint64, uint64) {
		if l == 5 {
			return 0xFF, 0x01
		}
		return 1, 2
	})
	if stall, mis := mispredicts(u, spec, 0, 0, active, cin, ea, eb); !stall || mis != 1 {
		t.Fatalf("one bad lane should stall the warp: stall %v, %d mispredicts", stall, mis)
	}
	st := u.Stats()
	if st.StalledWarpOps != 1 || st.WarpOps != 2 {
		t.Errorf("aggregate: %+v", st)
	}
}

// Peek resolves every boundary whose slice MSBs agree, so those can never
// mispredict; with Peek disabled a cold CRF speculates them wrong.
func TestPeekAccounting(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(1, 3)
	// 0x80 + 0x80 in every byte: both MSBs of every slice are 1, so every
	// boundary carries 1 and Peek resolves it to 1.
	const x = 0x8080808080808080
	active, cin, ea, eb := fullWarp(u, adder.Add, func(int) (uint64, uint64) { return x, x })
	spec := speculate.WithPeek(u.Geometry(), crf)
	if stall, mis := mispredicts(u, spec, 0, 0, active, cin, ea, eb); stall || mis != 0 {
		t.Errorf("peek-resolved boundaries mispredicted: stall %v, %d lanes", stall, mis)
	}
	u.ResetStats()
	if stall, mis := mispredicts(u, crf, 0, 0, active, cin, ea, eb); !stall || mis != 32 {
		t.Errorf("cold CRF without Peek: stall %v, %d lanes mispredicted, want 32", stall, mis)
	}
	if got := u.Stats().RecomputedSlices; got != 32*7 {
		t.Errorf("recomputed slices = %d, want %d (wrong from boundary 0 up)", got, 32*7)
	}
}

// The CRF behind Peek learns: repeating the same (PC, operands) pattern
// after a write-back commits eliminates the misprediction.
func TestCRFSpeculatorLearns(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(10, 4)
	spec := speculate.WithPeek(u.Geometry(), crf)
	// Operands whose boundary carry exists but whose slice-0 MSBs
	// disagree, so Peek cannot resolve it: 0xC0 + 0x40 = 0x100 (slice0
	// MSBs 1,0 → dynamic; carry into slice 1 is 1).
	active, cin, ea, eb := fullWarp(u, adder.Add, func(l int) (uint64, uint64) { return 0xC0, 0x40 })
	crf.BeginCycle(1)
	if _, mis := mispredicts(u, spec, 9, 0, active, cin, ea, eb); mis != 32 {
		t.Fatalf("cold CRF should mispredict all lanes, got %d", mis)
	}
	crf.BeginCycle(2) // commit write-back
	stall, mis := mispredicts(u, spec, 9, 0, active, cin, ea, eb)
	if mis != 0 {
		t.Fatalf("warm CRF should predict perfectly, got %d mispredicts", mis)
	}
	if stall {
		t.Error("warm repeat should be single-cycle")
	}
}

// Ltid sharing through the CRF: a second warp (different gtid base, same
// lanes, same PC) benefits from the first warp's training.
func TestCRFSharingAcrossWarps(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(4, 5)
	spec := speculate.WithPeek(u.Geometry(), crf)
	active, cin, ea, eb := fullWarp(u, adder.Add, func(l int) (uint64, uint64) { return 0xC0, 0x40 })
	crf.BeginCycle(1)
	u.ExecuteWarp(spec, 3, 0, active, cin, ea, eb) // warp 0 trains
	crf.BeginCycle(2)
	if _, mis := mispredicts(u, spec, 3, 32, active, cin, ea, eb); mis != 0 { // warp 1, same lanes
		t.Errorf("second warp should inherit lane history, got %d mispredicts", mis)
	}
}

// A unit with 4-bit slices has 15 boundaries but the CRF row keeps 7
// planes: the CRF predicts its history for the first 7 and zero for the
// rest, and a write-back keeps only the first 7. Peek in front of it
// still resolves all 15.
func TestCRFSpeculatorNarrowSlices(t *testing.T) {
	geom := speculate.Geometry{Width: 64, SliceBits: 4}
	crf := speculate.NewDefaultCRF(1, 6)
	nb := int(geom.Boundaries())
	pred, static := make([]uint32, nb), make([]uint32, nb)
	ones := make([]uint32, nb)
	for b := range ones {
		pred[b], static[b], ones[b] = ^uint32(0), ^uint32(0), ^uint32(0)
	}
	crf.PredictWarp(0, 0, ^uint32(0), 0, nil, nil, pred, static)
	for b := range pred {
		if pred[b] != 0 || static[b] != 0 {
			t.Fatalf("cold plane %d: pred %#x static %#x, want 0", b, pred[b], static[b])
		}
	}
	crf.UpdateWarp(0, 0, ^uint32(0), ^uint32(0), 0, nil, nil, ones)
	crf.Flush()
	crf.PredictWarp(0, 0, ^uint32(0), 0, nil, nil, pred, static)
	for b, p := range pred {
		want := uint32(0)
		if b < 7 {
			want = ^uint32(0)
		}
		if p != want {
			t.Errorf("trained plane %d = %#x, want %#x", b, p, want)
		}
	}
	// Zero operands have every slice MSB clear, so Peek resolves all 15
	// boundaries to 0 over the trained history's ones.
	zeros := make([]uint64, WarpSize)
	speculate.WithPeek(geom, crf).PredictWarp(0, 0, ^uint32(0), 0, zeros, zeros, pred, static)
	for b := range pred {
		if pred[b] != 0 || static[b] != ^uint32(0) {
			t.Errorf("Peek plane %d: pred %#x static %#x, want 0 and every lane static", b, pred[b], static[b])
		}
	}
}

func TestUnitStatsAggregation(t *testing.T) {
	u := newTestUnit(t, ALU)
	spec := speculate.NewStaticZero(u.Geometry())
	active, cin, ea, eb := fullWarp(u, adder.Add, func(l int) (uint64, uint64) { return 0xFF, 0x01 })
	u.ExecuteWarp(spec, 0, 0, active, cin, ea, eb)
	st := u.Stats()
	if st.ThreadOps != 32 || st.ThreadMispredicts != 32 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ThreadMispredictionRate() != 1.0 {
		t.Errorf("rate = %g", st.ThreadMispredictionRate())
	}
	if st.MeanRecomputedSlices() != 7 {
		t.Errorf("mean recomputed = %g, want 7 (error at boundary 0)", st.MeanRecomputedSlices())
	}
	if st.EnergyST2 <= 0 || st.EnergyBaseline <= 0 {
		t.Error("energy not accumulated")
	}
	var merged UnitStats
	merged.Merge(st)
	merged.Merge(st)
	if merged.ThreadOps != 64 || merged.RecomputeHistogram.Total() != 64 {
		t.Errorf("merge: %+v", merged)
	}
	u.ResetStats()
	if u.Stats().ThreadOps != 0 {
		t.Error("reset failed")
	}
	if (UnitStats{}).ThreadMispredictionRate() != 0 || (UnitStats{}).MeanRecomputedSlices() != 0 {
		t.Error("empty stats should be 0")
	}
}

// FP32 mantissa extraction: the slice datapath result must reproduce the
// exact aligned-significand arithmetic.
func TestMantissaOpF32(t *testing.T) {
	ea, eb, cin, ok := MantissaOpF32(1.5, 2.5)
	if !ok {
		t.Fatal("normal operands rejected")
	}
	// 1.5 = 1.1b×2^0 → sig 0xC00000 e127; 2.5 = 1.01b×2^1 → sig 0xA00000 e128.
	// Align: 1.5 shifts right 1 → 0x600000; big = 0xA00000.
	if cin != 0 || ea != 0xA00000 || eb != 0x600000 {
		t.Errorf("1.5+2.5 mantissa operands = %#x %#x cin %d", ea, eb, cin)
	}
	// Different signs → mantissa subtraction: the smaller significand is
	// ones'-complemented within the 24-bit adder and the carry-in is 1.
	ea, eb, cin, ok = MantissaOpF32(1.5, -2.5)
	if !ok || cin != 1 || ea != 0xA00000 || eb != ^uint64(0x600000)&0xFFFFFF {
		t.Errorf("mixed signs should be a subtraction: %#x %#x cin %d", ea, eb, cin)
	}
	// Specials bypass.
	if _, _, _, ok := MantissaOpF32(float32(math.NaN()), 1); ok {
		t.Error("NaN should bypass")
	}
	if _, _, _, ok := MantissaOpF32(float32(math.Inf(1)), 1); ok {
		t.Error("Inf should bypass")
	}
	if _, _, _, ok := MantissaOpF32(0, 0); ok {
		t.Error("0+0 should bypass")
	}
	// Denormal handled.
	if _, _, _, ok := MantissaOpF32(1e-44, 1e-44); !ok {
		t.Error("denormals should flow through the adder")
	}
}

func TestMantissaOpF64(t *testing.T) {
	ea, eb, cin, ok := MantissaOpF64(1.0, 1.0)
	if !ok {
		t.Fatal("rejected")
	}
	// Equal exponents: no shift; hidden bits truncated above bit 51.
	if ea != 0 || eb != 0 || cin != 0 {
		t.Errorf("1.0+1.0 mantissa operands = %#x %#x cin %d (fractions are zero)", ea, eb, cin)
	}
	if _, _, cin, ok = MantissaOpF64(1.25, 3.5); !ok || cin != 0 {
		t.Fatalf("1.25+3.5: ok %v cin %d", ok, cin)
	}
	if _, _, _, ok := MantissaOpF64(math.Inf(-1), 3); ok {
		t.Error("Inf should bypass")
	}
}

// Property: for finite floats the extracted mantissa operands, run through
// the FPU's sliced adder, are always added exactly (the slice engine never
// corrupts the mantissa datapath), and large-shift alignment never panics.
func TestMantissaThroughSlicedAdder(t *testing.T) {
	u := newTestUnit(t, FPU)
	f := func(xb, yb uint32, pred uint64) bool {
		x := math.Float32frombits(xb)
		y := math.Float32frombits(yb)
		ea, eb, cin, ok := MantissaOpF32(x, y)
		if !ok {
			return true
		}
		r := u.Adder().ExecuteEffective(ea, eb, cin, pred)
		wantSum, wantCout := bitmath.AddWithCarry(ea, eb, cin, 24)
		return r.Sum == wantSum && r.CarryOut == wantCout
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// FP value streams with correlated magnitudes (the paper's observation)
// should speculate well on the FPU after warm-up.
func TestFPUSpeculationOnCorrelatedStream(t *testing.T) {
	u := newTestUnit(t, FPU)
	b, err := speculate.NewBounds([]uint32{4}, WarpSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := speculate.NewDesign(speculate.FinalDesign, u.Geometry(), b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var mis, tot uint64
	for iter := 0; iter < 400; iter++ {
		var active, cin uint32
		var ea, eb []uint64
		for l := 0; l < WarpSize; l++ {
			// Accumulation pattern: running sum + small increment.
			acc := float32(l*100) + float32(iter)*0.25
			inc := 0.25 + float32(rng.Float64())*0.01
			if a, b, c, ok := MantissaOpF32(acc, inc); ok {
				active |= 1 << l
				cin |= uint32(c) << l
				ea, eb = append(ea, a), append(eb, b)
			}
		}
		_, m := mispredicts(u, p, 4, 0, active, cin, ea, eb)
		if iter >= 50 { // after warm-up
			mis += m
			tot += uint64(len(ea))
		}
	}
	rate := float64(mis) / float64(tot)
	if rate > 0.30 {
		t.Errorf("FPU misprediction rate %.3f too high on correlated stream", rate)
	}
}
