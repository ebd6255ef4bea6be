package adder

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"st2gpu/internal/bitmath"
)

func mustNew(t *testing.T, cfg Config) *SlicedAdder {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

// Reference computes the exact result the full-width reference adder
// produces, for cross-checking.
func (s *SlicedAdder) Reference(a, b uint64, op Op) (sum uint64, cout uint) {
	ea, eb, cin0 := s.EffectiveOperands(a, b, op)
	return bitmath.AddWithCarry(ea, eb, cin0, s.cfg.Width)
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Width: 0, SliceBits: 8},
		{Width: 65, SliceBits: 8},
		{Width: 64, SliceBits: 0},
		{Width: 8, SliceBits: 16},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should fail validation", c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New(%+v) should fail", c)
		}
	}
	good := []Config{
		{Width: 64, SliceBits: 8},
		{Width: 24, SliceBits: 8},
		{Width: 52, SliceBits: 8},
		{Width: 64, SliceBits: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v should validate: %v", c, err)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cases := []struct {
		cfg        Config
		slices, nb uint
	}{
		{Config{64, 8}, 8, 7},
		{Config{24, 8}, 3, 2},
		{Config{52, 8}, 7, 6},
		{Config{64, 64}, 1, 0},
	}
	for _, c := range cases {
		if got := c.cfg.NumSlices(); got != c.slices {
			t.Errorf("%+v slices = %d, want %d", c.cfg, got, c.slices)
		}
		if got := c.cfg.NumBoundaries(); got != c.nb {
			t.Errorf("%+v boundaries = %d, want %d", c.cfg, got, c.nb)
		}
	}
}

func TestOpString(t *testing.T) {
	if Add.String() != "add" || Sub.String() != "sub" || Op(9).String() != "Op(9)" {
		t.Error("Op strings wrong")
	}
}

// The paper's central correctness guarantee: ST² produces the exact result
// regardless of what the predictor claimed. quick-check over operands,
// ops, predictions, and all unit geometries.
func TestExecuteAlwaysExact(t *testing.T) {
	cfgs := []Config{{64, 8}, {24, 8}, {52, 8}, {64, 16}, {64, 4}, {32, 8}}
	adders := make([]*SlicedAdder, len(cfgs))
	for i, c := range cfgs {
		adders[i] = mustNew(t, c)
	}
	f := func(a, b, pred uint64, subOp bool) bool {
		op := Add
		if subOp {
			op = Sub
		}
		for _, s := range adders {
			got := s.Execute(a, b, op, pred)
			wantSum, wantCout := s.Reference(a, b, op)
			if got.Sum != wantSum || got.CarryOut != wantCout {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// With perfect (oracle) predictions the operation is single-cycle and
// recomputes nothing.
func TestPerfectPredictionSingleCycle(t *testing.T) {
	s := mustNew(t, Config{Width: 64, SliceBits: 8})
	f := func(a, b uint64, subOp bool) bool {
		op := Add
		if subOp {
			op = Sub
		}
		ea, eb, cin0 := s.EffectiveOperands(a, b, op)
		oracle := bitmath.BoundaryCarriesPacked(ea, eb, cin0, 64, 8)
		r := s.Execute(a, b, op, oracle)
		return r.Cycles == 1 && !r.Mispredicted && r.Recomputed == 0 &&
			r.ErrorSlices == 0 && r.SuspectSlices == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// An operation takes 2 cycles iff at least one slice mispredicted, and the
// suspect mask is exactly the contiguous run from the first error upward.
func TestCycleAndSuspectSemantics(t *testing.T) {
	s := mustNew(t, Config{Width: 64, SliceBits: 8})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		pred := rng.Uint64() & 0x7F
		r := s.Execute(a, b, Add, pred)
		if r.Mispredicted != (r.Cycles == 2) {
			t.Fatalf("cycles=%d but mispredicted=%v", r.Cycles, r.Mispredicted)
		}
		if !r.Mispredicted && r.Recomputed != 0 {
			t.Fatalf("clean op recomputed %d slices", r.Recomputed)
		}
		if r.Mispredicted {
			// Lowest error bit determines the whole suspect run.
			low := r.ErrorSlices & -r.ErrorSlices
			wantSuspect := (bitmath.Mask(7) &^ (low - 1))
			if r.SuspectSlices != wantSuspect {
				t.Fatalf("E=%07b S=%07b want S=%07b", r.ErrorSlices, r.SuspectSlices, wantSuspect)
			}
			if r.Recomputed < 1 || r.Recomputed > 7 {
				t.Fatalf("recomputed %d out of range", r.Recomputed)
			}
		}
		// Error bits are always a subset of suspect bits.
		if r.ErrorSlices&^r.SuspectSlices != 0 {
			t.Fatalf("E=%07b not subset of S=%07b", r.ErrorSlices, r.SuspectSlices)
		}
	}
}

// ActualCarries must equal the ground-truth boundary carries — it is what
// the CRF stores for the next prediction.
func TestActualCarriesGroundTruth(t *testing.T) {
	cfgs := []Config{{64, 8}, {52, 8}, {24, 8}}
	for _, cfg := range cfgs {
		s := mustNew(t, cfg)
		f := func(a, b, pred uint64, subOp bool) bool {
			op := Add
			if subOp {
				op = Sub
			}
			ea, eb, cin0 := s.EffectiveOperands(a, b, op)
			want := bitmath.BoundaryCarriesPacked(ea, eb, cin0, cfg.Width, cfg.SliceBits)
			r := s.Execute(a, b, op, pred)
			return r.ActualCarries == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
	}
}

func TestSubtractionSemantics(t *testing.T) {
	s := mustNew(t, Config{Width: 64, SliceBits: 8})
	r := s.Execute(10, 3, Sub, 0)
	if r.Sum != 7 {
		t.Errorf("10-3 = %d", r.Sum)
	}
	r = s.Execute(3, 10, Sub, 0)
	if int64(r.Sum) != -7 {
		t.Errorf("3-10 = %d", int64(r.Sum))
	}
	// Narrow widths wrap modulo 2^width.
	s24 := mustNew(t, Config{Width: 24, SliceBits: 8})
	r = s24.Execute(0, 1, Sub, 0)
	if r.Sum != bitmath.Mask(24) {
		t.Errorf("0-1 (24b) = %#x", r.Sum)
	}
}

func TestEffectiveOperands(t *testing.T) {
	s := mustNew(t, Config{Width: 32, SliceBits: 8})
	ea, eb, cin := s.EffectiveOperands(0xFFFFFFFF00000001, 0x2, Add)
	if ea != 1 || eb != 2 || cin != 0 {
		t.Errorf("add effective = %#x %#x %d", ea, eb, cin)
	}
	ea, eb, cin = s.EffectiveOperands(5, 3, Sub)
	if ea != 5 || eb != ^uint64(3)&0xFFFFFFFF || cin != 1 {
		t.Errorf("sub effective = %#x %#x %d", ea, eb, cin)
	}
}

// A misprediction planted at a specific boundary is detected at exactly
// that boundary.
func TestPlantedMisprediction(t *testing.T) {
	s := mustNew(t, Config{Width: 64, SliceBits: 8})
	// 0xFF + 0x01: true carry into slice 1 is 1, all others 0.
	a, b := uint64(0xFF), uint64(0x01)
	truth := bitmath.BoundaryCarriesPacked(a, b, 0, 64, 8)
	if truth != 1 {
		t.Fatalf("truth carries = %07b, want 0000001", truth)
	}
	// Predict all zero: boundary 0 is wrong → slice 1 errs, slices 1-7 suspect.
	r := s.Execute(a, b, Add, 0)
	if !r.Mispredicted || r.ErrorSlices != 1 {
		t.Fatalf("E = %07b, want 0000001", r.ErrorSlices)
	}
	if r.SuspectSlices != 0x7F || r.Recomputed != 7 {
		t.Fatalf("S = %07b recomputed=%d, want all 7 suspect", r.SuspectSlices, r.Recomputed)
	}
	// Predict exactly the truth → clean.
	r = s.Execute(a, b, Add, truth)
	if r.Mispredicted {
		t.Fatal("oracle prediction flagged as misprediction")
	}
	// Mispredict only the top boundary → exactly one slice recomputes.
	r = s.Execute(a, b, Add, truth|(1<<6))
	if r.ErrorSlices != 1<<6 || r.Recomputed != 1 {
		t.Fatalf("top-boundary error: E=%07b recomputed=%d", r.ErrorSlices, r.Recomputed)
	}
}

// The approximate variant returns wrong results exactly when a prediction
// was wrong in a way that changes the sum, and the exact flag tracks it.
func TestExecuteApproximate(t *testing.T) {
	s := mustNew(t, Config{Width: 64, SliceBits: 8})
	a, b := uint64(0xFF), uint64(0x01)
	sum, exact := s.ExecuteApproximate(a, b, Add, 0) // drops the carry into slice 1
	if exact {
		t.Error("dropped carry should not be exact")
	}
	if sum != 0 {
		t.Errorf("approximate sum = %#x, want 0 (carry lost)", sum)
	}
	truth := bitmath.BoundaryCarriesPacked(a, b, 0, 64, 8)
	sum, exact = s.ExecuteApproximate(a, b, Add, truth)
	if !exact || sum != 0x100 {
		t.Errorf("oracle approximate = %#x exact=%v", sum, exact)
	}
	// Property: exact flag is truthful.
	f := func(x, y, pred uint64) bool {
		got, ok := s.ExecuteApproximate(x, y, Add, pred)
		return ok == (got == x+y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCSLAExactAndCost(t *testing.T) {
	c, err := NewCSLA(Config{Width: 64, SliceBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().Width != 64 {
		t.Error("config accessor wrong")
	}
	f := func(a, b uint64, subOp bool) bool {
		op := Add
		if subOp {
			op = Sub
		}
		r := c.Execute(a, b, op)
		want := a + b
		if op == Sub {
			want = a - b
		}
		return r.Sum == want && r.SliceComputations == 15 // 2·8-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	if _, err := NewCSLA(Config{Width: 0, SliceBits: 8}); err == nil {
		t.Error("invalid CSLA config should error")
	}
}

// ST² does strictly fewer slice computations than CSLA unless every
// boundary mispredicts.
func TestST2CheaperThanCSLA(t *testing.T) {
	s := mustNew(t, Config{Width: 64, SliceBits: 8})
	c, _ := NewCSLA(Config{Width: 64, SliceBits: 8})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		r := s.Execute(a, b, Add, rng.Uint64()&0x7F)
		st2Comps := 8 + r.Recomputed
		cslaComps := c.Execute(a, b, Add).SliceComputations
		if st2Comps > cslaComps {
			t.Fatalf("ST² computations %d exceed CSLA %d", st2Comps, cslaComps)
		}
	}
}

func TestSingleSliceDegenerate(t *testing.T) {
	// A one-slice adder has nothing to speculate: always 1 cycle, exact.
	s := mustNew(t, Config{Width: 64, SliceBits: 64})
	r := s.Execute(123, 456, Add, ^uint64(0))
	if r.Sum != 579 || r.Cycles != 1 || r.Mispredicted {
		t.Errorf("degenerate adder: %+v", r)
	}
}

func TestResultDescribe(t *testing.T) {
	s := mustNew(t, Config{Width: 64, SliceBits: 8})
	clean := s.Execute(1, 2, Add, 0)
	d := clean.Describe(s.Config())
	if !strings.Contains(d, "single-cycle") {
		t.Errorf("clean op description:\n%s", d)
	}
	bad := s.Execute(0xFF, 0x01, Add, 0)
	d = bad.Describe(s.Config())
	for _, want := range []string{"cycles=2", "E (errors)", "re-executed"} {
		if !strings.Contains(d, want) {
			t.Errorf("mispredict description missing %q:\n%s", want, d)
		}
	}
}
