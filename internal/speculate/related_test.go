package speculate

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"st2gpu/internal/bitmath"
)

func TestCASAKnownCases(t *testing.T) {
	c := NewCASA(g64)
	// Both slice-0 MSBs set → boundary 0 predicted 1.
	p := predictOne(t, c, laneCtx{EA: 0x80, EB: 0x80})
	if p.Carries&1 != 1 {
		t.Error("both MSBs set should predict carry")
	}
	// Neither set → 0.
	p = predictOne(t, c, laneCtx{EA: 0x7F, EB: 0x7F})
	if p.Carries&1 != 0 {
		t.Error("no MSBs set should predict no carry")
	}
	// Exactly one set → CASA bets 1.
	p = predictOne(t, c, laneCtx{EA: 0x80, EB: 0})
	if p.Carries&1 != 1 {
		t.Error("one MSB set: CASA predicts propagation")
	}
	updateOne(c, laneCtx{}, 0x7F, true) // no-op
	if p = predictOne(t, c, laneCtx{EA: 0x80, EB: 0}); p.Carries&1 != 1 {
		t.Error("CASA is stateless")
	}
}

// CASA's guaranteed cases are never wrong (the Peek subset).
func TestCASAGuaranteedSubset(t *testing.T) {
	c := NewCASA(g64)
	f := func(a, b uint64) bool {
		pred := predictOne(t, c, laneCtx{EA: a, EB: b})
		truth := bitmath.BoundaryCarriesPacked(a, b, 0, 64, 8)
		static, values := peekOne(g64, a, b)
		// Where Peek can resolve, CASA must agree with the truth too.
		return (pred.Carries^truth)&static == 0 && (values^truth)&static == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// CASA should beat both static predictors on random operands (its
// guaranteed cases are free; its coin-flip cases are no worse).
func TestCASABeatsStaticsOnRandom(t *testing.T) {
	casa := NewCASA(g64)
	zero := NewStaticZero(g64)
	rng := rand.New(rand.NewSource(9))
	var casaWrong, zeroWrong int
	const n = 20000
	for i := 0; i < n; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		truth := bitmath.BoundaryCarriesPacked(a, b, 0, 64, 8)
		ctx := laneCtx{EA: a, EB: b}
		casaWrong += bitmath.PopCount64((predictOne(t, casa, ctx).Carries ^ truth) & 0x7F)
		zeroWrong += bitmath.PopCount64((predictOne(t, zero, ctx).Carries ^ truth) & 0x7F)
	}
	if casaWrong >= zeroWrong {
		t.Errorf("CASA (%d wrong boundaries) should beat staticZero (%d) on random operands",
			casaWrong, zeroWrong)
	}
}

func TestVLSA(t *testing.T) {
	v := NewVLSA(g64)
	if p := predictOne(t, v, laneCtx{EA: ^uint64(0), EB: ^uint64(0)}); p.Carries != 0 || p.Static != 0 {
		t.Error("VLSA always speculates zero")
	}
	updateOne(v, laneCtx{}, 0x7F, true)
	if predictOne(t, v, laneCtx{}).Carries != 0 {
		t.Error("VLSA is stateless")
	}
}

func TestRelatedWorkInRegistry(t *testing.T) {
	for name, want := range map[string]Predictor{"CASA": &CASA{}, "VLSA": &VLSA{}} {
		p, err := NewDesign(name, g64, testBounds(t))
		if err != nil {
			t.Fatalf("NewDesign(%q): %v", name, err)
		}
		if got := reflect.TypeOf(p); got != reflect.TypeOf(want) {
			t.Errorf("NewDesign(%q) is a %v, want %T", name, got, want)
		}
	}
}
