package adder

import (
	"math/rand"
	"testing"

	"st2gpu/internal/bitmath"
)

// executeEffectiveOracle is the array-based datapath model executeEffective
// replaced: per-slice carry-in, carry-out and sum arrays for cycle 1, E/S
// derived slice by slice, and a final pass that keeps the cycle-1 sum where
// the speculation held and recomputes only suspect slices. It is kept as
// the reference the bitmask form must match field for field.
func executeEffectiveOracle(cfg Config, ea, eb uint64, cin0 uint, predicted uint64) Result {
	n := cfg.NumSlices()
	res := Result{Predicted: predicted & bitmath.Mask(cfg.NumBoundaries())}

	var usedCin, cout1 [bitmath.MaxWidth]uint
	var sums1 [bitmath.MaxWidth]uint64
	for i := uint(0); i < n; i++ {
		lo := i * cfg.SliceBits
		w := bitmath.SliceWidthAt(i, cfg.Width, cfg.SliceBits)
		cin := cin0
		if i > 0 {
			cin = uint((predicted >> (i - 1)) & 1)
		}
		usedCin[i] = cin
		sums1[i], cout1[i] = bitmath.AddWithCarry(bitmath.Slice(ea, lo, w), bitmath.Slice(eb, lo, w), cin, w)
	}

	var e, sMask uint64
	for i := uint(1); i < n; i++ {
		if usedCin[i] != cout1[i-1] {
			e |= 1 << (i - 1)
		}
	}
	var seen bool
	for i := uint(1); i < n; i++ {
		if e&(1<<(i-1)) != 0 {
			seen = true
		}
		if seen {
			sMask |= 1 << (i - 1)
		}
	}
	res.ErrorSlices = e
	res.SuspectSlices = sMask
	res.Recomputed = bitmath.PopCount64(sMask)
	res.Mispredicted = e != 0
	res.Cycles = 1
	if res.Mispredicted {
		res.Cycles = 2
	}

	var sum uint64
	carry := cin0
	for i := uint(0); i < n; i++ {
		lo := i * cfg.SliceBits
		w := bitmath.SliceWidthAt(i, cfg.Width, cfg.SliceBits)
		sliceSum, sliceCout := sums1[i], cout1[i]
		if carry != usedCin[i] {
			sliceSum, sliceCout = bitmath.AddWithCarry(bitmath.Slice(ea, lo, w), bitmath.Slice(eb, lo, w), carry, w)
		}
		sum |= sliceSum << lo
		carry = sliceCout
		if i < n-1 {
			res.ActualCarries |= uint64(carry) << i
		}
	}
	res.Sum = sum & bitmath.Mask(cfg.Width)
	res.CarryOut = carry
	return res
}

// unitWidths are the adder widths of the simulator's four ST² unit kinds
// (core.ALU, core.ALU32, core.FPU, core.DPU). They are listed here because
// internal/core imports this package.
var unitWidths = []uint{64, 32, 24, 52}

// checkAgainstOracle runs one operation through Execute and the oracle and
// reports any Result field that differs.
func checkAgainstOracle(t *testing.T, cfg Config, a, b uint64, op Op, predicted uint64) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Execute(a, b, op, predicted)
	ea, eb, cin0 := s.EffectiveOperands(a, b, op)
	if want := executeEffectiveOracle(cfg, ea, eb, cin0, predicted); got != want {
		t.Fatalf("%+v a=%#x b=%#x op=%v predicted=%#x:\n got  %+v\n want %+v", cfg, a, b, op, predicted, got, want)
	}
}

// TestExecuteMatchesOracle checks every unit width at slice widths 1..8
// over random operands, op and predictions, with predictions biased
// toward the true carries so that single-boundary errors are common.
func TestExecuteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range unitWidths {
		for sliceBits := uint(1); sliceBits <= 8; sliceBits++ {
			cfg := Config{Width: width, SliceBits: sliceBits}
			for i := 0; i < 2000; i++ {
				a, b := rng.Uint64(), rng.Uint64()
				op := Op(rng.Intn(2))
				predicted := rng.Uint64()
				if i%2 == 0 {
					s, _ := New(cfg)
					ea, eb, cin0 := s.EffectiveOperands(a, b, op)
					predicted = bitmath.BoundaryCarriesPacked(ea, eb, cin0, width, sliceBits) ^ (1 << uint(rng.Intn(64)))
				}
				checkAgainstOracle(t, cfg, a, b, op, predicted)
			}
		}
	}
}

func FuzzSlicedAdderExecute(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint64(0xFF), uint64(1), false, uint64(0))
	f.Add(uint8(3), uint8(8), uint64(1<<51), uint64(1<<51), true, uint64(0x3F))
	f.Add(uint8(0), uint8(1), ^uint64(0), uint64(1), false, ^uint64(0))
	f.Fuzz(func(t *testing.T, unit, sliceBits uint8, a, b uint64, sub bool, predicted uint64) {
		cfg := Config{Width: unitWidths[int(unit)%len(unitWidths)], SliceBits: uint(sliceBits%8) + 1}
		op := Add
		if sub {
			op = Sub
		}
		checkAgainstOracle(t, cfg, a, b, op, predicted)
	})
}
