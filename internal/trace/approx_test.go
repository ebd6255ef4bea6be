package trace

import (
	"testing"

	"st2gpu/internal/bitmath"
)

// approxSumSlices is approxSum's oracle: it adds one slice at a time,
// each with its own carry-in, exactly as the uncorrected sliced adder
// does. The approximate-adder meter (meters_test.go) uses it, so the
// batched evaluator is also held to it over whole recordings.
func approxSumSlices(ea, eb uint64, cin0 uint, width uint, predicted uint64) uint64 {
	n := bitmath.NumSlices(width, 8)
	var out uint64
	for i := uint(0); i < n; i++ {
		lo := i * 8
		w := bitmath.SliceWidthAt(i, width, 8)
		cin := cin0
		if i > 0 {
			cin = uint((predicted >> (i - 1)) & 1)
		}
		s, _ := bitmath.AddWithCarry(bitmath.Slice(ea, lo, w), bitmath.Slice(eb, lo, w), cin, w)
		out |= s << lo
	}
	return out & bitmath.Mask(width)
}

// FuzzApproxSum holds the one-addition approxSum to the slice-by-slice
// oracle at every datapath width, for any operands, carry-in and
// predicted carries (including bits past the unit's last boundary).
func FuzzApproxSum(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint64(0))
	f.Add(^uint64(0), uint64(1), uint8(1), uint64(0x7F))
	f.Add(uint64(0x00FF00FF00FF00FF), uint64(0x0001000100010001), uint8(0), uint64(0x55))
	f.Add(uint64(0x7F7F7F7F7F7F7F7F), uint64(0x8181818181818181), uint8(1), ^uint64(0))
	f.Fuzz(func(t *testing.T, ea, eb uint64, cin uint8, predicted uint64) {
		for _, width := range []uint{24, 32, 52, 64} {
			got := approxSum(ea, eb, uint(cin&1), width, predicted)
			want := approxSumSlices(ea, eb, uint(cin&1), width, predicted)
			if got != want {
				t.Fatalf("approxSum(%#x, %#x, %d, %d, %#x) = %#x, slice-by-slice %#x",
					ea, eb, cin&1, width, predicted, got, want)
			}
		}
	})
}
