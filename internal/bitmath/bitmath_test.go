package bitmath

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		n    uint
		want uint64
	}{
		{0, 0},
		{1, 1},
		{8, 0xFF},
		{16, 0xFFFF},
		{63, 0x7FFFFFFFFFFFFFFF},
		{64, ^uint64(0)},
		{100, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestSlice(t *testing.T) {
	x := uint64(0x0123456789ABCDEF)
	cases := []struct {
		lo, w uint
		want  uint64
	}{
		{0, 8, 0xEF},
		{8, 8, 0xCD},
		{56, 8, 0x01},
		{60, 8, 0x0}, // runs off the top
		{64, 8, 0},
		{0, 64, x},
	}
	for _, c := range cases {
		if got := Slice(x, c.lo, c.w); got != c.want {
			t.Errorf("Slice(%#x, %d, %d) = %#x, want %#x", x, c.lo, c.w, got, c.want)
		}
	}
}

// CarryInto returns the carry that ripples *into* bit position k when
// computing a + b + cin over the full 64-bit range, by one masked addition
// of the low k bits. CarryInto(a, b, cin, 0) is cin itself;
// CarryInto(a, b, cin, 64) is the carry-out of the whole 64-bit addition.
// It is the per-boundary oracle BoundaryCarriesPacked's carry-vector form
// must match.
func CarryInto(a, b uint64, cin uint, k uint) uint {
	if k == 0 {
		return cin & 1
	}
	if k >= 64 {
		_, c := bits.Add64(a, b, uint64(cin&1))
		return uint(c)
	}
	// The carry out of bit k-1 is bit k of the exact sum of the low k
	// bits, which cannot overflow 64 bits when k < 64.
	m := Mask(k)
	exact := a&m + b&m + uint64(cin&1)
	return uint((exact >> k) & 1)
}

// BoundaryCarries returns the carries entering each slice boundary of an
// addition split into ceil(width/sliceBits) slices, one CarryInto per
// boundary: element i is the carry into slice i+1.
func BoundaryCarries(a, b uint64, cin uint, width, sliceBits uint) []uint {
	n := NumSlices(width, sliceBits)
	if n <= 1 {
		return nil
	}
	out := make([]uint, n-1)
	for i := uint(1); i < n; i++ {
		out[i-1] = CarryInto(a, b, cin, i*sliceBits)
	}
	return out
}

func TestCarryIntoKnownValues(t *testing.T) {
	// 0xFF + 0x01 generates a carry out of bit 7 into bit 8.
	if got := CarryInto(0xFF, 0x01, 0, 8); got != 1 {
		t.Errorf("carry into bit 8 of 0xFF+0x01 = %d, want 1", got)
	}
	// ...but not into bit 16.
	if got := CarryInto(0xFF, 0x01, 0, 16); got != 0 {
		t.Errorf("carry into bit 16 of 0xFF+0x01 = %d, want 0", got)
	}
	// A carry injected at bit 0 through a full propagate chain reaches the top.
	if got := CarryInto(^uint64(0), 0, 1, 64); got != 1 {
		t.Errorf("carry out of ^0+0+1 = %d, want 1", got)
	}
	if got := CarryInto(1, 2, 1, 0); got != 1 {
		t.Errorf("CarryInto k=0 should return cin")
	}
}

func TestCarryIntoMatchesAdd64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		cin := uint(rng.Intn(2))
		_, want := bits.Add64(a, b, uint64(cin))
		if got := CarryInto(a, b, cin, 64); got != uint(want) {
			t.Fatalf("CarryInto(%#x,%#x,%d,64) = %d, want %d", a, b, cin, got, want)
		}
	}
}

// Property: reassembling per-slice additions using the exact boundary
// carries reproduces the full-width sum. This is the foundational identity
// that makes sliced speculative addition possible at all.
func TestBoundaryCarriesReassembleSum(t *testing.T) {
	f := func(a, b uint64, cinRaw bool) bool {
		cin := uint(0)
		if cinRaw {
			cin = 1
		}
		for _, sliceBits := range []uint{4, 8, 16, 32} {
			carries := BoundaryCarries(a, b, cin, 64, sliceBits)
			n := NumSlices(64, sliceBits)
			var sum uint64
			c := cin
			for i := uint(0); i < n; i++ {
				if i > 0 {
					c = carries[i-1]
				}
				lo := i * sliceBits
				sa := Slice(a, lo, sliceBits)
				sb := Slice(b, lo, sliceBits)
				s, _ := AddWithCarry(sa, sb, c, sliceBits)
				sum |= s << lo
			}
			want := a + b + uint64(cin)
			if sum != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestBoundaryCarriesPackedAgrees checks the carry-vector form against
// one CarryInto per boundary at every unit width, slice widths 1..16
// (8 takes the byte-gather path, the rest the shift walk) and both
// carry-ins.
func TestBoundaryCarriesPackedAgrees(t *testing.T) {
	f := func(a, b uint64) bool {
		for _, width := range []uint{24, 32, 52, 64} {
			for sb := uint(1); sb <= 16; sb++ {
				for cin := uint(0); cin <= 1; cin++ {
					carries := BoundaryCarries(a, b, cin, width, sb)
					packed := BoundaryCarriesPacked(a, b, cin, width, sb)
					var want uint64
					for i, c := range carries {
						want |= uint64(c) << uint(i)
					}
					if packed != want {
						t.Logf("width %d slice %d cin %d: packed %#x, want %#x", width, sb, cin, packed, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestNumSlices(t *testing.T) {
	cases := []struct {
		width, sliceBits, want uint
	}{
		{64, 8, 8},
		{24, 8, 3}, // FP32 mantissa
		{52, 8, 7}, // FP64 mantissa
		{64, 16, 4},
		{64, 64, 1},
		{0, 8, 0},
		{8, 0, 0},
		{7, 8, 1},
	}
	for _, c := range cases {
		if got := NumSlices(c.width, c.sliceBits); got != c.want {
			t.Errorf("NumSlices(%d,%d) = %d, want %d", c.width, c.sliceBits, got, c.want)
		}
	}
}

func TestCarryChainLengthKnown(t *testing.T) {
	cases := []struct {
		a, b  uint64
		cin   uint
		width uint
		want  uint
	}{
		{0, 0, 0, 64, 0},           // nothing happens
		{1, 1, 0, 64, 0},           // generate at 0, dies at 1 (no propagate)
		{1, 3, 0, 64, 1},           // generate at 0, propagates through bit 1
		{0xFF, 0x01, 0, 64, 7},     // generate at 0, propagate run of 7
		{^uint64(0), 1, 0, 64, 63}, // propagates to the top
		{^uint64(0), 0, 1, 64, 64}, // injected carry rides the full chain
		{0x8000000000000000, 0x8000000000000000, 0, 64, 0}, // generate at 63, exits
	}
	for _, c := range cases {
		if got := CarryChainLength(c.a, c.b, c.cin, c.width); got != c.want {
			t.Errorf("CarryChainLength(%#x,%#x,%d,%d) = %d, want %d",
				c.a, c.b, c.cin, c.width, got, c.want)
		}
	}
}

func TestCarryChainSmallPositiveShort(t *testing.T) {
	// The paper's core observation: small positive operands yield short
	// chains. Confirm chains for sums of values < 2^8 never exceed 8.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(256))
		b := uint64(rng.Intn(256))
		if got := CarryChainLength(a, b, 0, 64); got > 8 {
			t.Fatalf("small operands %d+%d produced chain %d > 8", a, b, got)
		}
	}
}

func TestSliceWidthAt(t *testing.T) {
	if w := SliceWidthAt(6, 52, 8); w != 4 {
		t.Errorf("top slice of 52-bit mantissa should be 4 bits, got %d", w)
	}
	if w := SliceWidthAt(2, 24, 8); w != 8 {
		t.Errorf("slice 2 of 24 bits should be 8 wide, got %d", w)
	}
	if w := SliceWidthAt(3, 24, 8); w != 0 {
		t.Errorf("slice 3 of 24 bits should not exist, got width %d", w)
	}
}

func TestAddWithCarry(t *testing.T) {
	sum, cout := AddWithCarry(0xFF, 0x01, 0, 8)
	if sum != 0 || cout != 1 {
		t.Errorf("0xFF+0x01 (8b) = %#x c=%d, want 0 c=1", sum, cout)
	}
	sum, cout = AddWithCarry(0x7F, 0x00, 1, 8)
	if sum != 0x80 || cout != 0 {
		t.Errorf("0x7F+0+1 (8b) = %#x c=%d, want 0x80 c=0", sum, cout)
	}
	sum, cout = AddWithCarry(^uint64(0), 1, 0, 64)
	if sum != 0 || cout != 1 {
		t.Errorf("full width wrap failed: %#x c=%d", sum, cout)
	}
	_, cout = AddWithCarry(0, 0, 1, 0)
	if cout != 1 {
		t.Errorf("zero-width add should pass carry through")
	}
}

func TestOnesComplement(t *testing.T) {
	if got := OnesComplement(0, 8); got != 0xFF {
		t.Errorf("^0 (8b) = %#x", got)
	}
	if got := OnesComplement(0xF0F0, 16); got != 0x0F0F {
		t.Errorf("^0xF0F0 (16b) = %#x", got)
	}
}

// Property: subtraction via ones' complement + carry-in 1 equals native
// subtraction, for all widths the units use.
func TestSubtractionIdentity(t *testing.T) {
	f := func(a, b uint64) bool {
		for _, w := range []uint{8, 24, 32, 52, 64} {
			m := Mask(w)
			diff, _ := AddWithCarry(a&m, OnesComplement(b, w), 1, w)
			if diff != (a-b)&m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestSignExtend(t *testing.T) {
	if got := SignExtend(0xFF, 8); got != -1 {
		t.Errorf("SignExtend(0xFF,8) = %d, want -1", got)
	}
	if got := SignExtend(0x7F, 8); got != 127 {
		t.Errorf("SignExtend(0x7F,8) = %d, want 127", got)
	}
	if got := SignExtend(0x80000000, 32); got != -2147483648 {
		t.Errorf("SignExtend 32-bit = %d", got)
	}
}

// Property: CarryInto is monotone consistent — the carry into bit k is
// exactly bit k of the exact (infinite-precision) sum of the low k bits.
func TestCarryIntoExactSum(t *testing.T) {
	f := func(a, b uint64, k8 uint8) bool {
		k := uint(k8%63) + 1
		exact := (a & Mask(k)) + (b & Mask(k))
		return CarryInto(a, b, 0, k) == uint((exact>>k)&1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: GatherMSB8 equals the naive per-byte MSB walk for all inputs.
func TestGatherMSB8MatchesWalk(t *testing.T) {
	f := func(x uint64) bool {
		var want uint64
		for k := uint(0); k < 8; k++ {
			want |= (x >> (8*k + 7) & 1) << k
		}
		return GatherMSB8(x) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if got := GatherMSB8(0x8080808080808080); got != 0xFF {
		t.Errorf("GatherMSB8(all MSBs) = %#x, want 0xFF", got)
	}
	if got := GatherMSB8(0x7F7F7F7F7F7F7F7F); got != 0 {
		t.Errorf("GatherMSB8(no MSBs) = %#x, want 0", got)
	}
}

func TestNonZeroBit(t *testing.T) {
	cases := map[uint64]uint64{0: 0, 1: 1, 0x80: 1, 1 << 63: 1, ^uint64(0): 1}
	for x, want := range cases {
		if got := NonZeroBit(x); got != want {
			t.Errorf("NonZeroBit(%#x) = %d, want %d", x, got, want)
		}
	}
}
