package bitmath

import (
	"math/big"
	"testing"
)

// FuzzCarriesAgainstBigInt cross-checks the entire carry machinery
// against an independent oracle: arbitrary-precision addition. Any
// divergence between the packed boundary carries / sliced reassembly and
// big.Int arithmetic is a real bug in the foundation everything else
// stands on.
func FuzzCarriesAgainstBigInt(f *testing.F) {
	f.Add(uint64(0xFF), uint64(0x01), false)
	f.Add(^uint64(0), uint64(1), true)
	f.Add(uint64(0x8080808080808080), uint64(0x8080808080808080), false)
	f.Fuzz(func(t *testing.T, a, b uint64, cinRaw bool) {
		cin := uint(0)
		if cinRaw {
			cin = 1
		}
		exact := new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		exact.Add(exact, big.NewInt(int64(cin)))

		// Full-width sum and carry-out.
		sum, cout := AddWithCarry(a, b, cin, 64)
		wantSum := new(big.Int).And(exact, new(big.Int).SetUint64(^uint64(0))).Uint64()
		if sum != wantSum {
			t.Fatalf("sum %#x vs big.Int %#x", sum, wantSum)
		}
		if (exact.BitLen() > 64) != (cout == 1) {
			t.Fatalf("carry-out %d vs big.Int bitlen %d", cout, exact.BitLen())
		}
		// Each boundary carry is bit k of the exact sum of the low k bits,
		// at every unit width and slice widths 1..8 (8 takes the
		// byte-gather path, the rest the shift walk).
		for _, width := range []uint{24, 32, 52, 64} {
			for sliceBits := uint(1); sliceBits <= 8; sliceBits++ {
				packed := BoundaryCarriesPacked(a, b, cin, width, sliceBits)
				n := NumSlices(width, sliceBits)
				if packed>>(n-1) != 0 {
					t.Fatalf("width %d sliceBits %d: %#x sets bits past boundary %d", width, sliceBits, packed, n-2)
				}
				for i := uint(1); i < n; i++ {
					k := i * sliceBits
					lowMask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), k), big.NewInt(1))
					lowSum := new(big.Int).Add(
						new(big.Int).And(new(big.Int).SetUint64(a), lowMask),
						new(big.Int).And(new(big.Int).SetUint64(b), lowMask))
					lowSum.Add(lowSum, big.NewInt(int64(cin)))
					want := lowSum.Bit(int(k))
					if uint((packed>>(i-1))&1) != want {
						t.Fatalf("boundary %d (width %d, sliceBits %d): got %d want %d",
							i, width, sliceBits, (packed>>(i-1))&1, want)
					}
				}
			}
		}
	})
}
