// Package bitmath provides the bit-level arithmetic primitives that the
// rest of the ST² stack is built on: extracting fixed-width slices from
// 64-bit operands, computing the exact carries that a full-width addition
// produces at arbitrary bit boundaries, and measuring carry-propagation
// chain lengths.
//
// Everything in this package is the *ground truth* against which the
// speculative machinery in internal/adder and internal/speculate is
// validated: a sliced adder is correct exactly when its final result and
// boundary carries match the ones computed here.
package bitmath

import "math/bits"

// MaxWidth is the widest addition the package reasons about, in bits.
const MaxWidth = 64

// Mask returns a mask with the low n bits set. n must be in [0, 64].
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// Slice extracts width bits of x starting at bit lo (inclusive).
// Bits beyond bit 63 read as zero.
func Slice(x uint64, lo, width uint) uint64 {
	if lo >= 64 {
		return 0
	}
	return (x >> lo) & Mask(width)
}

// BoundaryCarriesPacked returns the carries entering each slice boundary
// of a + b + cin split into ceil(width/sliceBits) slices, packed into a
// uint64: bit i holds the carry into slice i+1, matching the paper's
// Cpred[0..6] naming. For width=64 and sliceBits=8 that is the 7 carries
// into bits 8, 16, ..., 56 — the signals an ST² predictor must guess.
// width must be at most 64.
//
// Every boundary carry is one bit of the full addition's carry vector
// a^b^(a+b+cin), whose bit k is the carry into bit k. For 8-bit slices the
// carries into bits 8i are the byte MSBs of that vector shifted down one,
// which GatherMSB8 collects at once; other slice widths walk it.
func BoundaryCarriesPacked(a, b uint64, cin uint, width, sliceBits uint) uint64 {
	c := a ^ b ^ (a + b + uint64(cin&1))
	if sliceBits == 8 {
		// Mask(n)>>1 keeps the n-1 boundaries (none when n is 0).
		return GatherMSB8(c>>1) & (Mask(NumSlices(width, 8)) >> 1)
	}
	var packed uint64
	for i, n := uint(1), NumSlices(width, sliceBits); i < n; i++ {
		packed |= (c >> (i * sliceBits) & 1) << (i - 1)
	}
	return packed
}

// NumSlices returns how many sliceBits-wide slices cover width bits
// (the last slice may be partial, as with the 52-bit DPU mantissa on
// 8-bit slices → 7 slices).
func NumSlices(width, sliceBits uint) uint {
	if sliceBits == 0 || width == 0 {
		return 0
	}
	return (width + sliceBits - 1) / sliceBits
}

// CarryChainLength returns the length, in bits, of the longest
// carry-propagation chain triggered when computing a + b + cin over width
// bits: the largest number of consecutive propagate positions traversed by
// a live carry (a generated carry that immediately dies contributes 0).
// It is the quantity VaLHALLA/CASA correlate against operand magnitude.
func CarryChainLength(a, b uint64, cin uint, width uint) uint {
	if width == 0 {
		return 0
	}
	if width > 64 {
		width = 64
	}
	m := Mask(width)
	a &= m
	b &= m
	gen := a & b  // positions that generate a carry
	prop := a ^ b // positions that propagate an incoming carry
	var longest, cur uint
	carry := cin & 1
	var origin int = -1 // bit where the live carry was generated; -1 = none
	if carry == 1 {
		origin = 0 // injected carry behaves as if generated below bit 0
	}
	for i := uint(0); i < width; i++ {
		g := uint((gen >> i) & 1)
		p := uint((prop >> i) & 1)
		if carry == 1 && p == 1 {
			cur = i + 1 - uint(origin)
			if cur > longest {
				longest = cur
			}
		}
		// Next carry state.
		if g == 1 {
			carry = 1
			origin = int(i + 1)
		} else if p == 0 {
			carry = 0
			origin = -1
		}
		// else: propagate, carry and origin unchanged.
	}
	return longest
}

// SliceWidthAt returns the width in bits of slice i for a width-bit value
// split into sliceBits-wide slices.
func SliceWidthAt(i, width, sliceBits uint) uint {
	lo := i * sliceBits
	if lo >= width {
		return 0
	}
	if lo+sliceBits > width {
		return width - lo
	}
	return sliceBits
}

// AddWithCarry adds the low `width` bits of a and b with carry-in cin and
// returns the width-bit sum plus the carry out of bit width-1.
func AddWithCarry(a, b uint64, cin uint, width uint) (sum uint64, cout uint) {
	if width == 0 {
		return 0, cin & 1
	}
	if width >= 64 {
		s, c := bits.Add64(a, b, uint64(cin&1))
		return s, uint(c)
	}
	m := Mask(width)
	exact := (a & m) + (b & m) + uint64(cin&1)
	return exact & m, uint((exact >> width) & 1)
}

// OnesComplement returns ^x truncated to width bits, the operand
// transformation a subtraction applies to its second input.
func OnesComplement(x uint64, width uint) uint64 {
	return (^x) & Mask(width)
}

// SignExtend interprets the low `width` bits of x as a two's-complement
// integer and sign-extends it to 64 bits.
func SignExtend(x uint64, width uint) int64 {
	if width == 0 || width >= 64 {
		return int64(x)
	}
	shift := 64 - width
	return int64(x<<shift) >> shift
}

// PopCount64 reports the number of set bits. Thin wrapper kept so callers
// outside this package do not need math/bits directly.
func PopCount64(x uint64) int { return bits.OnesCount64(x) }

// NonZeroBit returns 1 when x != 0 and 0 otherwise, without a branch —
// the judge primitive of the branchless evaluation kernels.
func NonZeroBit(x uint64) uint64 { return (x | -x) >> 63 }

// GatherMSB8 collects the most-significant bit of each 8-bit byte of x
// into the low 8 bits of the result: output bit k is bit 8k+7 of x. For
// 8-bit slices this turns the per-boundary MSB walk (Peek's agree/both
// tests, 7 shift-and-mask steps for a 64-bit adder) into one mask, one
// multiply and one shift. The multiplier places byte k's MSB at bit
// 49−7k+8k+7 = 56+k; the partial products cannot carry into the top
// byte because each lands on a distinct bit.
func GatherMSB8(x uint64) uint64 {
	return (x & 0x8080808080808080) * 0x0002040810204081 >> 56
}
