package core

import "math"

// The floating-point units apply ST² to the *mantissa* adder only
// (Section IV-C: exponents are 8–11 bits, too narrow to benefit). The
// functions below reproduce the FP-add datapath up to the significand
// addition: unpack, compare exponents, align the smaller significand, and
// derive the effective mantissa operation (ADD when signs agree, SUB when
// they differ). The returned effective operands are what flows through the
// 24- or 52-bit sliced adder; the architectural result itself is produced
// by native IEEE arithmetic (ST² is value-preserving, so this is exact).
//
// Modeling note: guard/round/sticky bits of the real datapath are below
// the significand LSB and do not change slice-boundary carries; we omit
// them.

// MantissaOpF32 returns the effective operands and injected carry the FP32
// mantissa adder sees for x + y: the aligned significands, with the
// smaller one ones'-complemented and cin 1 when the signs differ (a
// mantissa subtraction). ok is false for specials (NaN/Inf) and true zero
// operations, where the FP pipeline bypasses the significand adder.
func MantissaOpF32(x, y float32) (ea, eb uint64, cin uint, ok bool) {
	bx := math.Float32bits(x)
	by := math.Float32bits(y)
	ex := int(bx>>23) & 0xFF
	ey := int(by>>23) & 0xFF
	if ex == 0xFF || ey == 0xFF { // NaN or Inf
		return 0, 0, 0, false
	}
	sigX, ex := unpackSig(uint64(bx&0x7FFFFF), ex, 23)
	sigY, ey := unpackSig(uint64(by&0x7FFFFF), ey, 23)
	if sigX == 0 && sigY == 0 {
		return 0, 0, 0, false
	}
	ea, eb, cin = alignAndOp(sigX, ex, bx>>31 == 1, sigY, ey, by>>31 == 1, 24)
	return ea, eb, cin, true
}

// MantissaOpF64 is MantissaOpF32 for the FP64 mantissa adder.
func MantissaOpF64(x, y float64) (ea, eb uint64, cin uint, ok bool) {
	bx := math.Float64bits(x)
	by := math.Float64bits(y)
	ex := int(bx>>52) & 0x7FF
	ey := int(by>>52) & 0x7FF
	if ex == 0x7FF || ey == 0x7FF {
		return 0, 0, 0, false
	}
	sigX, ex := unpackSig(bx&(1<<52-1), ex, 52)
	sigY, ey := unpackSig(by&(1<<52-1), ey, 52)
	if sigX == 0 && sigY == 0 {
		return 0, 0, 0, false
	}
	ea, eb, cin = alignAndOp(sigX, ex, bx>>63 == 1, sigY, ey, by>>63 == 1, 52)
	return ea, eb, cin, true
}

// unpackSig restores the implicit leading one of a normal significand and
// normalizes the denormal exponent.
func unpackSig(frac uint64, exp, fracBits int) (sig uint64, e int) {
	if exp == 0 { // denormal (or zero)
		return frac, 1
	}
	return frac | 1<<fracBits, exp
}

// alignAndOp aligns the smaller-exponent significand and produces the
// effective mantissa operands. width is the significand adder width the
// paper assigns: 24 for FP32 (fraction plus hidden bit) and 52 for FP64.
// The FP64 hidden bit (bit 52) sits above the last slice boundary (bit
// 48), so truncating it cannot change any speculated carry.
func alignAndOp(sigX uint64, ex int, negX bool, sigY uint64, ey int, negY bool, width uint) (ea, eb uint64, cin uint) {
	big, small := sigX, sigY
	shift := ex - ey
	if shift < 0 {
		big, small = sigY, sigX
		shift = -shift
	}
	if shift >= 64 {
		small = 0
	} else {
		small >>= uint(shift)
	}
	m := uint64(1)<<width - 1
	if negX != negY {
		return big & m, ^small & m, 1
	}
	return big & m, small & m, 0
}
