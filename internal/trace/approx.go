package trace

import (
	"math"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
)

// runningMean accumulates the approximate-adder study's relative errors
// (see EvalApproxBatch).
type runningMean struct {
	sum float64
	n   uint64
}

func (r *runningMean) add(v float64) { r.sum += v; r.n++ }

// addRelative records |got−exact|/max(1,|exact|) with both values read as
// two's-complement signed results.
func (r *runningMean) addRelative(got, exact uint64) {
	denom := math.Max(1, math.Abs(float64(int64(exact))))
	r.add(math.Abs(float64(int64(got))-float64(int64(exact))) / denom)
}
func (r *runningMean) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// widthOf returns the datapath width for a unit kind.
func widthOf(kind core.UnitKind) uint {
	switch kind {
	case core.ALU32:
		return 32
	case core.FPU:
		return 24
	case core.DPU:
		return 52
	default:
		return 64
	}
}

// approxSum assembles the no-correction result: each 8-bit slice adds
// with its predicted carry-in, wrong or not. All slices add at once, one
// per byte: the byte-wise sum of the operands drops every byte's carry
// out (the low seven bits add, the top bit is a XOR), and the carry-ins
// — cin0 into byte 0, predicted bit i-1 into byte i — are then added to
// bit 0 of each byte the same way. A narrow top slice is the low bits of
// its byte, so masking to the width finishes it.
func approxSum(ea, eb uint64, cin0 uint, width uint, predicted uint64) uint64 {
	const hi = 0x8080808080808080
	s := ((ea &^ hi) + (eb &^ hi)) ^ ((ea ^ eb) & hi)
	x := (predicted<<1 | uint64(cin0&1)) & 0xFF
	// Bit i of x moves to bit 8i: bits 0-6 by one multiply (no two
	// partial products overlap), bit 7 by a shift.
	c := (x&0x7F)*0x0002040810204081&0x0101010101010101 | (x&0x80)<<49
	return (((s &^ hi) + c) ^ (s & hi)) & bitmath.Mask(width)
}
