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
// with its predicted carry-in, wrong or not.
func approxSum(ea, eb uint64, cin0 uint, width uint, predicted uint64) uint64 {
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
