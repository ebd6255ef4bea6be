// Package trace implements the value- and carry-correlation analyses of
// the paper's Sections III and IV over the GPU simulator's recorded
// adder-operation stream, decoded once into flat arrays (DecodedKernel):
//
//   - Figure 2-style value-evolution series (per-PC result streams in
//     logical time);
//   - Figure 3-style carry-in match rates across the temporal/spatial
//     axes (Prev+Gtid, Prev+FullPC+Gtid, Prev+FullPC+Ltid);
//   - the design-batched sweep behind Figure 5, evaluating every
//     speculation design on the identical operation stream.
package trace

import (
	"math/bits"
	"sort"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/speculate"
)

// g64 is the prediction geometry shared by every evaluator: with 8-bit
// slices, boundary i sits at bit 8(i+1) for every unit width, so one
// 7-boundary predictor covers ALU64/ALU32/FPU/DPU operations — narrower
// ops simply use (and are judged on) their low boundaries. This mirrors
// the hardware, where the same per-SM CRF serves every unit family.
var g64 = speculate.Geometry{Width: 64, SliceBits: 8}

// boundariesOf returns how many carry boundaries an op of the given unit
// kind speculates (width/8 − 1).
func boundariesOf(kind core.UnitKind) uint {
	switch kind {
	case core.ALU32:
		return 3
	case core.FPU:
		return 2
	case core.DPU:
		return 6
	default:
		return 7
	}
}

// --- Figure 2: value evolution ---

// ValuePoint is one executed add: its logical time (order of observation)
// and the produced value.
type ValuePoint struct {
	Time  int
	Value int64
}

// ValueTrace holds, for one thread, the result stream of each PC —
// exactly the data behind Figure 2's pathfinder plot.
type ValueTrace struct {
	Gtid   uint32
	MaxPts int
	series map[uint32][]ValuePoint
}

// NewValueTrace walks k in stream order and collects thread gtid's add
// results per PC, keeping at most maxPts points per PC. Logical time
// counts every add the thread executes, kept or not.
func NewValueTrace(k *DecodedKernel, gtid uint32, maxPts int) *ValueTrace {
	v := &ValueTrace{Gtid: gtid, MaxPts: maxPts, series: make(map[uint32][]ValuePoint)}
	clock := 0
	for i, base := range k.GtidBase {
		if gtid < base || gtid >= base+32 {
			continue
		}
		l := gtid - base
		active := k.Active[i]
		if active>>l&1 == 0 {
			continue
		}
		clock++
		pc := k.PC[i]
		if len(v.series[pc]) >= maxPts {
			continue
		}
		sum := k.Sum[int(k.Off[i])+bits.OnesCount32(active&(1<<l-1))]
		val := int64(sum) // 64-bit results; mantissa magnitudes for FP adds
		if k.Kind[i] == core.ALU32 {
			val = bitmath.SignExtend(sum, 32)
		}
		v.series[pc] = append(v.series[pc], ValuePoint{Time: clock, Value: val})
	}
	return v
}

// PCs returns the traced PCs in ascending order.
func (v *ValueTrace) PCs() []uint32 {
	out := make([]uint32, 0, len(v.series))
	for pc := range v.series {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Series returns the value stream of one PC.
func (v *ValueTrace) Series(pc uint32) []ValuePoint { return v.series[pc] }

// --- Figure 3: carry-in correlation ---

// Fig3Designs are the three history-bucketing schemes of Figure 3.
// Cold buckets compare against the zero-initialized history — which is
// what lets shared histories (Ltid) score higher than fully
// disambiguated ones (Gtid): sharing warms buckets faster.
var Fig3Designs = []string{"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC"}
