package core

import (
	"fmt"
	"math/bits"

	"st2gpu/internal/adder"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// WarpSize is the number of threads per warp on the modeled Volta.
const WarpSize = 32

// UnitKind identifies the functional-unit family an ST² adder lives in.
type UnitKind int

const (
	// ALU is the 64-bit integer adder (the paper's general-case figure).
	ALU UnitKind = iota
	// ALU32 is the 32-bit integer adder the TITAN V actually ships.
	ALU32
	// FPU is the FP32 mantissa adder (24 bits, 3 slices).
	FPU
	// DPU is the FP64 mantissa adder (52 bits, 7 slices).
	DPU
)

// UnitKinds lists every unit kind in canonical declaration order. Code
// that folds per-unit results (energy totals, misprediction means) must
// iterate this slice rather than ranging over a map keyed by UnitKind:
// map order is random per process, and float accumulation re-rounds
// under reordering, which would break the bit-identical-results
// guarantee (DESIGN.md §7).
var UnitKinds = []UnitKind{ALU, ALU32, FPU, DPU}

func (k UnitKind) String() string {
	switch k {
	case ALU:
		return "ALU"
	case ALU32:
		return "ALU32"
	case FPU:
		return "FPU"
	case DPU:
		return "DPU"
	default:
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
}

// AdderConfig returns the adder geometry of the unit kind at the given
// slice width.
func (k UnitKind) AdderConfig(sliceBits uint) (adder.Config, error) {
	var w uint
	switch k {
	case ALU:
		w = 64
	case ALU32:
		w = 32
	case FPU:
		w = 24
	case DPU:
		w = 52
	default:
		return adder.Config{}, fmt.Errorf("core: unknown unit kind %v", k)
	}
	cfg := adder.Config{Width: w, SliceBits: sliceBits}
	return cfg, cfg.Validate()
}

// Unit is one ST²-equipped adder unit family within an SM sub-core.
type Unit struct {
	Kind  UnitKind
	ad    *adder.SlicedAdder
	geom  speculate.Geometry
	price EnergyParams

	agg UnitStats

	// ExecuteWarp's per-warp scratch. The predictor fills the pred and
	// static planes (static holds its Peek-resolved boundaries, which the
	// unit does not read) and receives the actual planes; carries and
	// actualLanes are the packed per-lane forms either side of the adder,
	// and sums is returned to the caller. Keeping them in the unit (one
	// per SM) rather than on ExecuteWarp's frame stops them escaping to
	// the heap on every warp add.
	pred, static, actual       [speculate.MaxBoundaries]uint32
	carries, actualLanes, sums [WarpSize]uint64
}

// UnitStats accumulates per-unit activity across a simulation.
type UnitStats struct {
	WarpOps           uint64
	StalledWarpOps    uint64 // 2-cycle warp ops
	ThreadOps         uint64
	ThreadMispredicts uint64
	SliceComputations uint64
	RecomputedSlices  uint64
	EnergyST2         float64
	EnergyBaseline    float64
	// RecomputeHistogram[k] counts mispredicted thread-ops that recomputed
	// exactly k slices (the paper's "1.94 slices per misprediction").
	RecomputeHistogram *stats.Histogram
	// MispredLanesHistogram[k] counts warp ops on which exactly k lanes
	// mispredicted (0..WarpSize) — the within-kernel misprediction
	// distribution behind the Figure 6 averages.
	MispredLanesHistogram *stats.Histogram
}

// NewUnit builds a unit of the given kind with the paper's 8-bit slices
// unless overridden.
func NewUnit(kind UnitKind, sliceBits uint, price EnergyParams) (*Unit, error) {
	cfg, err := kind.AdderConfig(sliceBits)
	if err != nil {
		return nil, err
	}
	ad, err := adder.New(cfg)
	if err != nil {
		return nil, err
	}
	g := speculate.GeometryOf(cfg)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Unit{
		Kind:  kind,
		ad:    ad,
		geom:  g,
		price: price,
		agg: UnitStats{
			RecomputeHistogram:    stats.NewHistogram(int(cfg.NumSlices())),
			MispredLanesHistogram: stats.NewHistogram(WarpSize),
		},
	}, nil
}

// Geometry returns the unit's speculation geometry.
func (u *Unit) Geometry() speculate.Geometry { return u.geom }

// Adder exposes the underlying sliced adder (read-only use).
func (u *Unit) Adder() *adder.SlicedAdder { return u.ad }

// Stats returns the accumulated statistics.
func (u *Unit) Stats() UnitStats { return u.agg }

// ResetStats clears the accumulated statistics.
func (u *Unit) ResetStats() {
	u.agg = UnitStats{
		RecomputeHistogram:    stats.NewHistogram(int(u.geom.Boundaries()) + 1),
		MispredLanesHistogram: stats.NewHistogram(WarpSize),
	}
}

// ExecuteWarp runs one warp add/sub through the ST² unit: speculate,
// slice, detect, recompute, write back, and price the energy. The operands
// are packed columns: the j-th set bit of active owns ea[j] and eb[j], the
// effective (post subtraction-transform) operands, and bit l of cin is
// lane l's injected slice-0 carry. It returns the exact Width-bit sums in
// the same packed order, valid until the unit's next call, and whether
// any lane mispredicted, which stalls the whole warp one cycle. spec
// predicts the warp's carries and takes its write-back: the SM's CRF
// behind Peek on the hardware path, or any trace-level design.
func (u *Unit) ExecuteWarp(spec speculate.Predictor, pc, gtidBase, active, cin uint32, ea, eb []uint64) (sums []uint64, stall bool) {
	n := bits.OnesCount32(active)
	if n == 0 {
		return nil, false
	}
	nb := int(u.geom.Boundaries())
	pred, static, actualPlanes := u.pred[:nb], u.static[:nb], u.actual[:nb]
	carries, actual := u.carries[:n], u.actualLanes[:n]
	sums = u.sums[:n]
	spec.PredictWarp(pc, gtidBase, active, cin, ea, eb, pred, static)
	speculate.PlanesToLanes(active, pred, carries)

	var mispred uint32
	mispredicts, recomputed := 0, 0
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		var e uint64
		sums[j], actual[j], e = u.ad.Resolve(ea[j], eb[j], uint(cin>>l&1), carries[j])
		if e != 0 {
			// Every boundary from the lowest error upward recomputes.
			r := nb - bits.TrailingZeros64(e)
			mispred |= 1 << l
			mispredicts++
			recomputed += r
			u.agg.RecomputeHistogram.Observe(r)
		}
		j++
	}
	speculate.LanesToPlanes(active, actual, actualPlanes)
	spec.UpdateWarp(pc, gtidBase, active, mispred, cin, ea, eb, actualPlanes)

	u.agg.MispredLanesHistogram.Observe(mispredicts)
	u.agg.WarpOps++
	if mispred != 0 {
		u.agg.StalledWarpOps++
	}
	u.agg.ThreadOps += uint64(n)
	u.agg.ThreadMispredicts += uint64(mispredicts)
	u.agg.SliceComputations += uint64(n*int(u.price.NumSlices) + recomputed)
	u.agg.RecomputedSlices += uint64(recomputed)
	u.agg.EnergyST2 += u.price.ST2WarpEnergy(n, recomputed, mispredicts)
	u.agg.EnergyBaseline += u.price.BaselineWarpEnergy(n)
	return sums, mispred != 0
}

// ThreadMispredictionRate is the paper's Figure 6 metric.
func (s UnitStats) ThreadMispredictionRate() float64 {
	if s.ThreadOps == 0 {
		return 0
	}
	return float64(s.ThreadMispredicts) / float64(s.ThreadOps)
}

// MeanRecomputedSlices is the paper's "1.94 slices per misprediction".
func (s UnitStats) MeanRecomputedSlices() float64 {
	if s.RecomputeHistogram == nil {
		return 0
	}
	return s.RecomputeHistogram.Mean()
}

// Merge folds another unit's statistics into s (for multi-SM aggregation).
func (s *UnitStats) Merge(o UnitStats) {
	s.WarpOps += o.WarpOps
	s.StalledWarpOps += o.StalledWarpOps
	s.ThreadOps += o.ThreadOps
	s.ThreadMispredicts += o.ThreadMispredicts
	s.SliceComputations += o.SliceComputations
	s.RecomputedSlices += o.RecomputedSlices
	s.EnergyST2 += o.EnergyST2
	s.EnergyBaseline += o.EnergyBaseline
	if s.RecomputeHistogram == nil {
		s.RecomputeHistogram = o.RecomputeHistogram
	} else if o.RecomputeHistogram != nil {
		if len(o.RecomputeHistogram.Counts) == len(s.RecomputeHistogram.Counts) {
			_ = s.RecomputeHistogram.Merge(o.RecomputeHistogram)
		}
	}
	if s.MispredLanesHistogram == nil {
		s.MispredLanesHistogram = o.MispredLanesHistogram
	} else if o.MispredLanesHistogram != nil {
		if len(o.MispredLanesHistogram.Counts) == len(s.MispredLanesHistogram.Counts) {
			_ = s.MispredLanesHistogram.Merge(o.MispredLanesHistogram)
		}
	}
}
