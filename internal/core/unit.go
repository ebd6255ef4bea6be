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

// LaneOp is one thread's operation within a warp instruction. For integer
// ops A/B are the register values; for floating-point ops they are the
// aligned significands extracted by MantissaOp*, with Op carrying the
// effective mantissa add/sub.
type LaneOp struct {
	Active bool
	A, B   uint64
	Op     adder.Op
}

// Speculator supplies warp-wide carry predictions and consumes the
// write-back. Implementations: CRFSpeculator (the hardware path) and
// PredictorSpeculator (DSE / trace analysis path).
//
// The arrays passed by pointer are the caller's per-unit scratch, reused
// by the next warp instruction: they are valid only for the duration of
// the call and must be copied if kept.
type Speculator interface {
	// PredictWarp returns one Prediction per lane (length WarpSize);
	// inactive lanes may hold zero values. lanes and eff are valid only
	// during the call.
	PredictWarp(pc, gtidBase uint32, lanes *[WarpSize]LaneOp, eff *[WarpSize]EffOperands) [WarpSize]speculate.Prediction
	// UpdateWarp records the true boundary carries; mispred marks lanes
	// whose speculation failed (the only ones the hardware writes back).
	// actual is valid only during the call.
	UpdateWarp(pc, gtidBase uint32, active, mispred uint32, actual *[WarpSize]uint64)
}

// EffOperands are the effective (post subtraction-transform) operands a
// lane presents to the slice datapath; predictors peek at these.
type EffOperands struct {
	EA, EB uint64
	Cin0   uint
}

// WarpResult aggregates one warp instruction's execution on the unit.
type WarpResult struct {
	Sums [WarpSize]uint64 // exact per-lane results (Width bits)

	Cycles            uint   // 1, or 2 if any lane mispredicted (warp stalls together)
	MispredLanes      uint32 // lanes whose dynamic speculation failed
	ActiveLanes       int
	ThreadMispredicts int // popcount of MispredLanes
	RecomputedSlices  int // total slice re-executions across lanes
	SliceComputations int // total slice executions (first pass + recomputes)

	// Boundary-level accounting for the Fig 3 style analyses.
	StaticBoundaries  int // resolved by Peek (guaranteed)
	DynamicBoundaries int // actually speculated
	WrongBoundaries   int // speculated and wrong

	// Energy for this warp op under the unit's pricing.
	EnergyST2      float64
	EnergyBaseline float64
}

// Unit is one ST²-equipped adder unit family within an SM sub-core.
type Unit struct {
	Kind  UnitKind
	ad    *adder.SlicedAdder
	geom  speculate.Geometry
	price EnergyParams

	agg UnitStats

	// eff and actual are ExecuteWarp's per-warp scratch, handed to the
	// Speculator by pointer. Keeping them in the unit (one per SM) rather
	// than on ExecuteWarp's frame stops them escaping to the heap on every
	// warp add.
	eff    [WarpSize]EffOperands
	actual [WarpSize]uint64
}

// UnitStats accumulates per-unit activity across a simulation.
type UnitStats struct {
	WarpOps           uint64
	StalledWarpOps    uint64 // 2-cycle warp ops
	ThreadOps         uint64
	ThreadMispredicts uint64
	SliceComputations uint64
	RecomputedSlices  uint64
	StaticBoundaries  uint64
	DynamicBoundaries uint64
	WrongBoundaries   uint64
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

// ExecuteWarp runs one warp add/sub through the ST² unit: speculate, slice,
// detect, recompute, write back, and price the energy.
func (u *Unit) ExecuteWarp(spec Speculator, pc, gtidBase uint32, lanes *[WarpSize]LaneOp) WarpResult {
	var res WarpResult
	eff, actual := &u.eff, &u.actual
	var activeMask uint32
	for l := 0; l < WarpSize; l++ {
		if !lanes[l].Active {
			eff[l] = EffOperands{}
			continue
		}
		activeMask |= 1 << l
		ea, eb, cin0 := u.ad.EffectiveOperands(lanes[l].A, lanes[l].B, lanes[l].Op)
		eff[l] = EffOperands{EA: ea, EB: eb, Cin0: cin0}
	}
	if activeMask == 0 {
		return res
	}

	preds := spec.PredictWarp(pc, gtidBase, lanes, eff)

	var mispred uint32
	nb := int(u.geom.Boundaries())
	for l := 0; l < WarpSize; l++ {
		if !lanes[l].Active {
			actual[l] = 0
			continue
		}
		res.ActiveLanes++
		r := u.ad.ExecuteEffective(eff[l].EA, eff[l].EB, eff[l].Cin0, preds[l].Carries)
		res.Sums[l] = r.Sum
		actual[l] = r.ActualCarries
		res.SliceComputations += int(u.price.NumSlices) + r.Recomputed
		res.RecomputedSlices += r.Recomputed

		staticBits := bits.OnesCount32(uint32(preds[l].Static))
		res.StaticBoundaries += staticBits
		res.DynamicBoundaries += nb - staticBits
		res.WrongBoundaries += bits.OnesCount32(uint32(r.ErrorSlices &^ preds[l].Static))

		if r.Mispredicted {
			mispred |= 1 << l
			res.ThreadMispredicts++
			u.agg.RecomputeHistogram.Observe(r.Recomputed)
		}
	}
	res.MispredLanes = mispred
	res.Cycles = 1
	if mispred != 0 {
		res.Cycles = 2
	}
	spec.UpdateWarp(pc, gtidBase, activeMask, mispred, actual)

	u.agg.MispredLanesHistogram.Observe(res.ThreadMispredicts)
	res.EnergyST2 = u.price.ST2WarpEnergy(res.ActiveLanes, res.RecomputedSlices, res.ThreadMispredicts)
	res.EnergyBaseline = u.price.BaselineWarpEnergy(res.ActiveLanes)

	// Fold into the aggregate.
	u.agg.WarpOps++
	if res.Cycles == 2 {
		u.agg.StalledWarpOps++
	}
	u.agg.ThreadOps += uint64(res.ActiveLanes)
	u.agg.ThreadMispredicts += uint64(res.ThreadMispredicts)
	u.agg.SliceComputations += uint64(res.SliceComputations)
	u.agg.RecomputedSlices += uint64(res.RecomputedSlices)
	u.agg.StaticBoundaries += uint64(res.StaticBoundaries)
	u.agg.DynamicBoundaries += uint64(res.DynamicBoundaries)
	u.agg.WrongBoundaries += uint64(res.WrongBoundaries)
	u.agg.EnergyST2 += res.EnergyST2
	u.agg.EnergyBaseline += res.EnergyBaseline
	return res
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
	s.StaticBoundaries += o.StaticBoundaries
	s.DynamicBoundaries += o.DynamicBoundaries
	s.WrongBoundaries += o.WrongBoundaries
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

// CRFSpeculator is the hardware speculation path: Peek in the slices, the
// SM's Carry Register File for dynamic history, write-back of mispredicted
// lanes with per-row arbitration (the CRF handles staging).
type CRFSpeculator struct {
	CRF  *speculate.CRF
	Geom speculate.Geometry
	// DisablePeek turns off the static resolution filter (ablation).
	DisablePeek bool

	row [WarpSize]uint64 // PredictWarp's copy of the CRF row
}

// PredictWarp implements Speculator with one CRF row read per warp.
func (c *CRFSpeculator) PredictWarp(pc, _ uint32, lanes *[WarpSize]LaneOp, eff *[WarpSize]EffOperands) [WarpSize]speculate.Prediction {
	row := c.CRF.ReadRow(pc, c.row[:])
	var out [WarpSize]speculate.Prediction
	for l := 0; l < WarpSize && l < len(row); l++ {
		if !lanes[l].Active {
			continue
		}
		hist := row[l] & c.Geom.BoundaryMask()
		if c.DisablePeek {
			out[l] = speculate.Prediction{Carries: hist}
			continue
		}
		static, values := speculate.PeekBits(c.Geom, eff[l].EA, eff[l].EB)
		out[l] = speculate.Prediction{
			Carries: (hist &^ static) | values,
			Static:  static,
		}
	}
	return out
}

// UpdateWarp implements Speculator: only mispredicted lanes write back.
func (c *CRFSpeculator) UpdateWarp(pc, _ uint32, _, mispred uint32, actual *[WarpSize]uint64) {
	if mispred == 0 {
		return
	}
	_ = c.CRF.WriteBack(pc, mispred, actual[:])
}

// PredictorSpeculator adapts a trace-level speculate.Predictor (any Fig 5
// design point) to the warp interface; used by the design-space sweeps.
type PredictorSpeculator struct {
	P speculate.Predictor
}

// PredictWarp implements Speculator.
func (p *PredictorSpeculator) PredictWarp(pc, gtidBase uint32, lanes *[WarpSize]LaneOp, eff *[WarpSize]EffOperands) [WarpSize]speculate.Prediction {
	var out [WarpSize]speculate.Prediction
	for l := 0; l < WarpSize; l++ {
		if !lanes[l].Active {
			continue
		}
		out[l] = p.P.Predict(speculate.Context{
			PC:   pc,
			Gtid: gtidBase + uint32(l),
			Ltid: uint8(l),
			EA:   eff[l].EA,
			EB:   eff[l].EB,
			Cin0: eff[l].Cin0,
		})
	}
	return out
}

// UpdateWarp implements Speculator with per-thread updates.
func (p *PredictorSpeculator) UpdateWarp(pc, gtidBase uint32, active, mispred uint32, actual *[WarpSize]uint64) {
	for l := 0; l < WarpSize; l++ {
		if active&(1<<l) == 0 {
			continue
		}
		p.P.Update(speculate.Context{
			PC:   pc,
			Gtid: gtidBase + uint32(l),
			Ltid: uint8(l),
		}, actual[l], mispred&(1<<l) != 0)
	}
}
