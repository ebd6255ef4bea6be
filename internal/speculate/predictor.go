// Package speculate implements the carry-speculation mechanisms of the ST²
// design-space exploration (Section IV-B of the paper): static predictors,
// the VaLHALLA baseline, the Prev history mechanism with ModPCk / Gtid /
// Ltid indexing, the Peek static-resolution filter, and the hardware Carry
// Register File (CRF) with write-back contention and random arbitration.
//
// A Predictor speculates for one warp add/sub at a time, as the hardware
// does: it fills the boundary-carry predictions of every active lane as
// bit planes (planes.go), one 32-lane word per boundary, that
// internal/core's unit consumes, and learns from the warp's true carries
// afterwards. The CRF is itself a Predictor, so the simulator's hardware
// path and the trace-level designs share one interface and one Peek
// wrapper.
package speculate

import (
	"fmt"
	"math/bits"

	"st2gpu/internal/adder"
	"st2gpu/internal/bitmath"
)

// Predictor is one point in the carry-speculation design space. One call
// covers every active lane of a warp-synchronous operation. The lanes'
// operands arrive packed (the j-th set bit of active owns ea[j] and
// eb[j], the effective operands after the subtraction transform);
// predictions and true carries travel as bit planes: bit l of plane b is
// lane l's carry into slice b+1.
//
// The caller picks how many planes it exchanges, at most the predictor's
// boundary count. PredictWarp fills every plane of pred and static;
// UpdateWarp reads actual's planes and takes any further boundary of the
// predictor as zero. Bits of inactive lanes are unspecified in pred and
// static and ignored in actual. Every slice is the caller's scratch,
// valid only for the duration of the call.
//
// All predictions read the pre-update state (the hardware reads the CRF
// row once per warp), and updates land as if in ascending lane order
// (the highest writing lane is the last writer of a shared entry).
type Predictor interface {
	// PredictWarp fills the prediction planes, and in static the
	// boundaries resolved statically (by Peek) and therefore guaranteed
	// correct. cin bit l is lane l's injected slice-0 carry.
	PredictWarp(pc, gtidBase, active, cin uint32, ea, eb []uint64, pred, static []uint32)
	// UpdateWarp delivers the true boundary carries of every active
	// lane; bit l of mispred marks lane l as having mispredicted (the
	// condition under which the hardware performs a CRF write-back).
	// Following the paper, history is written only for mispredicting
	// lanes unless a design says otherwise.
	UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb []uint64, actual []uint32)
}

// Geometry fixes the adder shape a predictor speculates for.
type Geometry struct {
	Width     uint
	SliceBits uint
}

// GeometryOf extracts the Geometry from an adder configuration.
func GeometryOf(cfg adder.Config) Geometry {
	return Geometry{Width: cfg.Width, SliceBits: cfg.SliceBits}
}

// Boundaries returns the number of speculated carry boundaries.
func (g Geometry) Boundaries() uint {
	return bitmath.NumSlices(g.Width, g.SliceBits) - 1
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	cfg := adder.Config{Width: g.Width, SliceBits: g.SliceBits}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if g.Boundaries() == 0 {
		return fmt.Errorf("speculate: geometry %+v has no boundaries to speculate", g)
	}
	return nil
}

// BoundaryMask returns the mask covering all boundary bits.
func (g Geometry) BoundaryMask() uint64 { return bitmath.Mask(g.Boundaries()) }

// staticPredictor predicts the same constant for every boundary.
type staticPredictor struct{ plane uint32 }

// NewStaticZero returns the "staticZero" design: always predict carry 0.
func NewStaticZero(Geometry) Predictor { return &staticPredictor{} }

// NewStaticOne returns the "staticOne" design: always predict carry 1.
func NewStaticOne(Geometry) Predictor { return &staticPredictor{plane: ^uint32(0)} }

// PredictWarp implements Predictor: a constant plane per boundary.
func (s *staticPredictor) PredictWarp(_, _, _, _ uint32, _, _ []uint64, pred, static []uint32) {
	for b := range pred {
		pred[b] = s.plane
	}
	clear(static)
}

// UpdateWarp implements Predictor: static predictors never learn.
func (s *staticPredictor) UpdateWarp(_, _, _, _, _ uint32, _, _ []uint64, _ []uint32) {}

// peekPredictor wraps an inner predictor with the Peek filter: boundaries
// whose previous-slice operand MSBs agree are resolved statically
// (guaranteed correct); only the rest keep the inner prediction.
type peekPredictor struct {
	g     Geometry
	inner Predictor
	// The Peek planes of the warp in flight.
	pkStatic, pkValues [MaxBoundaries]uint32
}

// WithPeek adds the Peek mechanism in front of inner.
func WithPeek(g Geometry, inner Predictor) Predictor {
	return &peekPredictor{g: g, inner: inner}
}

// PredictWarp implements Predictor: the inner prediction, overlaid with
// the warp's Peek planes.
func (p *peekPredictor) PredictWarp(pc, gtidBase, active, cin uint32, ea, eb []uint64, pred, static []uint32) {
	p.inner.PredictWarp(pc, gtidBase, active, cin, ea, eb, pred, static)
	n := len(pred)
	PeekPlanes(p.g, active, ea, eb, p.pkStatic[:n], p.pkValues[:n])
	OverlayPeek(pred, static, p.pkStatic[:n], p.pkValues[:n])
}

// UpdateWarp implements Predictor: Peek keeps no state of its own.
func (p *peekPredictor) UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb []uint64, actual []uint32) {
	p.inner.UpdateWarp(pc, gtidBase, active, mispred, cin, ea, eb, actual)
}

// Oracle returns perfect predictions; used to bound achievable accuracy in
// tests and ablations.
type Oracle struct{ G Geometry }

// PredictWarp implements Predictor: every active lane's exact boundary
// carries, each boundary marked static.
func (o *Oracle) PredictWarp(_, _, active, cin uint32, ea, eb []uint64, pred, static []uint32) {
	var lanes [32]uint64
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		lanes[j] = bitmath.BoundaryCarriesPacked(ea[j], eb[j], uint(cin>>l&1), o.G.Width, o.G.SliceBits)
		j++
	}
	LanesToPlanes(active, lanes[:j], pred)
	for b := range static {
		static[b] = active
	}
}

// UpdateWarp implements Predictor: the oracle needs no history.
func (o *Oracle) UpdateWarp(_, _, _, _, _ uint32, _, _ []uint64, _ []uint32) {}
