// Package speculate implements the carry-speculation mechanisms of the ST²
// design-space exploration (Section IV-B of the paper): static predictors,
// the VaLHALLA baseline, the Prev history mechanism with ModPCk / Gtid /
// Ltid indexing, the Peek static-resolution filter, and the hardware Carry
// Register File (CRF) with write-back contention and random arbitration.
//
// A Predictor produces, for one dynamic add/sub, the packed per-boundary
// carry predictions that internal/adder consumes, and learns from the
// operation's actual carry-outs afterwards.
package speculate

import (
	"fmt"

	"st2gpu/internal/adder"
	"st2gpu/internal/bitmath"
)

// Context identifies one dynamic operation to the predictor: where it is
// in the program (PC), who executes it (thread ids) and what flows through
// the datapath (the *effective* operands after the subtraction transform —
// exactly what the hardware slice input registers hold).
type Context struct {
	PC   uint32 // static instruction index
	Gtid uint32 // global thread id
	Ltid uint8  // lane within the warp, 0..31
	EA   uint64 // effective operand 1
	EB   uint64 // effective operand 2 (ones'-complemented for subtraction)
	Cin0 uint   // injected carry into slice 0 (1 for subtraction)
}

// Prediction carries the packed boundary predictions plus the mask of
// boundaries that were resolved statically (by Peek) and are therefore
// guaranteed correct — the hardware performs no dynamic speculation there.
type Prediction struct {
	Carries uint64 // bit i = predicted carry into slice i+1
	Static  uint64 // bit i set: boundary i was statically resolved (Peek)
}

// Predictor is one point in the carry-speculation design space.
type Predictor interface {
	// Name returns the design-space label (e.g. "Ltid+Prev+ModPC4+Peek").
	Name() string
	// Predict produces the boundary carries to speculate for this operation.
	Predict(ctx Context) Prediction
	// Update learns from the operation's true boundary carries. Following
	// the paper, implementations only write history when the thread
	// mispredicted (that is when the hardware performs a CRF write-back).
	Update(ctx Context, actual uint64, mispredicted bool)
	// Reset clears all history (new kernel launch).
	Reset()
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
type staticPredictor struct {
	g     Geometry
	value uint64
	name  string
}

// NewStaticZero returns the "staticZero" design: always predict carry 0.
func NewStaticZero(g Geometry) Predictor {
	return &staticPredictor{g: g, value: 0, name: "staticZero"}
}

// NewStaticOne returns the "staticOne" design: always predict carry 1.
func NewStaticOne(g Geometry) Predictor {
	return &staticPredictor{g: g, value: ^uint64(0), name: "staticOne"}
}

func (s *staticPredictor) Name() string { return s.name }

func (s *staticPredictor) Predict(Context) Prediction {
	return Prediction{Carries: s.value & s.g.BoundaryMask()}
}

func (s *staticPredictor) Update(Context, uint64, bool) {}
func (s *staticPredictor) Reset()                       {}

// PeekBits computes the statically-resolvable boundaries for the given
// effective operands: boundary i (the carry out of slice i) is 0 when both
// MSBs of slice i's operands are 0, and 1 when both are 1. Returns the
// resolved mask and the resolved values. The per-boundary gather is
// branchless (a boundary resolves exactly when the two MSBs agree, and
// resolves to their AND), keeping the hot sweep path free of
// data-dependent branches.
func PeekBits(g Geometry, ea, eb uint64) (static, values uint64) {
	agree := ^(ea ^ eb) // bit set where the operands' bits match
	both := ea & eb     // bit set where they match at 1
	if g.SliceBits == 8 {
		// Boundary i's MSB sits at bit 8i+7 — exactly the byte MSBs,
		// which one multiply-gather collects for all boundaries at once.
		m := g.BoundaryMask()
		return bitmath.GatherMSB8(agree) & m, bitmath.GatherMSB8(both) & m
	}
	nb := g.Boundaries()
	for i := uint(0); i < nb; i++ {
		msbPos := (i+1)*g.SliceBits - 1
		static |= (agree >> msbPos & 1) << i
		values |= (both >> msbPos & 1) << i
	}
	return static, values
}

// peekPredictor wraps an inner predictor with the Peek filter: boundaries
// whose previous-slice operand MSBs agree are resolved statically
// (guaranteed correct); only the rest consult the inner predictor.
type peekPredictor struct {
	g     Geometry
	inner Predictor
	warp  WarpPredictor // AsWarp(inner)
}

// WithPeek adds the Peek mechanism in front of inner.
func WithPeek(g Geometry, inner Predictor) Predictor {
	return &peekPredictor{g: g, inner: inner, warp: AsWarp(inner)}
}

func (p *peekPredictor) Name() string { return p.inner.Name() + "+Peek" }

func (p *peekPredictor) Predict(ctx Context) Prediction {
	static, values := PeekBits(p.g, ctx.EA, ctx.EB)
	dyn := p.inner.Predict(ctx)
	return Prediction{
		Carries: (dyn.Carries &^ static) | values,
		Static:  static | dyn.Static,
	}
}

func (p *peekPredictor) Update(ctx Context, actual uint64, mispredicted bool) {
	p.inner.Update(ctx, actual, mispredicted)
}

func (p *peekPredictor) Reset() { p.inner.Reset() }

// Oracle returns perfect predictions; used to bound achievable accuracy in
// tests and ablations.
type Oracle struct{ G Geometry }

// Name implements Predictor.
func (o *Oracle) Name() string { return "oracle" }

// Predict returns the exact boundary carries.
func (o *Oracle) Predict(ctx Context) Prediction {
	return Prediction{
		Carries: bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, o.G.Width, o.G.SliceBits),
		Static:  o.G.BoundaryMask(),
	}
}

// Update implements Predictor.
func (o *Oracle) Update(Context, uint64, bool) {}

// Reset implements Predictor.
func (o *Oracle) Reset() {}
