package speculate

import (
	"testing"

	"st2gpu/internal/bitmath"
)

// This file keeps the per-lane predictors every plane table replaced,
// as the oracles the planes are held to: the sparse-map state of the
// history designs (a key packs the folded PC and the thread, and a key
// never written reads zero) and the stateless designs' per-lane
// formulas, each lane predicted and updated on its own.

// laneCtx is one lane of a warp add as a per-lane oracle sees it: where
// it is in the program, which thread runs it, and its effective
// operands and injected slice-0 carry.
type laneCtx struct {
	PC     uint32
	Gtid   uint32
	Ltid   uint8
	EA, EB uint64
	Cin0   uint
}

// lanePred is one lane's prediction: the packed boundary carries (bit i
// for the carry into slice i+1) and the boundaries resolved statically.
type lanePred struct{ Carries, Static uint64 }

// laneOracle is a per-lane reference predictor.
type laneOracle interface {
	Predict(ctx laneCtx) lanePred
	Update(ctx laneCtx, actual uint64, mispredicted bool)
}

// mapHistory is the Prev-family predictor over a map.
type mapHistory struct {
	cfg   HistoryConfig
	table map[uint64]uint64
}

func newMapHistory(cfg HistoryConfig) *mapHistory {
	return &mapHistory{cfg: cfg, table: make(map[uint64]uint64)}
}

// mapKey packs (folded PC, thread) the way the map-backed History did,
// folding the PC on its own rather than through HistoryConfig.fold.
func mapKey(cfg HistoryConfig, ctx laneCtx) uint64 {
	var pcPart uint64
	switch cfg.PCMode {
	case ModPC:
		pcPart = uint64(ctx.PC) & bitmath.Mask(cfg.PCBits)
	case FullPC:
		pcPart = uint64(ctx.PC)
	case XorPC:
		for pc := uint64(ctx.PC); pc != 0; pc >>= cfg.PCBits {
			pcPart ^= pc & bitmath.Mask(cfg.PCBits)
		}
	}
	switch cfg.Threads {
	case ByLtid:
		return pcPart<<5 | uint64(ctx.Ltid&31)
	case ByGtid:
		return pcPart<<32 | uint64(ctx.Gtid)
	default:
		return pcPart
	}
}

func (h *mapHistory) Predict(ctx laneCtx) lanePred {
	return lanePred{Carries: h.table[mapKey(h.cfg, ctx)] & h.cfg.Geometry.BoundaryMask()}
}

func (h *mapHistory) Update(ctx laneCtx, actual uint64, mispredicted bool) {
	if mispredicted || h.cfg.AlwaysUpdate {
		h.table[mapKey(h.cfg, ctx)] = actual & h.cfg.Geometry.BoundaryMask()
	}
}

// mapHistory2 is the depth-2 History2 over two maps.
type mapHistory2 struct {
	cfg         HistoryConfig
	last, prev2 map[uint64]uint64
}

func (h *mapHistory2) Predict(ctx laneCtx) lanePred {
	k := mapKey(h.cfg, ctx)
	last, old := h.last[k], h.prev2[k]
	agree := ^(last ^ old)
	return lanePred{Carries: ((last & agree) | (old &^ agree)) & h.cfg.Geometry.BoundaryMask()}
}

func (h *mapHistory2) Update(ctx laneCtx, actual uint64, mispredicted bool) {
	if mispredicted || h.cfg.AlwaysUpdate {
		k := mapKey(h.cfg, ctx)
		h.prev2[k] = h.last[k]
		h.last[k] = actual & h.cfg.Geometry.BoundaryMask()
	}
}

// mapVaLHALLA is VaLHALLA's per-thread broadcast bit over a map.
type mapVaLHALLA struct {
	g    Geometry
	bits map[uint32]uint8
}

func (v *mapVaLHALLA) Predict(ctx laneCtx) lanePred {
	return lanePred{Carries: uint64(v.bits[ctx.Gtid]) * v.g.BoundaryMask()}
}

func (v *mapVaLHALLA) Update(ctx laneCtx, actual uint64, _ bool) {
	v.bits[ctx.Gtid] = 0
	if 2*bitmath.PopCount64(actual&v.g.BoundaryMask()) >= int(v.g.Boundaries())+1 {
		v.bits[ctx.Gtid] = 1
	}
}

// constOracle predicts the same carries for every lane: staticZero,
// staticOne and VLSA.
type constOracle struct{ carries uint64 }

func (c constOracle) Predict(laneCtx) lanePred   { return lanePred{Carries: c.carries} }
func (constOracle) Update(laneCtx, uint64, bool) {}

// casaOracle predicts CASA's operand-derived carries: the slice MSBs of
// EA|EB.
type casaOracle struct{ g Geometry }

func (c casaOracle) Predict(ctx laneCtx) lanePred {
	return lanePred{Carries: c.g.sliceMSBs(ctx.EA | ctx.EB)}
}
func (casaOracle) Update(laneCtx, uint64, bool) {}

// trueOracle predicts the exact carries, every boundary static.
type trueOracle struct{ g Geometry }

func (o trueOracle) Predict(ctx laneCtx) lanePred {
	return lanePred{
		Carries: bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, o.g.Width, o.g.SliceBits),
		Static:  o.g.BoundaryMask(),
	}
}
func (trueOracle) Update(laneCtx, uint64, bool) {}

// peekOracle puts Peek, computed by peekBitsRef, in front of inner:
// resolved boundaries take their known values and join the static set.
type peekOracle struct {
	g     Geometry
	inner laneOracle
}

func (p peekOracle) Predict(ctx laneCtx) lanePred {
	static, values := peekBitsRef(p.g, ctx.EA, ctx.EB)
	dyn := p.inner.Predict(ctx)
	return lanePred{Carries: dyn.Carries&^static | values, Static: dyn.Static | static}
}

func (p peekOracle) Update(ctx laneCtx, actual uint64, mispredicted bool) {
	p.inner.Update(ctx, actual, mispredicted)
}

// mapOracle builds design name's per-lane oracle: an empty sparse twin
// of a history-keeping design or the formula of a stateless one,
// Peek-wrapped like the design.
func mapOracle(t testing.TB, name string, g Geometry, b Bounds) laneOracle {
	t.Helper()
	p, err := NewDesign(name, g, b)
	if err != nil {
		t.Fatal(err)
	}
	inner, peeked := SplitPeek(p)
	var o laneOracle
	switch x := inner.(type) {
	case *History:
		o = newMapHistory(x.cfg)
	case *History2:
		o = &mapHistory2{cfg: x.cfg, last: make(map[uint64]uint64), prev2: make(map[uint64]uint64)}
	case *VaLHALLA:
		o = &mapVaLHALLA{g: x.g, bits: make(map[uint32]uint8)}
	case *staticPredictor:
		o = constOracle{carries: g.BoundaryMask() * uint64(x.plane&1)}
	case *VLSA:
		o = constOracle{}
	case *CASA:
		o = casaOracle{g: g}
	case *Oracle:
		o = trueOracle{g: g}
	default:
		t.Fatalf("%s: no per-lane oracle for %T", name, inner)
	}
	if peeked {
		o = peekOracle{g: g, inner: o}
	}
	return o
}

// pcRange lists the PCs below n.
func pcRange(n int) []uint32 {
	pcs := make([]uint32, n)
	for i := range pcs {
		pcs[i] = uint32(i)
	}
	return pcs
}

// testPCs and testThreads bound the streams the package tests draw:
// PCs below testPCs, gtids below testThreads.
const testPCs, testThreads = 64, 256

// testBounds bounds the package tests' streams.
func testBounds(t testing.TB) Bounds {
	t.Helper()
	b, err := NewBounds(pcRange(testPCs), testThreads)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
