package speculate

import (
	"testing"

	"st2gpu/internal/bitmath"
)

// This file keeps the sparse-map predictor state every flat table
// replaced, as the oracle the flat layouts are held to: a key packs the
// folded PC and the thread, and a key never written reads zero.

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
func mapKey(cfg HistoryConfig, ctx Context) uint64 {
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

func (h *mapHistory) Name() string { return h.cfg.Name() }

func (h *mapHistory) Predict(ctx Context) Prediction {
	return Prediction{Carries: h.table[mapKey(h.cfg, ctx)] & h.cfg.Geometry.BoundaryMask()}
}

func (h *mapHistory) Update(ctx Context, actual uint64, mispredicted bool) {
	if mispredicted || h.cfg.AlwaysUpdate {
		h.table[mapKey(h.cfg, ctx)] = actual & h.cfg.Geometry.BoundaryMask()
	}
}

func (h *mapHistory) Reset() { h.table = make(map[uint64]uint64) }

// mapHistory2 is the depth-2 History2 over two maps.
type mapHistory2 struct {
	cfg         HistoryConfig
	last, prev2 map[uint64]uint64
}

func (h *mapHistory2) Name() string { return "Prev2 oracle" }

func (h *mapHistory2) Predict(ctx Context) Prediction {
	k := mapKey(h.cfg, ctx)
	last, old := h.last[k], h.prev2[k]
	agree := ^(last ^ old)
	return Prediction{Carries: ((last & agree) | (old &^ agree)) & h.cfg.Geometry.BoundaryMask()}
}

func (h *mapHistory2) Update(ctx Context, actual uint64, mispredicted bool) {
	if mispredicted || h.cfg.AlwaysUpdate {
		k := mapKey(h.cfg, ctx)
		h.prev2[k] = h.last[k]
		h.last[k] = actual & h.cfg.Geometry.BoundaryMask()
	}
}

func (h *mapHistory2) Reset() {
	h.last, h.prev2 = make(map[uint64]uint64), make(map[uint64]uint64)
}

// mapVaLHALLA is VaLHALLA's per-thread broadcast bit over a map.
type mapVaLHALLA struct {
	g    Geometry
	bits map[uint32]uint8
}

func (v *mapVaLHALLA) Name() string { return "VaLHALLA oracle" }

func (v *mapVaLHALLA) Predict(ctx Context) Prediction {
	return Prediction{Carries: uint64(v.bits[ctx.Gtid]) * v.g.BoundaryMask()}
}

func (v *mapVaLHALLA) Update(ctx Context, actual uint64, _ bool) {
	v.bits[ctx.Gtid] = 0
	if 2*bitmath.PopCount64(actual&v.g.BoundaryMask()) >= int(v.g.Boundaries())+1 {
		v.bits[ctx.Gtid] = 1
	}
}

func (v *mapVaLHALLA) Reset() { v.bits = make(map[uint32]uint8) }

// mapOracle builds design name's map-backed oracle: an empty sparse twin
// of a history-keeping design, Peek-wrapped like the design, and a
// fresh instance of a stateless one.
func mapOracle(t testing.TB, name string, g Geometry, b Bounds) Predictor {
	t.Helper()
	p, err := NewDesign(name, g, b)
	if err != nil {
		t.Fatal(err)
	}
	inner, peeked := SplitPeek(p)
	var o Predictor
	switch x := inner.(type) {
	case *History:
		o = newMapHistory(x.cfg)
	case *History2:
		o = &mapHistory2{cfg: x.cfg, last: make(map[uint64]uint64), prev2: make(map[uint64]uint64)}
	case *VaLHALLA:
		o = &mapVaLHALLA{g: x.g, bits: make(map[uint32]uint8)}
	default:
		o = inner
	}
	if peeked {
		o = WithPeek(g, o)
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
