package speculate

import (
	"math/bits"
	"math/rand"
	"testing"

	"st2gpu/internal/bitmath"
)

// peekBitsRef is the per-boundary reference of Peek: boundary i (the
// carry out of slice i) resolves when the two operands' MSBs of slice i
// agree, and resolves to their AND.
func peekBitsRef(g Geometry, ea, eb uint64) (static, values uint64) {
	nb := g.Boundaries()
	agree := ^(ea ^ eb)
	both := ea & eb
	for i := uint(0); i < nb; i++ {
		msbPos := (i+1)*g.SliceBits - 1
		static |= (agree >> msbPos & 1) << i
		values |= (both >> msbPos & 1) << i
	}
	return static, values
}

// peekOne returns PeekPlanes' static and values bits, over every
// boundary of g, for a one-lane warp with operands ea and eb.
func peekOne(g Geometry, ea, eb uint64) (static, values uint64) {
	nb := int(g.Boundaries())
	s, v := make([]uint32, nb), make([]uint32, nb)
	PeekPlanes(g, 1, []uint64{ea}, []uint64{eb}, s, v)
	return naiveLanes(1, s)[0], naiveLanes(1, v)[0]
}

// TestPeekBitsMatchesReference pins the GatherMSB8 fast path (and the
// loop fallback for non-8-bit slices) of PeekPlanes against the
// per-boundary walk, one lane at a time.
func TestPeekBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	geoms := []Geometry{
		{Width: 64, SliceBits: 8},
		{Width: 32, SliceBits: 8},
		{Width: 52, SliceBits: 8},
		{Width: 64, SliceBits: 16}, // exercises the loop fallback
		{Width: 64, SliceBits: 4},
	}
	for _, g := range geoms {
		for i := 0; i < 2000; i++ {
			ea, eb := rng.Uint64(), rng.Uint64()
			switch i {
			case 0:
				ea, eb = 0, 0
			case 1:
				ea, eb = ^uint64(0), ^uint64(0)
			case 2:
				ea, eb = ^uint64(0), 0
			}
			wantS, wantV := peekBitsRef(g, ea, eb)
			gotS, gotV := peekOne(g, ea, eb)
			if gotS != wantS || gotV != wantV {
				t.Fatalf("Peek(%+v, %#x, %#x) = (%#x, %#x), want (%#x, %#x)",
					g, ea, eb, gotS, gotV, wantS, wantV)
			}
		}
	}
}

// TestPeekBitsWarpMatchesScalar checks the Peek planes of a warp, full
// or partial, against the per-lane reference of every active lane.
func TestPeekBitsWarpMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := Geometry{Width: 64, SliceBits: 8}
	nb := int(g.Boundaries())
	for _, active := range []uint32{^uint32(0), 0x0000FFFF, 0x80000001, rng.Uint32()} {
		n := bits.OnesCount32(active)
		ea, eb := make([]uint64, n), make([]uint64, n)
		for j := range ea {
			ea[j], eb[j] = rng.Uint64(), rng.Uint64()
		}
		static, values := make([]uint32, nb), make([]uint32, nb)
		PeekPlanes(g, active, ea, eb, static, values)
		gotS, gotV := naiveLanes(active, static), naiveLanes(active, values)
		for j := range ea {
			wantS, wantV := peekBitsRef(g, ea[j], eb[j])
			if gotS[j] != wantS || gotV[j] != wantV {
				t.Fatalf("active %#x lane %d: PeekPlanes = (%#x, %#x), reference = (%#x, %#x)",
					active, j, gotS[j], gotV[j], wantS, wantV)
			}
		}
	}
}

// TestOverlayPeekMatchesPeekPredictor pins the plane OverlayPeek to the
// per-lane Peek composition formula.
func TestOverlayPeekMatchesPeekPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		dyn, dynStatic := rng.Uint64()&0x7f, rng.Uint64()&0x7f
		pkS, pkV := rng.Uint64()&0x7f, rng.Uint64()&0x7f
		pkV &= pkS // values only exist on resolved boundaries
		plane := func(v uint64) []uint32 { return naivePlanes(1, []uint64{v}, 7) }
		pred, static := plane(dyn), plane(dynStatic)
		OverlayPeek(pred, static, plane(pkS), plane(pkV))
		wantC := (dyn &^ pkS) | pkV
		wantS := dynStatic | pkS
		if got, gotS := naiveLanes(1, pred)[0], naiveLanes(1, static)[0]; got != wantC || gotS != wantS {
			t.Fatalf("OverlayPeek = (%#x, %#x), want (%#x, %#x)", got, gotS, wantC, wantS)
		}
	}
}

// TestSplitPeek checks the wrapper strip and the pass-through case.
func TestSplitPeek(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	h, err := NewHistory(HistoryConfig{Geometry: g, PCMode: ModPC, PCBits: 4, Threads: ByLtid}, testBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	inner, peeked := SplitPeek(WithPeek(g, h))
	if !peeked || inner != Predictor(h) {
		t.Fatalf("SplitPeek(WithPeek(h)) = (%v, %v), want (h, true)", inner, peeked)
	}
	same, peeked := SplitPeek(h)
	if peeked || same != Predictor(h) {
		t.Fatalf("SplitPeek(h) = (%v, %v), want (h, false)", same, peeked)
	}
}

// TestJudgeMissWarpMatchesScalar checks the plane miss judge, on full
// and partial warps, against a direct per-lane reference.
func TestJudgeMissWarpMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 2000; trial++ {
		active := rng.Uint32()
		if trial%4 == 0 {
			active = ^uint32(0)
		}
		if active == 0 {
			active = 1
		}
		nj := 1 + rng.Intn(7)
		mask := bitmath.Mask(uint(nj))
		n := bits.OnesCount32(active)
		carries, static, actual := randomLanes(rng, n, 7), randomLanes(rng, n, 7), randomLanes(rng, n, 7)
		var wantMispred uint32
		j := 0
		for m := active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if (carries[j]^actual[j])&mask&^static[j] != 0 {
				wantMispred |= 1 << l
			}
			j++
		}
		act := naivePlanes(active, actual, 7)
		mispred := JudgeMiss(active, naivePlanes(active, carries, 7), naivePlanes(active, static, 7), act[:nj])
		if mispred != wantMispred {
			t.Fatalf("JudgeMiss(active=%#x) = %#x, want %#x", active, mispred, wantMispred)
		}
	}
}

// TestJudgeCorrWarpMatchesScalar checks the plane matched-boundary
// counter against a direct per-lane reference.
func TestJudgeCorrWarpMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		nb := 1 + rng.Intn(7)
		active := rng.Uint32() | 1
		n := bits.OnesCount32(active)
		carries, actual := randomLanes(rng, n, 7), randomLanes(rng, n, 7)
		var want uint64
		for j := 0; j < n; j++ {
			want += uint64(nb) - uint64(bits.OnesCount64((carries[j]^actual[j])&bitmath.Mask(uint(nb))))
		}
		act := naivePlanes(active, actual, 7)
		if got := JudgeCorr(active, naivePlanes(active, carries, 7), act[:nb]); got != want {
			t.Fatalf("JudgeCorr = %d, want %d", got, want)
		}
	}
}

// TestHistoryDenseMatchesMap drives every PC and thread mode through a
// flat History and the map-backed oracle with one random request stream
// of one-lane warps over a sparse set of 16-bit PCs, and requires
// identical predictions.
func TestHistoryDenseMatchesMap(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	cfgs := []struct {
		name string
		cfg  HistoryConfig
	}{
		{"Prev", HistoryConfig{Geometry: g, PCMode: NoPC, Threads: SharedThreads}},
		{"Ltid+Prev", HistoryConfig{Geometry: g, PCMode: NoPC, Threads: ByLtid}},
		{"Ltid+Prev+ModPC4", HistoryConfig{Geometry: g, PCMode: ModPC, PCBits: 4, Threads: ByLtid}},
		{"Prev+ModPC8", HistoryConfig{Geometry: g, PCMode: ModPC, PCBits: 8, Threads: SharedThreads}},
		{"Ltid+Prev+XorPC6", HistoryConfig{Geometry: g, PCMode: XorPC, PCBits: 6, Threads: ByLtid, AlwaysUpdate: true}},
		{"Gtid+Prev", HistoryConfig{Geometry: g, PCMode: NoPC, Threads: ByGtid}},
		{"Gtid+Prev+ModPC4", HistoryConfig{Geometry: g, PCMode: ModPC, PCBits: 4, Threads: ByGtid}},
		{"Gtid+Prev+XorPC5", HistoryConfig{Geometry: g, PCMode: XorPC, PCBits: 5, Threads: ByGtid, AlwaysUpdate: true}},
		{"Gtid+Prev+FullPC", HistoryConfig{Geometry: g, PCMode: FullPC, Threads: ByGtid, AlwaysUpdate: true}},
		{"Ltid+Prev+FullPC", HistoryConfig{Geometry: g, PCMode: FullPC, Threads: ByLtid}},
	}
	rng := rand.New(rand.NewSource(11))
	pcs := make([]uint32, 512)
	for i := range pcs {
		pcs[i] = rng.Uint32() & 0xffff
	}
	const threads = 1 << 10
	b, err := NewBounds(pcs, threads)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			flat, err := NewHistory(c.cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			sparse := newMapHistory(c.cfg)
			rng := rand.New(rand.NewSource(12))
			for i := 0; i < 5000; i++ {
				ltid := rng.Intn(32)
				ctx := laneCtx{
					PC:   pcs[rng.Intn(len(pcs))],
					Gtid: uint32(ltid + rng.Intn(threads-ltid)),
					Ltid: uint8(ltid),
					EA:   rng.Uint64(), EB: rng.Uint64(),
					Cin0: uint(rng.Intn(2)),
				}
				if pf, ps := predictOne(t, flat, ctx), sparse.Predict(ctx); pf != ps {
					t.Fatalf("op %d: flat table predicts %+v, map %+v", i, pf, ps)
				}
				actual := rng.Uint64()
				mis := rng.Intn(3) != 0
				updateOne(flat, ctx, actual, mis)
				sparse.Update(ctx, actual, mis)
			}
		})
	}
}
