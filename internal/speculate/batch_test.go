package speculate

import (
	"math/bits"
	"math/rand"
	"testing"

	"st2gpu/internal/bitmath"
)

// batchTestDesigns covers every design point reachable from the
// experiment harnesses: the Figure 5 space, the Figure 3 analysis
// points, the ablation/related-work extras, and the oracle.
var batchTestDesigns = append(append([]string{}, DesignSpace...),
	"Ltid+Prev+XorPC4+Peek", "Ltid+Prev2+ModPC4+Peek",
	"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC",
	"CASA", "VLSA", "oracle",
)

type warpCase struct {
	pc, base    uint32
	active, cin uint32
	ea, eb      [32]uint64 // dense per-lane, only active lanes consulted
}

// randomWarps draws n warps within testBounds.
func randomWarps(rng *rand.Rand, n int) []warpCase {
	out := make([]warpCase, n)
	for i := range out {
		w := &out[i]
		w.pc = uint32(rng.Intn(testPCs))
		w.base = uint32(rng.Intn(testThreads/32)) * 32
		w.active = rng.Uint32()
		if w.active == 0 {
			w.active = 1 << uint(rng.Intn(32))
		}
		w.cin = rng.Uint32() & w.active
		for l := 0; l < 32; l++ {
			w.ea[l] = rng.Uint64() >> uint(rng.Intn(64))
			w.eb[l] = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	return out
}

// TestWarpDispatchMatchesScalar drives every design through its plane
// path and its per-lane oracle (mapOracle) over the same random warp
// stream and requires identical predictions at every step. The update
// stream mirrors the DSE meter: predictions from pre-update state,
// actuals judged on a narrow kind mask, mispredicting lanes written
// back.
func TestWarpDispatchMatchesScalar(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	const nj = 3 // judge on a narrow kind mask to exercise masking
	mask := bitmath.Mask(nj)
	for _, name := range batchTestDesigns {
		t.Run(name, func(t *testing.T) {
			scalar := mapOracle(t, name, g, testBounds(t))
			batched, err := NewDesign(name, g, testBounds(t))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for step, w := range randomWarps(rng, 200) {
				ea, eb := w.packed()
				carries, static := predictLanes(t, batched, 7, 7, w.pc, w.base, w.active, w.cin, ea, eb)

				var mispred uint32
				actual := make([]uint64, len(ea))
				ctxs := w.contexts(ea, eb)
				for j, ctx := range ctxs {
					want := scalar.Predict(ctx)
					if want.Carries != carries[j] || want.Static != static[j] {
						t.Fatalf("step %d lane %d: planes predict {%#x,%#x}, oracle {%#x,%#x}",
							step, ctx.Ltid, carries[j], static[j], want.Carries, want.Static)
					}
					actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, 64, 8) & mask
					if (want.Carries^actual[j])&mask&^want.Static != 0 {
						mispred |= 1 << ctx.Ltid
					}
				}
				for j, ctx := range ctxs {
					scalar.Update(ctx, actual[j], mispred&(1<<ctx.Ltid) != 0)
				}
				updateLanes(batched, nj, w.pc, w.base, w.active, mispred, w.cin, ea, eb, actual)
			}
		})
	}
}

// TestWarpDispatchAlwaysUpdate pins the CorrMeter-style flow (history
// written for every active lane) onto the plane path for the
// AlwaysUpdate designs, where a missed write would silently diverge
// from the per-lane oracle.
func TestWarpDispatchAlwaysUpdate(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	for _, name := range []string{"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC"} {
		t.Run(name, func(t *testing.T) {
			scalar := mapOracle(t, name, g, testBounds(t))
			batched, err := NewDesign(name, g, testBounds(t))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for step, w := range randomWarps(rng, 120) {
				ea, eb := w.packed()
				carries, static := predictLanes(t, batched, 7, 7, w.pc, w.base, w.active, w.cin, ea, eb)
				actual := make([]uint64, len(ea))
				for j, ctx := range w.contexts(ea, eb) {
					want := scalar.Predict(ctx)
					if want.Carries != carries[j] || want.Static != static[j] {
						t.Fatalf("step %d lane %d: batched prediction diverged", step, ctx.Ltid)
					}
					actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, 64, 8)
					scalar.Update(ctx, actual[j], true)
				}
				// CorrMeter semantics: every active lane updates.
				updateLanes(batched, 7, w.pc, w.base, w.active, w.active, w.cin, ea, eb, actual)
			}
		})
	}
}

// packed returns the active lanes' operands in ascending lane order.
func (w *warpCase) packed() (ea, eb []uint64) {
	for m := w.active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		ea, eb = append(ea, w.ea[l]), append(eb, w.eb[l])
	}
	return ea, eb
}

// contexts returns the per-lane view of every active lane.
func (w *warpCase) contexts(ea, eb []uint64) []laneCtx {
	ctxs := make([]laneCtx, 0, len(ea))
	j := 0
	for m := w.active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		ctxs = append(ctxs, laneCtx{PC: w.pc, Gtid: w.base + uint32(l), Ltid: uint8(l),
			EA: ea[j], EB: eb[j], Cin0: uint(w.cin >> l & 1)})
		j++
	}
	return ctxs
}

// FuzzDesignWarp drives every registry design through a random warp
// stream within random bounds (a sparse PC set, so folded PCs intern to
// few rows, and up to 16 warps of threads) on the batched plane path,
// and holds every prediction to the design's per-lane oracle
// (mapOracle). The geometry is drawn from slice widths {2, 4, 8, 16}
// and unit widths {24, 32, 52, 64}, a warp's lane 0 may be any thread of
// the bounds (so a Gtid row is read across two words), and the caller's
// plane count, the judged boundaries and the actual planes vary around
// the geometry's boundary count. Mispredicting lanes write back, as in
// the DSE meter.
func FuzzDesignWarp(f *testing.F) {
	for d := range batchTestDesigns {
		f.Add(uint8(d), int64(d), uint16(63), uint8(7))
	}
	f.Add(uint8(0), int64(1), uint16(0), uint8(0))
	f.Add(uint8(13), int64(2), uint16(0xFFFF), uint8(15))
	f.Fuzz(func(t *testing.T, design uint8, seed int64, pcSpan uint16, warps uint8) {
		name := batchTestDesigns[int(design)%len(batchTestDesigns)]
		rng := rand.New(rand.NewSource(seed))
		g := Geometry{
			Width:     []uint{24, 32, 52, 64}[rng.Intn(4)],
			SliceBits: []uint{2, 4, 8, 16}[rng.Intn(4)],
		}
		nb := int(g.Boundaries())
		pcs := make([]uint32, 1+rng.Intn(16))
		for i := range pcs {
			pcs[i] = uint32(rng.Intn(int(pcSpan) + 1))
		}
		threads := 32 * (1 + int(warps%16))
		b, err := NewBounds(pcs, uint64(threads))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewDesign(name, g, b)
		if err != nil {
			t.Fatal(err)
		}
		o := mapOracle(t, name, g, b)
		for step := 0; step < 200; step++ {
			pc, base := pcs[rng.Intn(len(pcs))], uint32(rng.Intn(threads))
			// Lanes past the bounds' last thread stay inactive.
			active := (rng.Uint32() | 1<<uint(rng.Intn(32))) & uint32(bitmath.Mask(uint(threads)-uint(base)))
			active |= 1
			cin := rng.Uint32() & active
			w := warpCase{pc: pc, base: base, active: active, cin: cin}
			for l := range w.ea {
				w.ea[l], w.eb[l] = rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64))
			}
			ea, eb := w.packed()
			// Judge nj boundaries from np prediction planes and hand
			// back na actual planes (the rest read zero).
			nj := 1 + rng.Intn(nb)
			np := nj + rng.Intn(nb+1-nj)
			na := nj + rng.Intn(nb+1-nj)
			mask := bitmath.Mask(uint(nj))
			carries, static := predictLanes(t, p, nb, np, pc, base, active, cin, ea, eb)
			var mispred uint32
			ctxs := w.contexts(ea, eb)
			actual := make([]uint64, len(ea))
			for j, ctx := range ctxs {
				want := o.Predict(ctx)
				if seen := bitmath.Mask(uint(np)); want.Carries&seen != carries[j] || want.Static&seen != static[j] {
					t.Fatalf("%s %+v step %d lane %d: planes predict {%#x,%#x}, oracle {%#x,%#x}",
						name, g, step, ctx.Ltid, carries[j], static[j], want.Carries, want.Static)
				}
				actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, g.Width, g.SliceBits) & bitmath.Mask(uint(na))
				if rng.Intn(4) == 0 {
					actual[j] &= mask
				}
				if (carries[j]^actual[j])&mask&^static[j] != 0 {
					mispred |= 1 << ctx.Ltid
				}
			}
			for j, ctx := range ctxs {
				o.Update(ctx, actual[j], mispred&(1<<ctx.Ltid) != 0)
			}
			updateLanes(p, na, pc, base, active, mispred, cin, ea, eb, actual)
		}
	})
}

// TestHistoryWarpThreadModes drives History and History2 in every
// thread mode, mispredict-only and always-updating, through the plane
// path over warps whose lane 0 is any thread, and holds every
// prediction to the map-backed oracle. The registry has no shared or
// Gtid depth-2 design, so FuzzDesignWarp alone would not reach those
// rows' warp updates.
func TestHistoryWarpThreadModes(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	for _, threads := range []ThreadMode{SharedThreads, ByLtid, ByGtid} {
		for _, always := range []bool{false, true} {
			cfg := HistoryConfig{Geometry: g, PCMode: ModPC, PCBits: 2, Threads: threads, AlwaysUpdate: always}
			h, err := NewHistory(cfg, testBounds(t))
			if err != nil {
				t.Fatal(err)
			}
			h2, err := NewHistory2(cfg, testBounds(t))
			if err != nil {
				t.Fatal(err)
			}
			preds := []Predictor{h, h2}
			oracles := []laneOracle{newMapHistory(cfg), &mapHistory2{cfg: cfg, last: make(map[uint64]uint64), prev2: make(map[uint64]uint64)}}
			rng := rand.New(rand.NewSource(int64(threads)*2 + 1))
			for step := 0; step < 400; step++ {
				w := warpCase{pc: uint32(rng.Intn(testPCs)), base: uint32(rng.Intn(testThreads - 31))}
				w.active = rng.Uint32() | 1<<uint(rng.Intn(32))
				w.cin = rng.Uint32() & w.active
				for l := range w.ea {
					w.ea[l], w.eb[l] = rng.Uint64(), rng.Uint64()
				}
				ea, eb := w.packed()
				ctxs := w.contexts(ea, eb)
				for i, p := range preds {
					carries, _ := predictLanes(t, p, 7, 7, w.pc, w.base, w.active, w.cin, ea, eb)
					actual := make([]uint64, len(ea))
					for j, ctx := range ctxs {
						if want := oracles[i].Predict(ctx).Carries; carries[j] != want {
							t.Fatalf("depth %d %v step %d lane %d: predicted %#x, oracle %#x", i+1, threads, step, ctx.Ltid, carries[j], want)
						}
						actual[j] = rng.Uint64() & g.BoundaryMask()
					}
					mispred := rng.Uint32() & w.active
					for j, ctx := range ctxs {
						oracles[i].Update(ctx, actual[j], mispred&(1<<ctx.Ltid) != 0)
					}
					updateLanes(p, 7, w.pc, w.base, w.active, mispred, w.cin, ea, eb, actual)
				}
			}
		}
	}
}
