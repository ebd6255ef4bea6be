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

// TestWarpDispatchMatchesScalar drives two instances of every design —
// one through per-lane Predict/Update, one through the batched
// PredictWarp/UpdateWarp dispatch — over the same random warp stream and
// requires identical predictions at every step. The update stream mirrors
// the DSE meter: predictions from pre-update state, kind-masked actuals,
// mispredicting lanes written back.
func TestWarpDispatchMatchesScalar(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	mask := bitmath.Mask(3) // judge on a narrow kind mask to exercise masking
	for _, name := range batchTestDesigns {
		t.Run(name, func(t *testing.T) {
			scalar, err := NewDesign(name, g, testBounds(t))
			if err != nil {
				t.Fatal(err)
			}
			batched, err := NewDesign(name, g, testBounds(t))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			var ea, eb, carries, static, actual [32]uint64
			for step, w := range randomWarps(rng, 200) {
				n := 0
				for m := w.active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					ea[n], eb[n] = w.ea[l], w.eb[l]
					n++
				}
				AsWarp(batched).PredictWarp(w.pc, w.base, w.active, w.cin, ea[:n], eb[:n], carries[:n], static[:n])

				var mispred uint32
				j := 0
				for m := w.active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					ctx := Context{PC: w.pc, Gtid: w.base + uint32(l), Ltid: uint8(l),
						EA: w.ea[l], EB: w.eb[l], Cin0: uint(w.cin >> l & 1)}
					want := scalar.Predict(ctx)
					if want.Carries != carries[j] || want.Static != static[j] {
						t.Fatalf("step %d lane %d: batched Prediction{%#x,%#x} != scalar Prediction{%#x,%#x}",
							step, l, carries[j], static[j], want.Carries, want.Static)
					}
					actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, 64, 8) & mask
					if (want.Carries^actual[j])&mask&^want.Static != 0 {
						mispred |= 1 << l
					}
					j++
				}

				j = 0
				for m := w.active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					ctx := Context{PC: w.pc, Gtid: w.base + uint32(l), Ltid: uint8(l),
						EA: w.ea[l], EB: w.eb[l], Cin0: uint(w.cin >> l & 1)}
					scalar.Update(ctx, actual[j], mispred&(1<<l) != 0)
					j++
				}
				AsWarp(batched).UpdateWarp(w.pc, w.base, w.active, mispred, w.cin, ea[:n], eb[:n], actual[:n])
			}
		})
	}
}

// TestWarpDispatchAlwaysUpdate pins the CorrMeter-style flow (history
// written for every active lane) onto the batched path for the
// AlwaysUpdate designs, where a missed write would silently diverge.
func TestWarpDispatchAlwaysUpdate(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	for _, name := range []string{"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC"} {
		t.Run(name, func(t *testing.T) {
			scalar, _ := NewDesign(name, g, testBounds(t))
			batched, _ := NewDesign(name, g, testBounds(t))
			rng := rand.New(rand.NewSource(7))
			var ea, eb, carries, static, actual [32]uint64
			for step, w := range randomWarps(rng, 120) {
				n := 0
				for m := w.active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					ea[n], eb[n] = w.ea[l], w.eb[l]
					n++
				}
				AsWarp(batched).PredictWarp(w.pc, w.base, w.active, w.cin, ea[:n], eb[:n], carries[:n], static[:n])
				j := 0
				for m := w.active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					ctx := Context{PC: w.pc, Gtid: w.base + uint32(l), Ltid: uint8(l),
						EA: w.ea[l], EB: w.eb[l], Cin0: uint(w.cin >> l & 1)}
					want := scalar.Predict(ctx)
					if want.Carries != carries[j] || want.Static != static[j] {
						t.Fatalf("step %d lane %d: batched prediction diverged", step, l)
					}
					actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, 64, 8)
					scalar.Update(ctx, actual[j], true)
					j++
				}
				// CorrMeter semantics: every active lane updates.
				AsWarp(batched).UpdateWarp(w.pc, w.base, w.active, w.active, w.cin, ea[:n], eb[:n], actual[:n])
			}
		})
	}
}

// FuzzDesignWarp drives every registry design through a random warp
// stream within random bounds (a sparse PC set, so folded PCs intern to
// few rows, and up to 16 warps of threads) on the batched path, and
// holds every prediction to the design's map-backed oracle on the
// per-lane path. Mispredicting lanes write back, as in the DSE meter.
func FuzzDesignWarp(f *testing.F) {
	for d := range batchTestDesigns {
		f.Add(uint8(d), int64(d), uint16(63), uint8(7))
	}
	f.Add(uint8(0), int64(1), uint16(0), uint8(0))
	f.Add(uint8(13), int64(2), uint16(0xFFFF), uint8(15))
	g := Geometry{Width: 64, SliceBits: 8}
	f.Fuzz(func(t *testing.T, design uint8, seed int64, pcSpan uint16, warps uint8) {
		name := batchTestDesigns[int(design)%len(batchTestDesigns)]
		rng := rand.New(rand.NewSource(seed))
		pcs := make([]uint32, 1+rng.Intn(16))
		for i := range pcs {
			pcs[i] = uint32(rng.Intn(int(pcSpan) + 1))
		}
		nwarps := 1 + int(warps%16)
		b, err := NewBounds(pcs, uint64(32*nwarps))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewDesign(name, g, b)
		if err != nil {
			t.Fatal(err)
		}
		o := mapOracle(t, name, g, b)
		mask := bitmath.Mask(3 + uint(seed&3))
		var ea, eb, carries, static, actual [32]uint64
		for step := 0; step < 200; step++ {
			pc, base := pcs[rng.Intn(len(pcs))], uint32(32*rng.Intn(nwarps))
			active := rng.Uint32() | 1<<uint(rng.Intn(32))
			cin := rng.Uint32() & active
			n := 0
			for m := active; m != 0; m &= m - 1 {
				ea[n], eb[n] = rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64))
				n++
			}
			AsWarp(p).PredictWarp(pc, base, active, cin, ea[:n], eb[:n], carries[:n], static[:n])
			var mispred uint32
			ctxs := make([]Context, 0, n)
			j := 0
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				ctx := Context{PC: pc, Gtid: base + uint32(l), Ltid: uint8(l),
					EA: ea[j], EB: eb[j], Cin0: uint(cin >> l & 1)}
				if want := o.Predict(ctx); want.Carries != carries[j] || want.Static != static[j] {
					t.Fatalf("%s step %d lane %d: Prediction{%#x,%#x}, oracle Prediction{%#x,%#x}",
						name, step, l, carries[j], static[j], want.Carries, want.Static)
				}
				actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, 64, 8) & mask
				if (carries[j]^actual[j])&mask&^static[j] != 0 {
					mispred |= 1 << l
				}
				ctxs = append(ctxs, ctx)
				j++
			}
			for j, ctx := range ctxs {
				o.Update(ctx, actual[j], mispred&(1<<ctx.Ltid) != 0)
			}
			AsWarp(p).UpdateWarp(pc, base, active, mispred, cin, ea[:n], eb[:n], actual[:n])
		}
	})
}
