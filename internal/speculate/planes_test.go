package speculate

import (
	"math/bits"
	"math/rand"
	"testing"

	"st2gpu/internal/bitmath"
)

// This file keeps the per-lane forms every plane operation replaced —
// one packed uint64 per active lane, the j-th set bit of the active mask
// owning index j — as the oracles the planes are held to, and the naive
// bit-at-a-time transposes the tests move between the two forms with.

// peekBitsWarp computes peekBitsRef for every active lane.
func peekBitsWarp(g Geometry, ea, eb, static, values []uint64) {
	for j := range ea {
		static[j], values[j] = peekBitsRef(g, ea[j], eb[j])
	}
}

// overlayPeek applies the Peek filter to each lane's dynamic prediction,
// exactly as peekOracle composes it.
func overlayPeek(carries, static, pkStatic, pkValues []uint64) {
	for j := range carries {
		carries[j] = (carries[j] &^ pkStatic[j]) | pkValues[j]
		static[j] |= pkStatic[j]
	}
}

// judgeMissWarp returns the lanes that mispredicted a non-static
// boundary under mask, and how many there are.
func judgeMissWarp(active uint32, mask uint64, carries, static, actual []uint64) (mispred uint32, missed uint64) {
	j := 0
	for m := active; m != 0; m &= m - 1 {
		if (carries[j]^actual[j])&mask&^static[j] != 0 {
			mispred |= 1 << bits.TrailingZeros32(m)
			missed++
		}
		j++
	}
	return mispred, missed
}

// judgeCorrWarp counts the boundary bits, over nb boundaries per lane,
// that matched the true carries.
func judgeCorrWarp(nb uint, mask uint64, carries, actual []uint64) (matched uint64) {
	for j := range actual {
		matched += uint64(nb) - uint64(bits.OnesCount64((carries[j]^actual[j])&mask))
	}
	return matched
}

// naivePlanes transposes packed lane values into nb planes one bit at a
// time.
func naivePlanes(active uint32, lanes []uint64, nb int) []uint32 {
	planes := make([]uint32, nb)
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		for b := range planes {
			planes[b] |= uint32(lanes[j]>>b&1) << l
		}
		j++
	}
	return planes
}

// naiveLanes is naivePlanes' inverse: each active lane's bits of the
// planes, packed.
func naiveLanes(active uint32, planes []uint32) []uint64 {
	lanes := make([]uint64, 0, 32)
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		var v uint64
		for b, p := range planes {
			v |= uint64(p>>l&1) << b
		}
		lanes = append(lanes, v)
	}
	return lanes
}

// predictLanes runs p's PredictWarp with np planes and returns each
// active lane's packed prediction. It fails when a plane at or past the
// geometry's nb boundaries is not zero.
func predictLanes(t testing.TB, p Predictor, nb, np int, pc, base, active, cin uint32, ea, eb []uint64) (carries, static []uint64) {
	t.Helper()
	pred, st := make([]uint32, np), make([]uint32, np)
	for b := range pred {
		pred[b], st[b] = 0xDEADBEEF, 0xDEADBEEF // stale scratch must be overwritten
	}
	p.PredictWarp(pc, base, active, cin, ea, eb, pred, st)
	for b := nb; b < np; b++ {
		if (pred[b]|st[b])&active != 0 {
			t.Fatalf("plane %d past the %d boundaries: pred %#x static %#x", b, nb, pred[b], st[b])
		}
	}
	return naiveLanes(active, pred), naiveLanes(active, st)
}

// updateLanes delivers packed lane actuals to p's UpdateWarp as planes,
// with inactive lanes' bits set to show they are ignored.
func updateLanes(p Predictor, nb int, pc, base, active, mispred, cin uint32, ea, eb, actual []uint64) {
	planes := naivePlanes(active, actual, nb)
	for b := range planes {
		planes[b] |= ^active
	}
	p.UpdateWarp(pc, base, active, mispred, cin, ea, eb, planes)
}

// predictOne runs p's PredictWarp, over g64's 7 boundaries, on a warp
// whose only active lane is ctx's: lane ctx.Ltid of the warp whose lane
// 0 is thread ctx.Gtid−ctx.Ltid.
func predictOne(t testing.TB, p Predictor, ctx laneCtx) lanePred {
	t.Helper()
	carries, static := predictLanes(t, p, 7, 7, ctx.PC, ctx.Gtid-uint32(ctx.Ltid), 1<<ctx.Ltid,
		uint32(ctx.Cin0)<<ctx.Ltid, []uint64{ctx.EA}, []uint64{ctx.EB})
	return lanePred{Carries: carries[0], Static: static[0]}
}

// updateOne delivers one lane's actual carries to p's UpdateWarp, on the
// warp predictOne runs.
func updateOne(p Predictor, ctx laneCtx, actual uint64, mispredicted bool) {
	var mispred uint32
	if mispredicted {
		mispred = 1 << ctx.Ltid
	}
	updateLanes(p, 7, ctx.PC, ctx.Gtid-uint32(ctx.Ltid), 1<<ctx.Ltid, mispred,
		uint32(ctx.Cin0)<<ctx.Ltid, []uint64{ctx.EA}, []uint64{ctx.EB}, []uint64{actual})
}

// randomLanes draws n packed values of nb bits.
func randomLanes(rng *rand.Rand, n, nb int) []uint64 {
	lanes := make([]uint64, n)
	for j := range lanes {
		lanes[j] = rng.Uint64() & bitmath.Mask(uint(nb))
	}
	return lanes
}

func TestTranspose8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := rng.Uint64()
		var want uint64
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				want |= (x >> (8*r + c) & 1) << (8*c + r)
			}
		}
		if got := transpose8(x); got != want {
			t.Fatalf("transpose8(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

// FuzzPlanes holds every plane operation to its per-lane oracle for a
// random active mask and boundary count nb from 1 to 63: both
// transposes, the Peek planes of a random geometry, the overlay, both
// judges, the masked and the shared (last-writer) updates, and
// VaLHALLA's majority count.
func FuzzPlanes(f *testing.F) {
	for _, nb := range []uint8{1, 2, 6, 7, 8, 9, 15, 16, 17, 31, 62, 63} {
		f.Add(int64(nb), nb, ^uint32(0))
		f.Add(int64(nb)+100, nb, uint32(0x80000001))
	}
	f.Add(int64(7), uint8(7), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, nbB uint8, active uint32) {
		nb := 1 + int(nbB)%MaxBoundaries
		rng := rand.New(rand.NewSource(seed))
		n := bits.OnesCount32(active)

		// Transposes, both ways, against the bit-at-a-time forms. Bits
		// past nb must drop, and inactive lanes must read zero.
		wide := make([]uint64, n)
		for j := range wide {
			wide[j] = rng.Uint64()
		}
		planes := make([]uint32, nb)
		LanesToPlanes(active, wide, planes)
		want := naivePlanes(active, wide, nb)
		for b := range planes {
			if planes[b] != want[b] {
				t.Fatalf("LanesToPlanes plane %d = %#x, want %#x", b, planes[b], want[b])
			}
		}
		back := make([]uint64, n)
		PlanesToLanes(active, planes, back)
		for j, v := range naiveLanes(active, planes) {
			if back[j] != v || v != wide[j]&bitmath.Mask(uint(nb)) {
				t.Fatalf("PlanesToLanes lane %d = %#x, naive %#x, source %#x", j, back[j], v, wide[j])
			}
		}

		// Peek planes of a random geometry, asked for nb planes.
		width := uint(2 + rng.Intn(63))
		g := Geometry{Width: width, SliceBits: uint(1 + rng.Intn(int(width)-1))}
		ea, eb := randomLanes(rng, n, 64), randomLanes(rng, n, 64)
		pkS, pkV := make([]uint64, n), make([]uint64, n)
		peekBitsWarp(g, ea, eb, pkS, pkV)
		static, values := make([]uint32, nb), make([]uint32, nb)
		PeekPlanes(g, active, ea, eb, static, values)
		wantS, wantV := naivePlanes(active, pkS, nb), naivePlanes(active, pkV, nb)
		onlyStatic := make([]uint32, nb)
		PeekPlanes(g, active, ea, eb, onlyStatic, nil)
		for b := 0; b < nb; b++ {
			if static[b] != wantS[b] || values[b] != wantV[b] || onlyStatic[b] != wantS[b] {
				t.Fatalf("%+v: PeekPlanes plane %d = (%#x, %#x, %#x), want (%#x, %#x)",
					g, b, static[b], values[b], onlyStatic[b], wantS[b], wantV[b])
			}
		}

		// The overlay.
		carries, dynStatic := randomLanes(rng, n, nb), randomLanes(rng, n, nb)
		for j := range pkS {
			pkS[j] &= bitmath.Mask(uint(nb))
			pkV[j] &= pkS[j]
		}
		pred, st := naivePlanes(active, carries, nb), naivePlanes(active, dynStatic, nb)
		OverlayPeek(pred, st, naivePlanes(active, pkS, nb), naivePlanes(active, pkV, nb))
		overlayPeek(carries, dynStatic, pkS, pkV)
		for j, v := range naiveLanes(active, pred) {
			if s := naiveLanes(active, st)[j]; v != carries[j] || s != dynStatic[j] {
				t.Fatalf("OverlayPeek lane %d = (%#x, %#x), want (%#x, %#x)", j, v, s, carries[j], dynStatic[j])
			}
		}

		// Both judges over the first nj boundaries.
		nj := 1 + rng.Intn(nb)
		mask := bitmath.Mask(uint(nj))
		actual := randomLanes(rng, n, nb)
		for j := range carries {
			if rng.Intn(2) == 0 {
				carries[j] = actual[j] ^ 1<<rng.Intn(nb) // one flipped boundary
			}
		}
		pred, st = naivePlanes(active, carries, nb), naivePlanes(active, dynStatic, nb)
		act := naivePlanes(active, actual, nb)
		wantMis, wantMissed := judgeMissWarp(active, mask, carries, dynStatic, actual)
		if got := JudgeMiss(active, pred, st, act[:nj]); got != wantMis || uint64(bits.OnesCount32(got)) != wantMissed {
			t.Fatalf("JudgeMiss = %#x, want %#x (%d lanes)", got, wantMis, wantMissed)
		}
		if got, want := JudgeCorr(active, pred, act[:nj]), judgeCorrWarp(uint(nj), mask, carries, actual); got != want {
			t.Fatalf("JudgeCorr = %d, want %d", got, want)
		}

		// Masked and shared updates of a row, from a shorter act.
		row := make([]uint32, nb)
		for b := range row {
			row[b] = rng.Uint32()
		}
		before := naiveLanes(^uint32(0), row)
		m := rng.Uint32() & active
		merged := append([]uint32(nil), row...)
		mergePlanes(merged, act[:nj], m)
		actDense := naiveLanes(^uint32(0), act[:nj])
		for l, v := range naiveLanes(^uint32(0), merged) {
			want := before[l]
			if m>>l&1 != 0 {
				want = actDense[l]
			}
			if v != want {
				t.Fatalf("mergePlanes lane %d = %#x, want %#x", l, v, want)
			}
		}
		if m != 0 {
			shared := append([]uint32(nil), row...)
			last := bits.Len32(m) - 1
			broadcastLane(shared, act[:nj], last)
			for l, v := range naiveLanes(^uint32(0), shared) {
				if v != actDense[last] {
					t.Fatalf("broadcastLane lane %d = %#x, want lane %d's %#x", l, v, last, actDense[last])
				}
			}
		}

		// VaLHALLA's majority over nb boundaries, from nj planes.
		maj := majorityPlane(act[:nj], uint(nb))
		for l, v := range actDense {
			want := 2*bits.OnesCount64(v) >= nb+1
			if got := maj>>l&1 != 0; got != want {
				t.Fatalf("majorityPlane lane %d of %#x over %d boundaries = %v, want %v", l, v, nb, got, want)
			}
		}
	})
}
