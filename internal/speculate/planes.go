package speculate

import (
	"math/bits"

	"st2gpu/internal/bitmath"
)

// This file is the one carry layout of the package: a warp's boundary
// carries as bit planes, one uint32 per boundary with bit l for lane l —
// the CRF row of the paper (7 boundaries × 32 lanes = 224 bits). Every
// predictor table, the CRF and the judges of the batched evaluators keep
// and exchange carries in this form, so a warp predict, update or judge
// is a handful of word operations per boundary rather than a loop over
// 32 lanes.
//
// Packed lane values (one uint64 per active lane, bit b for boundary b,
// the j-th set bit of the active mask owning index j) meet the planes
// only at the edges: LanesToPlanes and PlanesToLanes transpose between
// the two forms with 8×8 bit-matrix transposes.

// MaxBoundaries is the most boundaries a plane set can hold: one per
// bit of a packed lane value but the top one.
const MaxBoundaries = 63

// transpose8 transposes the 8×8 bit matrix whose row i is byte i of x:
// bit j of byte i moves to bit i of byte j.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// LanesToPlanes transposes packed lane values into len(planes) planes:
// bit l of planes[b] is bit b of the value of lane l, the j-th set bit
// of active owning lanes[j]. Inactive lanes read zero. Bits of a value
// at or past len(planes) are dropped.
func LanesToPlanes(active uint32, lanes []uint64, planes []uint32) {
	for q := 0; q < len(planes); q += 8 {
		// Byte i of t[k] gathers bits q..q+7 of lane 8k+i; transposed,
		// byte r of t[k] holds boundary q+r of lanes 8k..8k+7.
		var t [4]uint64
		if active == ^uint32(0) {
			lanes = lanes[:32]
			for k := range t {
				t[k] = packByte8((*[8]uint64)(lanes[8*k:]), uint(q))
			}
		} else {
			j := 0
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				t[l>>3&3] |= (lanes[j] >> q & 0xFF) << (8 * (l & 7))
				j++
			}
		}
		for k := range t {
			t[k] = transpose8(t[k])
		}
		bytePlanes(&t, planes[q:min(q+8, len(planes))])
	}
}

// packByte8 packs byte q/8 (bits q..q+7) of eight lanes' words into one
// word, lane i at byte i.
func packByte8(s *[8]uint64, q uint) uint64 {
	return s[0]>>q&0xFF | s[1]>>q&0xFF<<8 | s[2]>>q&0xFF<<16 | s[3]>>q&0xFF<<24 |
		s[4]>>q&0xFF<<32 | s[5]>>q&0xFF<<40 | s[6]>>q&0xFF<<48 | s[7]>>q&0xFF<<56
}

// Byte and 16-bit lane masks of the byte transposes below.
const (
	evenBytes = 0x00FF00FF00FF00FF
	evenHalfs = 0x0000FFFF0000FFFF
)

// bytePlanes fills planes (at most 8) from four 8-lane blocks: plane r
// takes byte r of t[k] as its lanes 8k..8k+7. That is a 4×8 byte
// transpose, done in two rounds of 64-bit interleaves: bytes of t[0]
// and t[1] (and of t[2] and t[3]) pair into 16-bit lanes, then the
// pairs into 32-bit lanes, one plane each.
func bytePlanes(t *[4]uint64, planes []uint32) {
	abE := t[0]&evenBytes | t[1]&evenBytes<<8
	abO := t[0]>>8&evenBytes | t[1]>>8&evenBytes<<8
	cdE := t[2]&evenBytes | t[3]&evenBytes<<8
	cdO := t[2]>>8&evenBytes | t[3]>>8&evenBytes<<8
	e0 := abE&evenHalfs | cdE&evenHalfs<<16         // planes 0 and 4
	e1 := abE>>16&evenHalfs | cdE>>16&evenHalfs<<16 // planes 2 and 6
	o0 := abO&evenHalfs | cdO&evenHalfs<<16         // planes 1 and 5
	o1 := abO>>16&evenHalfs | cdO>>16&evenHalfs<<16 // planes 3 and 7
	all := [8]uint32{
		uint32(e0), uint32(o0), uint32(e1), uint32(o1),
		uint32(e0 >> 32), uint32(o0 >> 32), uint32(e1 >> 32), uint32(o1 >> 32),
	}
	for r := range planes {
		planes[r] = all[r]
	}
}

// planeBytes is bytePlanes' inverse: byte r of t[k] takes lanes
// 8k..8k+7 of planes[r], zero past len(planes) (at most 8).
func planeBytes(planes []uint32, t *[4]uint64) {
	var p [8]uint32
	for r, w := range planes {
		p[r] = w
	}
	e0 := uint64(p[0]) | uint64(p[4])<<32
	o0 := uint64(p[1]) | uint64(p[5])<<32
	e1 := uint64(p[2]) | uint64(p[6])<<32
	o1 := uint64(p[3]) | uint64(p[7])<<32
	abE := e0&evenHalfs | e1&evenHalfs<<16
	cdE := e0>>16&evenHalfs | e1>>16&evenHalfs<<16
	abO := o0&evenHalfs | o1&evenHalfs<<16
	cdO := o0>>16&evenHalfs | o1>>16&evenHalfs<<16
	t[0] = abE&evenBytes | abO&evenBytes<<8
	t[1] = abE>>8&evenBytes | abO>>8&evenBytes<<8
	t[2] = cdE&evenBytes | cdO&evenBytes<<8
	t[3] = cdE>>8&evenBytes | cdO>>8&evenBytes<<8
}

// PlanesToLanes is the inverse transpose: lanes[j], for the j-th set bit
// l of active, receives bit l of every plane, planes[b] landing at bit b.
func PlanesToLanes(active uint32, planes []uint32, lanes []uint64) {
	var dst []uint64
	if active == ^uint32(0) {
		dst = lanes[:32]
		clear(dst)
	} else {
		var dense [32]uint64
		dst = dense[:]
	}
	for q := 0; q < len(planes); q += 8 {
		var t [4]uint64
		planeBytes(planes[q:min(q+8, len(planes))], &t)
		for k, x := range t {
			unpackByte8((*[8]uint64)(dst[8*k:]), transpose8(x), uint(q))
		}
	}
	if active == ^uint32(0) {
		return
	}
	j := 0
	for m := active; m != 0; m &= m - 1 {
		lanes[j] = dst[bits.TrailingZeros32(m)]
		j++
	}
}

// unpackByte8 is packByte8's inverse: byte i of x lands at bits q..q+7
// of lane i's word.
func unpackByte8(d *[8]uint64, x uint64, q uint) {
	d[0] |= x & 0xFF << q
	d[1] |= x >> 8 & 0xFF << q
	d[2] |= x >> 16 & 0xFF << q
	d[3] |= x >> 24 & 0xFF << q
	d[4] |= x >> 32 & 0xFF << q
	d[5] |= x >> 40 & 0xFF << q
	d[6] |= x >> 48 & 0xFF << q
	d[7] |= x >> 56 << q
}

// sliceMSBs packs, for each boundary i, the most significant bit of
// slice i of x (bit (i+1)·SliceBits−1) into bit i.
func (g Geometry) sliceMSBs(x uint64) uint64 {
	if g.SliceBits == 8 {
		// The slice MSBs are the byte MSBs, which one multiply gathers.
		return bitmath.GatherMSB8(x) & g.BoundaryMask()
	}
	var packed uint64
	for i := uint(0); i < g.Boundaries(); i++ {
		packed |= (x >> ((i+1)*g.SliceBits - 1) & 1) << i
	}
	return packed
}

// PeekPlanes computes Peek's static planes for every active lane — bit
// l of static[b] is set when lane l's boundary b resolves statically,
// where the operands' slice MSBs agree — and, when values is not nil,
// the value each static boundary resolves to (the MSBs' AND). It fills
// len(static) planes (and len(values)); planes past the geometry's
// boundaries are zero.
func PeekPlanes(g Geometry, active uint32, ea, eb []uint64, static, values []uint32) {
	var s [32]uint64
	lanes := s[:len(ea)]
	for j := range lanes {
		lanes[j] = g.sliceMSBs(^(ea[j] ^ eb[j]))
	}
	LanesToPlanes(active, lanes, static)
	if values == nil {
		return
	}
	for j := range lanes {
		lanes[j] = g.sliceMSBs(ea[j] & eb[j])
	}
	LanesToPlanes(active, lanes, values)
}

// OverlayPeek applies the Peek filter to a dynamic prediction in plane
// form: boundaries Peek resolves take their known values and join the
// static set.
func OverlayPeek(pred, static, pkStatic, pkValues []uint32) {
	pkStatic, pkValues = pkStatic[:len(pred)], pkValues[:len(pred)]
	static = static[:len(pred)]
	for b := range pred {
		pred[b] = pred[b]&^pkStatic[b] | pkValues[b]
		static[b] |= pkStatic[b]
	}
}

// SplitPeek strips a Peek wrapper: it returns the inner predictor and
// true when p is Peek-filtered, or p itself and false otherwise. Batched
// evaluators use it to compute one record's Peek planes once for every
// design of a batch.
func SplitPeek(p Predictor) (Predictor, bool) {
	if pk, ok := p.(*peekPredictor); ok {
		return pk.inner, true
	}
	return p, false
}

// JudgeMiss scores one warp against one design's predictions with the
// miss-rate semantics (Figure 5): a lane mispredicts when any judged,
// non-static boundary was speculated wrong. The judged boundaries are
// actual's planes; pred and static must hold at least as many. It
// returns the mispredicting lanes.
func JudgeMiss(active uint32, pred, static, actual []uint32) (mispred uint32) {
	pred, static = pred[:len(actual)], static[:len(actual)]
	for b, a := range actual {
		mispred |= (pred[b] ^ a) &^ static[b]
	}
	return mispred & active
}

// JudgeCorr scores one warp against one design's predictions with the
// per-boundary correlation semantics (Figure 3): how many of the active
// lanes' judged boundary bits (actual's planes) matched the prediction.
func JudgeCorr(active uint32, pred, actual []uint32) (matched uint64) {
	pred = pred[:len(actual)]
	matched = uint64(len(actual)) * uint64(bits.OnesCount32(active))
	for b, a := range actual {
		matched -= uint64(bits.OnesCount32((pred[b] ^ a) & active))
	}
	return matched
}

// mergePlanes writes act into row for the lanes of m: row[b] =
// row[b]&^m | act[b]&m. Planes of row past len(act) take zero.
func mergePlanes(row, act []uint32, m uint32) {
	act = act[:min(len(act), len(row))]
	for b, a := range act {
		row[b] = row[b]&^m | a&m
	}
	for b := len(act); b < len(row); b++ {
		row[b] &^= m
	}
}

// broadcastLane sets every lane of each plane of row to lane l's bit of
// the matching plane of act: the state a shared entry is left in when
// lane l is its last writer. Planes of row past len(act) take zero.
func broadcastLane(row, act []uint32, l int) {
	act = act[:min(len(act), len(row))]
	for b, a := range act {
		row[b] = uint32(int32(a<<(31-l)) >> 31)
	}
	clear(row[len(act):])
}

// majorityPlane returns the lanes whose first nb planes of act (planes
// past len(act) read zero) hold a strict majority of ones: 2·count ≥
// nb+1. A bit-sliced counter, started at 2^k − threshold with k =
// bits.Len(nb), adds the planes one at a time, so its bit k is set
// exactly when the count reaches the threshold. Exact for nb ≤ 63.
func majorityPlane(act []uint32, nb uint) uint32 {
	k := uint(bits.Len(nb))
	start := uint(1)<<k - (nb+2)/2
	var c [8]uint32 // bit-sliced counter, bit i in c[i]
	for i := uint(0); i <= k; i++ {
		c[i] = -uint32(start >> i & 1)
	}
	for _, x := range act[:min(uint(len(act)), nb)] {
		for i := uint(0); i <= k && x != 0; i++ {
			c[i], x = c[i]^x, c[i]&x
		}
	}
	return c[k]
}
