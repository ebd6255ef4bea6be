package speculate

// VaLHALLA models the prior state-of-the-art variable-latency adder the
// paper compares against (Gok & Hardavellas, GLSVLSI 2017). Its defining
// properties, per Section IV-B:
//
//   - it predicts a single 1-bit carry for the entire adder and broadcasts
//     it to every slice;
//   - the prediction is history-aware and local to one adder (no sharing
//     across threads, no PC disambiguation);
//   - it speculates on *every* operation (no Peek-style static filtering).
//
// We model the per-adder history as one bit per hardware thread context
// (keyed by global thread id — the optimistic reading, consistent with the
// paper's note that the non-final design points ignore implementation
// constraints), updated to the majority of the boundary carries the
// previous operation actually produced ("history aware local-carry").
//
// The table is one bit per thread of the bounds, a bitset allocated up
// front, so a warp reads and writes its lanes' bits as one 32-lane word.
type VaLHALLA struct {
	g       Geometry
	threads uint64
	bits    []uint32 // bit g%32 of word g/32: thread g's broadcast bit
}

// NewVaLHALLA builds the baseline predictor for a stream within b.
func NewVaLHALLA(g Geometry, b Bounds) (*VaLHALLA, error) {
	if err := checkTable("VaLHALLA thread table", threadWords(b.threads), 4); err != nil {
		return nil, err
	}
	return &VaLHALLA{g: g, threads: b.threads, bits: make([]uint32, threadWords(b.threads))}, nil
}

// PredictWarp implements Predictor: the warp's word of the bitset,
// broadcast to every boundary plane.
func (v *VaLHALLA) PredictWarp(_, gtidBase, active, _ uint32, _, _ []uint64, pred, static []uint32) {
	checkThreads(gtidBase, active, v.threads)
	w, sh := gtidBase/32, gtidBase%32
	plane := uint32((uint64(v.bits[w]) | uint64(v.bits[w+1])<<32) >> sh)
	for b := range pred {
		pred[b] = plane
	}
	clear(static)
}

// UpdateWarp implements Predictor: every active lane writes its
// majority bit (VaLHALLA ignores the mispredict mask), one bit-sliced
// count over the planes for the whole warp.
func (v *VaLHALLA) UpdateWarp(_, gtidBase, active, _, _ uint32, _, _ []uint64, actual []uint32) {
	checkThreads(gtidBase, active, v.threads)
	maj := uint64(majorityPlane(actual, v.g.Boundaries()))
	w, sh := gtidBase/32, gtidBase%32
	m := uint64(active) << sh
	x := (uint64(v.bits[w])|uint64(v.bits[w+1])<<32)&^m | maj<<sh&m
	v.bits[w], v.bits[w+1] = uint32(x), uint32(x>>32)
}
