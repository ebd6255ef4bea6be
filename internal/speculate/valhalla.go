package speculate

import "math/bits"

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
// The table is one byte per thread of the bounds, allocated up front.
type VaLHALLA struct {
	g    Geometry
	bits []uint8 // gtid → last broadcast bit
}

// NewVaLHALLA builds the baseline predictor for a stream within b.
func NewVaLHALLA(g Geometry, b Bounds) (*VaLHALLA, error) {
	if err := checkTable("VaLHALLA thread table", b.threads, 1); err != nil {
		return nil, err
	}
	return &VaLHALLA{g: g, bits: make([]uint8, b.threads)}, nil
}

// Name implements Predictor.
func (v *VaLHALLA) Name() string { return "VaLHALLA" }

// majority is the broadcast bit an operation's true boundary carries
// leave behind: 1 when a strict majority of the boundaries carried.
func (v *VaLHALLA) majority(actual uint64) uint8 {
	if 2*bits.OnesCount64(actual&v.g.BoundaryMask()) >= int(v.g.Boundaries())+1 {
		return 1
	}
	return 0
}

// Predict implements Predictor: broadcast the thread's single history bit
// to all boundaries.
func (v *VaLHALLA) Predict(ctx Context) Prediction {
	return Prediction{Carries: uint64(v.bits[ctx.Gtid]) * v.g.BoundaryMask()}
}

// Update implements Predictor: the broadcast bit becomes the majority of
// the boundary carries the operation actually produced. VaLHALLA updates
// on every operation (it has no notion of selective write-back).
func (v *VaLHALLA) Update(ctx Context, actual uint64, _ bool) {
	v.bits[ctx.Gtid] = v.majority(actual)
}

// Reset implements Predictor.
func (v *VaLHALLA) Reset() { clear(v.bits) }

// PredictWarp implements WarpPredictor: one table load per lane, no
// Context materialization.
func (v *VaLHALLA) PredictWarp(_, gtidBase, active, _ uint32, _, _, carries, static []uint64) {
	mask := v.g.BoundaryMask()
	row := v.bits[gtidBase:]
	j := 0
	for m := active; m != 0; m &= m - 1 {
		carries[j] = uint64(row[bits.TrailingZeros32(m)]) * mask
		static[j] = 0
		j++
	}
}

// UpdateWarp implements WarpPredictor: every active lane writes its
// majority bit (VaLHALLA ignores the mispredict mask), matching the
// sequential per-lane Update order.
func (v *VaLHALLA) UpdateWarp(_, gtidBase, active, _, _ uint32, _, _, actual []uint64) {
	row := v.bits[gtidBase:]
	j := 0
	for m := active; m != 0; m &= m - 1 {
		row[bits.TrailingZeros32(m)] = v.majority(actual[j])
		j++
	}
}
