package speculate

import "math/bits"

// WarpPredictor is the warp-batched form of Predictor: one call covers
// every active lane of a warp-synchronous operation with the lanes'
// operands and results in flat ascending-lane slices — the j-th set bit
// of active owns index j (popcount(active) entries total).
//
// Semantics must be bit-identical to per-lane Predictor calls: all
// predictions read the pre-update state (the hardware reads the CRF row
// once per warp), and updates land in ascending lane order (last writer
// wins for shared entries, exactly as the sequential per-lane loop
// behaves).
type WarpPredictor interface {
	// PredictWarp fills carries[j]/static[j] for the j-th active lane.
	// cin bit l is lane l's injected slice-0 carry.
	PredictWarp(pc, gtidBase, active, cin uint32, ea, eb, carries, static []uint64)
	// UpdateWarp delivers the true boundary carries for every active
	// lane; bit l of mispred marks lane l as having mispredicted (the
	// condition under which the hardware performs a CRF write-back).
	UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb, actual []uint64)
}

// AsWarp returns p's batched fast path, or, when p has none, an adapter
// that calls p once per active lane. Callers resolve it once per
// predictor rather than per warp: in the Go runtime, a dynamic
// interface assertion that misses its call site's cache allocates at
// random while it builds that cache.
func AsWarp(p Predictor) WarpPredictor {
	if wp, ok := p.(WarpPredictor); ok {
		return wp
	}
	return perLane{p}
}

// perLane is the WarpPredictor of a Predictor with no batched path.
type perLane struct{ p Predictor }

// PredictWarp implements WarpPredictor with one Predict per active lane.
func (a perLane) PredictWarp(pc, gtidBase, active, cin uint32, ea, eb, carries, static []uint64) {
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		pr := a.p.Predict(Context{
			PC: pc, Gtid: gtidBase + uint32(l), Ltid: uint8(l),
			EA: ea[j], EB: eb[j], Cin0: uint(cin >> l & 1),
		})
		carries[j], static[j] = pr.Carries, pr.Static
		j++
	}
}

// UpdateWarp implements WarpPredictor with one Update per active lane.
func (a perLane) UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb, actual []uint64) {
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		a.p.Update(Context{
			PC: pc, Gtid: gtidBase + uint32(l), Ltid: uint8(l),
			EA: ea[j], EB: eb[j], Cin0: uint(cin >> l & 1),
		}, actual[j], mispred&(1<<l) != 0)
		j++
	}
}

// --- batched fast paths ---

// PredictWarp implements WarpPredictor: a constant per boundary, no state.
func (s *staticPredictor) PredictWarp(_, _, active, _ uint32, _, _, carries, static []uint64) {
	v := s.value & s.g.BoundaryMask()
	n := bits.OnesCount32(active)
	for j := 0; j < n; j++ {
		carries[j], static[j] = v, 0
	}
}

// UpdateWarp implements WarpPredictor: static predictors never learn.
func (s *staticPredictor) UpdateWarp(_, _, _, _, _ uint32, _, _, _ []uint64) {}

// PredictWarp implements WarpPredictor: one row lookup per warp, then
// one array load per active lane.
func (h *History) PredictWarp(pc, gtidBase, active, _ uint32, _, _, carries, static []uint64) {
	lo, hi, step := h.slots.warp(pc, gtidBase)
	row := h.table[lo:hi]
	mask := h.cfg.Geometry.BoundaryMask()
	j := 0
	for m := active; m != 0; m &= m - 1 {
		carries[j] = row[bits.TrailingZeros32(m)*step] & mask
		static[j] = 0
		j++
	}
}

// UpdateWarp implements WarpPredictor. The write set is the mispredicting
// lanes (all active lanes under AlwaysUpdate), written in ascending lane
// order so shared buckets keep the sequential loop's last-writer-wins.
func (h *History) UpdateWarp(pc, gtidBase uint32, active, mispred, _ uint32, _, _, actual []uint64) {
	write := mispred
	if h.cfg.AlwaysUpdate {
		write = active
	}
	if write == 0 {
		return
	}
	lo, hi, step := h.slots.warp(pc, gtidBase)
	row := h.table[lo:hi]
	mask := h.cfg.Geometry.BoundaryMask()
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if write&(1<<l) != 0 {
			row[l*step] = actual[j] & mask
		}
		j++
	}
}

// PredictWarp implements WarpPredictor: the inner predictor runs through
// its own batched path, then the Peek filter overlays the
// statically-resolved boundaries branchlessly per lane.
func (p *peekPredictor) PredictWarp(pc, gtidBase, active, cin uint32, ea, eb, carries, static []uint64) {
	p.warp.PredictWarp(pc, gtidBase, active, cin, ea, eb, carries, static)
	n := bits.OnesCount32(active)
	for j := 0; j < n; j++ {
		pk, values := PeekBits(p.g, ea[j], eb[j])
		carries[j] = (carries[j] &^ pk) | values
		static[j] |= pk
	}
}

// UpdateWarp implements WarpPredictor.
func (p *peekPredictor) UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb, actual []uint64) {
	p.warp.UpdateWarp(pc, gtidBase, active, mispred, cin, ea, eb, actual)
}
