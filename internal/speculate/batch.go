package speculate

import "math/bits"

// WarpPredictor is the warp-batched form of Predictor: one call covers
// every active lane of a warp-synchronous operation. The lanes'
// operands arrive packed (the j-th set bit of active owns ea[j] and
// eb[j]); predictions and true carries travel as bit planes (planes.go):
// bit l of plane b is lane l's carry into slice b+1.
//
// The caller picks how many planes it exchanges, at most the predictor's
// boundary count. PredictWarp fills every plane of pred and static;
// UpdateWarp reads actual's planes and takes any further boundary of the
// predictor as zero. Bits of inactive lanes are unspecified in pred and
// static and ignored in actual.
//
// Semantics must be bit-identical to per-lane Predictor calls: all
// predictions read the pre-update state (the hardware reads the CRF row
// once per warp), and updates land as if in ascending lane order (the
// highest writing lane is the last writer of a shared entry).
type WarpPredictor interface {
	// PredictWarp fills the prediction planes. cin bit l is lane l's
	// injected slice-0 carry.
	PredictWarp(pc, gtidBase, active, cin uint32, ea, eb []uint64, pred, static []uint32)
	// UpdateWarp delivers the true boundary carries of every active
	// lane; bit l of mispred marks lane l as having mispredicted (the
	// condition under which the hardware performs a CRF write-back).
	UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb []uint64, actual []uint32)
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
func (a perLane) PredictWarp(pc, gtidBase, active, cin uint32, ea, eb []uint64, pred, static []uint32) {
	var carries, st [32]uint64
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		pr := a.p.Predict(Context{
			PC: pc, Gtid: gtidBase + uint32(l), Ltid: uint8(l),
			EA: ea[j], EB: eb[j], Cin0: uint(cin >> l & 1),
		})
		carries[j], st[j] = pr.Carries, pr.Static
		j++
	}
	LanesToPlanes(active, carries[:j], pred)
	LanesToPlanes(active, st[:j], static)
}

// UpdateWarp implements WarpPredictor with one Update per active lane.
func (a perLane) UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb []uint64, actual []uint32) {
	var lanes [32]uint64
	n := bits.OnesCount32(active)
	PlanesToLanes(active, actual, lanes[:n])
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		a.p.Update(Context{
			PC: pc, Gtid: gtidBase + uint32(l), Ltid: uint8(l),
			EA: ea[j], EB: eb[j], Cin0: uint(cin >> l & 1),
		}, lanes[j], mispred&(1<<l) != 0)
		j++
	}
}

// --- batched fast paths ---

// PredictWarp implements WarpPredictor: a constant plane per boundary.
func (s *staticPredictor) PredictWarp(_, _, _, _ uint32, _, _ []uint64, pred, static []uint32) {
	v := uint32(0)
	if s.value != 0 {
		v = ^uint32(0)
	}
	for b := range pred {
		pred[b] = v
	}
	clear(static)
}

// UpdateWarp implements WarpPredictor: static predictors never learn.
func (s *staticPredictor) UpdateWarp(_, _, _, _, _ uint32, _, _ []uint64, _ []uint32) {}

// PredictWarp implements WarpPredictor: the warp's planes of its row,
// one word per boundary.
func (h *History) PredictWarp(pc, gtidBase, active, _ uint32, _, _ []uint64, pred, static []uint32) {
	lo, sh := h.slots.warp(pc, gtidBase, active)
	h.slots.load(h.table, lo, sh, pred)
	clear(static)
}

// UpdateWarp implements WarpPredictor. The write set is the mispredicting
// lanes (all active lanes under AlwaysUpdate): a masked merge of their
// planes, or, when every lane shares the row, the highest writing lane's
// carries, as the last writer of the sequential lane loop.
func (h *History) UpdateWarp(pc, gtidBase uint32, active, mispred, _ uint32, _, _ []uint64, actual []uint32) {
	write := mispred
	if h.cfg.AlwaysUpdate {
		write = active
	}
	if write == 0 {
		return
	}
	lo, sh := h.slots.warp(pc, gtidBase, active)
	h.slots.store(h.table, lo, sh, actual, write)
}

// peekPredictor's plane scratch: the Peek planes of the warp in flight.
type peekScratch struct {
	static, values [MaxBoundaries]uint32
}

// PredictWarp implements WarpPredictor: the inner predictor runs through
// its own batched path, then the Peek planes overlay it.
func (p *peekPredictor) PredictWarp(pc, gtidBase, active, cin uint32, ea, eb []uint64, pred, static []uint32) {
	p.warp.PredictWarp(pc, gtidBase, active, cin, ea, eb, pred, static)
	n := len(pred)
	PeekPlanes(p.g, active, ea, eb, p.pk.static[:n], p.pk.values[:n])
	OverlayPeek(pred, static, p.pk.static[:n], p.pk.values[:n])
}

// UpdateWarp implements WarpPredictor.
func (p *peekPredictor) UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb []uint64, actual []uint32) {
	p.warp.UpdateWarp(pc, gtidBase, active, mispred, cin, ea, eb, actual)
}
