package trace

import (
	"fmt"
	"math/bits"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// This file holds the per-warp meters: each consumes one warp add at a
// time in the dense 32-lane form, keeps one predictor per design, and
// recomputes every lane's boundary carries from its operands. They are
// the test oracles the design-batched evaluators (batcheval.go) are held
// to: TestDecodedEvalMatchesMeterReplay replays a recording through them
// and requires the batches' counters to equal theirs.

// laneOp is one lane's effective adder operation within a warp add.
type laneOp struct {
	Active bool
	EA, EB uint64 // effective operands (post subtraction transform)
	Cin0   uint
	Sum    uint64 // exact result
}

// addTracer consumes a stream of warp adds, all 32 lanes together:
// hardware predicts every lane of a warp from the same pre-update
// history state, so the meters see lanes warp-synchronously.
type addTracer interface {
	TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]laneOp)
}

// dense expands a record's packed lanes into the 32-lane form.
func dense(active, cin uint32, ea, eb, sum []uint64) *[32]laneOp {
	var ops [32]laneOp
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		ops[l] = laneOp{Active: true, EA: ea[j], EB: eb[j], Cin0: uint(cin >> l & 1), Sum: sum[j]}
		j++
	}
	return &ops
}

// replay feeds a recording to t in stream order through Recording.Decode.
func replay(rec *gpusim.Recording, t addTracer) error {
	return rec.Decode(func(r *gpusim.DecodedRecord) error {
		t.TraceWarpAdds(r.Kind, r.PC, r.GtidBase, dense(r.Active, r.Cin, r.EA, r.EB, r.Sum))
		return nil
	})
}

// replayDecoded feeds a decoded kernel's records to t in stream order.
func replayDecoded(k *DecodedKernel, t addTracer) {
	k.each(func(r *warpRec) {
		t.TraceWarpAdds(r.kind, r.pc, r.base, dense(r.active, r.cin, r.ea, r.eb, r.sum))
	})
}

// Multi fans one stream out to several meters.
type Multi []addTracer

func (m Multi) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]laneOp) {
	for _, t := range m {
		t.TraceWarpAdds(kind, pc, gtidBase, ops)
	}
}

// kernelBuilder appends a stream to a DecodedKernel, computing each
// lane's boundary carries the way the decoder does, so synthetic streams
// can drive code that walks the decoded form.
type kernelBuilder struct{ k DecodedKernel }

func (b *kernelBuilder) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]laneOp) {
	k := &b.k
	if len(k.Off) == 0 {
		k.Off = []uint32{0}
	}
	var active, cin uint32
	for l := range ops {
		op := &ops[l]
		if !op.Active {
			continue
		}
		active |= 1 << l
		cin |= uint32(op.Cin0&1) << l
		k.EA = append(k.EA, op.EA)
		k.EB = append(k.EB, op.EB)
		k.Sum = append(k.Sum, op.Sum)
		k.Carries = append(k.Carries, bitmath.BoundaryCarriesPacked(op.EA, op.EB, op.Cin0, 64, 8))
	}
	k.Kind = append(k.Kind, kind)
	k.PC = append(k.PC, pc)
	k.GtidBase = append(k.GtidBase, gtidBase)
	k.Active = append(k.Active, active)
	k.Cin = append(k.Cin, cin)
	k.Off = append(k.Off, uint32(len(k.EA)))
}

// warpScratch compacts the dense 32-lane form into a warpRec, computing
// each lane's boundary carry-outs once per record (the meters then share
// them across every design).
type warpScratch struct {
	rec                  warpRec
	ea, eb, sum, carries [32]uint64
}

func (w *warpScratch) compact(kind core.UnitKind, pc, base uint32, ops *[32]laneOp) *warpRec {
	var active, cin uint32
	n := 0
	for l := 0; l < 32; l++ {
		op := &ops[l]
		if !op.Active {
			continue
		}
		active |= 1 << l
		cin |= uint32(op.Cin0&1) << l
		w.ea[n], w.eb[n], w.sum[n] = op.EA, op.EB, op.Sum
		w.carries[n] = bitmath.BoundaryCarriesPacked(op.EA, op.EB, op.Cin0, 64, 8)
		n++
	}
	w.rec = warpRec{
		kind: kind, pc: pc, base: base, active: active, cin: cin,
		ea: w.ea[:n], eb: w.eb[:n], sum: w.sum[:n], carries: w.carries[:n],
	}
	return &w.rec
}

// predictLanes runs one design's plane PredictWarp on r and unpacks
// each active lane's prediction and static mask, a bit at a time, into
// ascending-lane order.
func predictLanes(p speculate.Predictor, r *warpRec) (carries, static [32]uint64) {
	var pred, st [nbMax]uint32
	p.PredictWarp(r.pc, r.base, r.active, r.cin, r.ea, r.eb, pred[:], st[:])
	j := 0
	for m := r.active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		for b := range pred {
			carries[j] |= uint64(pred[b]>>l&1) << b
			static[j] |= uint64(st[b]>>l&1) << b
		}
		j++
	}
	return carries, static
}

// updateLanes packs each active lane's (kind-masked) true carries into
// all seven planes, a bit at a time, and delivers them to one design.
func updateLanes(p speculate.Predictor, r *warpRec, mispred uint32, actual []uint64) {
	var planes [nbMax]uint32
	j := 0
	for m := r.active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		for b := range planes {
			planes[b] |= uint32(actual[j]>>b&1) << l
		}
		j++
	}
	p.UpdateWarp(r.pc, r.base, r.active, mispred, r.cin, r.ea, r.eb, planes[:])
}

// dseStep evaluates one design on one warp record with Figure 5
// semantics: predictions for every lane come from the pre-update state,
// a lane mispredicts when any non-Peek boundary was speculated wrong,
// and mispredicting lanes write back.
func dseStep(p speculate.Predictor, miss *stats.Rate, r *warpRec) {
	mask := bitmath.Mask(boundariesOf(r.kind))
	carries, static := predictLanes(p, r)
	var actual [32]uint64
	var mispred uint32
	var missed uint64
	j := 0
	for m := r.active; m != 0; m &= m - 1 {
		actual[j] = r.carries[j] & mask
		if (carries[j]^actual[j])&mask&^static[j] != 0 {
			mispred |= 1 << bits.TrailingZeros32(m)
			missed++
		}
		j++
	}
	miss.Add(missed, uint64(j))
	updateLanes(p, r, mispred, actual[:j])
}

// corrStep evaluates one Figure 3 scheme on one warp record: per-boundary
// match tallies against the pre-update history, then every active lane
// writes back (the correlation analysis compares with the immediately
// preceding operation, so history updates unconditionally).
func corrStep(p speculate.Predictor, match *stats.Rate, r *warpRec) {
	nb := boundariesOf(r.kind)
	mask := bitmath.Mask(nb)
	carries, _ := predictLanes(p, r)
	var actual [32]uint64
	var matched uint64
	for j := range r.carries {
		actual[j] = r.carries[j] & mask
		matched += uint64(nb) - uint64(bits.OnesCount64((carries[j]^actual[j])&mask))
	}
	n := len(r.carries)
	match.Add(matched, uint64(nb)*uint64(n))
	updateLanes(p, r, r.active, actual[:n])
}

// approxStep evaluates one design on one warp record with the
// approximate-adder (no-correction) semantics: Peek-resolved boundaries
// are exact, dynamic ones use whatever was predicted, and the
// uncorrected result is compared against the exact sum. relErr
// accumulates in ascending lane order (floating-point sums are
// order-sensitive).
func approxStep(p speculate.Predictor, wrong *stats.Rate, relErr *runningMean, r *warpRec) {
	width := widthOf(r.kind)
	mask := bitmath.Mask(bitmath.NumSlices(width, 8) - 1)
	carries, static := predictLanes(p, r)
	var actual [32]uint64
	var mispred uint32
	var wrongResults uint64
	j := 0
	for m := r.active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		actual[j] = r.carries[j] & mask
		used := (carries[j] &^ static[j]) | (actual[j] & static[j] & mask)
		got := approxSumSlices(r.ea[j], r.eb[j], uint(r.cin>>l&1), width, used)
		if (carries[j]^actual[j])&mask&^static[j] != 0 {
			mispred |= 1 << l
		}
		if got != r.sum[j] {
			wrongResults++
			relErr.addRelative(got, r.sum[j])
		}
		j++
	}
	wrong.Add(wrongResults, uint64(j))
	updateLanes(p, r, mispred, actual[:j])
}

// CorrMeter measures, for each Figure 3 scheme, the fraction of boundary
// carry-ins that match the history bucket's previous content.
type CorrMeter struct {
	preds   map[string]speculate.Predictor
	match   map[string]*stats.Rate
	scratch warpScratch
}

// NewCorrMeter builds the three-scheme correlation meter for a stream
// within b.
func NewCorrMeter(b speculate.Bounds) (*CorrMeter, error) {
	m := &CorrMeter{
		preds: make(map[string]speculate.Predictor),
		match: make(map[string]*stats.Rate),
	}
	for _, d := range Fig3Designs {
		p, err := speculate.NewDesign(d, g64, b)
		if err != nil {
			return nil, err
		}
		m.preds[d] = p
		m.match[d] = &stats.Rate{}
	}
	return m, nil
}

// TraceWarpAdds reads every lane's prediction from the pre-update history
// (warp-synchronous), then all lanes write back.
func (m *CorrMeter) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]laneOp) {
	r := m.scratch.compact(kind, pc, gtidBase, ops)
	for _, d := range Fig3Designs {
		corrStep(m.preds[d], m.match[d], r)
	}
}

// MatchRate returns the per-boundary match fraction for a design.
func (m *CorrMeter) MatchRate(design string) (float64, error) {
	r, ok := m.match[design]
	if !ok {
		return 0, fmt.Errorf("trace: unknown Figure 3 design %q", design)
	}
	return r.Value(), nil
}

// Rates returns all three match rates in Fig3Designs order.
func (m *CorrMeter) Rates() []float64 {
	out := make([]float64, len(Fig3Designs))
	for i, d := range Fig3Designs {
		out[i], _ = m.MatchRate(d)
	}
	return out
}

// RawRate exposes a design's underlying counter.
func (m *CorrMeter) RawRate(design string) (stats.Rate, error) {
	r, ok := m.match[design]
	if !ok {
		return stats.Rate{}, fmt.Errorf("trace: unknown Figure 3 design %q", design)
	}
	return *r, nil
}

// DSEMeter evaluates a set of speculation designs on the identical
// operation stream, counting per-thread-op mispredictions exactly as the
// ST² hardware would (a thread-op mispredicts when any non-Peek boundary
// was speculated wrong).
type DSEMeter struct {
	Designs []string
	preds   map[string]speculate.Predictor
	miss    map[string]*stats.Rate
	scratch warpScratch
}

// NewDSEMeter builds a sweep over the given designs (defaulting to the
// full Figure 5 space when nil) for a stream within b.
func NewDSEMeter(designs []string, b speculate.Bounds) (*DSEMeter, error) {
	if designs == nil {
		designs = speculate.DesignSpace
	}
	m := &DSEMeter{
		Designs: designs,
		preds:   make(map[string]speculate.Predictor),
		miss:    make(map[string]*stats.Rate),
	}
	for _, d := range designs {
		p, err := speculate.NewDesign(d, g64, b)
		if err != nil {
			return nil, fmt.Errorf("trace: design %q: %w", d, err)
		}
		m.preds[d] = p
		m.miss[d] = &stats.Rate{}
	}
	return m, nil
}

// TraceWarpAdds predicts every lane from the pre-update history (as in
// hardware, where the CRF row is read once per warp), then mispredicting
// lanes write back.
func (m *DSEMeter) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]laneOp) {
	r := m.scratch.compact(kind, pc, gtidBase, ops)
	for _, d := range m.Designs {
		dseStep(m.preds[d], m.miss[d], r)
	}
}

// MissRate returns a design's thread misprediction rate.
func (m *DSEMeter) MissRate(design string) (float64, error) {
	r, ok := m.miss[design]
	if !ok {
		return 0, fmt.Errorf("trace: design %q not in sweep", design)
	}
	return r.Value(), nil
}

// Rate exposes a design's raw counter.
func (m *DSEMeter) Rate(design string) (stats.Rate, error) {
	r, ok := m.miss[design]
	if !ok {
		return stats.Rate{}, fmt.Errorf("trace: design %q not in sweep", design)
	}
	return *r, nil
}

// ApproxMeter executes every operation with the predicted carries and no
// correction pass, recording how often the result is wrong and by how
// much (the error-accepting approximate adders of the paper's related
// work).
type ApproxMeter struct {
	Designs []string
	preds   map[string]speculate.Predictor
	wrong   map[string]*stats.Rate
	relErr  map[string]*runningMean
	scratch warpScratch
}

// NewApproxMeter builds the meter over the given designs (nil = the
// final ST² design and staticZero) for a stream within b.
func NewApproxMeter(designs []string, b speculate.Bounds) (*ApproxMeter, error) {
	if designs == nil {
		designs = []string{"staticZero", speculate.FinalDesign}
	}
	m := &ApproxMeter{
		Designs: designs,
		preds:   make(map[string]speculate.Predictor),
		wrong:   make(map[string]*stats.Rate),
		relErr:  make(map[string]*runningMean),
	}
	for _, d := range designs {
		p, err := speculate.NewDesign(d, g64, b)
		if err != nil {
			return nil, fmt.Errorf("trace: approx design %q: %w", d, err)
		}
		m.preds[d] = p
		m.wrong[d] = &stats.Rate{}
		m.relErr[d] = &runningMean{}
	}
	return m, nil
}

// TraceWarpAdds runs every design on the warp; the lanes' Sum is the
// exact result.
func (m *ApproxMeter) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]laneOp) {
	r := m.scratch.compact(kind, pc, gtidBase, ops)
	for _, d := range m.Designs {
		approxStep(m.preds[d], m.wrong[d], m.relErr[d], r)
	}
}

// WrongRate returns the fraction of operations whose uncorrected result
// would have been wrong.
func (m *ApproxMeter) WrongRate(design string) (float64, error) {
	r, ok := m.wrong[design]
	if !ok {
		return 0, fmt.Errorf("trace: design %q not in approx meter", design)
	}
	return r.Value(), nil
}

// MeanRelError returns the mean relative magnitude error of the wrong
// results.
func (m *ApproxMeter) MeanRelError(design string) (float64, error) {
	r, ok := m.relErr[design]
	if !ok {
		return 0, fmt.Errorf("trace: design %q not in approx meter", design)
	}
	return r.mean(), nil
}

// ChainMeter histograms the carry-propagation chain length of every
// addition, per unit kind, and tracks how many operations carry at each
// slice boundary (Section III's observation).
type ChainMeter struct {
	// Lengths[kind] histograms the longest propagate run per operation
	// (0..64 bits; bin 64 is the full-width ripple of a sign change).
	Lengths map[core.UnitKind]*stats.Histogram
	// BoundaryCarryRate[i] is the fraction of operations whose carry into
	// slice i+1 is set.
	BoundaryCarryRate [7]stats.Rate
	// Ops counts traced lane operations.
	Ops uint64
}

// NewChainMeter builds the meter.
func NewChainMeter() *ChainMeter {
	return &ChainMeter{Lengths: make(map[core.UnitKind]*stats.Histogram)}
}

func (m *ChainMeter) TraceWarpAdds(kind core.UnitKind, _, _ uint32, ops *[32]laneOp) {
	h := m.Lengths[kind]
	if h == nil {
		h = stats.NewHistogram(64)
		m.Lengths[kind] = h
	}
	width := widthOf(kind)
	nb := bitmath.NumSlices(width, 8) - 1
	for l := 0; l < 32; l++ {
		if !ops[l].Active {
			continue
		}
		m.Ops++
		h.Observe(int(bitmath.CarryChainLength(ops[l].EA, ops[l].EB, ops[l].Cin0, width)))
		carries := bitmath.BoundaryCarriesPacked(ops[l].EA, ops[l].EB, ops[l].Cin0, 64, 8)
		for i := uint(0); i < nb && i < 7; i++ {
			m.BoundaryCarryRate[i].AddBool(carries>>i&1 == 1)
		}
	}
}

// MeanChainLength returns the mean chain length across all unit kinds.
func (m *ChainMeter) MeanChainLength() float64 {
	var sum float64
	var n uint64
	for _, kind := range core.UnitKinds {
		h, ok := m.Lengths[kind]
		if !ok {
			continue
		}
		sum += h.Mean() * float64(h.Total())
		n += h.Total()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ShortChainFraction returns the fraction of operations whose chain fits
// within one 8-bit slice.
func (m *ChainMeter) ShortChainFraction() float64 {
	var short, n uint64
	for _, kind := range core.UnitKinds {
		h, ok := m.Lengths[kind]
		if !ok {
			continue
		}
		for v, c := range h.Counts {
			if v < 8 {
				short += c
			}
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	return float64(short) / float64(n)
}
