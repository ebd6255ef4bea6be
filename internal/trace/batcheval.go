package trace

import (
	"fmt"
	"math/bits"

	"st2gpu/internal/core"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// This file is the design-batched evaluation path: one pass over a
// decoded kernel's flat arrays scores every design of a batch, so each
// warp record's true boundary carries and Peek planes are transposed
// once and shared across the design dimension. Carries travel as bit
// planes (speculate's planes.go): one uint32 per boundary, bit l for
// lane l, so a design's predict, judge and update cost a few word
// operations per boundary. Correctness rests on two invariants:
//
//   - Per-design predictor state is fully independent, so iterating
//     record-major (all designs per record) produces bit-identical
//     per-design results to evaluating each design alone, one warp at a
//     time (the per-warp meters in the package tests, which
//     TestDecodedEvalMatchesMeterReplay holds these evaluators to) —
//     each design still observes the records in stream order with its
//     own pre-update state.
//   - The Peek overlay is hoisted: PeekPlanes computes each record's
//     statically-resolved boundaries once, and each Peek design applies
//     them exactly as the peekPredictor composes them, so stripping the
//     Peek wrapper (SplitPeek) changes nothing bit-wise. Peek's values
//     planes matter only to the correlation judge: a static boundary is
//     never judged for a miss, and the approximate sum takes the true
//     carry there.

// warpRec is the canonical flat form of one warp-synchronous record: the
// lane masks plus per-active-lane operands, exact sums and (unmasked)
// boundary carry-outs in ascending lane order — the j-th set bit of
// active owns index j. DecodedKernel.each presents every record as a
// zero-copy warpRec view over the flat arrays.
type warpRec struct {
	kind        core.UnitKind
	pc, base    uint32
	active, cin uint32
	ea, eb, sum []uint64
	carries     []uint64 // 7-boundary carry-outs, kind mask applied at eval
}

// nbMax is the boundary count of the evaluators' 64-bit geometry.
const nbMax = 7

// batchScratch is one evaluator's per-record planes, reused across
// records: the record's true carries and Peek planes, and one design's
// prediction.
type batchScratch struct {
	actual, pkStatic, pkValues [nbMax]uint32
	pred, static               [nbMax]uint32
}

// record transposes r's true carries, and with peek its Peek static
// planes (and with values its values planes), into s.
func (s *batchScratch) record(r *warpRec, peek, values bool) {
	speculate.LanesToPlanes(r.active, r.carries, s.actual[:])
	if !peek {
		return
	}
	var pkV []uint32
	if values {
		pkV = s.pkValues[:]
	}
	speculate.PeekPlanes(g64, r.active, r.ea, r.eb, s.pkStatic[:], pkV)
}

// predict runs design p on r into s.pred and s.static, adding the
// record's Peek static planes when the design is Peek-filtered.
func (s *batchScratch) predict(p speculate.WarpPredictor, peeked bool, r *warpRec) {
	p.PredictWarp(r.pc, r.base, r.active, r.cin, r.ea, r.eb, s.pred[:], s.static[:])
	if peeked {
		for b, m := range s.pkStatic {
			s.static[b] |= m
		}
	}
}

// bounds returns the PCs and the global thread count k's records
// present, which size every predictor table evaluated over k.
func (k *DecodedKernel) bounds() (speculate.Bounds, error) {
	var threads uint64
	for _, base := range k.GtidBase {
		threads = max(threads, uint64(base)+32)
	}
	b, err := speculate.NewBounds(k.PC, threads)
	if err != nil {
		return speculate.Bounds{}, fmt.Errorf("trace: predictor bounds: %w", err)
	}
	return b, nil
}

// batchPreds builds the predictors for a design batch over k, stripping
// Peek wrappers so the per-record Peek computation can be shared.
func (k *DecodedKernel) batchPreds(designs []string) (inner []speculate.WarpPredictor, peeked []bool, anyPeek bool, err error) {
	b, err := k.bounds()
	if err != nil {
		return nil, nil, false, err
	}
	inner = make([]speculate.WarpPredictor, len(designs))
	peeked = make([]bool, len(designs))
	for d, name := range designs {
		p, err := speculate.NewDesign(name, g64, b)
		if err != nil {
			return nil, nil, false, fmt.Errorf("trace: design %q: %w", name, err)
		}
		var in speculate.Predictor
		in, peeked[d] = speculate.SplitPeek(p)
		inner[d] = speculate.AsWarp(in)
		anyPeek = anyPeek || peeked[d]
	}
	return inner, peeked, anyPeek, nil
}

// EvalMissBatch evaluates a batch of speculation designs over the
// decoded stream in one pass with Figure 5 semantics. Result i is
// bit-identical to evaluating designs[i] alone.
func (k *DecodedKernel) EvalMissBatch(designs []string) ([]stats.Rate, error) {
	inner, peeked, anyPeek, err := k.batchPreds(designs)
	if err != nil {
		return nil, err
	}
	miss := make([]stats.Rate, len(designs))
	var s batchScratch
	k.each(func(r *warpRec) {
		s.record(r, anyPeek, false)
		actual := s.actual[:boundariesOf(r.kind)]
		n := uint64(len(r.ea))
		for d, p := range inner {
			s.predict(p, peeked[d], r)
			mispred := speculate.JudgeMiss(r.active, s.pred[:], s.static[:], actual)
			miss[d].Add(uint64(bits.OnesCount32(mispred)), n)
			p.UpdateWarp(r.pc, r.base, r.active, mispred, r.cin, r.ea, r.eb, actual)
		}
	})
	return miss, nil
}

// EvalCorrBatch evaluates a batch of Figure 3 correlation schemes over
// the decoded stream in one pass. Result i is bit-identical to
// evaluating designs[i] alone.
func (k *DecodedKernel) EvalCorrBatch(designs []string) ([]stats.Rate, error) {
	inner, peeked, anyPeek, err := k.batchPreds(designs)
	if err != nil {
		return nil, err
	}
	match := make([]stats.Rate, len(designs))
	var s batchScratch
	k.each(func(r *warpRec) {
		s.record(r, anyPeek, true)
		nb := boundariesOf(r.kind)
		actual := s.actual[:nb]
		n := uint64(len(r.ea))
		for d, p := range inner {
			p.PredictWarp(r.pc, r.base, r.active, r.cin, r.ea, r.eb, s.pred[:], s.static[:])
			if peeked[d] {
				speculate.OverlayPeek(s.pred[:], s.static[:], s.pkStatic[:], s.pkValues[:])
			}
			match[d].Add(speculate.JudgeCorr(r.active, s.pred[:], actual), uint64(nb)*n)
			p.UpdateWarp(r.pc, r.base, r.active, r.active, r.cin, r.ea, r.eb, actual)
		}
	})
	return match, nil
}

// EvalApproxBatch evaluates a batch of designs with the
// approximate-adder (no-correction) semantics in one pass. Result i is
// bit-identical to evaluating designs[i] alone; relative errors
// accumulate in ascending lane order within each design.
func (k *DecodedKernel) EvalApproxBatch(designs []string) ([]ApproxResult, error) {
	inner, peeked, anyPeek, err := k.batchPreds(designs)
	if err != nil {
		return nil, err
	}
	wrong := make([]stats.Rate, len(designs))
	relErr := make([]runningMean, len(designs))
	var s batchScratch
	var usedPlanes [nbMax]uint32
	var used [32]uint64
	k.each(func(r *warpRec) {
		s.record(r, anyPeek, false)
		width := widthOf(r.kind)
		actual := s.actual[:boundariesOf(r.kind)]
		n := len(r.ea)
		for d, p := range inner {
			s.predict(p, peeked[d], r)
			mispred := speculate.JudgeMiss(r.active, s.pred[:], s.static[:], actual)
			// Each slice adds with its predicted carry-in, or the true
			// one where the boundary is static; boundaries past the
			// kind's slices fall outside the width.
			for b, a := range actual {
				usedPlanes[b] = s.pred[b]&^s.static[b] | a&s.static[b]
			}
			speculate.PlanesToLanes(r.active, usedPlanes[:len(actual)], used[:n])
			var wrongResults uint64
			j := 0
			for m := r.active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if got := approxSum(r.ea[j], r.eb[j], uint(r.cin>>l&1), width, used[j]); got != r.sum[j] {
					wrongResults++
					relErr[d].addRelative(got, r.sum[j])
				}
				j++
			}
			wrong[d].Add(wrongResults, uint64(n))
			p.UpdateWarp(r.pc, r.base, r.active, mispred, r.cin, r.ea, r.eb, actual)
		}
	})
	out := make([]ApproxResult, len(designs))
	for d := range designs {
		out[d] = ApproxResult{Wrong: wrong[d], MeanRelErr: relErr[d].mean(), WrongErrSum: relErr[d].sum}
	}
	return out, nil
}
