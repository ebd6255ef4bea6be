package trace

import (
	"fmt"
	"math/bits"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// This file is the design-batched evaluation path: one pass over a
// decoded kernel's flat arrays scores every design of a batch, so each
// warp record's operands, true boundary carries and Peek masks are
// loaded/computed once and amortized across the design dimension.
// Correctness rests on two invariants:
//
//   - Per-design predictor state is fully independent, so iterating
//     record-major (all designs per record) produces bit-identical
//     per-design results to evaluating each design alone, one warp at a
//     time (the per-warp meters in the package tests, which
//     TestDecodedEvalMatchesMeterReplay holds these evaluators to) —
//     each design still observes the records in stream order with its
//     own pre-update state.
//   - The Peek overlay is hoisted: PeekBitsWarp computes each lane's
//     statically-resolved boundaries once per record, and OverlayPeek
//     applies exactly the peekPredictor composition per design, so
//     stripping the Peek wrapper (SplitPeek) changes nothing bit-wise.

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

// evalScratch is the per-evaluator lane scratch reused across records.
type evalScratch struct {
	carries, static, actual [32]uint64
}

// nonZeroBit returns 1 when x != 0 and 0 otherwise, without a branch.
func nonZeroBit(x uint64) uint64 { return (x | -x) >> 63 }

// batchScratch is reused across records; all slices index by compacted
// lane position j (the j-th set bit of active).
type batchScratch struct {
	eval               evalScratch
	pkStatic, pkValues [32]uint64
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
		mask := bitmath.Mask(boundariesOf(r.kind))
		n := len(r.ea)
		actual := s.eval.actual[:n]
		for j := 0; j < n; j++ {
			actual[j] = r.carries[j] & mask
		}
		pkS, pkV := s.pkStatic[:n], s.pkValues[:n]
		if anyPeek {
			speculate.PeekBitsWarp(g64, r.ea, r.eb, pkS, pkV)
		}
		carries, static := s.eval.carries[:n], s.eval.static[:n]
		for d, p := range inner {
			p.PredictWarp(r.pc, r.base, r.active, r.cin, r.ea, r.eb, carries, static)
			if peeked[d] {
				speculate.OverlayPeek(carries, static, pkS, pkV)
			}
			mispred, missed := speculate.JudgeMissWarp(r.active, mask, carries, static, actual)
			miss[d].Add(missed, uint64(n))
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
		nb := boundariesOf(r.kind)
		mask := bitmath.Mask(nb)
		n := len(r.ea)
		actual := s.eval.actual[:n]
		for j := 0; j < n; j++ {
			actual[j] = r.carries[j] & mask
		}
		pkS, pkV := s.pkStatic[:n], s.pkValues[:n]
		if anyPeek {
			speculate.PeekBitsWarp(g64, r.ea, r.eb, pkS, pkV)
		}
		carries, static := s.eval.carries[:n], s.eval.static[:n]
		for d, p := range inner {
			p.PredictWarp(r.pc, r.base, r.active, r.cin, r.ea, r.eb, carries, static)
			if peeked[d] {
				speculate.OverlayPeek(carries, static, pkS, pkV)
			}
			matched := speculate.JudgeCorrWarp(nb, mask, carries, actual)
			match[d].Add(matched, uint64(nb)*uint64(n))
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
	k.each(func(r *warpRec) {
		width := widthOf(r.kind)
		mask := bitmath.Mask(bitmath.NumSlices(width, 8) - 1)
		n := len(r.ea)
		actual := s.eval.actual[:n]
		for j := 0; j < n; j++ {
			actual[j] = r.carries[j] & mask
		}
		pkS, pkV := s.pkStatic[:n], s.pkValues[:n]
		if anyPeek {
			speculate.PeekBitsWarp(g64, r.ea, r.eb, pkS, pkV)
		}
		carries, static := s.eval.carries[:n], s.eval.static[:n]
		for d, p := range inner {
			p.PredictWarp(r.pc, r.base, r.active, r.cin, r.ea, r.eb, carries, static)
			if peeked[d] {
				speculate.OverlayPeek(carries, static, pkS, pkV)
			}
			var mispred uint32
			var wrongResults uint64
			j := 0
			for m := r.active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				used := (carries[j] &^ static[j]) | (actual[j] & static[j])
				got := approxSum(r.ea[j], r.eb[j], uint(r.cin>>l&1), width, used)
				mispred |= uint32(nonZeroBit((carries[j]^actual[j])&mask&^static[j])) << l
				if got != r.sum[j] {
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
