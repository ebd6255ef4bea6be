package trace

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"st2gpu/internal/core"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// TestBatchEvalBatchCompositionIrrelevant pins the sweep engine's
// scheduling freedom: a design's counters don't depend on which batch it
// lands in (per-design predictor state is independent), so any
// partition folds to the same grid.
func TestBatchEvalBatchCompositionIrrelevant(t *testing.T) {
	set := recordPathfinder(t)
	dec, err := DecodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := dec.Kernel("pathfinder")
	designs := speculate.DesignSpace
	whole, err := k.EvalMissBatch(designs)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{1, 3, len(designs) - 1} {
		lo, err := k.EvalMissBatch(designs[:split])
		if err != nil {
			t.Fatal(err)
		}
		hi, err := k.EvalMissBatch(designs[split:])
		if err != nil {
			t.Fatal(err)
		}
		for i := range designs {
			var got stats.Rate
			if i < split {
				got = lo[i]
			} else {
				got = hi[i-split]
			}
			if got != whole[i] {
				t.Errorf("split %d: design %s differs across batch compositions", split, designs[i])
			}
		}
	}
}

// TestBatchEvalBadDesign checks every batch evaluator surfaces an
// unknown design name, even behind valid ones, instead of walking
// anything.
func TestBatchEvalBadDesign(t *testing.T) {
	set := recordPathfinder(t)
	dec, err := DecodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := dec.Kernel("pathfinder")
	bad := []string{speculate.FinalDesign, "no-such-design"}
	if _, err := k.EvalMissBatch(bad); err == nil {
		t.Error("EvalMissBatch accepted an unknown design")
	}
	if _, err := k.EvalCorrBatch(bad); err == nil {
		t.Error("EvalCorrBatch accepted an unknown design")
	}
	if _, err := k.EvalApproxBatch(bad); err == nil {
		t.Error("EvalApproxBatch accepted an unknown design")
	}
}

// TestBatchEvalCorruptBounds checks that a kernel whose records claim
// PC 2^32-1 or gtid 2^32-1, as a corrupt store can, fails every batch
// evaluator with ErrTableTooLarge instead of sizing a table from it.
func TestBatchEvalCorruptBounds(t *testing.T) {
	var one [32]laneOp
	one[0] = laneOp{Active: true, EA: 1, EB: 2, Sum: 3}
	var badPC, badGtid kernelBuilder
	badPC.TraceWarpAdds(core.ALU, math.MaxUint32, 0, &one)
	badGtid.TraceWarpAdds(core.ALU, 0, math.MaxUint32, &one)
	for _, c := range []struct {
		name string
		k    *DecodedKernel
	}{{"pc", &badPC.k}, {"gtid", &badGtid.k}} {
		name, k := c.name, c.k
		designs := []string{speculate.FinalDesign, "Gtid+Prev+FullPC"}
		if _, err := k.EvalMissBatch(designs); !errors.Is(err, speculate.ErrTableTooLarge) {
			t.Errorf("%s: EvalMissBatch: %v, want ErrTableTooLarge", name, err)
		}
		if _, err := k.EvalCorrBatch(designs); !errors.Is(err, speculate.ErrTableTooLarge) {
			t.Errorf("%s: EvalCorrBatch: %v, want ErrTableTooLarge", name, err)
		}
		if _, err := k.EvalApproxBatch(designs); !errors.Is(err, speculate.ErrTableTooLarge) {
			t.Errorf("%s: EvalApproxBatch: %v, want ErrTableTooLarge", name, err)
		}
	}
}

// TestDecodeSetMissingKernelDoesNotLeak is the regression test for the
// DecodeSet early-return leak: a set whose name list references a
// kernel with no recording must fail after spawning NO decode work —
// the buggy version returned mid-spawn without wg.Wait, leaving decode
// goroutines writing into the result slices past the call.
func TestDecodeSetMissingKernelDoesNotLeak(t *testing.T) {
	set := recordPathfinder(t)
	rec, ok := set.Get("pathfinder")
	if !ok {
		t.Fatal("missing recording")
	}
	doctored := NewSet(set.Scale, set.NumSMs, set.Seed)
	for i := 0; i < 8; i++ {
		doctored.Add(fmt.Sprintf("k%d", i), rec)
	}
	// Doctor the name list directly: a name with no recording, listed
	// last so the buggy code had already spawned decoders for the real
	// kernels by the time it saw it.
	doctored.names = append(doctored.names, "ghost")

	before := runtime.NumGoroutine()
	_, err := DecodeSet(doctored)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("DecodeSet error = %v, want missing-kernel error naming %q", err, "ghost")
	}
	// Sampled immediately — leaked decoders would still be running.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("DecodeSet returned with %d goroutines, started with %d: in-flight decoders leaked", after, before)
	}
}
