package trace

import (
	"reflect"
	"strings"
	"testing"

	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/speculate"
)

// recordPathfinder captures a real pathfinder run into a one-kernel Set.
func recordPathfinder(t testing.TB) *Set {
	t.Helper()
	spec, err := kernels.Pathfinder(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.AdderMode = gpusim.BaselineAdders
	cfg.Seed = 1
	d, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Setup(d.Memory()); err != nil {
		t.Fatal(err)
	}
	rec := gpusim.NewRecorder(0)
	d.SetRecorder(rec)
	if _, err := d.Launch(spec.Kernel); err != nil {
		t.Fatal(err)
	}
	set := NewSet(1, 2, 1)
	set.Add("pathfinder", rec.Recording())
	return set
}

// captureTracer stores the full delivered stream for deep comparison.
type captureTracer struct {
	kinds []core.UnitKind
	pcs   []uint32
	bases []uint32
	ops   [][32]laneOp
}

func (c *captureTracer) TraceWarpAdds(kind core.UnitKind, pc, base uint32, ops *[32]laneOp) {
	c.kinds = append(c.kinds, kind)
	c.pcs = append(c.pcs, pc)
	c.bases = append(c.bases, base)
	c.ops = append(c.ops, *ops)
}

// TestDecodedEvalMatchesMeterReplay pins the decoded evaluation's
// guarantee: for every evaluation mode (miss, correlation, approx),
// result i of the one-pass design batch is bit-identical to replaying
// the recording through the corresponding meter, for a real kernel
// stream. Each batch mixes Peek designs (whose per-record Peek
// computation the batch hoists and shares) with non-Peek ones.
func TestDecodedEvalMatchesMeterReplay(t *testing.T) {
	set := recordPathfinder(t)
	dec, err := DecodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := set.Get("pathfinder")
	k, ok := dec.Kernel("pathfinder")
	if !ok {
		t.Fatal("decoded set lost the kernel")
	}
	if k.NumRecords() != int(rec.NumOps()) {
		t.Fatalf("decoded %d records, recording holds %d", k.NumRecords(), rec.NumOps())
	}

	b, err := k.bounds()
	if err != nil {
		t.Fatal(err)
	}
	designs := append(append([]string{}, speculate.DesignSpace...), "oracle")
	meter, err := NewDSEMeter(designs, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(rec, meter); err != nil {
		t.Fatal(err)
	}
	miss, err := k.EvalMissBatch(designs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range designs {
		if want, _ := meter.Rate(d); miss[i] != want {
			t.Errorf("EvalMissBatch[%s] = %+v, meter replay = %+v", d, miss[i], want)
		}
	}

	cm, err := NewCorrMeter(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(rec, cm); err != nil {
		t.Fatal(err)
	}
	corr, err := k.EvalCorrBatch(Fig3Designs[:])
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range Fig3Designs {
		if want, _ := cm.RawRate(d); corr[i] != want {
			t.Errorf("EvalCorrBatch[%s] = %+v, meter replay = %+v", d, corr[i], want)
		}
	}

	approxDesigns := []string{"staticZero", "CASA", speculate.FinalDesign}
	am, err := NewApproxMeter(approxDesigns, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(rec, am); err != nil {
		t.Fatal(err)
	}
	approx, err := k.EvalApproxBatch(approxDesigns)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range approxDesigns {
		re := am.relErr[d]
		want := ApproxResult{Wrong: *am.wrong[d], MeanRelErr: re.mean(), WrongErrSum: re.sum}
		if approx[i] != want {
			t.Errorf("EvalApproxBatch[%s] = %+v, meter replay = %+v", d, approx[i], want)
		}
	}
}

// TestDecodedReplayMatchesRecordingReplay: the decoded form holds
// exactly the stream Recording.Decode delivers — order, masks, operands,
// carry-ins and sums.
func TestDecodedReplayMatchesRecordingReplay(t *testing.T) {
	set := recordPathfinder(t)
	dec, err := DecodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := set.Get("pathfinder")
	k, _ := dec.Kernel("pathfinder")

	var fromRec, fromDec captureTracer
	if err := replay(rec, &fromRec); err != nil {
		t.Fatal(err)
	}
	replayDecoded(k, &fromDec)
	if !reflect.DeepEqual(fromRec, fromDec) {
		t.Fatal("decoded replay stream differs from recording replay stream")
	}
	if dec.NumOps() != rec.NumOps() {
		t.Errorf("NumOps = %d, want %d", dec.NumOps(), rec.NumOps())
	}
	if dec.NumLanes() == 0 || int(dec.NumLanes()) != k.NumLanes() {
		t.Errorf("NumLanes = %d, kernel holds %d", dec.NumLanes(), k.NumLanes())
	}
}

// TestMatchesArms covers every mismatch arm of Decoded.Matches: each
// error must name both the captured and the requested value.
func TestMatchesArms(t *testing.T) {
	s := NewSet(2, 4, 7)
	s.Add("pathfinder", &gpusim.Recording{})
	dec, err := DecodeSet(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Matches(2, 4, 7); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	cases := []struct {
		name                string
		scale, sms          int
		seed                int64
		wantField, wantVals string
	}{
		{"scale", 3, 4, 7, "scale mismatch", "captured scale=2, replay requested scale=3"},
		{"sms", 2, 8, 7, "SM-count mismatch", "captured sms=4, replay requested sms=8"},
		{"seed", 2, 4, 9, "seed mismatch", "captured seed=7, replay requested seed=9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := dec.Matches(c.scale, c.sms, c.seed)
			if err == nil {
				t.Fatal("mismatch accepted")
			}
			if !strings.Contains(err.Error(), c.wantField) || !strings.Contains(err.Error(), c.wantVals) {
				t.Errorf("error %q should contain %q and %q", err, c.wantField, c.wantVals)
			}
		})
	}
}
