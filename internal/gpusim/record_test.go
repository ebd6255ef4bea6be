package gpusim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"st2gpu/internal/core"
	"st2gpu/internal/isa"
	"st2gpu/internal/metrics"
)

// recordRun launches prog with a recorder installed at the given worker
// count and returns the captured recording.
func recordRun(t testing.TB, prog *isa.Program, workers, grid, block int, setup func(m *Memory) error) *Recording {
	t.Helper()
	d, err := New(parallelConfig(workers, BaselineAdders))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(0)
	d.SetRecorder(rec)
	if setup != nil {
		if err := setup(d.Memory()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: grid, BlockDim: block}); err != nil {
		t.Fatal(err)
	}
	return rec.Recording()
}

func fpSetup(m *Memory) error {
	in := make([]float32, 32*128)
	for i := range in {
		in[i] = float32(i%257) * 0.375
	}
	return m.WriteF32s(0x1000, in)
}

func serializeRecording(t *testing.T, rec *Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordingBitIdenticalAcrossWorkers pins the tentpole determinism
// rule: because every SM appends to its own shard and shards fold in
// SM-ID order, the serialized recording must be byte-equal at any
// ParallelSMs worker count — recording no longer forces sequential.
func TestRecordingBitIdenticalAcrossWorkers(t *testing.T) {
	cases := []struct {
		name  string
		prog  *isa.Program
		grid  int
		block int
		setup func(m *Memory) error
	}{
		{"barrier", barrierKernel(t), 32, 128, nil},
		{"fp", fpKernel(t), 32, 128, fpSetup},
	}
	for _, tc := range cases {
		seq := recordRun(t, tc.prog, 1, tc.grid, tc.block, tc.setup)
		if seq.NumOps() == 0 {
			t.Fatalf("%s: recorded zero warp-add records", tc.name)
		}
		seqBytes := serializeRecording(t, seq)
		for _, workers := range []int{2, 8} {
			par := recordRun(t, tc.prog, workers, tc.grid, tc.block, tc.setup)
			if !bytes.Equal(seqBytes, serializeRecording(t, par)) {
				t.Errorf("%s: recording at ParallelSMs=%d is not byte-equal to sequential", tc.name, workers)
			}
		}
	}
}

// capturedWarp is one warp-synchronous tracer delivery.
type capturedWarp struct {
	kind     core.UnitKind
	pc, base uint32
	ops      [32]WarpAddOp
}

// captureTracer stores the full stream it observes.
type captureTracer struct{ evs []capturedWarp }

func (c *captureTracer) TraceWarpAdds(kind core.UnitKind, pc, base uint32, ops *[32]WarpAddOp) {
	c.evs = append(c.evs, capturedWarp{kind: kind, pc: pc, base: base, ops: *ops})
}

// TestReplayMatchesLiveTracer installs a live tracer and a recorder on
// the same launch (the tracer forces the sequential path, so the live
// stream is the globally ordered reference), then replays the recording
// and requires the decoded stream — order, masks, operands, carry-ins,
// and reconstructed sums — to equal the live one exactly.
func TestReplayMatchesLiveTracer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  *isa.Program
		grid  int
		block int
		setup func(m *Memory) error
	}{
		{"barrier", barrierKernel(t), 32, 128, nil},
		{"fp", fpKernel(t), 32, 128, fpSetup},
	} {
		d, err := New(parallelConfig(0, BaselineAdders))
		if err != nil {
			t.Fatal(err)
		}
		live := &captureTracer{}
		rec := NewRecorder(0)
		d.SetTracer(live)
		d.SetRecorder(rec)
		if tc.setup != nil {
			if err := tc.setup(d.Memory()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Launch(&Kernel{Program: tc.prog, GridDim: tc.grid, BlockDim: tc.block}); err != nil {
			t.Fatal(err)
		}
		replayed := &captureTracer{}
		if err := rec.Recording().Replay(replayed); err != nil {
			t.Fatalf("%s: replay: %v", tc.name, err)
		}
		if len(live.evs) == 0 {
			t.Fatalf("%s: live tracer saw no operations", tc.name)
		}
		if !reflect.DeepEqual(live.evs, replayed.evs) {
			t.Errorf("%s: replayed stream differs from live stream (%d live vs %d replayed records)",
				tc.name, len(live.evs), len(replayed.evs))
		}
	}
}

// TestRecordingCapFailsLoudly pins the memory-accounting contract: a
// recording that exceeds the configured cap must fail the launch with a
// clear error, not exhaust host memory.
func TestRecordingCapFailsLoudly(t *testing.T) {
	d, err := New(parallelConfig(0, BaselineAdders))
	if err != nil {
		t.Fatal(err)
	}
	d.SetRecorder(NewRecorder(512))
	if err := fpSetup(d.Memory()); err != nil {
		t.Fatal(err)
	}
	_, err = d.Launch(&Kernel{Program: fpKernel(t), GridDim: 32, BlockDim: 128})
	if err == nil {
		t.Fatal("launch succeeded despite a 512-byte recording cap")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Errorf("cap error %q does not mention the cap", err)
	}
}

// TestRecordingLaneCount pins the lane counter decode passes size their
// flat arrays from: it must equal the decoded stream's active-lane total.
func TestRecordingLaneCount(t *testing.T) {
	rec := recordRun(t, fpKernel(t), 0, 32, 128, fpSetup)
	var want uint64
	if err := rec.Decode(func(r *DecodedRecord) error {
		want += uint64(len(r.EA))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want == 0 || rec.NumLanes() != want {
		t.Fatalf("NumLanes() = %d, decoded stream holds %d active thread-ops", rec.NumLanes(), want)
	}
}

// TestRecordBytesGauge checks the per-launch recorded-bytes gauge is
// published when (and only when) a recorder is installed, so plain runs
// keep their registry snapshot unchanged.
func TestRecordBytesGauge(t *testing.T) {
	run := func(withRecorder bool) map[string]any {
		d, err := New(parallelConfig(0, BaselineAdders))
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		d.SetMetrics(reg)
		if withRecorder {
			d.SetRecorder(NewRecorder(0))
		}
		if _, err := d.Launch(&Kernel{Program: barrierKernel(t), GridDim: 8, BlockDim: 64}); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	with := run(true)
	v, ok := with["sim.record_bytes"]
	if !ok {
		t.Fatal("sim.record_bytes missing from recording run's snapshot")
	}
	if f, _ := v.(float64); f <= 0 {
		t.Errorf("sim.record_bytes = %v, want > 0", v)
	}
	if _, ok := run(false)["sim.record_bytes"]; ok {
		t.Error("sim.record_bytes registered on a run without a recorder")
	}
}
