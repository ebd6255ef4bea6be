package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/trace"
)

// TestFromSetMatchesFreshRecording pins the record-once/replay-many
// contract across processes: a suite capture round-tripped through the
// recording-set file answers Figure 5 and Figure 3 with rows equal to a
// fresh run's, and refuses to answer for a configuration it was not
// recorded under.
func TestFromSetMatchesFreshRecording(t *testing.T) {
	cfg := Default()
	set, err := RecordSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(set.Names()); got != len(kernels.Suite()) {
		t.Fatalf("RecordSuite captured %d kernels, want %d", got, len(kernels.Suite()))
	}
	path := filepath.Join(t.TempDir(), "suite.st2rec")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadSetFile(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh5, err := Fig5(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromSet5, err := Fig5FromSet(cfg, loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh5, fromSet5) {
		t.Error("Fig5FromSet rows differ from Fig5 rows after a file roundtrip")
	}
	fresh3, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromSet3, err := Fig3FromSet(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh3, fromSet3) {
		t.Error("Fig3FromSet rows differ from Fig3 rows after a file roundtrip")
	}

	// Replaying a set under another configuration would silently produce
	// wrong-config rates.
	bad := cfg
	bad.Scale = cfg.Scale + 1
	if _, err := Fig5FromSet(bad, loaded, nil); err == nil {
		t.Error("Fig5FromSet accepted a set recorded at a different scale")
	}
	bad = cfg
	bad.NumSMs = cfg.NumSMs + 1
	if _, err := Fig3FromSet(bad, loaded); err == nil {
		t.Error("Fig3FromSet accepted a set recorded with a different SM count")
	}
}

// TestFig2ReplayMatchesLive checks Figure 2's recorded-and-replayed
// value series against a value trace installed as a live tracer on the
// sequential launch path.
func TestFig2ReplayMatchesLive(t *testing.T) {
	cfg := Default()
	const gtid, maxPts = 37, 30

	spec, err := kernels.Pathfinder(cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	d, err := gpusim.New(cfg.deviceConfig(gpusim.BaselineAdders))
	if err != nil {
		t.Fatal(err)
	}
	vt := trace.NewValueTrace(gtid, maxPts)
	d.SetTracer(vt)
	if err := spec.Setup(d.Memory()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(spec.Kernel); err != nil {
		t.Fatal(err)
	}
	live := make([]Fig2Series, 0, 8)
	for _, pc := range vt.PCs() {
		live = append(live, Fig2Series{PC: pc, Points: vt.Series(pc)})
	}

	replayed, err := Fig2(cfg, gtid, maxPts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Error("Fig2 replay series differ from live-tracer series")
	}
}

func TestRecordSuiteHonorsByteCap(t *testing.T) {
	cfg := Default()
	cfg.RecordMaxBytes = 256
	_, err := RecordSuite(cfg)
	if err == nil {
		t.Fatal("RecordSuite succeeded despite a 256-byte recording cap")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Errorf("cap error %q does not mention the cap", err)
	}
}
