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

// These tests pin the record-once/replay-many contract at the driver
// level: every replay-fed analysis must produce rates byte-equal to the
// legacy sequential live-tracer path, for the full suite at scale 1.

func TestFig3ReplayMatchesLive(t *testing.T) {
	cfg := Default()
	live, err := Fig3Live(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Error("Fig3 replay rows differ from live-tracer rows")
	}
}

func TestFig5ReplayMatchesLive(t *testing.T) {
	cfg := Default()
	live, err := Fig5Live(cfg, nil) // full 12-design space
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Fig5(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Error("Fig5 replay rows differ from live-tracer rows")
	}

	// The same recordings answer the sweep from a file: capture the
	// suite once, roundtrip it through the set format, and require the
	// file-fed sweep to reproduce the live rates bit for bit.
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
	fromSet, err := Fig5FromSet(cfg, loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, fromSet) {
		t.Error("Fig5FromSet rows differ from live-tracer rows after a file roundtrip")
	}

	// Fig3 from the same capture — one recording feeds every meter.
	live3, err := Fig3Live(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromSet3, err := Fig3FromSet(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live3, fromSet3) {
		t.Error("Fig3FromSet rows differ from live-tracer rows")
	}

	// A set captured under one configuration must refuse to answer for
	// another: replaying it would silently produce wrong-config rates.
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

func TestApproximateAdderStudyReplayMatchesLive(t *testing.T) {
	cfg := Default()
	live, err := ApproximateAdderStudyLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ApproximateAdderStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Error("approximate-adder replay rows differ from live-tracer rows")
	}
}

func TestFig2ReplayMatchesLive(t *testing.T) {
	cfg := Default()
	const gtid, maxPts = 37, 30

	// Live reference: the value trace observes the sequential launch.
	spec, err := kernels.Pathfinder(cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	vt := trace.NewValueTrace(gtid, maxPts)
	if _, _, err := cfg.runSpec(spec, cfg.deviceConfig(gpusim.BaselineAdders), vt); err != nil {
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
