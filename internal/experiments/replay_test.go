package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/trace"
)

// TestSuiteStoreMatchesFreshRecording pins the record-once/load-many
// contract across processes: the first SuiteStore call records, decodes
// and writes the store, the second loads it from disk, and both answer
// Figures 2, 3 and 5 with rows equal to a fresh run's. A store captured
// under another configuration is refused with the per-field Matches
// error, whether it is loaded or only opened for shard workers.
func TestSuiteStoreMatchesFreshRecording(t *testing.T) {
	cfg := Default()
	path := filepath.Join(t.TempDir(), "suite.decoded")
	built, err := SuiteStore(cfg, path, trace.StoreOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(built.Names()); got != len(kernels.Suite()) {
		t.Fatalf("SuiteStore built %d kernels, want %d", got, len(kernels.Suite()))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("SuiteStore did not write the store: %v", err)
	}
	loaded, err := SuiteStore(cfg, path, trace.StoreOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, loaded) {
		t.Fatal("the store loaded from disk differs from the decode that built it")
	}

	const gtid, maxPts = 37, 30
	fresh2, err := Fig2(cfg, gtid, maxPts)
	if err != nil {
		t.Fatal(err)
	}
	fromStore2, err := Fig2FromDecoded(cfg, loaded, gtid, maxPts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh2) == 0 || !reflect.DeepEqual(fresh2, fromStore2) {
		t.Error("Fig2FromDecoded series differ from Fig2 series after a store roundtrip")
	}
	fresh3, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromStore3, err := Fig3FromDecoded(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh3, fromStore3) {
		t.Error("Fig3FromDecoded rows differ from Fig3 rows after a store roundtrip")
	}
	fresh5, err := Fig5(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromStore5, err := Fig5FromDecoded(cfg, loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh5, fromStore5) {
		t.Error("Fig5FromDecoded rows differ from Fig5 rows after a store roundtrip")
	}

	// Answering from a store captured under another configuration would
	// silently produce wrong-config rates.
	for _, load := range []bool{true, false} {
		bad := cfg
		bad.Scale = cfg.Scale + 1
		if _, err := SuiteStore(bad, path, trace.StoreOptions{}, load); err == nil || !strings.Contains(err.Error(), "scale mismatch") {
			t.Errorf("load=%v: SuiteStore error = %v, want a scale mismatch", load, err)
		}
		bad = cfg
		bad.NumSMs = cfg.NumSMs + 1
		if _, err := SuiteStore(bad, path, trace.StoreOptions{}, load); err == nil || !strings.Contains(err.Error(), "SM-count mismatch") {
			t.Errorf("load=%v: SuiteStore error = %v, want an SM-count mismatch", load, err)
		}
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
