package gpusim_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_runs.txt from the current simulator")

const goldenRunsPath = "testdata/golden_runs.txt"

// goldenConfigs are the simulator configurations whose complete output the
// golden file pins: both adder modes, both ST² speculation paths (the CRF
// and the trace-level predictor), and the GTO scheduler, each on the
// sequential and the parallel per-SM launch path. The refill configs
// shrink the per-SM warp and block limits so that, unlike at the default
// limits, blocks retire and queued blocks launch mid-kernel under both
// schedulers.
func goldenConfigs() []struct {
	name string
	cfg  gpusim.Config
} {
	base := gpusim.DefaultConfig()
	base.NumSMs = 2

	baseline := base
	baseline.AdderMode = gpusim.BaselineAdders
	crf := base
	predictor := base
	predictor.UseCRF = false
	gto := base
	gto.Scheduler = gpusim.GTO

	refill := func(c gpusim.Config, sched gpusim.SchedPolicy) gpusim.Config {
		c.MaxWarpsPerSM = 16
		c.MaxBlocksPerSM = 2
		c.Scheduler = sched
		return c
	}

	var out []struct {
		name string
		cfg  gpusim.Config
	}
	for _, c := range []struct {
		name string
		cfg  gpusim.Config
	}{
		{"baseline", baseline},
		{"st2-crf", crf},
		{"st2-predictor", predictor},
		{"st2-crf-gto", gto},
		{"baseline-refill", refill(baseline, gpusim.LRR)},
		{"baseline-refill-gto", refill(baseline, gpusim.GTO)},
		{"st2-crf-refill", refill(crf, gpusim.LRR)},
		{"st2-crf-refill-gto", refill(crf, gpusim.GTO)},
	} {
		for _, workers := range []int{1, 2} {
			cfg := c.cfg
			cfg.ParallelSMs = workers
			out = append(out, struct {
				name string
				cfg  gpusim.Config
			}{fmt.Sprintf("%s/w%d", c.name, workers), cfg})
		}
	}
	return out
}

// goldenRun launches one suite kernel at scale 1 with a recorder installed
// and returns the sha256 of its complete RunStats and of its recording.
// RunStats is hashed through its JSON form: every field is exported, maps
// marshal in key order, and floats marshal to their shortest exact form.
// The same launch without a recorder must produce identical RunStats.
func goldenRun(t *testing.T, w kernels.Workload, cfg gpusim.Config) (statsSum, recSum string) {
	t.Helper()
	launch := func(record bool) (*gpusim.RunStats, []byte) {
		spec, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := gpusim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rec *gpusim.Recorder
		if record {
			rec = gpusim.NewRecorder(0)
			d.SetRecorder(rec)
		}
		if err := spec.Setup(d.Memory()); err != nil {
			t.Fatal(err)
		}
		rs, err := d.Launch(spec.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Verify != nil {
			if err := spec.Verify(d.Memory()); err != nil {
				t.Fatalf("%s: verify: %v", w.Name, err)
			}
		}
		if rec == nil {
			return rs, nil
		}
		var buf bytes.Buffer
		if _, err := rec.Recording().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return rs, buf.Bytes()
	}
	recorded, recBytes := launch(true)
	plain, _ := launch(false)
	if !reflect.DeepEqual(recorded, plain) {
		t.Fatalf("%s: installing a recorder changed RunStats", w.Name)
	}
	js, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(js)
	r := sha256.Sum256(recBytes)
	return hex.EncodeToString(s[:]), hex.EncodeToString(r[:])
}

// TestGoldenRuns pins the simulator's complete output — every RunStats
// field (per-unit stats, CRF stats, both histograms, per-SM cycles, cache,
// register and memory counters) and the recording bytes — for every suite
// kernel under every golden configuration. Any change to the interpreter
// that is meant to be a pure refactor must leave this file untouched;
// regenerate it with -update-golden only for a deliberate model change.
func TestGoldenRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole suite 32 times")
	}
	var got []string
	for _, c := range goldenConfigs() {
		for _, w := range kernels.Suite() {
			st, rec := goldenRun(t, w, c.cfg)
			got = append(got, fmt.Sprintf("%s %s stats=%s rec=%s", c.name, w.Name, st, rec))
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenRunsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRunsPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenRunsPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d runs, simulator produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
