package experiments

import (
	"reflect"
	"sync"
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
)

// TestSuiteRunsOnePassPerConfig pins what a full reproduction simulates
// on one Default(): one recorded baseline pass, one ST² pass, six mutated
// ST² passes (Peek off, CRF off, CRF sizes 4/8/32/64) and the 123 power
// micro-stressors. A second Default() shares nothing with the first, and
// the shared recorded baseline pass reports exactly what a plain
// unrecorded launch of each suite kernel does.
func TestSuiteRunsOnePassPerConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every reproduction driver at scale 1")
	}
	n := uint64(len(kernels.Suite()))
	cfg := Default()
	cfg.Metrics = metrics.New()
	for _, d := range reproDrivers {
		if _, err := d.call(cfg); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}
	if got, want := cfg.Metrics.Counter("sim.launches").Value(), 8*n+kernels.NumMicro; got != want {
		t.Errorf("the reproduction launched %d kernels, want %d", got, want)
	}
	if got := cfg.Metrics.Counter("experiments.suite_passes.run").Value(); got != 8 {
		t.Errorf("%d suite passes ran, want 8", got)
	}

	again := Default()
	again.Metrics = metrics.New()
	if _, err := Fig1(again); err != nil {
		t.Fatal(err)
	}
	if got := again.Metrics.Counter("sim.launches").Value(); got != n {
		t.Errorf("Fig1 on a second Default() launched %d kernels, want %d", got, n)
	}

	ps, err := cfg.suite(cfg.deviceConfig(gpusim.BaselineAdders))
	if err != nil {
		t.Fatal(err)
	}
	base := ps[0]
	for i, w := range kernels.Suite() {
		spec, err := w.Build(cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		r, err := cfg.runSpec(spec, cfg.deviceConfig(gpusim.BaselineAdders), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.runs[i].stats, r.stats) {
			t.Errorf("%s: the recorded baseline pass's RunStats differ from a plain launch's", w.Name)
		}
		if !reflect.DeepEqual(base.runs[i].prices, r.prices) {
			t.Errorf("%s: the recorded baseline pass's prices differ from a plain launch's", w.Name)
		}
	}
}

// TestSuitePassesSharedAcrossConcurrentDrivers runs drivers that need
// overlapping passes concurrently on one Config: each pass launches once,
// the others wait for it, and every executed pass emits one
// experiments.suite_pass span naming its mode and mutated field.
func TestSuitePassesSharedAcrossConcurrentDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the suite three times at scale 1")
	}
	cfg := Default()
	cfg.Metrics = metrics.New()
	cfg.Obs = obs.New()
	drivers := []func(Config) error{
		func(c Config) error { _, _, err := Fig7(c); return err },
		func(c Config) error { _, err := PerfOverhead(c); return err },
		func(c Config) error { _, err := AblationCRFSize(c, []int{4, 16}); return err },
	}
	errs := make([]error, len(drivers))
	var wg sync.WaitGroup
	for i, d := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d(cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("driver %d: %v", i, err)
		}
	}
	n := uint64(len(kernels.Suite()))
	if got := cfg.Metrics.Counter("sim.launches").Value(); got != 3*n {
		t.Errorf("%d launches, want %d: baseline, ST² and CRF-4 once each", got, 3*n)
	}
	run := cfg.Metrics.Counter("experiments.suite_passes.run").Value()
	reused := cfg.Metrics.Counter("experiments.suite_passes.reused").Value()
	if run != 3 || reused != 3 {
		t.Errorf("suite passes run %d, reused %d; want 3 and 3", run, reused)
	}
	got := map[string]int{}
	for _, s := range cfg.Obs.Spans() {
		if s.Name != "experiments.suite_pass" {
			continue
		}
		key := ""
		for _, a := range s.Attrs {
			switch a.Key {
			case "mode":
				key = a.Value.(string) + key
			case "crf_entries":
				key += "/crf_entries=4"
				if a.Value.(int64) != 4 {
					t.Errorf("crf_entries attribute %v, want 4", a.Value)
				}
			case "disable_peek", "use_crf":
				t.Errorf("unexpected mutated field %s on a pass span", a.Key)
			}
		}
		got[key]++
	}
	want := map[string]int{"baseline": 1, "st2": 1, "st2/crf_entries=4": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("suite_pass spans %v, want %v", got, want)
	}
}

// TestDecodedKeptUntilNextPass pins the memo's decoded-form policy:
// requests share one decode until a suite pass launches, and the next
// request decodes the kept recordings again, equal to the first decode.
func TestDecodedKeptUntilNextPass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the suite twice at scale 1")
	}
	cfg := Default()
	first, err := cfg.decoded()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := cfg.decoded(); err != nil || again != first {
		t.Fatalf("a second request decoded again (err %v)", err)
	}
	if _, err := Fig6(cfg); err != nil {
		t.Fatal(err)
	}
	after, err := cfg.decoded()
	if err != nil {
		t.Fatal(err)
	}
	if after == first {
		t.Error("the decoded form outlived a suite pass launch")
	}
	if !reflect.DeepEqual(after, first) {
		t.Error("decoding the kept recordings again gave a different decoded form")
	}
}
