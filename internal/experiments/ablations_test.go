package experiments

import (
	"errors"
	"strings"
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/metrics"
)

// suiteMissRates runs its whole (config × kernel) grid on one pool. Each
// config's rate must not depend on which configs share the grid, and every
// launch must go through the shared experiment path, so it lands in the
// configured metrics registry.
func TestSuiteMissRatesGridMatchesSinglePasses(t *testing.T) {
	cfg := Default()
	cfg.Metrics = metrics.New()
	crf4 := func(dc *gpusim.Config) { dc.CRFEntries = 4 }
	grid, err := cfg.suiteMissRates(func(*gpusim.Config) {}, crf4, func(dc *gpusim.Config) { dc.DisablePeek = true })
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(3 * len(kernels.Suite()))
	if got := cfg.Metrics.Counter("sim.launches").Value(); got != n {
		t.Errorf("metrics registry saw %d launches, want %d", got, n)
	}
	single, err := Default().suiteMissRates(crf4)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 3 || grid[1] != single[0] {
		t.Errorf("CRF-4 rate %v in a three-config grid, %v alone", grid, single)
	}
	if grid[0] == grid[2] {
		t.Errorf("Peek on and off gave the same rate %v", grid[0])
	}
}

// The hardware ablations verify each launch's outputs like every other
// experiment run: runSpec rejects a mutated-config launch whose output
// check fails instead of returning its statistics.
func TestRunSpecVerifiesMutatedConfigOutputs(t *testing.T) {
	cfg := Default()
	spec, err := kernels.Suite()[0].Build(cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Verify == nil {
		t.Fatalf("%s has no output check", spec.Name)
	}
	spec.Verify = func(*gpusim.Memory) error { return errors.New("wrong sum") }
	dc := cfg.deviceConfig(gpusim.ST2Adders)
	dc.CRFEntries = 4
	if _, err := cfg.runSpec(spec, dc, nil); err == nil || !strings.Contains(err.Error(), "output check") {
		t.Errorf("runSpec with a failing output check returned %v", err)
	}
}
