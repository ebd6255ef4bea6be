package gpusim_test

import (
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
)

// TestIssueGateNeverStale runs the whole scale-1 suite, barrier kernels
// included, under both schedulers at the default warp limits and at the
// refill limits (blocks retire and queued blocks launch mid-kernel), with
// the issue-gate check installed: at every cycle of every launch the
// scan's gate arrays must agree with the warps and pipes they summarize.
func TestIssueGateNeverStale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole suite four times")
	}
	for _, sched := range []gpusim.SchedPolicy{gpusim.LRR, gpusim.GTO} {
		for _, refill := range []bool{false, true} {
			cfg := gpusim.DefaultConfig()
			cfg.NumSMs = 2
			cfg.Scheduler = sched
			if refill {
				cfg.MaxWarpsPerSM = 16
				cfg.MaxBlocksPerSM = 2
			}
			for _, w := range kernels.Suite() {
				spec, err := w.Build(1)
				if err != nil {
					t.Fatal(err)
				}
				d, err := gpusim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				d.CheckIssueGate()
				if err := spec.Setup(d.Memory()); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Launch(spec.Kernel); err != nil {
					t.Fatalf("scheduler %v, refill %v, %s: %v", sched, refill, w.Name, err)
				}
			}
		}
	}
}
