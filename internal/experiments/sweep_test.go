package experiments

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"st2gpu/internal/speculate"
	"st2gpu/internal/trace"
)

// TestSweepBitIdenticalAcrossWorkers pins the sweep-grid determinism
// rule: the (kernel × design) grid must produce deep-equal rows at any
// SweepWorkers count and after a store round trip. Run under -race by
// `make check`, this also proves the decoded arrays are treated as
// read-only by concurrent evaluations.
func TestSweepBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := Default()
	set, err := RecordSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := trace.DecodeSet(set)
	if err != nil {
		t.Fatal(err)
	}

	var fig5Rows [][]Fig5Row
	var fig3Rows [][]Fig3Row
	var approxRows [][]ApproxRow
	for _, workers := range []int{1, 2, 5, 16} {
		c := cfg
		c.SweepWorkers = workers
		f5, err := Fig5FromDecoded(c, dec, nil)
		if err != nil {
			t.Fatal(err)
		}
		fig5Rows = append(fig5Rows, f5)
		f3, err := Fig3FromDecoded(c, dec)
		if err != nil {
			t.Fatal(err)
		}
		fig3Rows = append(fig3Rows, f3)
		ax, err := approxFromDecoded(c, dec, []string{"staticZero", "CASA", speculate.FinalDesign})
		if err != nil {
			t.Fatal(err)
		}
		approxRows = append(approxRows, ax)
	}
	for i := 1; i < len(fig5Rows); i++ {
		if !reflect.DeepEqual(fig5Rows[0], fig5Rows[i]) {
			t.Errorf("Fig5 rows differ between SweepWorkers=1 and the %d-th worker config", i)
		}
		if !reflect.DeepEqual(fig3Rows[0], fig3Rows[i]) {
			t.Errorf("Fig3 rows differ between SweepWorkers=1 and the %d-th worker config", i)
		}
		if !reflect.DeepEqual(approxRows[0], approxRows[i]) {
			t.Errorf("approx rows differ between SweepWorkers=1 and the %d-th worker config", i)
		}
	}

	// The store round-trip must be invisible to the sweep: a Decoded
	// loaded back from its columnar store form produces the same Fig5
	// rows, at several load and sweep worker counts.
	for _, opts := range []trace.StoreOptions{{}, {OmitDerived: true}} {
		path := filepath.Join(t.TempDir(), "suite.decoded")
		if err := dec.WriteStoreFile(path, opts); err != nil {
			t.Fatal(err)
		}
		h, err := trace.OpenStore(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, loadWorkers := range []int{1, 2, 8} {
			loaded, err := h.LoadKernels(h.Names(), loadWorkers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, loaded) {
				t.Fatalf("store-loaded Decoded (omit=%v, %d load workers) is not bit-identical", opts.OmitDerived, loadWorkers)
			}
			c := cfg
			c.SweepWorkers = loadWorkers
			f5, err := Fig5FromDecoded(c, loaded, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fig5Rows[0], f5) {
				t.Errorf("Fig5 rows from the store-loaded Decoded (omit=%v, %d workers) differ from the decode path",
					opts.OmitDerived, loadWorkers)
			}
		}
	}

	// Bad-config and bad-kernel-list rejection on the decoded form.
	bad := cfg
	bad.Seed = cfg.Seed + 1
	if _, err := Fig5FromDecoded(bad, dec, nil); err == nil {
		t.Error("Fig5FromDecoded accepted a decoded set with a different seed")
	}
	partial, err := trace.DecodeSet(trace.NewSet(cfg.Scale, cfg.NumSMs, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig5FromDecoded(cfg, partial, nil); err == nil {
		t.Error("Fig5FromDecoded accepted a decoded set missing every suite kernel")
	}
}

// TestLaneGridPartition checks the lane-weighted grid on synthetic lane
// counts: every (kernel, design) pair lands in exactly one non-empty
// cell, cells come in non-increasing lanes × designs order, and each
// kernel gets clamp(⌈2·W·lanes/Σlanes⌉, 1, nd) cells, so one at or under
// the target cell size Σlanes/(2W) stays a single cell.
func TestLaneGridPartition(t *testing.T) {
	suites := map[string][]uint64{
		"one kernel at 90%": {9000, 400, 300, 200, 100},
		"zero-lane kernels": {0, 7000, 0, 2000, 1000, 0},
		"zero-lane suite":   {0, 0, 0},
		"even":              {500, 500, 500, 500},
	}
	for name, lanes := range suites {
		var total uint64
		for _, n := range lanes {
			total += n
		}
		for _, nd := range []int{1, 3, 12} {
			for _, w := range []int{1, 2, 16} {
				cells := laneGrid(w, lanes, nd)
				seen := make([]int, len(lanes)*nd)
				perKernel := make([]int, len(lanes))
				for x, c := range cells {
					if c.lo >= c.hi || c.lo < 0 || c.hi > nd {
						t.Fatalf("%s nd=%d W=%d: cell %d has design range [%d,%d)", name, nd, w, x, c.lo, c.hi)
					}
					for d := c.lo; d < c.hi; d++ {
						seen[c.kernel*nd+d]++
					}
					perKernel[c.kernel]++
					if x > 0 {
						p := cells[x-1]
						if lanes[p.kernel]*uint64(p.hi-p.lo) < lanes[c.kernel]*uint64(c.hi-c.lo) {
							t.Errorf("%s nd=%d W=%d: cell %d costs more than cell %d", name, nd, w, x, x-1)
						}
					}
				}
				for i, n := range seen {
					if n != 1 {
						t.Errorf("%s nd=%d W=%d: kernel %d design %d is in %d cells", name, nd, w, i/nd, i%nd, n)
					}
				}
				for k, n := range lanes {
					want := 1
					if total > 0 {
						want = int(math.Ceil(2 * float64(w) * float64(n) / float64(total)))
					}
					want = max(1, min(want, nd))
					if perKernel[k] != want {
						t.Errorf("%s nd=%d W=%d: kernel %d (%d of %d lanes) has %d cells, want %d",
							name, nd, w, k, n, total, perKernel[k], want)
					}
					if 2*uint64(w)*n <= total && perKernel[k] != 1 {
						t.Errorf("%s nd=%d W=%d: kernel %d under the target cell size was split", name, nd, w, k)
					}
				}
			}
		}
	}
}
