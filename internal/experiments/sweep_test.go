package experiments

import (
	"bytes"
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
		var buf bytes.Buffer
		if _, err := trace.WriteDecoded(&buf, dec, opts); err != nil {
			t.Fatal(err)
		}
		for _, loadWorkers := range []int{1, 2, 8} {
			loaded, err := trace.ReadDecodedLimit(bytes.NewReader(buf.Bytes()), 0, loadWorkers)
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
	partial := trace.NewSet(cfg.Scale, cfg.NumSMs, cfg.Seed)
	if _, err := Fig5FromSet(cfg, partial, nil); err == nil {
		t.Error("Fig5FromSet accepted a set missing every suite kernel")
	}
}
