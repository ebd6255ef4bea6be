package experiments

import (
	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// AblationResult compares two configurations of the final design.
type AblationResult struct {
	Name     string
	WithRate float64 // misprediction rate with the feature
	SansRate float64 // without it
}

// suiteMissRates runs the whole suite once per device-config mutation and
// returns each config's average thread misprediction rate, in muts order.
// This is the hardware ST² path: the in-pipeline CRF's contention,
// arbitration and capacity interact with execution timing, so these
// ablations genuinely need re-simulation and cannot be answered from a
// recorded stream (contrast the predictor-only ablations, which ride
// Fig5's record-once/replay-many path). The whole (config × kernel) grid
// shares one forEach pool, and every launch's outputs are verified like
// any other experiment run: a mutated config must keep the adder exact.
func (c Config) suiteMissRates(muts ...func(*gpusim.Config)) ([]float64, error) {
	n := len(kernels.Suite())
	rates := make([]float64, len(muts)*n)
	err := c.forEachPassKernel(len(muts), func(cell int, w kernels.Workload) error {
		spec, err := w.Build(c.Scale)
		if err != nil {
			return err
		}
		dc := c.deviceConfig(gpusim.ST2Adders)
		muts[cell/n](&dc)
		rs, _, err := c.runSpec(spec, dc)
		if err != nil {
			return err
		}
		rates[cell] = rs.MispredictionRate()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(muts))
	for m := range muts {
		out[m] = stats.Mean(rates[m*n : (m+1)*n])
	}
	return out, nil
}

// AblationPeek toggles the Peek static-resolution filter on the hardware
// ST² path (Section IV-B: "Retrofitting VaLHALLA with Peek reduces its
// misprediction rate by 18%" — here applied to the final design).
func AblationPeek(cfg Config) (AblationResult, error) {
	r, err := cfg.suiteMissRates(
		func(*gpusim.Config) {},
		func(dc *gpusim.Config) { dc.DisablePeek = true },
	)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "Peek", WithRate: r[0], SansRate: r[1]}, nil
}

// AblationContention compares the hardware CRF (write-back contention,
// random arbitration, 16-entry table) against the idealized contention-
// free predictor the Figure 5 sweep assumes — quantifying what the
// paper's "random arbitration is enough" argument costs.
func AblationContention(cfg Config) (AblationResult, error) {
	r, err := cfg.suiteMissRates(
		func(*gpusim.Config) {},
		func(dc *gpusim.Config) { dc.UseCRF = false },
	)
	if err != nil {
		return AblationResult{}, err
	}
	// "With" the hardware constraint; "sans" is the idealized table.
	return AblationResult{Name: "CRF contention", WithRate: r[0], SansRate: r[1]}, nil
}

// AblationSharing contrasts thread-history sharing policies on identical
// operation streams (Fig 5's right half): no disambiguation, Gtid
// isolation, and Ltid lane sharing. Like every Fig5 delegate it records
// each kernel once and replays the designs from the captured stream.
func AblationSharing(cfg Config) ([]Fig5Row, error) {
	return Fig5(cfg, []string{
		"Prev+ModPC4+Peek",
		"Gtid+Prev+ModPC4+Peek",
		"Ltid+Prev+ModPC4+Peek",
	})
}

// AblationXORHash checks the paper's claim that "more complex PC-based
// indexing (e.g., XOR-hash of 4-bit PC chunks) provides no additional
// benefits".
func AblationXORHash(cfg Config) ([]Fig5Row, error) {
	return Fig5(cfg, []string{
		"Ltid+Prev+ModPC4+Peek",
		"Ltid+Prev+XorPC4+Peek",
	})
}

// ApproxRow reports the cost of dropping ST²'s correction pass: the
// fraction of adder results that would simply be wrong under an
// approximate (no-correction) speculative adder, per prediction scheme.
type ApproxRow struct {
	Design       string
	WrongResults float64
	MeanRelError float64
}

// ApproximateAdderStudy runs the suite once and evaluates uncorrected
// speculative addition under staticZero (the assumption of approximate
// adders [10]–[13]), CASA, and ST²'s own predictor — motivating the
// paper's guaranteed-correctness design point. The suite is recorded
// once, decoded once, and the (kernel × design) grid runs on the
// decode-once sweep engine; rates are bit-identical at any
// cfg.SweepWorkers count.
func ApproximateAdderStudy(cfg Config) ([]ApproxRow, error) {
	dec, err := decodeSuite(cfg)
	if err != nil {
		return nil, err
	}
	return approxFromDecoded(cfg, dec, []string{"staticZero", "CASA", speculate.FinalDesign})
}

// CRFSizeRow is one point of the CRF-capacity sweep.
type CRFSizeRow struct {
	Entries  int
	MissRate float64
}

// AblationCRFSize sweeps the Carry Register File's entry count (the
// paper's 16-entry PC[3:0] table against smaller and larger tables) on
// the hardware path, quantifying how much PC aliasing the 4-bit index
// actually costs.
func AblationCRFSize(cfg Config, sizes []int) ([]CRFSizeRow, error) {
	if sizes == nil {
		sizes = []int{4, 8, 16, 32, 64}
	}
	muts := make([]func(*gpusim.Config), len(sizes))
	for i, n := range sizes {
		muts[i] = func(dc *gpusim.Config) { dc.CRFEntries = n }
	}
	rates, err := cfg.suiteMissRates(muts...)
	if err != nil {
		return nil, err
	}
	out := make([]CRFSizeRow, len(sizes))
	for i, n := range sizes {
		out[i] = CRFSizeRow{Entries: n, MissRate: rates[i]}
	}
	return out, nil
}

// AblationHistoryDepth compares the final design against its depth-2
// variant (the paper's temporal-axis exploration).
func AblationHistoryDepth(cfg Config) ([]Fig5Row, error) {
	return Fig5(cfg, []string{
		"Ltid+Prev+ModPC4+Peek",
		"Ltid+Prev2+ModPC4+Peek",
	})
}
