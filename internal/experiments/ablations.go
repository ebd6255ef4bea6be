package experiments

import (
	"st2gpu/internal/gpusim"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// AblationResult compares two configurations of the final design.
type AblationResult struct {
	Name     string
	WithRate float64 // misprediction rate with the feature
	SansRate float64 // without it
}

// suiteMissRates returns, in muts order, the average thread
// misprediction rate of the suite pass under each mutation of the
// default ST² device config. This is the hardware ST² path: the
// in-pipeline CRF's contention, arbitration and capacity interact with
// execution timing, so these ablations genuinely need re-simulation and
// cannot be answered from a recorded stream (contrast the predictor-only
// ablations, which evaluate the decoded baseline pass). A mutation that
// leaves the config unchanged reuses the memo's ST² pass; the rest run
// their whole (config × kernel) grid on one runGrid pool, and every
// launch's outputs are verified like any other experiment run: a mutated
// config must keep the adder exact.
func (c Config) suiteMissRates(muts ...func(*gpusim.Config)) ([]float64, error) {
	dcs := make([]gpusim.Config, len(muts))
	for i, mut := range muts {
		dcs[i] = c.deviceConfig(gpusim.ST2Adders)
		mut(&dcs[i])
	}
	ps, err := c.suite(dcs...)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		rates := make([]float64, len(p.runs))
		for k, r := range p.runs {
			rates[k] = r.stats.MispredictionRate()
		}
		out[i] = stats.Mean(rates)
	}
	return out, nil
}

// ablate compares the default ST² pass ("with" the feature) against the
// pass under the one mutation sans.
func (c Config) ablate(name string, sans func(*gpusim.Config)) (AblationResult, error) {
	r, err := c.suiteMissRates(func(*gpusim.Config) {}, sans)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: name, WithRate: r[0], SansRate: r[1]}, nil
}

// AblationPeek toggles the Peek static-resolution filter on the hardware
// ST² path (Section IV-B: "Retrofitting VaLHALLA with Peek reduces its
// misprediction rate by 18%" — here applied to the final design).
func AblationPeek(cfg Config) (AblationResult, error) {
	return cfg.ablate("Peek", func(dc *gpusim.Config) { dc.DisablePeek = true })
}

// AblationContention compares the hardware CRF (write-back contention,
// random arbitration, 16-entry table) against the idealized contention-
// free predictor the Figure 5 sweep assumes — quantifying what the
// paper's "random arbitration is enough" argument costs. "With" is the
// hardware constraint; "sans" is the idealized table.
func AblationContention(cfg Config) (AblationResult, error) {
	return cfg.ablate("CRF contention", func(dc *gpusim.Config) { dc.UseCRF = false })
}

// AblationSharing contrasts thread-history sharing policies on identical
// operation streams (Fig 5's right half): no disambiguation, Gtid
// isolation, and Ltid lane sharing. Like every Fig5 delegate it
// evaluates the designs over the shared decoded baseline pass.
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

// ApproximateAdderStudy evaluates uncorrected speculative addition under
// staticZero (the assumption of approximate adders [10]–[13]), CASA, and
// ST²'s own predictor — motivating the paper's guaranteed-correctness
// design point. The (kernel × design) grid runs on the decode-once sweep
// engine over the shared decoded baseline pass; rates are bit-identical
// at any cfg.SweepWorkers count.
func ApproximateAdderStudy(cfg Config) ([]ApproxRow, error) {
	dec, err := cfg.decoded()
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
