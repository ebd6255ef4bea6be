// The benchmark harness: one benchmark per figure and table of the
// paper's evaluation (Sections III–VI), plus the ablations DESIGN.md
// calls out and microarchitectural throughput benches. Each experiment
// benchmark prints the rows the paper plots (once) and reports its
// headline number as a custom metric.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package st2gpu

import (
	"fmt"
	"testing"

	"st2gpu/internal/adder"
	"st2gpu/internal/circuit"
	"st2gpu/internal/core"
	"st2gpu/internal/experiments"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/speculate"
)

func benchCfg() experiments.Config { return experiments.Default() }

// --- Figure 1: dynamic instruction mix ---

func BenchmarkFig1InstructionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nFigure 1 — dynamic instruction mix (ALU add / FPU add / ALU other / FPU other / rest):")
			for _, r := range rows {
				fmt.Printf("  %-12s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
					r.Kernel, 100*r.ALUAdd, 100*r.FPUAdd, 100*r.ALUOther, 100*r.FPUOther, 100*r.Other)
			}
			avg := rows[len(rows)-1]
			b.ReportMetric(100*(avg.ALUAdd+avg.FPUAdd), "%add-instrs")
		}
	}
}

// --- Figure 2: value evolution of the pathfinder hot loop ---

func BenchmarkFig2ValueEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig2(benchCfg(), 37, 6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nFigure 2 — pathfinder thread 37, addition results per PC (first iterations):")
			for _, s := range series {
				fmt.Printf("  PC%-3d:", s.PC)
				for _, p := range s.Points {
					fmt.Printf(" %7d", p.Value)
				}
				fmt.Println()
			}
			b.ReportMetric(float64(len(series)), "add-PCs")
		}
	}
}

// --- Figure 3: spatio-temporal carry correlation ---

func BenchmarkFig3Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nFigure 3 — carry-in match rates (Prev+Gtid / Prev+FullPC+Gtid / Prev+FullPC+Ltid):")
			for _, r := range rows {
				fmt.Printf("  %-12s %5.1f%% %5.1f%% %5.1f%%\n",
					r.Kernel, 100*r.Rates[0], 100*r.Rates[1], 100*r.Rates[2])
			}
			avg := rows[len(rows)-1]
			fmt.Println("  (paper's averages: 50% / 83% / 89%)")
			b.ReportMetric(100*avg.Rates[2], "%ltid-match")
		}
	}
}

// --- Figure 5: carry-speculation design space ---

func BenchmarkFig5DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nFigure 5 — average thread misprediction rate per speculation design:")
			for _, r := range rows {
				fmt.Printf("  %-26s %6.2f%%\n", r.Design, 100*r.MissRate)
			}
			fmt.Println("  (paper: staticZero high, VaLHALLA ~26%, final design ~9%)")
			b.ReportMetric(100*rows[len(rows)-1].MissRate, "%final-missrate")
		}
	}
}

// --- Figure 6: per-kernel misprediction on the hardware ST² path ---

func BenchmarkFig6Misprediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nFigure 6 — thread misprediction rate per kernel (ST², CRF + arbitration):")
			for _, r := range rows {
				fmt.Printf("  %-12s %6.2f%%  (recompute avg %.2f, max %d)\n",
					r.Kernel, 100*r.MissRate, r.MeanRecompute, r.MaxRecompute)
			}
			avg := rows[len(rows)-1]
			fmt.Println("  (paper: 9% average)")
			b.ReportMetric(100*avg.MissRate, "%missrate")
		}
	}
}

// --- Section VI: slices recomputed per misprediction ---

func BenchmarkRecomputedSlices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			avg := rows[len(rows)-1]
			fmt.Printf("\nSection VI — slices recomputed per misprediction: avg %.2f, max %d (paper: 1.94 avg, 2.73 max)\n",
				avg.MeanRecompute, avg.MaxRecompute)
			b.ReportMetric(avg.MeanRecompute, "slices/mispredict")
		}
	}
}

// --- Figure 7: energy breakdown and savings ---

func BenchmarkFig7Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, sum, err := experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nFigure 7 — normalized system energy, baseline vs ST² (saving per kernel):")
			for _, r := range rows {
				fmt.Printf("  %-12s system %5.1f%%  chip %5.1f%%  (ALU+FPU share %4.1f%%)\n",
					r.Kernel, 100*r.SystemSaving, 100*r.ChipSaving, 100*r.ALUFPUShare)
			}
			fmt.Printf("  average: system %.1f%% (paper 19%%), chip %.1f%% (paper 21%%); ALU+FPU share %.1f%% (paper 27%%)\n",
				100*sum.AvgSystemSaving, 100*sum.AvgChipSaving, 100*sum.AvgALUFPUShare)
			fmt.Printf("  >20%%-ALU+FPU kernels: %d (paper 14), their system saving %.1f%% (paper 26%%)\n",
				sum.IntenseCount, 100*sum.IntenseSystemSaving)
			b.ReportMetric(100*sum.AvgChipSaving, "%chip-saving")
		}
	}
}

// --- Section VI: performance overhead ---

func BenchmarkPerfOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PerfOverhead(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worst := 0.0
			worstK := ""
			for _, r := range rows[:len(rows)-1] {
				if r.Slowdown > worst {
					worst, worstK = r.Slowdown, r.Kernel
				}
			}
			avg := rows[len(rows)-1]
			fmt.Printf("\nSection VI — ST² slowdown: avg %.3f%% (paper 0.36%%), worst %.2f%% on %s (paper 3.5%% on dwt2d)\n",
				100*avg.Slowdown, 100*worst, worstK)
			b.ReportMetric(100*avg.Slowdown, "%slowdown")
		}
	}
}

// --- Section V-B: slice-width design-space exploration ---

func BenchmarkSliceWidthDSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, best, err := experiments.SliceWidthDSE()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nSection V-B — slice width characterization:")
			for j, r := range results {
				mark := ""
				if j == best {
					mark = "  <= chosen"
				}
				fmt.Printf("  %2d-bit: V/Vnom %.2f, adder saving %.1f%%, %d predictions/op%s\n",
					r.SliceBits, r.SupplyRatio, 100*r.EnergySaving, r.PredictionsPerOp, mark)
			}
			fmt.Println("  (paper: 8-bit slices, 60% voltage, 75–87% potential saving)")
			b.ReportMetric(float64(results[best].SliceBits), "chosen-bits")
		}
	}
}

// --- Section V-C: power-model calibration + validation ---

func BenchmarkPowerModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, _, err := experiments.PowerValidation(benchCfg(), 0.06)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nSection V-C — power model: MARE %.1f%% ± %.1f%% (paper 10.5%% ± 3.8%%), Pearson r %.2f (paper 0.8)\n",
				100*rep.MeanAbsRelErr, 100*rep.ErrCI95, rep.PearsonR)
			b.ReportMetric(100*rep.MeanAbsRelErr, "%MARE")
		}
	}
}

// --- Section VI: area/power overhead budget ---

func BenchmarkOverheadBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		budget, err := experiments.Overheads(0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nSection VI — overheads: shifters %.2f mm² (%.2f%% of chip, paper 0.68%%), %.2f W static (paper 0.6 W); CRF+DFFs %.0f kB (%.3f%% of SRAM, paper 0.09%%)\n",
				budget.ShifterAreaMM2, 100*budget.ShifterAreaFraction, budget.ShifterStaticW,
				float64(budget.TotalSRAMBytes)/1024, 100*budget.SRAMFraction)
			b.ReportMetric(float64(budget.TotalSRAMBytes)/1024, "kB-added")
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationPeek(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPeek(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nAblation — Peek: with %.2f%%, without %.2f%% misprediction\n",
				100*res.WithRate, 100*res.SansRate)
			b.ReportMetric(100*(res.SansRate-res.WithRate), "%peek-benefit")
		}
	}
}

func BenchmarkAblationContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationContention(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nAblation — CRF contention: hardware CRF %.2f%%, idealized table %.2f%%\n",
				100*res.WithRate, 100*res.SansRate)
			b.ReportMetric(100*(res.WithRate-res.SansRate), "%contention-cost")
		}
	}
}

func BenchmarkAblationSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSharing(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nAblation — thread-history sharing:")
			for _, r := range rows {
				fmt.Printf("  %-26s %6.2f%%\n", r.Design, 100*r.MissRate)
			}
		}
	}
}

func BenchmarkAblationXORHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationXORHash(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nAblation — PC indexing: ModPC4 %.2f%% vs XorPC4 %.2f%% (paper: no benefit from hashing)\n",
				100*rows[0].MissRate, 100*rows[1].MissRate)
		}
	}
}

// --- Microarchitectural throughput benches ---

// BenchmarkAdderExecute measures the sliced-adder engine's per-operation
// cost — the simulator's hottest path.
func BenchmarkAdderExecute(b *testing.B) {
	ad, err := adder.New(adder.Config{Width: 64, SliceBits: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		r := ad.Execute(uint64(i)*2654435761, uint64(i)+12345, adder.Add, uint64(i)&0x7F)
		sink ^= r.Sum
	}
	_ = sink
}

// BenchmarkCRFWarpOp measures one warp operation through the full ST²
// unit: the CRF row read as seven 32-lane bit planes, the Peek planes,
// the per-lane adder, and the mispredicted lanes' write-back staged as
// planes.
func BenchmarkCRFWarpOp(b *testing.B) {
	price, err := core.DeriveEnergyParams(circuit.SAED90(), 64, 8)
	if err != nil {
		b.Fatal(err)
	}
	unit, err := core.NewUnit(core.ALU, 8, price)
	if err != nil {
		b.Fatal(err)
	}
	crf := speculate.NewDefaultCRF(16, 1)
	spec := speculate.WithPeek(unit.Geometry(), crf)
	ea, eb := make([]uint64, core.WarpSize), make([]uint64, core.WarpSize)
	for l := range ea {
		ea[l], eb[l] = uint64(l)*37, 11
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crf.BeginCycle(uint64(i))
		sums, _ := unit.ExecuteWarp(spec, uint32(i)&15, 0, ^uint32(0), 0, ea, eb)
		ea[0] = sums[0]
	}
}

// BenchmarkLaunchParallelSMs measures the parallel per-SM launch path
// against the sequential one on an 8-SM device running pathfinder at
// scale 32 (64 blocks × 256 threads). Compare the sub-benchmarks' ns/op:
// workers=auto should be well over 1.5× faster than workers=1 on a
// multi-core host, with bit-identical RunStats (TestParallelMatchesSequential).
func BenchmarkLaunchParallelSMs(b *testing.B) {
	spec, err := kernels.Pathfinder(32)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=auto", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := gpusim.DefaultConfig()
			cfg.NumSMs = 8
			cfg.ParallelSMs = bc.workers
			var instrs uint64
			for i := 0; i < b.N; i++ {
				d, err := gpusim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := spec.Setup(d.Memory()); err != nil {
					b.Fatal(err)
				}
				rs, err := d.Launch(spec.Kernel)
				if err != nil {
					b.Fatal(err)
				}
				instrs = rs.TotalThreadInstrs()
			}
			b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "thread-instrs/s")
		})
	}
}

// BenchmarkApproximateAdders quantifies the related-work contrast: what
// fraction of results an error-accepting approximate speculative adder
// ([10]–[13] in the paper) would corrupt on the real kernel streams.
func BenchmarkApproximateAdders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ApproximateAdderStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nRelated work — uncorrected (approximate) speculative adders:")
			for _, r := range rows {
				fmt.Printf("  %-24s wrong results %5.2f%%  mean relative error %.3g\n",
					r.Design, 100*r.WrongResults, r.MeanRelError)
			}
			fmt.Println("  (ST²'s correction pass turns every one of these into a 1-cycle stall instead)")
		}
	}
}

// BenchmarkAblationCRFSize sweeps the Carry Register File capacity: the
// paper's 16-entry PC[3:0] table against smaller and larger tables.
func BenchmarkAblationCRFSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationCRFSize(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nAblation — CRF entries (PC index bits):")
			for _, r := range rows {
				fmt.Printf("  %3d entries: %6.2f%% misprediction\n", r.Entries, 100*r.MissRate)
			}
			fmt.Println("  (paper: 4 PC bits / 16 entries; more shows diminishing returns)")
		}
	}
}

// BenchmarkAblationHistoryDepth compares depth-1 and depth-2 previous-
// carry histories — the paper's temporal-axis exploration ends at depth 1.
func BenchmarkAblationHistoryDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationHistoryDepth(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nAblation — history depth: Prev %.2f%% vs Prev2(alternation) %.2f%%\n",
				100*rows[0].MissRate, 100*rows[1].MissRate)
		}
	}
}

// BenchmarkCarryChains reproduces Section III's quantification: carry-
// propagation chain lengths across the suite (short chains dominate,
// which is why per-slice speculation works at all).
func BenchmarkCarryChains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CarryChains(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nSection III — carry-chain lengths per kernel (short ≤ one slice):")
			for _, r := range rows[:len(rows)-1] {
				if r.Ops == 0 {
					continue
				}
				fmt.Printf("  %-12s %5.1f%% short, mean %.2f bits\n", r.Kernel, 100*r.ShortFraction, r.MeanBits)
			}
			avg := rows[len(rows)-1]
			fmt.Printf("  average: %.1f%% short, mean %.2f bits\n", 100*avg.ShortFraction, avg.MeanBits)
			b.ReportMetric(100*avg.ShortFraction, "%short-chains")
		}
	}
}

// BenchmarkTechnologyScaling re-checks the Section V-B claim that the
// relative savings persist when scaling from 90 nm to a 12 nm FinFET node.
func BenchmarkTechnologyScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TechnologyScaling(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nSection V-B — technology scaling (savings persist across nodes):")
			for _, r := range rows {
				fmt.Printf("  %-9s %2d-bit: V/Vnom %.2f, adder saving %.1f%%\n",
					r.Tech, r.SliceBits, r.SupplyRatio, 100*r.EnergySaving)
			}
		}
	}
}
