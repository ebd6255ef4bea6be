package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestLedgerMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// table the binary reports from in step: same names, units, directions
// and workloads.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var want []jsonMetric
	for _, d := range ledger {
		want = append(want, jsonMetric{d.name, d.unit, d.better})
	}
	got := append(append([]jsonMetric(nil), bj.EndToEnd...), bj.PerLayer...)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the ledger %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the ledger %+v", i, got[i], want[i])
		}
	}
	for i, d := range ledger {
		if isE2E := i < len(bj.EndToEnd); d.e2e != isE2E {
			t.Errorf("%s: end-to-end %v in the ledger, %v in BENCHMARK.json", d.name, d.e2e, isE2E)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, have)
	}
}

// printed is the result line a run prints last.
type printed struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at scale 1 for a single iteration per pass
// and returns its printed result line, checked against the contract:
// correct, every metric of the pass present, finite and with its unit.
func runTiny(t *testing.T, workload string, trace bool) printed {
	t.Helper()
	r, err := run(options{workload: workload, seed: pinnedSeed, scale: 1, trace: trace, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", workload, p.Correct, p.Attempted, p.Failed, buf.String())
	}
	n := 0
	for _, d := range ledger {
		if d.e2e == trace {
			continue
		}
		n++
		m, ok := p.Metrics[d.name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("%s: metric %s missing", workload, d.name)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, d.name, *m.Value)
		case m.Unit != d.unit || m.Unit == "":
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.name, m.Unit, d.unit)
		}
	}
	if len(p.Metrics) != n {
		t.Errorf("%s: %d metrics printed, want %d", workload, len(p.Metrics), n)
	}
	return p
}

// exactCounts are simulated or encoded quantities that must repeat bit
// for bit from run to run.
var exactCounts = []string{
	"gpusim.sim_cycles.baseline", "gpusim.sim_cycles.st2",
	"gpusim.thread_instrs.baseline", "gpusim.thread_instrs.st2",
	"trace.recorded_ops", "trace.store_bytes",
}

// TestPinnedSimulate runs simulate at its default scale and the pinned
// seed, so its outputs are compared with the seed commit's digests.
func TestPinnedSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the suite at scale 4, ~10 s")
	}
	r, err := run(options{workload: "simulate", seed: pinnedSeed, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !r.pinned {
		t.Fatal("the run was not checked against the pinned digests")
	}
	if !r.correct() {
		t.Errorf("failures: %v", r.failures)
	}
}

func TestTinyRuns(t *testing.T) {
	names := []string{"simulate", "sweep", "repro"}
	if testing.Short() {
		names = names[:2] // repro regenerates every figure, ~20 s even at scale 1
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			e2e := runTiny(t, name, false)
			if v := *e2e.Metrics["wall_s"].Value; v <= 0 {
				t.Errorf("wall_s = %v", v)
			}
			first := runTiny(t, name, true)
			if name == "repro" {
				return
			}
			again := runTiny(t, name, true)
			for _, k := range exactCounts {
				a, b := *first.Metrics[k].Value, *again.Metrics[k].Value
				if a != b {
					t.Errorf("%s: %s = %v then %v", name, k, a, b)
				}
			}
			layer := map[string]string{"simulate": "gpusim.sim_cycles.st2", "sweep": "trace.store_bytes"}[name]
			if *first.Metrics[layer].Value == 0 {
				t.Errorf("%s: %s is 0; the traced pass measured nothing", name, layer)
			}
		})
	}
}
