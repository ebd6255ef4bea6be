package main

import (
	"sort"
	"time"

	"st2gpu/internal/obs"
)

// metricDef is one metric of the ledger. BENCHMARK.json lists the same
// names, units and directions; the self-test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	e2e    bool   // end-to-end (untraced pass) rather than per-layer (traced pass)
}

// ledger is every metric the benchmark reports, end-to-end first. Every
// workload reports every metric of its pass; a per-layer metric of a layer
// the workload never calls reads 0.
var ledger = []metricDef{
	{"wall_s", "s", "lower", true},
	{"setup_s", "s", "lower", true},
	{"peak_rss_mb", "MB", "lower", true},

	{"sim_thread_instrs_per_s", "1/s", "higher", false},
	{"eval_ops_per_s", "1/s", "higher", false},

	{"kernels.build_s", "s", "lower", false},
	{"kernels.setup_s", "s", "lower", false},
	{"kernels.verify_s", "s", "lower", false},

	{"gpusim.new_s", "s", "lower", false},
	{"gpusim.launch_s.baseline", "s", "lower", false},
	{"gpusim.launch_s.st2", "s", "lower", false},
	{"gpusim.simulate_s", "s", "lower", false},
	{"gpusim.max_kernel_launch_s", "s", "lower", false},
	{"gpusim.thread_instrs_per_s.baseline", "1/s", "higher", false},
	{"gpusim.thread_instrs_per_s.st2", "1/s", "higher", false},
	{"gpusim.cycles_per_s.baseline", "1/s", "higher", false},
	{"gpusim.cycles_per_s.st2", "1/s", "higher", false},
	{"gpusim.st2_launch_cost", "ratio", "lower", false},
	{"gpusim.launches", "count", "lower", false},
	{"gpusim.thread_instrs.baseline", "count", "lower", false},
	{"gpusim.thread_instrs.st2", "count", "lower", false},
	{"gpusim.sim_cycles.baseline", "count", "lower", false},
	{"gpusim.sim_cycles.st2", "count", "lower", false},
	{"gpusim.record_s", "s", "lower", false},
	{"gpusim.record_bytes_per_s", "B/s", "higher", false},

	{"trace.decode_s", "s", "lower", false},
	{"trace.decode_ops_per_s", "1/s", "higher", false},
	{"trace.encode_s", "s", "lower", false},
	{"trace.encode_ops_per_s", "1/s", "higher", false},
	{"trace.load_s", "s", "lower", false},
	{"trace.load_ops_per_s", "1/s", "higher", false},
	{"trace.partial_load_s", "s", "lower", false},
	{"trace.partial_load_ops_per_s", "1/s", "higher", false},
	{"trace.recorded_ops", "count", "lower", false},
	{"trace.recorded_bytes", "B", "lower", false},
	{"trace.store_bytes", "B", "lower", false},

	{"experiments.fig5_from_decoded_s", "s", "lower", false},
	{"experiments.fig5_eval_ops_per_s", "1/s", "higher", false},
	{"experiments.fig3_from_decoded_s", "s", "lower", false},
	{"experiments.fig3_eval_ops_per_s", "1/s", "higher", false},
	{"experiments.fig5_sharded_s", "s", "lower", false},
	{"experiments.shard_ipc_cost", "ratio", "lower", false},
	{"experiments.fig1_s", "s", "lower", false},
	{"experiments.fig2_s", "s", "lower", false},
	{"experiments.fig3_s", "s", "lower", false},
	{"experiments.fig5_s", "s", "lower", false},
	{"experiments.fig6_s", "s", "lower", false},
	{"experiments.fig7_s", "s", "lower", false},
	{"experiments.perf_overhead_s", "s", "lower", false},
	{"experiments.power_validation_s", "s", "lower", false},
	{"experiments.approx_s", "s", "lower", false},
	{"experiments.ablation_peek_s", "s", "lower", false},
	{"experiments.ablation_contention_s", "s", "lower", false},
	{"experiments.ablation_crf_size_s", "s", "lower", false},
	{"experiments.ablation_sharing_s", "s", "lower", false},
	{"experiments.ablation_xor_hash_s", "s", "lower", false},
	{"experiments.ablation_history_depth_s", "s", "lower", false},
	{"experiments.circuit_tables_s", "s", "lower", false},

	{"runtime.alloc_mb", "MB", "lower", false},
	{"runtime.gc_count", "count", "lower", false},
	{"runtime.gc_pause_s", "s", "lower", false},

	{"obs.tracing_overhead", "ratio", "lower", false},
}

// Span names: the benchmark opens one span around each public call it
// makes into a layer, named after the layer and the call. A body
// iteration is a root span named spanBody, a setup a root named spanSetup.
const (
	spanBody  = "body"
	spanSetup = "setup"

	// attributes
	attrMode    = "mode"
	attrTimedNS = "timed_ns" // stopwatch total of the root's timed calls
)

// tally sums the spans under one root by span key: the span name, plus
// "/<mode>" when the span carries a mode attribute.
type tally struct {
	dur   map[string]float64 // seconds
	max   map[string]float64 // seconds, longest single span
	count map[string]float64
	attr  map[string]float64 // "<key>#<attr>" → summed integer attribute
	root  obs.Span
}

func spanKey(s obs.Span) string {
	for _, a := range s.Attrs {
		if a.Key == attrMode {
			if v, ok := a.Value.(string); ok {
				return s.Name + "/" + v
			}
		}
	}
	return s.Name
}

// tallies groups a tracer's spans by root span and sums each group. Roots
// keep their start order.
func tallies(tr *obs.Tracer) []*tally {
	spans := tr.Spans()
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s obs.Span) obs.SpanID {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.ID
	}
	var out []*tally
	byRoot := map[obs.SpanID]*tally{}
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		t := &tally{
			dur: map[string]float64{}, max: map[string]float64{},
			count: map[string]float64{}, attr: map[string]float64{}, root: s,
		}
		byRoot[s.ID] = t
		out = append(out, t)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		t := byRoot[rootOf(s)]
		k := spanKey(s)
		d := s.Dur.Seconds()
		t.dur[k] += d
		t.count[k]++
		if d > t.max[k] {
			t.max[k] = d
		}
		for _, a := range s.Attrs {
			if v, ok := a.Value.(int64); ok {
				t.attr[k+"#"+a.Key] += float64(v)
			}
		}
	}
	return out
}

// rootAttr returns an integer attribute of the tally's root span.
func (t *tally) rootAttr(key string) float64 {
	for _, a := range t.root.Attrs {
		if a.Key == key {
			if v, ok := a.Value.(int64); ok {
				return float64(v)
			}
		}
	}
	return 0
}

func per(work, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return work / seconds
}

// bodyLayerMetrics derives the per-layer metrics of one traced body
// iteration from its spans.
func bodyLayerMetrics(t *tally) map[string]float64 {
	m := map[string]float64{
		"kernels.build_s":  t.dur["kernels.build"],
		"kernels.setup_s":  t.dur["kernels.setup"],
		"kernels.verify_s": t.dur["kernels.verify"],

		"gpusim.new_s":                    t.dur["gpusim.new"],
		"gpusim.launches":                 t.count["gpusim.launch/baseline"] + t.count["gpusim.launch/st2"],
		"gpusim.simulate_s":               (t.attr["gpusim.launch/baseline#simulate_ns"] + t.attr["gpusim.launch/st2#simulate_ns"]) / 1e9,
		"gpusim.max_kernel_launch_s":      max(t.max["gpusim.launch/baseline"], t.max["gpusim.launch/st2"]),
		"trace.load_s":                    t.dur["trace.read_store_file"],
		"trace.partial_load_s":            t.dur["trace.open_store"] + t.dur["trace.load_kernels"],
		"experiments.fig5_from_decoded_s": t.dur["experiments.fig5_from_decoded"],
		"experiments.fig3_from_decoded_s": t.dur["experiments.fig3_from_decoded"],
		"experiments.fig5_sharded_s":      t.dur["experiments.fig5_sharded"],

		"runtime.alloc_mb":   t.rootAttr("alloc_bytes") / (1 << 20),
		"runtime.gc_count":   t.rootAttr("gc_count"),
		"runtime.gc_pause_s": t.rootAttr("gc_pause_ns") / 1e9,
	}
	for _, mode := range []string{"baseline", "st2"} {
		launch := t.dur["gpusim.launch/"+mode]
		instrs := t.attr["gpusim.launch/"+mode+"#thread_instrs"]
		cycles := t.attr["gpusim.launch/"+mode+"#cycles"]
		m["gpusim.launch_s."+mode] = launch
		m["gpusim.thread_instrs."+mode] = instrs
		m["gpusim.sim_cycles."+mode] = cycles
		m["gpusim.thread_instrs_per_s."+mode] = per(instrs, launch)
		m["gpusim.cycles_per_s."+mode] = per(cycles, launch)
	}
	m["gpusim.st2_launch_cost"] = per(m["gpusim.launch_s.st2"], m["gpusim.launch_s.baseline"])

	ops := t.rootAttr("records")
	m["trace.load_ops_per_s"] = per(ops, m["trace.load_s"])
	m["trace.partial_load_ops_per_s"] = per(ops, m["trace.partial_load_s"])
	m["experiments.fig5_eval_ops_per_s"] = per(t.attr["experiments.fig5_from_decoded#eval_ops"], m["experiments.fig5_from_decoded_s"])
	m["experiments.fig3_eval_ops_per_s"] = per(t.attr["experiments.fig3_from_decoded#eval_ops"], m["experiments.fig3_from_decoded_s"])
	m["experiments.shard_ipc_cost"] = per(m["experiments.fig5_sharded_s"], m["experiments.fig5_from_decoded_s"])
	for _, d := range reproDrivers {
		m["experiments."+d.metric+"_s"] += t.dur["experiments."+d.span]
	}
	return m
}

// setupLayerMetrics derives the per-layer metrics of one traced setup.
func setupLayerMetrics(t *tally) map[string]float64 {
	ops := t.attr["gpusim.record#records"]
	bytes := t.attr["gpusim.record#bytes"]
	return map[string]float64{
		"gpusim.record_s":           t.dur["gpusim.record"],
		"gpusim.record_bytes_per_s": per(bytes, t.dur["gpusim.record"]),
		"trace.decode_s":            t.dur["trace.decode_set"],
		"trace.decode_ops_per_s":    per(ops, t.dur["trace.decode_set"]),
		"trace.encode_s":            t.dur["trace.write_store_file"],
		"trace.encode_ops_per_s":    per(ops, t.dur["trace.write_store_file"]),
		"trace.recorded_ops":        ops,
		"trace.recorded_bytes":      bytes,
		"trace.store_bytes":         t.attr["trace.write_store_file#store_bytes"],
	}
}

// medianMetrics takes, metric by metric, the median over iterations.
func medianMetrics(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) float64 { return median(secondsOf(ds)) }
