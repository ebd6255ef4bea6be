package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"st2gpu/internal/obs"
)

// pinnedSeed is the default seed: at it, and at a workload's default
// scale, outputs are compared with the digests in golden.go. Any other
// seed or scale runs the internal-consistency checks only.
const pinnedSeed = 1

// numSMs is the simulated SM count of every workload.
const numSMs = 2

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64 // body measuring budget; at least one iteration runs
	trace    bool    // traced pass for the per-layer metrics
	scale    int     // 0 = the workload's default scale; the self-test shrinks it
	workDir  string  // scratch space: the sweep's store files, the Chrome trace
}

// env is what a workload instance needs to know about its run.
type env struct {
	seed   int64
	scale  int
	tmpDir string
}

// outcome is what one setup or body iteration did: the operations it
// attempted, one message per operation that failed, and digests of its
// outputs for the correctness checks.
type outcome struct {
	attempted int
	errs      []string
	digests   map[string]string
}

func (o *outcome) op(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.errs = append(o.errs, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

func (o *outcome) digest(key, value string) {
	if o.digests == nil {
		o.digests = map[string]string{}
	}
	o.digests[key] = value
}

// instance is one workload's state across a run. Each setup call is one
// timed setup, each body call one timed iteration. Both time only the
// layer calls they make, through the stopwatch; checks stay untimed.
type instance interface {
	setup(sw *stopwatch, root *obs.ActiveSpan) (outcome, error)
	body(sw *stopwatch, root *obs.ActiveSpan) outcome
	// rootAttrs annotates a traced body's root span with counts the
	// per-layer rates divide by.
	rootAttrs() []obs.Attr
}

// workload is a benchmark workload, named by its key in workloads.
type workload struct {
	scale       int // default workload scale
	newInstance func(e env) instance
}

var workloads = map[string]workload{
	"repro":    {scale: 1, newInstance: newRepro},
	"simulate": {scale: 4, newInstance: newSimulate},
	"sweep":    {scale: 4, newInstance: newSweep},
}

// An untraced pass repeats the setup until setupBudget has passed, and at
// least minSetups times: hundreds of times for a setup of milliseconds,
// three times for the sweep's store build of seconds.
const (
	setupBudget = 2 * time.Second
	minSetups   = 3
)

// stopwatch records the host time of each layer call a setup or body
// makes, in call order.
type stopwatch struct{ calls []time.Duration }

// timed runs fn as one timed layer call, inside a child span of parent
// (a no-op on the untraced pass, where parent is nil).
func (s *stopwatch) timed(parent *obs.ActiveSpan, name string, fn func(sp *obs.ActiveSpan) error, attrs ...obs.Attr) error {
	t0 := time.Now()
	sp := parent.Child(name, attrs...)
	err := fn(sp)
	sp.End()
	s.calls = append(s.calls, time.Since(t0))
	return err
}

func (s *stopwatch) total() time.Duration {
	var t time.Duration
	for _, d := range s.calls {
		t += d
	}
	return t
}

// envelope is the timing a run reports for a repeated setup or body: the
// sum, over its layer calls, of each call's fastest time across the
// repetitions. Every repetition makes the same calls in the same order,
// so the i-th calls of two repetitions did the same work. A shared host
// can slow a single call by half for a fraction of a second; such a
// slowdown only ever adds time, and it rarely hits the same call in every
// repetition, so the fastest time of each call is steadier than any
// statistic of whole repetitions. If a failure changed the calls a
// repetition made, the median total is reported instead.
func envelope(reps []*stopwatch) float64 {
	if len(reps) == 0 {
		return 0
	}
	best := slices.Clone(reps[0].calls)
	for _, r := range reps[1:] {
		if len(r.calls) != len(best) {
			return medianDur(totals(reps))
		}
		for i, d := range r.calls {
			best[i] = min(best[i], d)
		}
	}
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return sum.Seconds()
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func totals(reps []*stopwatch) []time.Duration {
	out := make([]time.Duration, len(reps))
	for i, r := range reps {
		out[i] = r.total()
	}
	return out
}

// stamp identifies the host and build a result came from; results are
// comparable only between like stamps.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Scale      int    `json:"scale"`
	SMs        int    `json:"sms"`
	Seed       int64  `json:"seed"`
}

func hostStamp(workload string, scale int, seed int64) stamp {
	return stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Workload:   workload,
		Scale:      scale,
		SMs:        numSMs,
		Seed:       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the VCS revision the go command stamped into the binary;
// a build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// result is one run's report.
type result struct {
	stamp     stamp
	trace     bool
	attempted int
	failures  []string
	digests   map[string]string // first digests seen, for printing
	ref       map[string]string // what every outcome's digests must equal
	pinned    bool              // ref holds the seed commit's digests
	metrics   map[string]float64
	samples   map[string][]float64 // per-repetition values behind a metric, for printing
	tracePath string
}

// record folds one outcome into the result and checks its digests against
// the reference: the pinned digests when the run is at the pinned seed and
// default scale, else the first value each digest took in this run.
func (r *result) record(oc outcome) {
	r.attempted += oc.attempted
	r.failures = append(r.failures, oc.errs...)
	keys := make([]string, 0, len(oc.digests))
	for k := range oc.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := oc.digests[k]
		if _, seen := r.digests[k]; !seen {
			r.digests[k] = v
		}
		want, ok := r.ref[k]
		switch {
		case !ok && r.pinned:
			r.failures = append(r.failures, fmt.Sprintf("%s: no pinned digest", k))
		case !ok:
			r.ref[k] = v
		case want != v:
			r.failures = append(r.failures, fmt.Sprintf("%s: digest %s, want %s", k, v, want))
		}
	}
}

// repeat runs fn until budget has passed, and at least least times,
// settling before each, and collects each repetition's timed calls. It
// stops at the first error.
func repeat(budget time.Duration, least int, fn func() (*stopwatch, error)) ([]*stopwatch, error) {
	var out []*stopwatch
	start := time.Now()
	for len(out) < least || time.Since(start) < budget {
		settle()
		sw, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, sw)
	}
	return out, nil
}

// settle runs before every timed setup and iteration. It collects the
// heap and returns all free memory to the OS, so each starts from the
// same state as a fresh process: no garbage from the last one to collect,
// no pages left mapped for it to reuse.
func settle() { debug.FreeOSMemory() }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func run(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want repro, simulate or sweep)", o.workload)
	}
	scale := w.scale
	if o.scale > 0 {
		scale = o.scale
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	r := &result{
		stamp:   hostStamp(o.workload, scale, o.seed),
		trace:   o.trace,
		digests: map[string]string{},
		ref:     map[string]string{},
		metrics: map[string]float64{},
		samples: map[string][]float64{},
	}
	if o.seed == pinnedSeed && scale == w.scale {
		r.pinned = true
		for k, v := range pinned[o.workload] {
			r.ref[k] = v
		}
	}
	inst := w.newInstance(env{seed: o.seed, scale: scale, tmpDir: tmp})

	setup := func(root *obs.ActiveSpan) (*stopwatch, error) {
		sw := &stopwatch{}
		oc, err := inst.setup(sw, root)
		r.record(oc)
		return sw, err
	}
	untracedBody := func() (*stopwatch, error) {
		sw := &stopwatch{}
		r.record(inst.body(sw, nil))
		return sw, nil
	}

	if !o.trace {
		setups, err := repeat(setupBudget, minSetups, func() (*stopwatch, error) { return setup(nil) })
		if err != nil {
			return nil, err
		}
		var peaks []float64
		iters, _ := repeat(seconds(o.seconds), 1, func() (*stopwatch, error) {
			resetPeakRSS()
			sw, err := untracedBody()
			peaks = append(peaks, peakRSSMB())
			return sw, err
		})
		r.samples["setup_s"], r.samples["wall_s"] = secondsOf(totals(setups)), secondsOf(totals(iters))
		r.samples["peak_rss_mb"] = peaks
		r.metrics["setup_s"] = envelope(setups)
		r.metrics["wall_s"] = envelope(iters)
		r.metrics["peak_rss_mb"] = slices.Max(peaks)
		return r, r.finite()
	}

	// Traced run: an untraced pass for the tracing-overhead base, then
	// the traced pass, each with half the budget.
	settle()
	if _, err := setup(nil); err != nil {
		return nil, err
	}
	untraced, _ := repeat(seconds(o.seconds/2), 1, untracedBody)

	tr := obs.New()
	settle()
	setupRoot := tr.Begin(spanSetup)
	_, err = setup(setupRoot)
	setupRoot.End()
	if err != nil {
		return nil, err
	}
	traced, _ := repeat(seconds(o.seconds/2), 1, func() (*stopwatch, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		root := tr.Begin(spanBody, inst.rootAttrs()...)
		sw := &stopwatch{}
		oc := inst.body(sw, root)
		runtime.ReadMemStats(&after)
		root.Add(
			obs.Int(attrTimedNS, int64(sw.total())),
			obs.Int("alloc_bytes", int64(after.TotalAlloc-before.TotalAlloc)),
			obs.Int("gc_count", int64(after.NumGC-before.NumGC)),
			obs.Int("gc_pause_ns", int64(after.PauseTotalNs-before.PauseTotalNs)))
		root.End()
		r.record(oc)
		return sw, nil
	})

	var bodies, setups []map[string]float64
	var evalOps float64
	for _, t := range tallies(tr) {
		switch t.root.Name {
		case spanBody:
			bodies = append(bodies, bodyLayerMetrics(t))
			evalOps = t.rootAttr("eval_ops")
		case spanSetup:
			setups = append(setups, setupLayerMetrics(t))
		}
	}
	for k, v := range medianMetrics(bodies) {
		r.metrics[k] = v
	}
	for k, v := range medianMetrics(setups) {
		r.metrics[k] = v
	}
	wall := envelope(untraced)
	r.metrics["obs.tracing_overhead"] = envelope(traced)/wall - 1
	r.metrics["sim_thread_instrs_per_s"] = per(r.metrics["gpusim.thread_instrs.baseline"]+r.metrics["gpusim.thread_instrs.st2"], wall)
	r.metrics["eval_ops_per_s"] = per(evalOps, wall)

	r.tracePath = filepath.Join(o.workDir, "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeTrace(r.tracePath, tr, r.stamp); err != nil {
		return nil, err
	}
	return r, r.finite()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from the
// current resident set, so that peakRSSMB covers only what follows. Where
// the reset is not available the mark covers the whole process.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	f.WriteString("5")
	f.Close()
}

// peakRSSMB is the resident-set high-water mark (VmHWM), or the process's
// lifetime peak where /proc does not report one.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscan(v, &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (r *result) finite() error {
	for k, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}

// writeTrace writes the traced pass as Chrome trace-event JSON, with the
// host stamp under otherData.
func writeTrace(path string, tr *obs.Tracer, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	ct := obs.ChromeTraceOf(tr)
	b, err := json.Marshal(struct {
		TraceEvents     []obs.ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       stamp             `json:"otherData"`
	}{ct.TraceEvents, ct.DisplayTimeUnit, st})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// correct reports whether every operation succeeded and every digest
// matched its reference.
func (r *result) correct() bool { return len(r.failures) == 0 }

// print writes the human-readable report, then the result as one JSON
// line, last.
func (r *result) print(w io.Writer) error {
	st, _ := json.Marshal(r.stamp)
	fmt.Fprintf(w, "stamp %s\n", st)
	fmt.Fprintln(w, "model: unvalidated — the repository holds the paper's published numbers but no hardware measurements, so no error figure is given; every launch starts on a fresh device, so modelled caches start empty")
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, d := range ledger {
		if d.e2e == r.trace {
			continue
		}
		v := r.metrics[d.name]
		out[d.name] = jm{v, d.unit}
		fmt.Fprintf(w, "metric %-40s %-22s %-6s %s is better\n", d.name, fmt.Sprint(v), d.unit, d.better)
	}
	keys := make([]string, 0, len(r.digests))
	for k := range r.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "digest %s %s\n", k, r.digests[k])
	}
	for _, name := range []string{"setup_s", "wall_s", "peak_rss_mb"} {
		if vs := r.samples[name]; len(vs) > 0 {
			fmt.Fprintf(w, "samples %s n=%d min=%.4g median=%.4g max=%.4g\n", name, len(vs), slices.Min(vs), median(vs), slices.Max(vs))
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	check := "internal consistency only (non-default seed or scale)"
	if r.pinned {
		check = "pinned seed-commit digests"
	}
	if r.tracePath != "" {
		fmt.Fprintf(w, "trace %s\n", r.tracePath)
	}
	fmt.Fprintf(w, "verdict correct=%v attempted=%d failed=%d checks=%q\n", r.correct(), r.attempted, len(r.failures), check)
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, len(r.failures), out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
