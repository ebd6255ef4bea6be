package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a clock advancing stepMS milliseconds per read.
func fakeClock(stepMS int64) func() time.Time {
	var mu sync.Mutex
	t := time.UnixMilli(0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Duration(stepMS) * time.Millisecond)
		return t
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.Begin("root", Str("k", "v"))
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	// Every method must be callable on the nil span.
	sp.Add(Int("n", 1))
	child := sp.Child("child")
	child.End()
	sp.End()
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer has spans: %v", got)
	}
	if tr.Len() != 0 || tr.Elapsed() != 0 {
		t.Error("nil tracer not fully inert")
	}
}

func TestSpanHierarchyAndOrder(t *testing.T) {
	tr := NewWithClock(fakeClock(1))
	root := tr.Begin("launch", Str("kernel", "k"))
	setup := root.Child("setup")
	setup.End()
	sim := root.Child("simulate", Int("workers", 2))
	sim.Add(Int("cycles", 100))
	sim.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Stable (start, id) order: root began first.
	if spans[0].Name != "launch" || spans[1].Name != "setup" || spans[2].Name != "simulate" {
		t.Errorf("span order wrong: %v %v %v", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[0].ID {
		t.Error("children do not point at the root span")
	}
	if spans[0].Parent != 0 {
		t.Error("root has a parent")
	}
	for _, s := range spans {
		if s.Dur <= 0 {
			t.Errorf("span %s has non-positive duration %v", s.Name, s.Dur)
		}
	}
	want := []Attr{{Key: "workers", Value: int64(2)}, {Key: "cycles", Value: int64(100)}}
	if !reflect.DeepEqual(spans[2].Attrs, want) {
		t.Errorf("simulate attrs = %v, want %v", spans[2].Attrs, want)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New()
	root := tr.Begin("grid")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.Child("cell", Int("worker", int64(w)))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := tr.Len(); got != 8*50+1 {
		t.Errorf("got %d spans, want %d", got, 8*50+1)
	}
	seen := map[SpanID]bool{}
	for _, s := range tr.Spans() {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestChromeTraceShape pins the produced run.trace.json against the
// Chrome trace-event JSON shape: an object with a traceEvents array of
// complete events ("ph":"X") carrying name/ts/dur/pid/tid, parseable by
// chrome://tracing and Perfetto.
func TestChromeTraceShape(t *testing.T) {
	tr := NewWithClock(fakeClock(1))
	root := tr.Begin("launch")
	cell := root.Child("cell", Int("worker", 3), Int("eval_ops", 1000))
	cell.End()
	root.End()

	path := filepath.Join(t.TempDir(), "run.trace.json")
	if err := tr.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Decode generically first: the contract is the JSON shape, not our
	// Go struct.
	var generic map[string]any
	if err := json.Unmarshal(buf, &generic); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	evs, ok := generic["traceEvents"].([]any)
	if !ok || len(evs) != 2 {
		t.Fatalf("traceEvents missing or wrong length: %v", generic["traceEvents"])
	}
	for i, e := range evs {
		m, ok := e.(map[string]any)
		if !ok {
			t.Fatalf("event %d is not an object", i)
		}
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := m[key]; !ok {
				t.Errorf("event %d missing %q", i, key)
			}
		}
		if m["ph"] != "X" {
			t.Errorf("event %d ph = %v, want X", i, m["ph"])
		}
		if ts, ok := m["ts"].(float64); !ok || ts < 0 {
			t.Errorf("event %d ts = %v, want >= 0", i, m["ts"])
		}
		if dur, ok := m["dur"].(float64); !ok || dur < 0 {
			t.Errorf("event %d dur = %v, want >= 0", i, m["dur"])
		}
	}

	// The worker attribute becomes the event's thread lane.
	var ct ChromeTrace
	if err := json.Unmarshal(buf, &ct); err != nil {
		t.Fatal(err)
	}
	if ct.TraceEvents[1].TID != 4 { // worker 3 → lane 3+1
		t.Errorf("cell tid = %d, want 4", ct.TraceEvents[1].TID)
	}
	if ct.TraceEvents[1].Args["parent_id"] == nil {
		t.Error("child event lost its parent link")
	}
}
