package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"st2gpu/internal/kernels"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
	"st2gpu/internal/trace"
)

// TestMain doubles as the shard-worker entry point: the coordinator
// tests re-exec this test binary with ST2_SHARD_WORKER=1 and speak the
// shard protocol over its stdio — a real subprocess worker, no mocks.
func TestMain(m *testing.M) {
	if os.Getenv("ST2_SHARD_WORKER") == "1" {
		if err := ServeShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	code := m.Run()
	suiteStoreState.mu.Lock()
	if suiteStoreState.dir != "" {
		os.RemoveAll(suiteStoreState.dir)
	}
	suiteStoreState.mu.Unlock()
	os.Exit(code)
}

// suiteStoreState caches the recorded suite store across shard tests —
// recording 23 kernels is the expensive part, and every test wants the
// same scale-1 capture.
var suiteStoreState struct {
	mu   sync.Mutex
	once sync.Once
	dir  string
	path string
	dec  *trace.Decoded
	err  error
}

// suiteStore records the suite under Default(), persists it as a store
// file, and returns the path plus the in-memory decoded set the
// in-process comparators run on.
func suiteStore(t *testing.T) (string, *trace.Decoded) {
	t.Helper()
	s := &suiteStoreState
	s.once.Do(func() {
		set, err := RecordSuite(Default())
		if err != nil {
			s.err = err
			return
		}
		dec, err := trace.DecodeSet(set)
		if err != nil {
			s.err = err
			return
		}
		dir, err := os.MkdirTemp("", "st2shard")
		if err != nil {
			s.err = err
			return
		}
		path := filepath.Join(dir, "suite.st2dec")
		if err := dec.WriteStoreFile(path, trace.StoreOptions{}); err != nil {
			s.err = err
			return
		}
		s.mu.Lock()
		s.dir, s.path, s.dec = dir, path, dec
		s.mu.Unlock()
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.path, s.dec
}

// spawnTestWorkers launches n real worker subprocesses by re-execing
// the test binary with the worker env flag set.
func spawnTestWorkers(t *testing.T, n int) []*ShardConn {
	t.Helper()
	conns, err := SpawnWorkers(n, func() *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "ST2_SHARD_WORKER=1")
		return cmd
	})
	if err != nil {
		t.Fatal(err)
	}
	return conns
}

// TestShardedSweepMatchesInProcess pins the tentpole guarantee: the
// distributed sweep over real worker subprocesses produces rows
// DeepEqual to the in-process decoded sweeps, at multiple shard counts
// × sweep-worker counts (the inflight cap that also sets the batch
// partition).
func TestShardedSweepMatchesInProcess(t *testing.T) {
	storePath, dec := suiteStore(t)
	cfg := Default()
	wantF5, err := Fig5FromDecoded(cfg, dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantF3, err := Fig3FromDecoded(cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c := cfg
				c.SweepWorkers = workers
				conns := spawnTestWorkers(t, shards)
				gotF5, err := Fig5Sharded(c, storePath, nil, conns, ShardOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotF5, wantF5) {
					t.Errorf("sharded Fig5 rows differ from in-process:\n got %+v\nwant %+v", gotF5, wantF5)
				}
				conns = spawnTestWorkers(t, shards)
				gotF3, err := Fig3Sharded(c, storePath, conns, ShardOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotF3, wantF3) {
					t.Errorf("sharded Fig3 rows differ from in-process:\n got %+v\nwant %+v", gotF3, wantF3)
				}
			})
		}
	}
}

// killAfterResults wraps a worker connection's read side and fires kill
// once `remaining` reply lines have passed through — deterministic
// mid-sweep worker death while the worker still holds leased cells.
type killAfterResults struct {
	r         io.Reader
	remaining int
	kill      func()
	once      sync.Once
}

func (k *killAfterResults) Read(p []byte) (int, error) {
	n, err := k.r.Read(p)
	k.remaining -= bytes.Count(p[:n], []byte("\n"))
	if k.remaining <= 0 {
		k.once.Do(k.kill)
	}
	return n, err
}

// TestShardedSweepSurvivesWorkerKill is the fault-injection test: a
// worker subprocess dies mid-sweep (after delivering two results, so it
// holds leased cells) and another dies before the handshake; both
// times the coordinator requeues onto the survivor and the rows stay
// bit-identical to the in-process sweep.
func TestShardedSweepSurvivesWorkerKill(t *testing.T) {
	storePath, dec := suiteStore(t)
	cfg := Default()
	cfg.SweepWorkers = 2
	want, err := Fig5FromDecoded(cfg, dec, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("mid-sweep", func(t *testing.T) {
		conns := spawnTestWorkers(t, 2)
		victim := conns[0]
		victim.R = &killAfterResults{r: victim.R, remaining: 3, kill: func() { victim.Close() }}
		got, err := Fig5Sharded(cfg, storePath, nil, conns, ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rows after mid-sweep worker kill differ from in-process:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("before-handshake", func(t *testing.T) {
		conns := spawnTestWorkers(t, 2)
		conns[0].Close()
		got, err := Fig5Sharded(cfg, storePath, nil, conns, ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rows after pre-handshake worker kill differ from in-process:\n got %+v\nwant %+v", got, want)
		}
	})
}

// fakeWorker speaks the protocol in-process over pipes with a
// scriptable cell reply — how the error paths get exercised without
// needing a subprocess that misbehaves on cue.
func fakeWorker(t *testing.T, reply func(m shardMsg) shardMsg) *ShardConn {
	t.Helper()
	names := make([]string, 0, len(kernels.Suite()))
	for _, w := range kernels.Suite() {
		names = append(names, w.Name)
	}
	coordR, workerW := io.Pipe()
	workerR, coordW := io.Pipe()
	go func() {
		dec := json.NewDecoder(workerR)
		enc := json.NewEncoder(workerW)
		for {
			var m shardMsg
			if err := dec.Decode(&m); err != nil {
				workerW.Close()
				return
			}
			switch m.Type {
			case "open":
				enc.Encode(shardMsg{Type: "ready", ID: -1, Kernels: names})
			case "cell":
				enc.Encode(reply(m))
			case "done":
				workerW.Close()
				return
			}
		}
	}()
	return &ShardConn{Name: "fake", R: coordR, W: coordW, C: coordW}
}

// TestShardedSweepRetryExhausted covers the loud-failure path: every
// worker fails every cell, so once a cell burns MaxAttempts the sweep
// errors naming the cell instead of spinning forever.
func TestShardedSweepRetryExhausted(t *testing.T) {
	storePath, _ := suiteStore(t)
	cfg := Default()
	cfg.SweepWorkers = 1
	alwaysFail := func(m shardMsg) shardMsg {
		return shardMsg{Type: "error", ID: m.ID, Msg: "injected cell failure"}
	}
	conns := []*ShardConn{fakeWorker(t, alwaysFail), fakeWorker(t, alwaysFail)}
	_, err := Fig5Sharded(cfg, storePath, nil, conns, ShardOptions{MaxAttempts: 2, Lease: time.Minute})
	if err == nil {
		t.Fatal("sweep with always-failing workers succeeded")
	}
	if !strings.Contains(err.Error(), "giving up") || !strings.Contains(err.Error(), "injected cell failure") {
		t.Errorf("retry-exhausted error %q does not name the failure", err)
	}
}

// TestShardedSweepRejectsImpossibleCounts covers the result-count check:
// a worker whose rates hit more often than they ran, or whose rates for
// one kernel run over different totals, has each such reply treated as
// a cell error, so the sweep gives up naming the bad counts instead of
// folding them into rows.
func TestShardedSweepRejectsImpossibleCounts(t *testing.T) {
	storePath, _ := suiteStore(t)
	for name, tc := range map[string]struct {
		workers int // per conn; 16 over 2 conns splits each kernel into 2 cells
		rate    func(id, j int) stats.Rate
		want    string
	}{
		"hits over total": {1, func(int, int) stats.Rate { return stats.Rate{Hits: 11, Total: 10} },
			"11 hits of 10 events"},
		"mismatched totals in a reply": {1, func(_, j int) stats.Rate { return stats.Rate{Total: uint64(10 + j)} },
			"over 10 and 11 events"},
		"mismatched totals across cells": {16, func(id, _ int) stats.Rate { return stats.Rate{Total: uint64(10 + id)} },
			"events for one kernel"},
	} {
		cfg := Default()
		cfg.SweepWorkers = tc.workers
		reply := func(m shardMsg) shardMsg {
			rates := make([]stats.Rate, len(m.Designs))
			for j := range rates {
				rates[j] = tc.rate(m.ID, j)
			}
			return shardMsg{Type: "result", ID: m.ID, Rates: rates}
		}
		conns := []*ShardConn{fakeWorker(t, reply), fakeWorker(t, reply)}
		_, err := Fig5Sharded(cfg, storePath, nil, conns, ShardOptions{MaxAttempts: 2, Lease: time.Minute})
		if err == nil {
			t.Errorf("%s: sweep accepted impossible result counts", name)
			continue
		}
		if !strings.Contains(err.Error(), "giving up") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the bad counts (%q)", name, err, tc.want)
		}
	}
}

// TestShardedSweepAllWorkersDead covers the other loud-failure path:
// every connection dies with cells outstanding.
func TestShardedSweepAllWorkersDead(t *testing.T) {
	storePath, _ := suiteStore(t)
	cfg := Default()
	cfg.SweepWorkers = 1
	conns := spawnTestWorkers(t, 2)
	conns[0].Close()
	conns[1].Close()
	_, err := Fig5Sharded(cfg, storePath, nil, conns, ShardOptions{})
	if err == nil {
		t.Fatal("sweep with all workers dead succeeded")
	}
	if !strings.Contains(err.Error(), "workers died") {
		t.Errorf("all-dead error %q does not say the workers died", err)
	}
}

// TestShardWorkerReloadsEvictedKernel drives one in-process worker with
// a single eval slot through cells that hit its latest kernel, evict it,
// and come back to it; every reply must equal the in-process batch eval
// of the same kernel and designs.
func TestShardWorkerReloadsEvictedKernel(t *testing.T) {
	storePath, dec := suiteStore(t)
	a, b, c := dec.Names()[0], dec.Names()[1], dec.Names()[2]
	half := len(speculate.DesignSpace) / 2
	checkShardWorkerReplies(t, storePath, dec, 1, []shardMsg{
		{Kernel: a, Designs: speculate.DesignSpace[:half]},
		{Kernel: a, Designs: speculate.DesignSpace[half:]}, // latest kernel: no reload
		{Kernel: b, Designs: speculate.DesignSpace},        // evicts a
		{Kernel: a, Designs: speculate.DesignSpace},        // reloads a
		{Kernel: c, Designs: speculate.DesignSpace},
		{Kernel: b, Designs: speculate.DesignSpace}, // reloads b
	})
}

// TestShardWorkerClampsPeerWorkers opens a worker with an absurd eval
// slot count: the worker bounds it by GOMAXPROCS and still answers every
// cell with the in-process batch eval.
func TestShardWorkerClampsPeerWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ requested, want int }{
		{-1, procs}, {0, procs}, {1, 1}, {procs, procs}, {procs + 1, procs}, {1 << 30, procs},
	} {
		if got := shardEvalSlots(c.requested); got != c.want {
			t.Errorf("shardEvalSlots(%d) = %d, want %d", c.requested, got, c.want)
		}
	}
	storePath, dec := suiteStore(t)
	var cells []shardMsg
	for _, name := range dec.Names()[:4] {
		cells = append(cells, shardMsg{Kernel: name, Designs: speculate.DesignSpace})
	}
	checkShardWorkerReplies(t, storePath, dec, 1<<30, cells)
}

// checkShardWorkerReplies opens an in-process worker on the store with
// the given eval slot count, sends it the miss-rate cells one at a time,
// and checks each reply against the in-process batch eval of the same
// kernel and designs.
func checkShardWorkerReplies(t *testing.T, storePath string, dec *trace.Decoded, workers int, cells []shardMsg) {
	t.Helper()
	workerR, coordW := io.Pipe()
	coordR, workerW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- ServeShardWorker(workerR, workerW)
		workerW.Close()
	}()
	enc := json.NewEncoder(coordW)
	replies := json.NewDecoder(coordR)
	if err := enc.Encode(shardMsg{Type: "open", ID: -1, Store: storePath,
		Scale: dec.Scale, NumSMs: dec.NumSMs, Seed: dec.Seed, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	var ready shardMsg
	if err := replies.Decode(&ready); err != nil || ready.Type != "ready" {
		t.Fatalf("open: got %+v, %v; want ready", ready, err)
	}
	for id, c := range cells {
		c.Type, c.ID, c.Op = "cell", id, shardOpMiss
		if err := enc.Encode(c); err != nil {
			t.Fatal(err)
		}
		var got shardMsg
		if err := replies.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Type != "result" || got.ID != id {
			t.Fatalf("cell %d: got %+v, want its result", id, got)
		}
		k, _ := dec.Kernel(c.Kernel)
		want, err := k.EvalMissBatch(c.Designs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rates, want) {
			t.Errorf("cell %d (%s): rates %v, want %v", id, c.Kernel, got.Rates, want)
		}
	}
	if err := enc.Encode(shardMsg{Type: "done", ID: -1}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	coordW.Close()
}

// endlessLine is a peer that sends one line that never ends.
type endlessLine struct{}

func (endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestShardWorkerRejectsLongLine feeds a worker a line that never ends:
// it must stop reading once the line passes maxShardLine, tell the
// coordinator with a fatal error and return ErrShardLineTooLong.
func TestShardWorkerRejectsLongLine(t *testing.T) {
	var out bytes.Buffer
	err := ServeShardWorker(endlessLine{}, &out)
	if !errors.Is(err, ErrShardLineTooLong) {
		t.Fatalf("ServeShardWorker = %v, want ErrShardLineTooLong", err)
	}
	var m shardMsg
	if err := json.Unmarshal(out.Bytes(), &m); err != nil || m.Type != "error" || m.ID != -1 || m.Msg != ErrShardLineTooLong.Error() {
		t.Errorf("worker replied %q (%v), want a fatal error naming the cap", out.String(), err)
	}
}

// TestShardCoordinatorRejectsLongLine connects the coordinator to a
// worker whose reply is a line that never ends: the connection must die
// with ErrShardLineTooLong instead of buffering the line, and with no
// worker left the sweep fails naming it.
func TestShardCoordinatorRejectsLongLine(t *testing.T) {
	storePath, _ := suiteStore(t)
	cfg := Default()
	cfg.SweepWorkers = 1
	conn := &ShardConn{Name: "endless", R: endlessLine{}, W: io.Discard}
	_, err := Fig5Sharded(cfg, storePath, nil, []*ShardConn{conn}, ShardOptions{})
	if !errors.Is(err, ErrShardLineTooLong) {
		t.Fatalf("Fig5Sharded = %v, want an error wrapping ErrShardLineTooLong", err)
	}
}
