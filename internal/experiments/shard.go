package experiments

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"

	"st2gpu/internal/kernels"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
	"st2gpu/internal/trace"
)

// This file is the distributed half of the sweep engine: a coordinator
// partitions the (kernel × design-batch) grid into cells and hands them
// to worker processes over a line-delimited JSON protocol. Workers open
// the decoded store with trace.OpenStore and load ONLY the kernels
// their cells name (LoadKernels), so a worker's memory and load time
// are proportional to its assignment, not the suite. Cell results are
// integer stats.Rate counters — they JSON-round-trip exactly — and the
// coordinator scatters them into the same flat kernel-major rate grid
// the in-process sweep builds, then folds through the identical
// foldFig5Rows/foldFig3Rows helpers. The batch partition and the
// cell→worker schedule therefore cannot affect the rows: distributed
// output is bit-identical to Fig5FromDecoded/Fig3FromDecoded at any
// (shards × sweep-workers) combination, including after a killed
// worker's cells are requeued elsewhere.

// Protocol: one JSON object per line, both directions.
//
//	coordinator → worker:  open{store,scale,sms,seed,workers}
//	                       cell{id,op,kernel,designs}   op ∈ {miss, corr}
//	                       done{}
//	worker → coordinator:  ready{kernels}               after open
//	                       result{id,rates}
//	                       error{id,msg}                id<0: fatal, not cell-scoped
type shardMsg struct {
	Type string `json:"type"`

	// open
	Store   string `json:"store,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	NumSMs  int    `json:"sms,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// cell / result / error
	ID      int          `json:"id"`
	Op      string       `json:"op,omitempty"`
	Kernel  string       `json:"kernel,omitempty"`
	Designs []string     `json:"designs,omitempty"`
	Rates   []stats.Rate `json:"rates,omitempty"`

	// ready
	Kernels []string `json:"kernels,omitempty"`

	// error
	Msg string `json:"msg,omitempty"`
}

const (
	shardOpMiss = "miss"
	shardOpCorr = "corr"
)

// maxShardLine caps one protocol line, in bytes, on both sides of the
// wire. The largest line a suite sweep sends is a worker's ready message
// naming every kernel or a cell naming its designs, well under 1 KiB, so
// 1 MiB leaves room for long store paths and large design batches while
// a peer can no longer make its reader buffer an unbounded line.
const maxShardLine = 1 << 20

// ErrShardLineTooLong reports a protocol line longer than maxShardLine.
var ErrShardLineTooLong = fmt.Errorf("experiments: shard protocol line exceeds %d bytes", maxShardLine)

// shardReader reads one protocol message per line, each at most
// maxShardLine bytes.
type shardReader struct{ sc *bufio.Scanner }

func newShardReader(r io.Reader) *shardReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxShardLine)
	return &shardReader{sc}
}

// read decodes the next line into m. It returns io.EOF at the end of the
// stream and ErrShardLineTooLong, without buffering the rest of the
// line, once a line outgrows the cap.
func (r *shardReader) read(m *shardMsg) error {
	if !r.sc.Scan() {
		err := r.sc.Err()
		if errors.Is(err, bufio.ErrTooLong) {
			return ErrShardLineTooLong
		}
		if err == nil {
			err = io.EOF
		}
		return err
	}
	return json.Unmarshal(r.sc.Bytes(), m)
}

// ShardConn is one coordinator↔worker connection: a line-delimited JSON
// stream plus a closer that tears the transport down (killing the
// subprocess for spawned workers, closing the socket for TCP ones).
type ShardConn struct {
	Name string // used in errors, spans, and metrics
	R    io.Reader
	W    io.Writer
	C    io.Closer // may be nil
}

// Close tears down the connection's transport.
func (c *ShardConn) Close() error {
	if c.C == nil {
		return nil
	}
	return c.C.Close()
}

// spawnedWorker adapts a worker subprocess to io.Closer: closing kills
// the process and reaps it, which is what the coordinator's lease
// watchdog calls on a hung worker.
type spawnedWorker struct {
	cmd   *exec.Cmd
	stdin io.Closer
}

func (s *spawnedWorker) Close() error {
	s.stdin.Close()
	if s.cmd.Process != nil {
		s.cmd.Process.Kill()
	}
	s.cmd.Wait()
	return nil
}

// SpawnWorkers launches n worker subprocesses from the command factory
// and wires each as a ShardConn over its stdin/stdout (stderr passes
// through). The spawned command must run ServeShardWorker on its own
// stdin/stdout, as `st2shard -worker` does. On any launch failure the
// already-spawned workers are closed.
func SpawnWorkers(n int, newCmd func() *exec.Cmd) ([]*ShardConn, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: SpawnWorkers needs n ≥ 1, got %d", n)
	}
	conns := make([]*ShardConn, 0, n)
	fail := func(err error) ([]*ShardConn, error) {
		CloseShardConns(conns)
		return nil, err
	}
	for i := 0; i < n; i++ {
		cmd := newCmd()
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return fail(fmt.Errorf("experiments: shard worker %d stdin: %w", i, err))
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail(fmt.Errorf("experiments: shard worker %d stdout: %w", i, err))
		}
		if cmd.Stderr == nil {
			cmd.Stderr = os.Stderr
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("experiments: shard worker %d: %w", i, err))
		}
		conns = append(conns, &ShardConn{
			Name: fmt.Sprintf("worker-%d", i),
			R:    stdout,
			W:    stdin,
			C:    &spawnedWorker{cmd: cmd, stdin: stdin},
		})
	}
	return conns, nil
}

// CloseShardConns closes every connection, ignoring errors — the
// coordinator calls it after a sweep, when workers have either exited
// on "done" or deserve a kill.
func CloseShardConns(conns []*ShardConn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// ServeShardWorker serves one coordinator connection on r/w: it opens
// the store named by the open message, loads each cell's kernel section
// (partial loads — never the whole store — keeping only the latest few
// loaded), and evaluates cells on an internal pool of the
// coordinator-requested size, so a worker keeps its cores busy while
// replies stay serialized. Returns nil on a clean "done" or EOF.
func ServeShardWorker(r io.Reader, w io.Writer) error {
	in := newShardReader(r)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var mu sync.Mutex // serializes reply lines from eval goroutines
	send := func(m shardMsg) error {
		mu.Lock()
		defer mu.Unlock()
		if err := enc.Encode(m); err != nil {
			return err
		}
		return bw.Flush()
	}
	fatal := func(err error) error {
		send(shardMsg{Type: "error", ID: -1, Msg: err.Error()})
		return err
	}

	var h *trace.StoreHandle
	// recent holds the kernels of the latest cells, most recent last, at
	// most one per eval slot; it is touched only by this loop. The
	// coordinator dispatches cells kernel-major, so a kernel's cells
	// arrive together and an evicted kernel comes back only with a
	// requeued cell, which reloads it. Keeping every kernel the worker
	// has seen would hold its whole share of the store until the sweep
	// ends.
	var recent []shardKernel
	var sem chan struct{}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		var m shardMsg
		if err := in.read(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, ErrShardLineTooLong) {
				return fatal(err)
			}
			return err
		}
		switch m.Type {
		case "open":
			var err error
			h, err = trace.OpenStore(m.Store, 0)
			if err != nil {
				return fatal(err)
			}
			if err := h.Matches(m.Scale, m.NumSMs, m.Seed); err != nil {
				return fatal(err)
			}
			sem = make(chan struct{}, shardEvalSlots(m.Workers))
			if err := send(shardMsg{Type: "ready", ID: -1, Kernels: h.Names()}); err != nil {
				return err
			}
		case "cell":
			if h == nil {
				return fatal(fmt.Errorf("experiments: shard cell %d before open", m.ID))
			}
			// The kernel section loads in the read loop (recent is
			// loop-owned); only the pure array-walk eval fans out.
			var k *trace.DecodedKernel
			for i, e := range recent {
				if e.name == m.Kernel {
					k = e.k
					recent = append(recent[:i], recent[i+1:]...)
					break
				}
			}
			if k == nil {
				d, err := h.LoadKernels([]string{m.Kernel}, 0)
				if err != nil {
					if sendErr := send(shardMsg{Type: "error", ID: m.ID, Msg: err.Error()}); sendErr != nil {
						return sendErr
					}
					continue
				}
				k, _ = d.Kernel(m.Kernel)
				if len(recent) == cap(sem) {
					recent = append(recent[:0], recent[1:]...)
				}
			}
			recent = append(recent, shardKernel{m.Kernel, k})
			wg.Add(1)
			sem <- struct{}{}
			go func(m shardMsg, k *trace.DecodedKernel) {
				defer wg.Done()
				defer func() { <-sem }()
				var rates []stats.Rate
				var err error
				switch m.Op {
				case shardOpMiss:
					rates, err = k.EvalMissBatch(m.Designs)
				case shardOpCorr:
					rates, err = k.EvalCorrBatch(m.Designs)
				default:
					err = fmt.Errorf("experiments: shard cell %d has unknown op %q", m.ID, m.Op)
				}
				if err != nil {
					send(shardMsg{Type: "error", ID: m.ID, Msg: err.Error()})
					return
				}
				send(shardMsg{Type: "result", ID: m.ID, Rates: rates})
			}(m, k)
		case "done":
			return nil
		default:
			return fatal(fmt.Errorf("experiments: shard worker got unknown message type %q", m.Type))
		}
	}
}

// shardEvalSlots is the number of cells a shard worker evaluates at once
// (and so of kernels it keeps loaded) for the peer's requested count: at
// most GOMAXPROCS, whatever the peer sends, and GOMAXPROCS when it asks
// for none.
func shardEvalSlots(requested int) int {
	procs := runtime.GOMAXPROCS(0)
	if requested < 1 || requested > procs {
		return procs
	}
	return requested
}

// shardKernel is one kernel section a shard worker has loaded.
type shardKernel struct {
	name string
	k    *trace.DecodedKernel
}

// ShardOptions tunes the coordinator's robustness machinery.
type ShardOptions struct {
	// Lease bounds how long a connection with outstanding cells may go
	// without delivering any result before it is declared hung, closed,
	// and its cells requeued. 0 means 2 minutes.
	Lease time.Duration
	// MaxAttempts caps how many times one cell may be dispatched
	// (first try included) before the sweep fails loudly. 0 means 3.
	MaxAttempts int
}

func (o ShardOptions) lease() time.Duration {
	if o.Lease <= 0 {
		return 2 * time.Minute
	}
	return o.Lease
}

func (o ShardOptions) maxAttempts() int {
	if o.MaxAttempts < 1 {
		return 3
	}
	return o.MaxAttempts
}

// Fig5Sharded runs the Figure 5 design-space sweep distributed over the
// given worker connections, each loading only its assigned kernels from
// the store at storePath. Rows are bit-identical to Fig5FromDecoded on
// the same store at any (connections × SweepWorkers) combination.
func Fig5Sharded(cfg Config, storePath string, designs []string, conns []*ShardConn, opts ShardOptions) ([]Fig5Row, error) {
	if designs == nil {
		designs = speculate.DesignSpace
	}
	rates, _, err := runSharded(cfg, storePath, shardOpMiss, designs, conns, opts)
	if err != nil {
		return nil, err
	}
	return foldFig5Rows(designs, rates, len(kernels.Suite())), nil
}

// Fig3Sharded runs the Figure 3 correlation analysis distributed over
// the given worker connections. Rows are bit-identical to
// Fig3FromDecoded on the same store.
func Fig3Sharded(cfg Config, storePath string, conns []*ShardConn, opts ShardOptions) ([]Fig3Row, error) {
	rates, names, err := runSharded(cfg, storePath, shardOpCorr, trace.Fig3Designs, conns, opts)
	if err != nil {
		return nil, err
	}
	return foldFig3Rows(names, rates), nil
}

// shardCell is one dispatchable unit: a kernel and a contiguous design
// batch. Its index in the cell list is its wire id and the slot its
// rates land in.
type shardCell struct {
	kernel string
	lo, hi int // design range [lo, hi)
}

// shardEvent is what connection readers feed the coordinator loop: a
// decoded message, or a terminal read error (conn died).
type shardEvent struct {
	conn int
	msg  shardMsg
	err  error
}

// runSharded drives the grid over the connections and returns the flat
// kernel-major rate grid plus the suite kernel names. All mutable
// scheduling state (queue, attempts, inflight, results) is owned by
// this goroutine; per-connection reader/writer goroutines only move
// messages, so the engine passes the shardown ownership rules by
// construction.
func runSharded(cfg Config, storePath, op string, designs []string, conns []*ShardConn, opts ShardOptions) ([]stats.Rate, []string, error) {
	if len(conns) == 0 {
		return nil, nil, fmt.Errorf("experiments: sharded sweep needs at least one worker connection")
	}
	ws := kernels.Suite()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	nk, nd := len(names), len(designs)
	perConn := cfg.SweepWorkers
	if perConn < 1 {
		perConn = runtime.GOMAXPROCS(0)
	}
	batches := designBatches(len(conns)*perConn, nk, nd)
	nb := len(batches)
	cells := make([]shardCell, nk*nb)
	for t := range cells {
		i, b := t/nb, t%nb
		cells[t] = shardCell{kernel: names[i], lo: batches[b][0], hi: batches[b][1]}
	}

	var cellsDispatched, cellsRetried *metrics.Counter
	var occHist *metrics.Histogram
	if cfg.Metrics != nil {
		cellsDispatched = cfg.Metrics.Counter("shard.cells_dispatched")
		cellsRetried = cfg.Metrics.Counter("shard.cells_retried")
		occHist = cfg.Metrics.Histogram("shard.occupancy", 64)
	}
	root := cfg.Obs.Begin("shard.assign",
		obs.Str("op", op),
		obs.Int("cells", int64(len(cells))),
		obs.Int("shards", int64(len(conns))),
		obs.Int("per_conn", int64(perConn)))
	defer root.End()

	// Per-connection plumbing: a shared event channel fed by one reader
	// goroutine per conn, and one writer goroutine per conn draining a
	// buffered send queue (so a hung transport never blocks this loop).
	events := make(chan shardEvent, len(conns)*(perConn+2))
	quit := make(chan struct{}) // closed on return so readers never block
	sendChs := make([]chan shardMsg, len(conns))
	var wg sync.WaitGroup
	for c, conn := range conns {
		c, conn := c, conn
		sendChs[c] = make(chan shardMsg, perConn+2)
		wg.Add(1)
		go func() { // writer
			defer wg.Done()
			bw := bufio.NewWriter(conn.W)
			enc := json.NewEncoder(bw)
			for m := range sendChs[c] {
				if err := enc.Encode(m); err != nil {
					return
				}
				if err := bw.Flush(); err != nil {
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			in := newShardReader(conn.R)
			for {
				var m shardMsg
				err := in.read(&m)
				select {
				case events <- shardEvent{conn: c, msg: m, err: err}:
				case <-quit:
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
	defer func() {
		close(quit)
		for _, ch := range sendChs {
			close(ch)
		}
		CloseShardConns(conns)
		wg.Wait()
	}()

	// Lease watchdogs: one timer per connection, armed while the conn
	// holds cells and reset on every result. Expiry closes the conn —
	// the reader then surfaces the death and this loop requeues. The
	// timers never touch scheduling state, so the wall clock cannot
	// reach the results.
	leases := make([]*time.Timer, len(conns))
	for c := range conns {
		conn := conns[c]
		leases[c] = time.AfterFunc(opts.lease(), func() { conn.Close() })
		leases[c].Stop()
	}
	defer func() {
		for _, l := range leases {
			l.Stop()
		}
	}()

	// Coordinator-owned scheduling state.
	queue := make([]int, 0, len(cells))
	attempts := make([]int, len(cells))
	lastErr := make([]error, len(cells))
	inflight := make([]map[int]bool, len(conns)) // conn → set of cell ids
	spans := make(map[int]*obs.ActiveSpan, len(cells))
	results := make([][]stats.Rate, len(cells))
	done := make([]bool, len(cells))
	ready := make([]bool, len(conns))
	dead := make([]bool, len(conns))
	remaining := len(cells)
	for c := range conns {
		inflight[c] = map[int]bool{}
		sendChs[c] <- shardMsg{Type: "open", ID: -1, Store: storePath,
			Scale: cfg.Scale, NumSMs: cfg.NumSMs, Seed: cfg.Seed, Workers: perConn}
	}
	for t := len(cells) - 1; t >= 0; t-- {
		queue = append(queue, t) // popped from the end → dispatches in cell order
	}

	totalInflight := 0
	dispatch := func(c int) {
		for !dead[c] && ready[c] && len(inflight[c]) < perConn && len(queue) > 0 {
			t := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			attempts[t]++
			if attempts[t] > 1 && cellsRetried != nil {
				cellsRetried.Add(1)
			}
			if cellsDispatched != nil {
				cellsDispatched.Add(1)
			}
			inflight[c][t] = true
			totalInflight++
			if occHist != nil {
				occHist.Observe(totalInflight)
			}
			spans[t] = root.Child("shard.cell",
				obs.Str("kernel", cells[t].kernel),
				obs.Str("conn", conns[c].Name),
				obs.Int("designs", int64(cells[t].hi-cells[t].lo)),
				obs.Int("attempt", int64(attempts[t])))
			if len(inflight[c]) == 1 {
				leases[c].Reset(opts.lease())
			}
			sendChs[c] <- shardMsg{Type: "cell", ID: t, Op: op,
				Kernel: cells[t].kernel, Designs: designs[cells[t].lo:cells[t].hi]}
		}
	}

	// requeue returns an error when a cell has exhausted its attempts —
	// the loud-failure path the retry cap exists for.
	requeue := func(t int, cause error) error {
		if spans[t] != nil {
			spans[t].Add(obs.Str("outcome", "requeued"))
			spans[t].End()
			delete(spans, t)
		}
		lastErr[t] = cause
		if attempts[t] >= opts.maxAttempts() {
			return fmt.Errorf("experiments: shard cell %d (kernel %q, designs [%d,%d)) failed %d times, giving up: %w",
				t, cells[t].kernel, cells[t].lo, cells[t].hi, attempts[t], cause)
		}
		queue = append(queue, t)
		return nil
	}

	// connDied requeues every cell the connection held, in cell order so
	// the redispatch sequence is deterministic given the failure.
	connDied := func(c int, cause error) error {
		if dead[c] {
			return nil
		}
		dead[c] = true
		leases[c].Stop()
		conns[c].Close()
		held := make([]int, 0, len(inflight[c]))
		for t := range inflight[c] {
			held = append(held, t)
		}
		sort.Ints(held)
		totalInflight -= len(held)
		inflight[c] = map[int]bool{}
		for _, t := range held {
			if err := requeue(t, fmt.Errorf("experiments: shard conn %s died holding cell %d: %w", conns[c].Name, t, cause)); err != nil {
				return err
			}
		}
		allDead := true
		for _, d := range dead {
			allDead = allDead && d
		}
		if allDead && remaining > 0 {
			return fmt.Errorf("experiments: all %d shard workers died with %d of %d cells unfinished (conn %s last: %w)",
				len(conns), remaining, len(cells), conns[c].Name, cause)
		}
		return nil
	}

	for remaining > 0 {
		ev := <-events
		c := ev.conn
		if ev.err != nil {
			if err := connDied(c, ev.err); err != nil {
				return nil, nil, err
			}
			for o := range conns {
				dispatch(o)
			}
			continue
		}
		switch ev.msg.Type {
		case "ready":
			if err := suiteCovered(names, ev.msg.Kernels); err != nil {
				// A store without the suite is a config error, not a
				// transient worker fault: fail the sweep loudly.
				return nil, nil, err
			}
			ready[c] = true
			dispatch(c)
		case "result", "error":
			t := ev.msg.ID
			if t < 0 || t >= len(cells) || !inflight[c][t] {
				if ev.msg.Type == "error" {
					// Fatal worker-level error (bad store path, config
					// mismatch): the conn is useless, treat it as dead.
					if err := connDied(c, errors.New(ev.msg.Msg)); err != nil {
						return nil, nil, err
					}
					for o := range conns {
						dispatch(o)
					}
				}
				continue // stale reply for a cell requeued elsewhere
			}
			delete(inflight[c], t)
			totalInflight--
			if len(inflight[c]) > 0 {
				leases[c].Reset(opts.lease())
			} else {
				leases[c].Stop()
			}
			if ev.msg.Type == "error" {
				if err := requeue(t, errors.New(ev.msg.Msg)); err != nil {
					return nil, nil, err
				}
				for o := range conns {
					dispatch(o)
				}
				continue
			}
			i := t / nb
			if err := checkShardRates(ev.msg.Rates, cells[t].hi-cells[t].lo, results[i*nb:(i+1)*nb]); err != nil {
				if err := requeue(t, fmt.Errorf("experiments: shard cell %d %w", t, err)); err != nil {
					return nil, nil, err
				}
				dispatch(c)
				continue
			}
			if !done[t] {
				done[t] = true
				remaining--
				results[t] = ev.msg.Rates
				if spans[t] != nil {
					spans[t].End()
					delete(spans, t)
				}
			}
			dispatch(c)
		}
	}
	for c := range conns {
		if !dead[c] {
			sendChs[c] <- shardMsg{Type: "done", ID: -1}
		}
	}

	fold := root.Child("shard.fold")
	rates := make([]stats.Rate, nk*nd)
	foldBatches(rates, results, batches, nk, nd)
	fold.End()
	return rates, names, nil
}

// designBatches splits nd designs into contiguous [lo, hi) batches sized
// so the (kernel × batch) grid still has at least `workers` (≥ 1) cells
// to keep every worker busy, clamped to at most nd batches; every kernel
// gets the same split. It is the shard partition only: the in-process
// grid splits by lanes (laneGrid), but a kernel split over several cells
// here can land on several shard workers, and each of them then loads
// the kernel's whole store section.
func designBatches(workers, nk, nd int) [][2]int {
	nb := min((workers+nk-1)/nk, nd)
	out := make([][2]int, nb)
	for b := 0; b < nb; b++ {
		out[b] = [2]int{b * nd / nb, (b + 1) * nd / nb}
	}
	return out
}

// checkShardRates says why a cell's result rates cannot be right, or
// returns nil. want is the cell's design count (≥ 1) and siblings the
// accepted results of the kernel's cells (nil while pending). Every
// design of one kernel sees the same lane stream, so every rate of the
// kernel carries the same Total, and none hits more than its Total.
func checkShardRates(rates []stats.Rate, want int, siblings [][]stats.Rate) error {
	if len(rates) != want {
		return fmt.Errorf("returned %d rates, want %d", len(rates), want)
	}
	for _, rs := range append([][]stats.Rate{rates}, siblings...) {
		for _, r := range rs {
			if r.Total != rates[0].Total {
				return fmt.Errorf("returned rates over %d and %d events for one kernel", rates[0].Total, r.Total)
			}
			if r.Hits > r.Total {
				return fmt.Errorf("returned %d hits of %d events", r.Hits, r.Total)
			}
		}
	}
	return nil
}

// foldBatches scatters per-cell batched results back into the flat
// (kernel × design) rate grid, in fixed order.
func foldBatches(rates []stats.Rate, cells [][]stats.Rate, batches [][2]int, nk, nd int) {
	nb := len(batches)
	for i := 0; i < nk; i++ {
		for b := 0; b < nb; b++ {
			lo := batches[b][0]
			for x, r := range cells[i*nb+b] {
				rates[i*nd+lo+x] = r
			}
		}
	}
}

// suiteCovered checks a worker's advertised kernel list holds every
// suite kernel, failing the same way sweepGrid does on a short set.
func suiteCovered(suite, have []string) error {
	got := make(map[string]bool, len(have))
	for _, n := range have {
		got[n] = true
	}
	for _, n := range suite {
		if !got[n] {
			return fmt.Errorf("experiments: shard store is missing kernel %q (store holds %d kernels)", n, len(have))
		}
	}
	return nil
}
