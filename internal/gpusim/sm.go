package gpusim

import (
	"fmt"
	"sort"

	"st2gpu/internal/core"
	"st2gpu/internal/isa"
	"st2gpu/internal/metrics"
	"st2gpu/internal/speculate"
)

// poolKind buckets functional-unit classes into the SM's physical
// execution pipes (Volta-like: per-scheduler INT32 and FP32 pipes, one
// shared SFU, two shared LSUs). The model has no separate FP64 pipe:
// double-precision FP ops issue to the FP32 pipes.
type poolKind int

const (
	poolALU poolKind = iota
	poolFP32
	poolSFU
	poolMEM
	poolNone
	poolCount
)

func poolFor(c isa.FUClass) poolKind {
	switch c {
	case isa.FUAluAdd, isa.FUAluOther, isa.FUIntMul, isa.FUIntDiv:
		return poolALU
	case isa.FUFpAdd, isa.FUFpMul, isa.FUFpDiv:
		return poolFP32
	case isa.FUSfu:
		return poolSFU
	case isa.FUMem:
		return poolMEM
	default:
		return poolNone
	}
}

// decodedInstr is one instruction's issue-path facts. decodeProgram
// derives the table once per launch from the Program; every SM of the
// launch shares it read-only and nothing mutates it.
type decodedInstr struct {
	in       *isa.Instr
	class    isa.FUClass
	pool     poolKind
	lat, occ uint64 // producer latency and FU occupancy (memory ops refine lat)
	hasDst   bool
	numSrcs  int
	// waitRegs[:nWait] are the registers the scoreboard waits on before
	// issue: the register sources (SELP's predicate excluded) and, since
	// the warp is in order, the destination (write-after-write/read).
	waitRegs [4]isa.Reg
	nWait    int
}

// decodeProgram builds the per-PC issue table for one launch.
func (d *Device) decodeProgram(prog *isa.Program) []decodedInstr {
	code := make([]decodedInstr, len(prog.Instrs))
	for pc := range prog.Instrs {
		in := &prog.Instrs[pc]
		di := decodedInstr{
			in:      in,
			class:   in.Op.Class(),
			pool:    poolFor(in.Op.Class()),
			hasDst:  in.Op.HasDst(),
			numSrcs: in.Op.NumSrcs(),
		}
		di.lat, di.occ = d.latency(in.Op)
		for s := 0; s < di.numSrcs; s++ {
			if in.Srcs[s].Kind == isa.OpReg && (in.Op != isa.OpSelp || s < 2) {
				di.waitRegs[di.nWait] = in.Srcs[s].Reg
				di.nWait++
			}
		}
		if di.hasDst {
			di.waitRegs[di.nWait] = in.Dst
			di.nWait++
		}
		code[pc] = di
	}
	return code
}

// SMStats aggregates one SM's activity over a kernel run. The
// per-FU-class instruction counters are dense arrays indexed by FUClass:
// they are bumped once per issued instruction, and an array index is a
// fraction of the map-hash cost that used to sit on that path.
type SMStats struct {
	Cycles         uint64
	WarpInstrs     [isa.NumFUClasses]uint64
	ThreadInstrs   [isa.NumFUClasses]uint64
	RegReads       uint64
	RegWrites      uint64
	SharedAccesses uint64
	ParamAccesses  uint64
	GlobalAccesses uint64 // warp-level global memory instructions
	L2Accesses     uint64
	DRAMAccesses   uint64
	AtomicLaneOps  uint64
	ST2StallCycles uint64
	BarrierWaits   uint64
}

func newSMStats() *SMStats { return &SMStats{} }

// smState is one streaming multiprocessor mid-simulation. Each SM owns
// everything it touches on the hot path — warps, caches, execution units,
// CRF, statistics — so smState.run needs no locks and one launch can run
// its SMs on concurrent worker goroutines; only global memory (striped
// locks inside Memory) is shared between SMs.
type smState struct {
	dev    *Device
	id     int
	kernel *Kernel
	params []byte         // kernel params, serialized once per launch (read-only)
	code   []decodedInstr // the launch's decoded program (read-only)

	l1 *Cache
	// l2 is this SM's private shard of the L2 model: tags and statistics
	// are per-SM, which keeps the timing simulation deterministic and
	// lock-free under the parallel launch path. Shard stats merge into the
	// device aggregate at fold time; hit rates differ marginally from a
	// truly shared L2, exactly as the old SM-by-SM sequential loop
	// admitted its warm-L2 carry-over did.
	l2 *Cache

	// ST² execution units and speculation source.
	alu32, alu64, fpu, dpu *core.Unit
	crf                    *speculate.CRF
	spec                   core.Speculator
	baselineAdderOps       map[core.UnitKind]uint64

	// Execution state.
	warps      []*warp
	blockQueue []int               // global block indices awaiting launch
	liveBlocks map[int]int         // blockIdx → live (not done) warp count
	pools      [poolCount][]uint64 // busy-until per pipe
	freePipe   [poolCount]int      // per pool, its earliest-free pipe (kept by occupyPipe)

	// The issue gate: dense per-warp and per-pool arrays from which the
	// scan and the fast-forward decide, without touching a warp, whether
	// it can issue (canIssue). gate[id] is the warp's readyAt, or noIssue
	// while it is done or at a barrier; poolOf[id] is the pipe pool of the
	// instruction at its rpc (poolNone once every thread has exited); and
	// poolFree[k] is the busy-until time of pool k's earliest-free pipe
	// (always 0 for poolNone). refreshReady, retire, the barrier
	// arrive/release and occupyPipe are their only writers.
	gate     []uint64
	poolOf   []poolKind
	poolFree [poolCount]uint64

	// active holds, in ascending order, the indices into warps of every
	// warp not done as of the last compaction, followed by any warps
	// launched since. A retirement only sets retired; run compacts the
	// list at the top of the next cycle, so a scan never sees it move.
	active   []int
	retired  bool
	resident int // warps launched and not done

	cycle    uint64
	rrPos    int
	lastWarp int // GTO: the warp that issued most recently (-1 none)
	stats    *SMStats

	// barrierArrived counts, per live block, the warps currently waiting
	// at a barrier. Maintained incrementally (bumped when a warp arrives,
	// entry deleted on release) so releaseBarriers does no per-cycle
	// allocation and is O(blocks-at-barrier), not O(warps).
	barrierArrived map[int]int

	// shard is this SM's private metrics buffer (nil when no registry is
	// installed); written once at the end of run, folded by the device in
	// SM-ID order after all workers join.
	shard *metrics.Shard

	// rec is this SM's private recording shard (nil when no Recorder is
	// installed); appended to lock-free on the execution hot path, folded
	// by the device in SM-ID order after all workers join.
	rec *recShard

	// Per-instruction scratch, reused by every warp instruction so the
	// issue path allocates nothing: immediate/special operand vectors, a
	// warp add's packed effective-operand columns, and the per-lane adds a
	// live AddTracer receives. The columns and addOps are handed to the
	// ST² unit, the recorder and tracers, valid only for the duration of
	// the call.
	opA, opB, opC [32]uint64
	ea, eb        [32]uint64
	addOps        [32]WarpAddOp
}

// units returns the SM's ST² execution units in a fixed fold order.
func (sm *smState) units() []*core.Unit {
	return []*core.Unit{sm.alu32, sm.alu64, sm.fpu, sm.dpu}
}

// occupyPipe marks pipe busy until cycle until and refreshes the pool's
// cached free pipe: the lowest-indexed pipe with the earliest busy-until
// time. It is the only writer of a pipe's busy-until time.
func (sm *smState) occupyPipe(k poolKind, pipe int, until uint64) {
	pipes := sm.pools[k]
	pipes[pipe] = until
	best := 0
	for i := 1; i < len(pipes); i++ {
		if pipes[i] < pipes[best] {
			best = i
		}
	}
	sm.freePipe[k] = best
	sm.poolFree[k] = pipes[best]
}

// launchBlock instantiates the warps of global block b on this SM.
func (sm *smState) launchBlock(b int) {
	prog := sm.kernel.Program
	threads := sm.kernel.BlockDim
	var shared []byte
	if prog.SharedBytes > 0 {
		shared = make([]byte, prog.SharedBytes)
	}
	nWarps := (threads + 31) / 32
	for wi := 0; wi < nWarps; wi++ {
		lanes := threads - wi*32
		if lanes > 32 {
			lanes = 32
		}
		w := &warp{
			id:        len(sm.warps),
			blockIdx:  b,
			tidBase:   uint32(wi * 32),
			gtidBase:  uint32(b*threads + wi*32),
			nLanes:    lanes,
			regs:      make([]uint64, prog.NumRegs*32),
			preds:     make([]bool, max(prog.NumPreds, 1)*32),
			shared:    shared,
			regReady:  make([]uint64, max(prog.NumRegs, 1)),
			nextIssue: sm.cycle,
		}
		for l := lanes; l < 32; l++ {
			w.pc[l] = -1
		}
		w.live = uint32(1<<lanes - 1)
		w.reconverge()
		sm.warps = append(sm.warps, w)
		sm.gate = append(sm.gate, 0)
		sm.poolOf = append(sm.poolOf, poolNone)
		sm.refreshReady(w)
		sm.active = append(sm.active, w.id)
	}
	sm.resident += nWarps
	sm.liveBlocks[b] = nWarps
}

// retire marks w done and drops its register and shared-memory
// references, which nothing reads again, so a long launch holds state
// only for its resident warps. Its entry leaves the active list at the
// next compaction.
func (sm *smState) retire(w *warp) {
	w.done = true
	sm.gate[w.id] = noIssue
	w.regs, w.preds, w.regReady, w.shared = nil, nil, nil, nil
	sm.resident--
	sm.retired = true
}

// compactActive drops retired warps from the active list.
func (sm *smState) compactActive() {
	live := sm.active[:0]
	for _, i := range sm.active {
		if !sm.warps[i].done {
			live = append(live, i)
		}
	}
	sm.active = live
	sm.retired = false
}

// refill launches queued blocks while resources allow.
func (sm *smState) refill() {
	warpsPerBlock := (sm.kernel.BlockDim + 31) / 32
	for len(sm.blockQueue) > 0 &&
		len(sm.liveBlocks) < sm.dev.cfg.MaxBlocksPerSM &&
		sm.resident+warpsPerBlock <= sm.dev.cfg.MaxWarpsPerSM {
		b := sm.blockQueue[0]
		sm.blockQueue = sm.blockQueue[1:]
		sm.launchBlock(b)
	}
}

// releaseBarriers frees blocks whose live warps have all arrived. The
// arrival counts are maintained incrementally by tryIssue (and decayed
// by warp exits through liveBlocks), so the common all-running cycle is
// a single empty-map check with no allocation.
func (sm *smState) releaseBarriers() {
	if len(sm.barrierArrived) == 0 {
		return
	}
	//st2:det-ok per-block effects are disjoint and idempotent: each b releases only its own block's warps, so visit order cannot reach results
	for b, n := range sm.barrierArrived {
		if n == sm.liveBlocks[b] {
			for _, i := range sm.active {
				if w := sm.warps[i]; w.blockIdx == b && w.atBarrier {
					w.atBarrier = false
					if w.nextIssue < sm.cycle+1 {
						w.nextIssue = sm.cycle + 1
					}
					sm.refreshReady(w)
				}
			}
			delete(sm.barrierArrived, b)
		}
	}
}

// noIssue is the gate of a warp that is done or waiting at a barrier.
const noIssue = ^uint64(0)

// refreshReady recomputes the gate of a running warp (neither done nor at
// a barrier): its readyAt, the cycle at which its next instruction can
// read all its operands and its in-order issue point allows it, and that
// instruction's pipe pool. Every write to w.nextIssue, w.regReady or w.rpc
// is followed by a call here.
func (sm *smState) refreshReady(w *warp) {
	t, pool := w.nextIssue, poolNone
	if w.rpc >= 0 {
		d := &sm.code[w.rpc]
		for _, r := range d.waitRegs[:d.nWait] {
			if ready := w.regReady[r]; ready > t {
				t = ready
			}
		}
		pool = d.pool
	}
	sm.gate[w.id], sm.poolOf[w.id] = t, pool
}

// canIssue reports, from the gate arrays alone, whether warp i can issue
// at the current cycle: it is neither done nor at a barrier, its operands
// and issue point are ready, and its instruction's pool has a free pipe.
func (sm *smState) canIssue(i int) bool {
	return sm.gate[i] <= sm.cycle && sm.poolFree[sm.poolOf[i]] <= sm.cycle
}

// tryIssue issues warp w, which canIssue admits, at the current cycle. It
// reports false only for a warp whose every thread has exited, which it
// retires instead.
func (sm *smState) tryIssue(w *warp) (bool, error) {
	if w.rpc < 0 {
		sm.retire(w)
		return false, nil
	}
	d := &sm.code[w.rpc]
	pool := d.pool
	pipe := -1
	if pool != poolNone {
		pipe = sm.freePipe[pool]
	}

	res, err := sm.executeStep(w, d)
	if err != nil {
		return false, err
	}

	// Occupancy and latency, with the ST² misprediction stall.
	occ, lat := res.occupancy, res.latency
	if res.st2Stall {
		occ++
		lat++
		sm.stats.ST2StallCycles++
	}
	if res.memTransactions > 1 {
		extra := uint64(res.memTransactions - 1)
		occ += extra
		lat += extra
	}
	if pipe >= 0 {
		sm.occupyPipe(pool, pipe, sm.cycle+occ)
	}
	if d.hasDst {
		w.regReady[d.in.Dst] = sm.cycle + lat
		sm.stats.RegWrites += uint64(res.activeLanes)
	}
	sm.stats.RegReads += uint64(res.activeLanes * d.numSrcs)
	w.nextIssue = sm.cycle + 1
	sm.refreshReady(w)

	// Bookkeeping.
	cls := d.class
	sm.stats.WarpInstrs[cls]++
	sm.stats.ThreadInstrs[cls] += uint64(res.activeLanes)
	if res.barrier {
		w.atBarrier = true
		sm.gate[w.id] = noIssue
		sm.barrierArrived[w.blockIdx]++
		sm.stats.BarrierWaits++
	}
	if res.exited {
		sm.retire(w)
		sm.liveBlocks[w.blockIdx]--
		if sm.liveBlocks[w.blockIdx] == 0 {
			delete(sm.liveBlocks, w.blockIdx)
			sm.refill()
		}
	}
	return true, nil
}

// run simulates this SM to completion.
func (sm *smState) run() error {
	sm.refill()
	for {
		if len(sm.liveBlocks) == 0 && len(sm.blockQueue) == 0 {
			break
		}
		if sm.cycle > sm.dev.cfg.MaxCycles {
			return fmt.Errorf("gpusim: SM %d exceeded %d cycles (livelock?)", sm.id, sm.dev.cfg.MaxCycles)
		}
		if sm.crf != nil {
			sm.crf.BeginCycle(sm.cycle)
		}
		if sm.retired {
			sm.compactActive()
		}
		sm.releaseBarriers()
		if check := sm.dev.cycleCheck; check != nil {
			if err := check(sm); err != nil {
				return err
			}
		}

		// The scan visits the warps active at the top of the cycle; warps
		// a retirement launches mid-scan wait for the next cycle.
		issued := 0
		n := len(sm.warps)
		act := sm.active
		greedy := sm.dev.cfg.Scheduler == GTO
		// GTO: give the most recent issuer first claim on a slot.
		if greedy && sm.lastWarp >= 0 && sm.lastWarp < n {
			ok := false
			if sm.canIssue(sm.lastWarp) {
				var err error
				if ok, err = sm.tryIssue(sm.warps[sm.lastWarp]); err != nil {
					return err
				}
			}
			if ok {
				issued++
			} else {
				sm.lastWarp = -1
			}
		}
		// LRR starts at warp rrPos mod n (every warp ever launched
		// counts) and walks the active warps cyclically from the first
		// index at or after it; GTO walks them oldest-first.
		first := 0
		if !greedy && len(act) > 0 {
			first = sort.SearchInts(act, sm.rrPos%n)
		}
		for scanned := 0; scanned < len(act) && issued < sm.dev.cfg.SchedulersPerSM; scanned++ {
			pos := first + scanned
			if pos >= len(act) {
				pos -= len(act)
			}
			idx := act[pos]
			if greedy && idx == sm.lastWarp || !sm.canIssue(idx) {
				continue
			}
			ok, err := sm.tryIssue(sm.warps[idx])
			if err != nil {
				return err
			}
			if ok {
				issued++
				if greedy {
					sm.lastWarp = idx
				}
			}
		}
		sm.rrPos++

		if issued > 0 {
			sm.cycle++
			continue
		}
		// Nothing issuable: fast-forward to the next event.
		next := ^uint64(0)
		anyWaiting := false
		for _, i := range sm.active {
			t := sm.gate[i]
			if t == noIssue {
				continue
			}
			anyWaiting = true
			if f := sm.poolFree[sm.poolOf[i]]; f > t {
				t = f
			}
			if t < next {
				next = t
			}
		}
		if !anyWaiting {
			// Everyone is at a barrier (or done): barriers must be
			// releasable next round; advance one cycle.
			stuck := sm.atBarrier()
			if stuck > 0 && len(sm.liveBlocks) > 0 {
				sm.cycle++
				// If releaseBarriers cannot free anyone, the kernel has a
				// divergent barrier — detect by re-checking.
				sm.releaseBarriers()
				if still := sm.atBarrier(); still == stuck {
					return fmt.Errorf("gpusim: SM %d: %d warps deadlocked at a barrier", sm.id, stuck)
				}
				continue
			}
			// No live warps but blocks remain queued: refill and continue.
			sm.refill()
			if len(sm.liveBlocks) == 0 && len(sm.blockQueue) == 0 {
				break
			}
			sm.cycle++
			continue
		}
		if next <= sm.cycle {
			next = sm.cycle + 1
		}
		sm.cycle = next
	}
	sm.stats.Cycles = sm.cycle
	sm.publishShard()
	return nil
}

// atBarrier counts the live warps waiting at a barrier.
func (sm *smState) atBarrier() int {
	n := 0
	for _, i := range sm.active {
		if w := sm.warps[i]; !w.done && w.atBarrier {
			n++
		}
	}
	return n
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
