package gpusim

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"st2gpu/internal/isa"
)

// execMemory executes LD/ST/ATOM for the active lanes, modeling
// coalescing into cache-line transactions for the global space.
func (sm *smState) execMemory(w *warp, in *isa.Instr, execMask uint32, res *stepResult) error {
	size := in.Type.Size()
	cfg := &sm.dev.cfg
	addrs := sm.srcVec(w, in.Srcs[0], &sm.opA)
	var vals *[32]uint64
	if in.Op != isa.OpLd {
		vals = sm.srcVec(w, in.Srcs[1], &sm.opB)
	}

	switch in.Space {
	case isa.Param:
		// Parameter space: constant-cache-like, one transaction.
		res.memTransactions = 1
		res.latency = cfg.SharedLatency
		sm.stats.ParamAccesses++
		if in.Op != isa.OpLd {
			return fmt.Errorf("gpusim: %v on param space", in.Op)
		}
		dst := w.regRow(in.Dst)
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			v, err := paramLoad(sm.params, addrs[l], size)
			if err != nil {
				return err
			}
			dst[l] = truncate(in.Type, v)
		}
		return nil

	case isa.Shared:
		res.memTransactions = 1
		res.latency = cfg.SharedLatency
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			addr := addrs[l]
			if addr+size > uint64(len(w.shared)) {
				return fmt.Errorf("gpusim: shared access [%#x,%#x) outside %d-byte block allocation",
					addr, addr+size, len(w.shared))
			}
			sm.stats.SharedAccesses++
			switch in.Op {
			case isa.OpLd:
				w.setReg(in.Dst, l, truncate(in.Type, loadLE(w.shared[addr:], size)))
			case isa.OpSt:
				storeLE(w.shared[addr:], size, vals[l])
			case isa.OpAtomAdd:
				sm.stats.AtomicLaneOps++
				old := loadLE(w.shared[addr:], size)
				storeLE(w.shared[addr:], size, old+vals[l])
			}
		}
		if in.Op == isa.OpAtomAdd {
			// Shared atomics serialize on bank conflicts; approximate one
			// extra transaction per four contending lanes.
			res.memTransactions += res.activeLanes / 4
		}
		return nil

	case isa.Global:
		sm.stats.GlobalAccesses++
		// Coalesce: distinct cache lines touched by the active lanes.
		lineShift := uint(0)
		for 1<<lineShift < cfg.LineBytes {
			lineShift++
		}
		var lines [32]uint64
		nLines := 0
		worst := uint64(0)
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			addr := addrs[l]
			switch in.Op {
			case isa.OpLd:
				v, err := sm.dev.mem.Load(addr, size)
				if err != nil {
					return err
				}
				w.setReg(in.Dst, l, truncate(in.Type, v))
			case isa.OpSt:
				if err := sm.dev.mem.Store(addr, size, vals[l]); err != nil {
					return err
				}
			case isa.OpAtomAdd:
				sm.stats.AtomicLaneOps++
				// The RMW must be indivisible: concurrently simulated SMs
				// contend on the same addresses (histogram bins etc.).
				if _, err := sm.dev.mem.AtomicAdd(addr, size, vals[l]); err != nil {
					return err
				}
			}
			line := addr >> lineShift
			seen := false
			for i := 0; i < nLines; i++ {
				if lines[i] == line {
					seen = true
					break
				}
			}
			if !seen && nLines < len(lines) {
				lines[nLines] = line
				nLines++
			}
		}
		// Timing: each transaction walks the hierarchy.
		for i := 0; i < nLines; i++ {
			addr := lines[i] << lineShift
			lat := cfg.L1HitLatency
			if !sm.l1.Access(addr) {
				sm.stats.L2Accesses++
				lat = cfg.L2HitLatency
				if !sm.l2.Access(addr) {
					sm.stats.DRAMAccesses++
					lat = cfg.DRAMLatency
				}
			}
			if lat > worst {
				worst = lat
			}
		}
		res.memTransactions = nLines
		if in.Op == isa.OpAtomAdd {
			// Atomics resolve at the L2: pay at least its latency and
			// serialize contending lanes.
			if worst < cfg.L2HitLatency {
				worst = cfg.L2HitLatency
			}
			res.memTransactions += res.activeLanes / 2
		}
		res.latency = worst
		return nil

	default:
		return fmt.Errorf("gpusim: unknown memory space %v", in.Space)
	}
}

func loadLE(b []byte, size uint64) uint64 {
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

func storeLE(b []byte, size uint64, v uint64) {
	if size == 4 {
		binary.LittleEndian.PutUint32(b, uint32(v))
		return
	}
	binary.LittleEndian.PutUint64(b, v)
}
