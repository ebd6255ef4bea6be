package gpusim

import (
	"encoding/binary"
	"fmt"
	"io"

	"st2gpu/internal/core"
)

// recMagic heads the serialized recording stream that the golden and
// determinism tests hash and compare byte for byte. Recordings are never
// written to disk; the decoded store (internal/trace) is the one trace
// file format.
var recMagic = []byte("st2rec\x02")

// WriteTo serializes the recording (magic, op count, lane count, segment
// count, then length-prefixed segments). The encoding is deterministic:
// equal recordings produce byte-equal output.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	var hdr []byte
	hdr = append(hdr, recMagic...)
	hdr = binary.AppendUvarint(hdr, r.ops)
	hdr = binary.AppendUvarint(hdr, r.lanes)
	hdr = binary.AppendUvarint(hdr, uint64(len(r.segs)))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	for _, seg := range r.segs {
		var lp []byte
		lp = binary.AppendUvarint(lp, uint64(len(seg)))
		n, err = w.Write(lp)
		total += int64(n)
		if err != nil {
			return total, err
		}
		n, err = w.Write(seg)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// tapRecording makes every later launch on d hand fn each warp add's
// columns exactly as observe passes them to the recorder.
func (d *Device) tapRecording(fn func(kind core.UnitKind, pc, gtidBase, active, cin uint32, ea, eb []uint64)) {
	d.recordCheck = fn
}

// CheckIssueGate makes every later launch on d check, on every SM at the
// top of every cycle, that the issue gate agrees with the warps it
// summarizes; a disagreement fails the launch.
func (d *Device) CheckIssueGate() { d.cycleCheck = (*smState).checkIssueGate }

// checkIssueGate recomputes, from each warp and pipe itself, what
// gate/poolOf/poolFree must hold and the issue predicate the scan used to
// evaluate on the warp, and reports the first disagreement.
func (sm *smState) checkIssueGate() error {
	if len(sm.gate) != len(sm.warps) || len(sm.poolOf) != len(sm.warps) {
		return fmt.Errorf("SM %d: gate arrays cover %d/%d warps, %d launched",
			sm.id, len(sm.gate), len(sm.poolOf), len(sm.warps))
	}
	for k, pipes := range sm.pools {
		var free uint64
		for i, busy := range pipes {
			if i == 0 || busy < free {
				free = busy
			}
		}
		if sm.poolFree[k] != free {
			return fmt.Errorf("SM %d cycle %d: poolFree[%d] = %d, earliest-free pipe is busy until %d",
				sm.id, sm.cycle, k, sm.poolFree[k], free)
		}
	}
	for i, w := range sm.warps {
		ready, pool := uint64(noIssue), poolNone
		if !w.done {
			if w.rpc >= 0 {
				pool = sm.code[w.rpc].pool
			}
			if sm.poolOf[i] != pool {
				return fmt.Errorf("SM %d cycle %d warp %d: poolOf = %d, instruction at rpc %d issues to pool %d",
					sm.id, sm.cycle, i, sm.poolOf[i], w.rpc, pool)
			}
		}
		if !w.done && !w.atBarrier {
			ready = w.nextIssue
			if w.rpc >= 0 {
				d := &sm.code[w.rpc]
				for _, r := range d.waitRegs[:d.nWait] {
					ready = max64(ready, w.regReady[r])
				}
			}
		}
		if sm.gate[i] != ready {
			return fmt.Errorf("SM %d cycle %d warp %d (done %v, at barrier %v): gate = %d, want %d",
				sm.id, sm.cycle, i, w.done, w.atBarrier, sm.gate[i], ready)
		}
		can := !w.done && !w.atBarrier && ready <= sm.cycle
		if can && pool != poolNone {
			for _, busy := range sm.pools[pool] {
				can = busy <= sm.cycle
				if can {
					break
				}
			}
		}
		if sm.canIssue(i) != can {
			return fmt.Errorf("SM %d cycle %d warp %d: canIssue = %v, the warp itself says %v",
				sm.id, sm.cycle, i, !can, can)
		}
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
