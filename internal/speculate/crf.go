package speculate

import (
	"fmt"
	"math/bits"
	"math/rand"

	"st2gpu/internal/bitmath"
)

// CRFStats counts Carry Register File activity for the energy model and
// the per-row occupancy observability layer.
type CRFStats struct {
	Reads           uint64 // full-row reads (one per warp add/sub issue)
	WriteRequests   uint64 // warp write-back attempts
	WritesCommitted uint64 // warp write-backs that won arbitration
	Conflicts       uint64 // warp write-backs dropped by arbitration
	LaneBitsWritten uint64 // total lane sub-entries actually updated

	// RowReads[i] counts reads that indexed row i — the per-entry read
	// traffic behind the PC[3:0] indexing scheme.
	RowReads []uint64
	// RowDistinctPCs[i] counts how many distinct PCs read row i: >1 means
	// PCs alias into the same entry and overwrite each other's carry
	// history (the occupancy/alias view of the paper's 16-entry design).
	RowDistinctPCs []uint64
}

// Merge folds another CRF's counters into s. Per-row slices merge
// element-wise (all SMs share one geometry); distinct-PC counts add, so
// the merged value is total alias load across shards, not a distinct
// count over the union.
func (s *CRFStats) Merge(o CRFStats) {
	s.Reads += o.Reads
	s.WriteRequests += o.WriteRequests
	s.WritesCommitted += o.WritesCommitted
	s.Conflicts += o.Conflicts
	s.LaneBitsWritten += o.LaneBitsWritten
	if len(o.RowReads) > 0 {
		if s.RowReads == nil {
			s.RowReads = make([]uint64, len(o.RowReads))
			s.RowDistinctPCs = make([]uint64, len(o.RowDistinctPCs))
		}
		for i, v := range o.RowReads {
			s.RowReads[i] += v
		}
		for i, v := range o.RowDistinctPCs {
			s.RowDistinctPCs[i] += v
		}
	}
}

// CRF models the per-SM Carry Register File of Section IV-C: a small
// register file of Entries rows (indexed by the low PC bits), each holding
// the boundary-carry history of all 32 warp lanes as bit planes — one
// lanes-wide word per boundary, bit l for lane l (planes.go). The default
// geometry is the paper's 16 × 224 bits (16 entries × 7 boundaries × 32
// lanes).
//
// Writes are staged per cycle: warps in the write-back stage of the same
// cycle that target the same row contend for its single write port, and a
// (deterministic, seeded) random arbiter picks one winner per row — the
// paper's "random arbitration" with everyone else's update dropped.
type CRF struct {
	entries int
	lanes   uint32 // mask of the lanes a row holds
	nb      int    // boundary planes per row

	rows []uint32 // row r's planes at rows[r·nb : (r+1)·nb]

	cycle uint64
	// staged[row] holds this cycle's candidate writes to row; their
	// planes sit back to back in stagedPlanes (nb words each). Commit
	// truncates both instead of reallocating them, so once they have grown
	// to a cycle's peak traffic, staging a write allocates nothing.
	staged       [][]crfWrite
	nStaged      int
	stagedPlanes []uint32
	rng          *rand.Rand
	stats        CRFStats

	rowReads    []uint64 // per-row read counts
	rowDistinct []uint64 // per-row count of distinct PCs observed reading it
	pcSeen      []bool   // PC → read at least once
}

type crfWrite struct {
	laneMask uint32 // which lanes this warp updates (mispredicted threads)
	off      int    // its boundary planes at stagedPlanes[off:off+nb]
}

// NewCRF builds a CRF with the given geometry, read only at PCs below
// pcs (the program length). Entries must be a power of two: Index
// selects a row by masking the low PC bits, so any other row count would
// silently alias rows instead of using them all. A row holds at most 32
// lanes and MaxBoundaries boundaries. Seed fixes the arbitration order so
// simulations are reproducible.
func NewCRF(entries, lanes int, boundaries uint, pcs int, seed int64) (*CRF, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("speculate: CRF entry count %d not a power of two", entries)
	}
	if lanes <= 0 || lanes > 32 || boundaries == 0 || boundaries > MaxBoundaries {
		return nil, fmt.Errorf("speculate: bad CRF geometry %d×%d×%d", entries, lanes, boundaries)
	}
	if pcs <= 0 {
		return nil, fmt.Errorf("speculate: CRF program length %d not positive", pcs)
	}
	return &CRF{
		entries:     entries,
		lanes:       uint32(bitmath.Mask(uint(lanes))),
		nb:          int(boundaries),
		rows:        make([]uint32, entries*int(boundaries)),
		staged:      make([][]crfWrite, entries),
		rng:         rand.New(rand.NewSource(seed)),
		rowReads:    make([]uint64, entries),
		rowDistinct: make([]uint64, entries),
		pcSeen:      make([]bool, pcs),
	}, nil
}

// NewDefaultCRF builds the paper's 16-entry, 32-lane, 7-bit CRF for a
// program of pcs instructions.
func NewDefaultCRF(pcs int, seed int64) *CRF {
	c, err := NewCRF(16, 32, 7, pcs, seed)
	if err != nil {
		panic("speculate: default CRF geometry invalid: " + err.Error())
	}
	return c
}

// Entries returns the row count.
func (c *CRF) Entries() int { return c.entries }

// Index folds a PC into a row index (the PC[3:0] read index). The mask is
// exact because NewCRF rejects non-power-of-two entry counts.
func (c *CRF) Index(pc uint32) int { return int(pc) & (c.entries - 1) }

// row returns the planes of row idx.
func (c *CRF) row(idx int) []uint32 { return c.rows[idx*c.nb : (idx+1)*c.nb] }

// ReadRow copies the committed planes of the row holding pc into dst,
// one word per boundary up to len(dst), and returns the filled prefix of
// dst. It counts as one 224-bit read port access and allocates nothing.
// Each PC maps to exactly one row, so a PC's first read is one more
// distinct PC for its row.
func (c *CRF) ReadRow(pc uint32, dst []uint32) []uint32 {
	c.stats.Reads++
	idx := c.Index(pc)
	c.rowReads[idx]++
	if !c.pcSeen[pc] {
		c.pcSeen[pc] = true
		c.rowDistinct[idx]++
	}
	return dst[:copy(dst, c.row(idx))]
}

// PredictWarp implements Predictor with one row read per warp: the
// row's planes are the prediction. A geometry with more boundaries than
// the row's planes (slices narrower than 8 bits) predicts zero past them.
func (c *CRF) PredictWarp(pc, _, _, _ uint32, _, _ []uint64, pred, static []uint32) {
	clear(pred[len(c.ReadRow(pc, pred)):])
	clear(static)
}

// UpdateWarp implements Predictor: only mispredicted lanes write back.
func (c *CRF) UpdateWarp(pc, _, _, mispred, _ uint32, _, _ []uint64, actual []uint32) {
	c.WriteBack(pc, mispred, actual)
}

// BeginCycle advances the CRF clock, committing the previous cycle's
// staged writes with per-row random arbitration.
func (c *CRF) BeginCycle(cycle uint64) {
	if cycle == c.cycle && c.nStaged == 0 {
		c.cycle = cycle
		return
	}
	c.commit()
	c.cycle = cycle
}

// WriteBack stages a warp's CRF update for the current cycle: for every
// lane in laneMask, the lane's boundary-carry history becomes its bits of
// planes. Lanes not in the mask are untouched (per-lane write enables).
// Boundaries past len(planes) are written zero, and planes past the
// row's boundaries are dropped. Arbitration happens when the cycle
// advances (or Flush runs).
func (c *CRF) WriteBack(pc uint32, laneMask uint32, planes []uint32) {
	if laneMask == 0 {
		return // nothing mispredicted; hardware performs no write
	}
	row := c.Index(pc)
	off := len(c.stagedPlanes)
	c.staged[row] = append(c.staged[row], crfWrite{laneMask: laneMask & c.lanes, off: off})
	c.stagedPlanes = append(c.stagedPlanes, planes[:min(len(planes), c.nb)]...)
	for len(c.stagedPlanes) < off+c.nb {
		c.stagedPlanes = append(c.stagedPlanes, 0)
	}
	c.nStaged++
	c.stats.WriteRequests++
}

// Flush commits all staged writes immediately (end of kernel).
func (c *CRF) Flush() { c.commit() }

func (c *CRF) commit() {
	if c.nStaged == 0 {
		return
	}
	// Iterate rows in order for determinism: the RNG stream must depend
	// only on which rows contend.
	for row := 0; row < c.entries; row++ {
		cands := c.staged[row]
		if len(cands) == 0 {
			continue
		}
		winner := 0
		if len(cands) > 1 {
			winner = c.rng.Intn(len(cands))
			c.stats.Conflicts += uint64(len(cands) - 1)
		}
		w := cands[winner]
		c.stats.WritesCommitted++
		mergePlanes(c.row(row), c.stagedPlanes[w.off:w.off+c.nb], w.laneMask)
		c.stats.LaneBitsWritten += uint64(c.nb) * uint64(bits.OnesCount32(w.laneMask))
		c.staged[row] = cands[:0]
	}
	c.stagedPlanes = c.stagedPlanes[:0]
	c.nStaged = 0
}

// Stats returns a copy of the activity counters, including the per-row
// read and distinct-PC (alias occupancy) views.
func (c *CRF) Stats() CRFStats {
	out := c.stats
	out.RowReads = make([]uint64, c.entries)
	copy(out.RowReads, c.rowReads)
	out.RowDistinctPCs = make([]uint64, c.entries)
	copy(out.RowDistinctPCs, c.rowDistinct)
	return out
}
