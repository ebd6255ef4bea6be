package speculate

import (
	"fmt"
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
// the packed boundary-carry history of all 32 warp lanes. The default
// geometry is the paper's 16 × 224 bits (16 entries × 32 lanes × 7 bits).
//
// Writes are staged per cycle: warps in the write-back stage of the same
// cycle that target the same row contend for its single write port, and a
// (deterministic, seeded) random arbiter picks one winner per row — the
// paper's "random arbitration" with everyone else's update dropped.
type CRF struct {
	entries int
	lanes   int
	nb      uint // boundary bits per lane

	rows [][]uint64 // [entry][lane] → packed carries

	cycle uint64
	// staged[row] holds this cycle's candidate writes to row; their lane
	// carries sit back to back in stagedCarries (lanes words each). Commit
	// truncates both instead of reallocating them, so once they have grown
	// to a cycle's peak traffic, staging a write allocates nothing.
	staged        [][]crfWrite
	nStaged       int
	stagedCarries []uint64
	rng           *rand.Rand
	stats         CRFStats

	rowReads []uint64              // per-row read counts
	rowPCs   []map[uint32]struct{} // per-row set of PCs observed reading it
}

type crfWrite struct {
	laneMask uint32 // which lanes this warp updates (mispredicted threads)
	off      int    // per-lane packed boundary carries at stagedCarries[off:off+lanes]
}

// NewCRF builds a CRF with the given geometry. Entries must be a power of
// two: Index selects a row by masking the low PC bits, so any other row
// count would silently alias rows instead of using them all. Seed fixes
// the arbitration order so simulations are reproducible.
func NewCRF(entries, lanes int, boundaries uint, seed int64) (*CRF, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("speculate: CRF entry count %d not a power of two", entries)
	}
	if lanes <= 0 || boundaries == 0 || boundaries > 63 {
		return nil, fmt.Errorf("speculate: bad CRF geometry %d×%d×%d", entries, lanes, boundaries)
	}
	rows := make([][]uint64, entries)
	for i := range rows {
		rows[i] = make([]uint64, lanes)
	}
	return &CRF{
		entries:  entries,
		lanes:    lanes,
		nb:       boundaries,
		rows:     rows,
		staged:   make([][]crfWrite, entries),
		rng:      rand.New(rand.NewSource(seed)),
		rowReads: make([]uint64, entries),
		rowPCs:   make([]map[uint32]struct{}, entries),
	}, nil
}

// NewDefaultCRF builds the paper's 16-entry, 32-lane, 7-bit CRF.
func NewDefaultCRF(seed int64) *CRF {
	c, err := NewCRF(16, 32, 7, seed)
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

// ReadRow copies the committed history of the row holding pc into dst,
// one word per lane up to len(dst), and returns the filled prefix of dst.
// It counts as one 224-bit read port access and allocates nothing once
// every PC has been seen.
func (c *CRF) ReadRow(pc uint32, dst []uint64) []uint64 {
	c.stats.Reads++
	idx := c.Index(pc)
	c.rowReads[idx]++
	set := c.rowPCs[idx]
	if set == nil {
		set = make(map[uint32]struct{}, 2)
		c.rowPCs[idx] = set
	}
	if _, seen := set[pc]; !seen {
		set[pc] = struct{}{}
	}
	return dst[:copy(dst, c.rows[idx])]
}

// ReadLane returns one lane's committed history without charging a read
// (helper for tests and trace tools).
func (c *CRF) ReadLane(pc uint32, lane int) uint64 {
	return c.rows[c.Index(pc)][lane] & bitmath.Mask(c.nb)
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
// lane in laneMask, the lane's boundary-carry history becomes
// carries[lane]. Lanes not in the mask are untouched (per-lane write
// enables). Arbitration happens when the cycle advances (or Flush runs).
func (c *CRF) WriteBack(pc uint32, laneMask uint32, carries []uint64) error {
	if laneMask == 0 {
		return nil // nothing mispredicted; hardware performs no write
	}
	if len(carries) != c.lanes {
		return fmt.Errorf("speculate: write-back with %d lanes, CRF has %d", len(carries), c.lanes)
	}
	row := c.Index(pc)
	c.staged[row] = append(c.staged[row], crfWrite{laneMask: laneMask, off: len(c.stagedCarries)})
	c.stagedCarries = append(c.stagedCarries, carries...)
	c.nStaged++
	c.stats.WriteRequests++
	return nil
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
		carries := c.stagedCarries[w.off : w.off+c.lanes]
		c.stats.WritesCommitted++
		for lane := 0; lane < c.lanes; lane++ {
			if w.laneMask&(1<<lane) != 0 {
				c.rows[row][lane] = carries[lane] & bitmath.Mask(c.nb)
				c.stats.LaneBitsWritten += uint64(c.nb)
			}
		}
		c.staged[row] = cands[:0]
	}
	c.stagedCarries = c.stagedCarries[:0]
	c.nStaged = 0
}

// Stats returns a copy of the activity counters, including the per-row
// read and distinct-PC (alias occupancy) views.
func (c *CRF) Stats() CRFStats {
	out := c.stats
	out.RowReads = make([]uint64, c.entries)
	copy(out.RowReads, c.rowReads)
	out.RowDistinctPCs = make([]uint64, c.entries)
	for i, set := range c.rowPCs {
		out.RowDistinctPCs[i] = uint64(len(set))
	}
	return out
}

// Reset clears history, staging, and statistics (kernel relaunch).
func (c *CRF) Reset() {
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] = 0
		}
	}
	for i := range c.staged {
		c.staged[i] = c.staged[i][:0]
	}
	c.stagedCarries = c.stagedCarries[:0]
	c.nStaged = 0
	c.stats = CRFStats{}
	c.cycle = 0
	for i := range c.rowReads {
		c.rowReads[i] = 0
		c.rowPCs[i] = nil
	}
}
