package speculate

import (
	"errors"
	"fmt"
	"strings"

	"st2gpu/internal/bitmath"
)

// ThreadMode selects how a history table disambiguates threads.
type ThreadMode int

const (
	// SharedThreads: one history entry per PC index, shared by every
	// thread ("Prev", "Prev+ModPCk" designs).
	SharedThreads ThreadMode = iota
	// ByLtid: one sub-entry per warp lane (0..31), shared across warps —
	// the paper's final, implementable choice.
	ByLtid
	// ByGtid: fully disambiguated per global thread — the design the paper
	// shows performs *worse* (no constructive sharing) and needs an
	// impractically large table.
	ByGtid
)

func (m ThreadMode) String() string {
	switch m {
	case SharedThreads:
		return "shared"
	case ByLtid:
		return "Ltid"
	case ByGtid:
		return "Gtid"
	default:
		return fmt.Sprintf("ThreadMode(%d)", int(m))
	}
}

// PCMode selects how a history table folds the PC into its index.
type PCMode int

const (
	// NoPC ignores the PC entirely ("Prev": all instructions alias).
	NoPC PCMode = iota
	// ModPC uses the low PCBits bits of the PC ("ModPCk").
	ModPC
	// FullPC uses the entire PC (Fig 3's idealized correlation analysis).
	FullPC
	// XorPC folds the PC by XOR-ing 4-bit chunks down to PCBits bits — the
	// "more complex indexing" the paper reports provides no benefit.
	XorPC
)

func (m PCMode) String() string {
	switch m {
	case NoPC:
		return "noPC"
	case ModPC:
		return "modPC"
	case FullPC:
		return "fullPC"
	case XorPC:
		return "xorPC"
	default:
		return fmt.Sprintf("PCMode(%d)", int(m))
	}
}

// HistoryConfig describes one Prev-family design point.
type HistoryConfig struct {
	Geometry Geometry
	PCMode   PCMode
	PCBits   uint // index bits for ModPC / XorPC
	Threads  ThreadMode
	// AlwaysUpdate writes history after every operation instead of only
	// after mispredictions (an ablation; the hardware updates only
	// mispredicting threads to save CRF write energy).
	AlwaysUpdate bool
}

// Validate reports whether the configuration is coherent.
func (c HistoryConfig) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch c.PCMode {
	case ModPC, XorPC:
		if c.PCBits == 0 || c.PCBits > 16 {
			return fmt.Errorf("speculate: PC index bits %d outside [1,16]", c.PCBits)
		}
	case NoPC, FullPC:
		if c.PCBits != 0 {
			return fmt.Errorf("speculate: PCBits must be 0 for %v", c.PCMode)
		}
	default:
		return fmt.Errorf("speculate: unknown PC mode %v", c.PCMode)
	}
	switch c.Threads {
	case SharedThreads, ByLtid, ByGtid:
	default:
		return fmt.Errorf("speculate: unknown thread mode %v", c.Threads)
	}
	return nil
}

// Name renders the paper's design-space label for this configuration.
func (c HistoryConfig) Name() string {
	var b strings.Builder
	switch c.Threads {
	case ByLtid:
		b.WriteString("Ltid+")
	case ByGtid:
		b.WriteString("Gtid+")
	}
	b.WriteString("Prev")
	switch c.PCMode {
	case ModPC:
		fmt.Fprintf(&b, "+ModPC%d", c.PCBits)
	case FullPC:
		b.WriteString("+FullPC")
	case XorPC:
		fmt.Fprintf(&b, "+XorPC%d", c.PCBits)
	}
	return b.String()
}

// fold maps a PC to its table index under the PC mode: the low PCBits
// bits (ModPC), the XOR of its PCBits-wide chunks (XorPC), the PC
// itself (FullPC) or 0 (NoPC).
func (c HistoryConfig) fold(pc uint32) uint32 {
	switch c.PCMode {
	case ModPC:
		return pc & uint32(bitmath.Mask(c.PCBits))
	case FullPC:
		return pc
	case XorPC:
		folded := uint32(0)
		for ; pc != 0; pc >>= c.PCBits {
			folded ^= pc & uint32(bitmath.Mask(c.PCBits))
		}
		return folded
	default:
		return 0
	}
}

// maxTableBytes caps every allocation sized from Bounds. The largest
// table the scale-4 suite needs, Gtid+Prev+FullPC over sgemm, is ~8 MB;
// the cap is what stops a corrupt store's PC 2^32-1 or gtid 2^32-1 from
// sizing a multi-GiB table.
const maxTableBytes = 1 << 28

// ErrTableTooLarge reports Bounds that would size a predictor table, or
// its PC index, past maxTableBytes.
var ErrTableTooLarge = errors.New("speculate: predictor table exceeds the byte cap")

// checkTable fails with ErrTableTooLarge unless entries of entryBytes
// each fit under the cap.
func checkTable(what string, entries, entryBytes uint64) error {
	if entries > maxTableBytes/entryBytes {
		return fmt.Errorf("speculate: %s of %d × %d B over %d B: %w",
			what, entries, entryBytes, uint64(maxTableBytes), ErrTableTooLarge)
	}
	return nil
}

// Bounds are the facts every predictor table is sized from, known
// before a stream's first operation: the PCs it presents and how many
// global thread ids it numbers. A predictor built over Bounds panics on
// an operation outside them, as on any index out of range.
type Bounds struct {
	pcs     []uint32 // distinct, ascending
	threads uint64   // every gtid lies below it
}

// NewBounds bounds a stream that presents only the PCs in pcs
// (duplicates are fine) and only global thread ids below threads. The
// PC axis of a table is indexed by raw PC, so the largest PC must keep
// that index under the byte cap.
func NewBounds(pcs []uint32, threads uint64) (Bounds, error) {
	var maxPC uint32
	for _, pc := range pcs {
		maxPC = max(maxPC, pc)
	}
	if err := checkTable("PC index", uint64(maxPC)+1, 4); err != nil {
		return Bounds{}, err
	}
	seen := make([]bool, uint64(maxPC)+1)
	n := 0
	for _, pc := range pcs {
		if !seen[pc] {
			seen[pc] = true
			n++
		}
	}
	b := Bounds{pcs: make([]uint32, 0, n), threads: threads}
	for pc, ok := range seen {
		if ok {
			b.pcs = append(b.pcs, uint32(pc))
		}
	}
	return b, nil
}

// noRow marks a PC outside the bounds: its row offset indexes past any
// table, so an operation there panics instead of aliasing another PC.
const noRow = ^uint32(0)

// slots is the flat layout of a history table: each distinct folded PC
// of the bounds owns one row of `threads` consecutive entries, and every
// raw PC maps to its fold's row, so ModPC/XorPC PCs alias exactly as the
// fold says. An entry never written reads zero.
type slots struct {
	pcSlot  []uint32 // raw PC → offset of its row's first entry, or noRow
	threads int      // entries per row: 1 (shared), 32 (Ltid) or the bounds' thread count (Gtid)
	mode    ThreadMode
	size    int // rows × threads
}

// newSlots lays out cfg's table over b, checking its size against the
// byte cap before allocating it.
func newSlots(cfg HistoryConfig, b Bounds) (slots, error) {
	s := slots{threads: 1, mode: cfg.Threads}
	switch cfg.Threads {
	case ByLtid:
		s.threads = 32
	case ByGtid:
		if err := checkTable("thread axis", b.threads, 8); err != nil {
			return slots{}, err
		}
		s.threads = int(b.threads)
	}
	if len(b.pcs) == 0 {
		return s, nil
	}
	maxPC := b.pcs[len(b.pcs)-1]
	folds := uint64(1) << cfg.PCBits // NoPC: one row
	if cfg.PCMode == FullPC {
		folds = uint64(maxPC) + 1
	}
	rowOf := make([]uint32, folds) // fold → row number + 1
	rows := uint32(0)
	for _, pc := range b.pcs {
		if f := cfg.fold(pc); rowOf[f] == 0 {
			rows++
			rowOf[f] = rows
		}
	}
	if err := checkTable("history table", uint64(rows)*uint64(s.threads), 8); err != nil {
		return slots{}, err
	}
	s.size = int(rows) * s.threads
	s.pcSlot = make([]uint32, uint64(maxPC)+1)
	for i := range s.pcSlot {
		s.pcSlot[i] = noRow
	}
	for _, pc := range b.pcs {
		s.pcSlot[pc] = (rowOf[cfg.fold(pc)] - 1) * uint32(s.threads)
	}
	return s, nil
}

// entry returns the table index of ctx's thread at ctx's PC.
func (s *slots) entry(ctx Context) int {
	t := 0
	switch s.mode {
	case ByLtid:
		t = int(ctx.Ltid & 31)
	case ByGtid:
		t = int(ctx.Gtid)
		if t >= s.threads {
			panic(fmt.Sprintf("speculate: gtid %d outside the bounds' %d threads", t, s.threads))
		}
	}
	return int(s.pcSlot[ctx.PC]) + t
}

// warp returns the table span [lo, hi) that holds the entries of a warp
// at pc whose lane 0 is thread gtidBase, and the stride between lanes:
// lane l's entry is lo + l*step (step 0 when the lanes share one entry).
// Slicing a table with it panics for a PC or thread outside the bounds.
func (s *slots) warp(pc, gtidBase uint32) (lo, hi, step int) {
	lo = int(s.pcSlot[pc])
	hi = lo + s.threads
	switch s.mode {
	case ByLtid:
		step = 1
	case ByGtid:
		lo += int(gtidBase)
		step = 1
	}
	return lo, hi, step
}

// History is the Prev-family predictor: a table of the boundary carry-outs
// produced by previous operations, indexed by (folded PC, thread). The
// table is one flat array laid out by slots, allocated at construction.
type History struct {
	cfg   HistoryConfig
	slots slots
	table []uint64 // packed previous boundary carries
}

// NewHistory builds a Prev-family predictor for a stream within b.
func NewHistory(cfg HistoryConfig, b Bounds) (*History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := newSlots(cfg, b)
	if err != nil {
		return nil, err
	}
	return &History{cfg: cfg, slots: s, table: make([]uint64, s.size)}, nil
}

// Config returns the design point.
func (h *History) Config() HistoryConfig { return h.cfg }

// Name implements Predictor.
func (h *History) Name() string { return h.cfg.Name() }

// Predict implements Predictor: the previous carries stored for this
// (PC, thread) bucket, defaulting to all-zero when cold.
func (h *History) Predict(ctx Context) Prediction {
	return Prediction{Carries: h.table[h.slots.entry(ctx)] & h.cfg.Geometry.BoundaryMask()}
}

// Update implements Predictor. Matching the hardware, history is written
// only when the thread mispredicted (unless AlwaysUpdate is set).
func (h *History) Update(ctx Context, actual uint64, mispredicted bool) {
	if !mispredicted && !h.cfg.AlwaysUpdate {
		return
	}
	h.table[h.slots.entry(ctx)] = actual & h.cfg.Geometry.BoundaryMask()
}

// Reset implements Predictor.
func (h *History) Reset() { clear(h.table) }
