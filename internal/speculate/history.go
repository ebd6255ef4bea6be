package speculate

import (
	"errors"
	"fmt"
	"math/bits"

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

// threadWords is how many 32-lane words a per-thread bitset over
// threads threads takes, with room for a warp that straddles two words
// at its top.
func threadWords(threads uint64) uint64 { return threads/32 + 2 }

// checkThreads panics unless every active lane of a warp whose lane 0
// is thread gtidBase lies below threads.
func checkThreads(gtidBase, active uint32, threads uint64) {
	if top := uint64(gtidBase) + uint64(bits.Len32(active)); top > threads {
		panic(fmt.Sprintf("speculate: gtid %d outside the bounds' %d threads", top-1, threads))
	}
}

// slots is the flat bit-plane layout of a history table: each distinct
// folded PC of the bounds owns one row, and every raw PC maps to its
// fold's row, so ModPC/XorPC PCs alias exactly as the fold says. A row
// is one or more 32-lane words of nb planes each, word-major: plane b of
// word w sits at row + w·nb + b, so the planes a warp reads are one
// contiguous run. An entry never written reads zero.
//
//   - Ltid: one word; lane l's carries are bit l of the nb planes.
//   - Gtid: threadWords words, one bit per thread of the bounds; a warp
//     whose lane 0 is thread gtidBase reads bit gtidBase%32 onward of
//     word gtidBase/32, and the next word when gtidBase is not a
//     multiple of 32.
//   - Shared: one word whose planes are all zeros or all ones, the
//     shared entry broadcast to every lane.
type slots struct {
	pcSlot  []uint32 // raw PC → offset of its row's first word, or noRow
	nb      int      // planes per word
	threads uint64   // Gtid: the bounds' thread count
	mode    ThreadMode
	size    int // rows × words × nb
}

// newSlots lays out cfg's table over b, checking its size against the
// byte cap before allocating it.
func newSlots(cfg HistoryConfig, b Bounds) (slots, error) {
	s := slots{nb: int(cfg.Geometry.Boundaries()), mode: cfg.Threads, threads: b.threads}
	words := uint64(1)
	if cfg.Threads == ByGtid {
		if err := checkTable("thread axis", threadWords(b.threads), 4*uint64(s.nb)); err != nil {
			return slots{}, err
		}
		words = threadWords(b.threads)
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
	rowWords := words * uint64(s.nb)
	if err := checkTable("history table", uint64(rows)*rowWords, 4); err != nil {
		return slots{}, err
	}
	s.size = int(uint64(rows) * rowWords)
	s.pcSlot = make([]uint32, uint64(maxPC)+1)
	for i := range s.pcSlot {
		s.pcSlot[i] = noRow
	}
	for _, pc := range b.pcs {
		s.pcSlot[pc] = (rowOf[cfg.fold(pc)] - 1) * uint32(rowWords)
	}
	return s, nil
}

// warp returns the offset of the first word holding the active lanes of
// a warp at pc whose lane 0 is thread gtidBase, and the bit of that word
// lane 0 sits at (nonzero only for a Gtid row and a gtidBase that is not
// a multiple of 32). It panics for a PC or thread outside the bounds.
func (s *slots) warp(pc, gtidBase, active uint32) (lo int, sh uint) {
	lo = int(s.pcSlot[pc])
	if s.mode == ByGtid {
		checkThreads(gtidBase, active, s.threads)
		lo += int(gtidBase/32) * s.nb
		sh = uint(gtidBase % 32)
	}
	return lo, sh
}

// load copies the first len(dst) (at most nb) planes of the warp at
// (lo, sh) of t into dst.
func (s *slots) load(t []uint32, lo int, sh uint, dst []uint32) {
	n := len(dst)
	if sh == 0 {
		copy(dst, t[lo:lo+n])
		return
	}
	cur, next := t[lo:lo+n], t[lo+s.nb:lo+s.nb+n]
	for b := range dst {
		dst[b] = uint32((uint64(cur[b]) | uint64(next[b])<<32) >> sh)
	}
}

// store writes act (zero past its planes) into the lanes of m of the
// warp at (lo, sh) of t. A shared row takes the carries of m's highest
// lane, the last writer of the sequential lane loop.
func (s *slots) store(t []uint32, lo int, sh uint, act []uint32, m uint32) {
	row := t[lo : lo+s.nb]
	switch {
	case s.mode == SharedThreads:
		broadcastLane(row, act, bits.Len32(m)-1)
	case sh == 0:
		mergePlanes(row, act, m)
	default:
		// The warp straddles two words: its lanes are bits sh.. of this
		// word and the low bits of the next.
		next := t[lo+s.nb : lo+2*s.nb]
		var lowA, highA [MaxBoundaries]uint32
		for b, a := range act[:min(len(act), s.nb)] {
			lowA[b], highA[b] = a<<sh, a>>(32-sh)
		}
		mergePlanes(row, lowA[:s.nb], m<<sh)
		mergePlanes(next, highA[:s.nb], m>>(32-sh))
	}
}

// History is the Prev-family predictor: a table of the boundary carry-outs
// produced by previous operations, indexed by (folded PC, thread). The
// table is one flat array of bit planes laid out by slots, allocated at
// construction.
type History struct {
	cfg   HistoryConfig
	slots slots
	table []uint32 // previous boundary carries, as planes
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
	return &History{cfg: cfg, slots: s, table: make([]uint32, s.size)}, nil
}

// PredictWarp implements Predictor: the warp's planes of its row, one
// word per boundary, defaulting to all-zero when cold.
func (h *History) PredictWarp(pc, gtidBase, active, _ uint32, _, _ []uint64, pred, static []uint32) {
	lo, sh := h.slots.warp(pc, gtidBase, active)
	h.slots.load(h.table, lo, sh, pred)
	clear(static)
}

// UpdateWarp implements Predictor. Matching the hardware, history is
// written only for mispredicting lanes (every active lane under
// AlwaysUpdate): a masked merge of their planes, or, when every lane
// shares the row, the highest writing lane's carries, as the last
// writer of the sequential lane loop.
func (h *History) UpdateWarp(pc, gtidBase uint32, active, mispred, _ uint32, _, _ []uint64, actual []uint32) {
	write := mispred
	if h.cfg.AlwaysUpdate {
		write = active
	}
	if write == 0 {
		return
	}
	lo, sh := h.slots.warp(pc, gtidBase, active)
	h.slots.store(h.table, lo, sh, actual, write)
}
