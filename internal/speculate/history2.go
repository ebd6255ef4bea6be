package speculate

import (
	"math/bits"
	"strings"
)

// History2 explores the *temporal axis* of the paper's design space
// (Section I: "…along the spatial axis (PC correlation), temporal axis
// (history depth), and history sharing among threads"): a depth-2
// previous-carry table. Each bucket keeps the carries of the last two
// operations and predicts the older of them. Per boundary, that is the
// bit the two histories agree on where they agree, and the flip of the
// most recent bit where they disagree (a carry toggling every
// iteration). A depth-2 table that predicted the most recent bit would
// be the depth-1 table; predicting the older one is what the extra depth
// can buy.
//
// The paper lands on depth 1 (the plain Prev tables); this implementation
// lets the claim be re-checked — see BenchmarkAblationHistoryDepth. Its
// two tables share History's slot layout.
type History2 struct {
	cfg   HistoryConfig
	slots slots
	last  []uint32 // most recent carries, as planes
	prev2 []uint32 // carries before that, as planes
	tmp   [MaxBoundaries]uint32
}

// NewHistory2 builds a depth-2 Prev-family predictor for a stream
// within b.
func NewHistory2(cfg HistoryConfig, b Bounds) (*History2, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := newSlots(cfg, b)
	if err != nil {
		return nil, err
	}
	return &History2{
		cfg:   cfg,
		slots: s,
		last:  make([]uint32, s.size),
		prev2: make([]uint32, s.size),
	}, nil
}

// Name implements Predictor: the depth-1 name with "Prev" → "Prev2".
func (h *History2) Name() string {
	return strings.Replace(h.cfg.Name(), "Prev", "Prev2", 1)
}

// Predict implements Predictor: the carries of the operation two
// updates back.
func (h *History2) Predict(ctx Context) Prediction {
	off, bit := h.slots.entry(ctx)
	return Prediction{Carries: h.slots.read(h.prev2, off, bit)}
}

// Update implements Predictor.
func (h *History2) Update(ctx Context, actual uint64, mispredicted bool) {
	if !mispredicted && !h.cfg.AlwaysUpdate {
		return
	}
	off, bit := h.slots.entry(ctx)
	h.slots.write(h.prev2, off, bit, h.slots.read(h.last, off, bit))
	h.slots.write(h.last, off, bit, actual)
}

// Reset implements Predictor.
func (h *History2) Reset() {
	clear(h.last)
	clear(h.prev2)
}

// PredictWarp implements WarpPredictor: the warp's planes of the older
// table.
func (h *History2) PredictWarp(pc, gtidBase, active, _ uint32, _, _ []uint64, pred, static []uint32) {
	lo, sh := h.slots.warp(pc, gtidBase, active)
	h.slots.load(h.prev2, lo, sh, pred)
	clear(static)
}

// UpdateWarp implements WarpPredictor: each writing lane's last carries
// move to the older table and its true carries become the last ones. A
// shared row ends as the sequential lane loop leaves it: the highest
// writer's carries last, and before them the second-highest writer's,
// or the row's previous last carries when only one lane writes.
func (h *History2) UpdateWarp(pc, gtidBase, active, mispred, _ uint32, _, _ []uint64, actual []uint32) {
	write := mispred
	if h.cfg.AlwaysUpdate {
		write = active
	}
	if write == 0 {
		return
	}
	lo, sh := h.slots.warp(pc, gtidBase, active)
	if h.slots.mode == SharedThreads {
		prev2, last := h.prev2[lo:lo+h.slots.nb], h.last[lo:lo+h.slots.nb]
		top := bits.Len32(write) - 1
		if rest := write &^ (1 << top); rest != 0 {
			broadcastLane(prev2, actual, bits.Len32(rest)-1)
		} else {
			copy(prev2, last)
		}
		broadcastLane(last, actual, top)
		return
	}
	last := h.tmp[:h.slots.nb]
	h.slots.load(h.last, lo, sh, last)
	h.slots.store(h.prev2, lo, sh, last, write)
	h.slots.store(h.last, lo, sh, actual, write)
}
