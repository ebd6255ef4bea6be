package speculate

import "strings"

// History2 explores the *temporal axis* of the paper's design space
// (Section I: "…along the spatial axis (PC correlation), temporal axis
// (history depth), and history sharing among threads"): a depth-2
// previous-carry table. Each bucket keeps the carries of the last two
// operations; per boundary the prediction is the bit the two histories
// agree on, falling back to the most recent bit when they disagree.
//
// The paper lands on depth 1 (the plain Prev tables); this implementation
// lets the claim be re-checked — see BenchmarkAblationHistoryDepth. Its
// two tables share History's slot layout.
type History2 struct {
	cfg   HistoryConfig
	slots slots
	last  []uint64 // most recent carries
	prev2 []uint64 // carries before that
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
		last:  make([]uint64, s.size),
		prev2: make([]uint64, s.size),
	}, nil
}

// Name implements Predictor: the depth-1 name with "Prev" → "Prev2".
func (h *History2) Name() string {
	return strings.Replace(h.cfg.Name(), "Prev", "Prev2", 1)
}

// Predict implements Predictor: where the two histories agree, predict
// the agreed bit; where they disagree the stream may be alternating
// (carry toggling every iteration), so predict the older bit — i.e., the
// flip of the most recent one. A pure "predict last" depth-2 table would
// be identical to depth 1; the alternation heuristic is what extra depth
// can actually buy.
func (h *History2) Predict(ctx Context) Prediction {
	k := h.slots.entry(ctx)
	last := h.last[k]
	old := h.prev2[k]
	mask := h.cfg.Geometry.BoundaryMask()
	agree := ^(last ^ old)
	pred := (last & agree) | (old &^ agree)
	return Prediction{Carries: pred & mask}
}

// Update implements Predictor.
func (h *History2) Update(ctx Context, actual uint64, mispredicted bool) {
	if !mispredicted && !h.cfg.AlwaysUpdate {
		return
	}
	k := h.slots.entry(ctx)
	h.prev2[k] = h.last[k]
	h.last[k] = actual & h.cfg.Geometry.BoundaryMask()
}

// Reset implements Predictor.
func (h *History2) Reset() {
	clear(h.last)
	clear(h.prev2)
}
