package speculate

import "fmt"

// DesignSpace lists the carry-speculation design points of Figure 5, in
// the paper's left-to-right order, ending at the chosen ST² design.
var DesignSpace = []string{
	"staticOne",
	"staticZero",
	"VaLHALLA",
	"VaLHALLA+Peek",
	"Prev",
	"Prev+Peek",
	"Prev+ModPC1+Peek",
	"Prev+ModPC2+Peek",
	"Prev+ModPC4+Peek",
	"Prev+ModPC8+Peek",
	"Gtid+Prev+ModPC4+Peek",
	"Ltid+Prev+ModPC4+Peek",
}

// FinalDesign is the speculation mechanism ST² GPU ships with.
const FinalDesign = "Ltid+Prev+ModPC4+Peek"

// NewDesign constructs a named design point for the given geometry,
// sizing its tables for a stream within b. Beyond the Figure 5 set it
// also accepts "oracle" and the "Ltid+Prev+XorPC4+Peek" hash-indexing
// ablation. Bounds that would size a table past the byte cap fail with
// ErrTableTooLarge.
func NewDesign(name string, g Geometry, b Bounds) (Predictor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	hist := func(cfg HistoryConfig, peek bool) (Predictor, error) {
		cfg.Geometry = g
		h, err := NewHistory(cfg, b)
		if err != nil {
			return nil, err
		}
		if peek {
			return WithPeek(g, h), nil
		}
		return h, nil
	}
	switch name {
	case "staticZero":
		return NewStaticZero(g), nil
	case "staticOne":
		return NewStaticOne(g), nil
	case "VaLHALLA", "VaLHALLA+Peek":
		v, err := NewVaLHALLA(g, b)
		if err != nil {
			return nil, err
		}
		if name == "VaLHALLA+Peek" {
			return WithPeek(g, v), nil
		}
		return v, nil
	case "Prev":
		return hist(HistoryConfig{}, false)
	case "Prev+Peek":
		return hist(HistoryConfig{}, true)
	case "Prev+ModPC1+Peek":
		return hist(HistoryConfig{PCMode: ModPC, PCBits: 1}, true)
	case "Prev+ModPC2+Peek":
		return hist(HistoryConfig{PCMode: ModPC, PCBits: 2}, true)
	case "Prev+ModPC4+Peek":
		return hist(HistoryConfig{PCMode: ModPC, PCBits: 4}, true)
	case "Prev+ModPC8+Peek":
		return hist(HistoryConfig{PCMode: ModPC, PCBits: 8}, true)
	case "Gtid+Prev+ModPC4+Peek":
		return hist(HistoryConfig{PCMode: ModPC, PCBits: 4, Threads: ByGtid}, true)
	case "Ltid+Prev+ModPC4+Peek":
		return hist(HistoryConfig{PCMode: ModPC, PCBits: 4, Threads: ByLtid}, true)
	case "Ltid+Prev+XorPC4+Peek":
		return hist(HistoryConfig{PCMode: XorPC, PCBits: 4, Threads: ByLtid}, true)
	// Temporal-axis exploration: depth-2 history with the alternation
	// heuristic, wrapped in Peek like the final design.
	case "Ltid+Prev2+ModPC4+Peek":
		h2, err := NewHistory2(HistoryConfig{Geometry: g, PCMode: ModPC, PCBits: 4, Threads: ByLtid}, b)
		if err != nil {
			return nil, err
		}
		return WithPeek(g, h2), nil
	// The three Figure 3 analysis points compare each operation's carries
	// with the *immediately preceding* operation in the same bucket, so
	// their history updates on every operation, not only on mispredictions.
	case "Gtid+Prev+FullPC":
		return hist(HistoryConfig{PCMode: FullPC, Threads: ByGtid, AlwaysUpdate: true}, false)
	case "Ltid+Prev+FullPC":
		return hist(HistoryConfig{PCMode: FullPC, Threads: ByLtid, AlwaysUpdate: true}, false)
	case "Gtid+Prev":
		return hist(HistoryConfig{PCMode: NoPC, Threads: ByGtid, AlwaysUpdate: true}, false)
	case "CASA":
		return NewCASA(g), nil
	case "VLSA":
		return NewVLSA(g), nil
	case "oracle":
		return &Oracle{G: g}, nil
	default:
		return nil, fmt.Errorf("speculate: unknown design %q", name)
	}
}
