// Package adder implements the executable microarchitectural model of the
// ST² sliced speculative adder (Section IV-A of the paper), plus the
// reference adder and the carry-select adder it is compared against.
//
// The model is bit-exact and cycle-faithful: an operation completes in one
// cycle when every speculated slice carry-in was correct, and in two cycles
// otherwise, with exactly the slices whose S (suspect) signal is raised
// recomputing on the second cycle — the quantities the paper's energy and
// performance evaluation is built on. Energy is *not* computed here; the
// engine reports slice activity and internal/core prices it using the
// characterization in internal/circuit.
package adder

import (
	"fmt"
	"strings"

	"st2gpu/internal/bitmath"
)

// Op selects addition or subtraction. Subtraction is executed, as in the
// hardware, by ones'-complementing the second operand and injecting a
// carry-in of 1 into slice 0.
type Op int

const (
	Add Op = iota
	Sub
)

func (o Op) String() string {
	switch o {
	case Add:
		return "add"
	case Sub:
		return "sub"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Config describes a sliced adder instance.
type Config struct {
	Width     uint // operand width in bits: 64 (ALU), 24 (FP32 mantissa), 52 (FP64 mantissa)
	SliceBits uint // slice width in bits; the paper's design point is 8
}

// Validate reports whether the configuration is supported.
func (c Config) Validate() error {
	if c.Width == 0 || c.Width > 64 {
		return fmt.Errorf("adder: width %d outside (0,64]", c.Width)
	}
	if c.SliceBits == 0 || c.SliceBits > c.Width {
		return fmt.Errorf("adder: slice width %d outside (0,%d]", c.SliceBits, c.Width)
	}
	return nil
}

// NumSlices returns the slice count of the configuration.
func (c Config) NumSlices() uint { return bitmath.NumSlices(c.Width, c.SliceBits) }

// NumBoundaries returns how many carry-ins must be speculated (slices-1).
func (c Config) NumBoundaries() uint {
	n := c.NumSlices()
	if n == 0 {
		return 0
	}
	return n - 1
}

// Result reports everything about one operation on the sliced adder.
type Result struct {
	Sum      uint64 // the (always exact) final result, Width bits
	CarryOut uint   // carry out of the top bit

	Cycles       uint // 1 (all predictions correct) or 2
	Mispredicted bool // at least one speculated boundary was wrong

	// ErrorSlices is the packed E[] signals: bit i-1 set means slice i
	// received a carry-in that differed from the carry slice i-1 actually
	// produced on cycle 1.
	ErrorSlices uint64
	// SuspectSlices is the packed S[] signals: the slices that re-executed
	// on cycle 2 (bit i-1 for slice i). popcount = recompute energy cost.
	SuspectSlices uint64
	// Recomputed is the number of slices that ran a second computation.
	Recomputed int

	// ActualCarries is the packed exact boundary carries (bit i = carry
	// into slice i+1) — what the history table stores for next time.
	ActualCarries uint64
	// Predicted echoes the packed predictions the operation used.
	Predicted uint64
}

// SlicedAdder is a stateless (per-operation) model of the ST² datapath.
// Prediction state lives in internal/speculate; this type turns
// (operands, predictions) into (result, timing, activity).
type SlicedAdder struct {
	cfg Config

	// Geometry derived once from cfg.
	n          uint   // slices
	boundaries uint64 // mask of the n-1 speculated boundaries
	sliceMask  uint64 // a full slice's bits, at bit 0
	lastMask   uint64 // the last (possibly partial) slice's bits, at bit 0
}

// New returns a sliced adder for the given configuration.
func New(cfg Config) (*SlicedAdder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumSlices()
	return &SlicedAdder{
		cfg:        cfg,
		n:          n,
		boundaries: bitmath.Mask(n - 1),
		sliceMask:  bitmath.Mask(cfg.SliceBits),
		lastMask:   bitmath.Mask(bitmath.SliceWidthAt(n-1, cfg.Width, cfg.SliceBits)),
	}, nil
}

// Config returns the adder's configuration.
func (s *SlicedAdder) Config() Config { return s.cfg }

// EffectiveOperands applies the subtraction transformation: for Sub, the
// second operand is ones'-complemented and the injected carry-in is 1.
// Predictors peek at these effective operands, exactly as the hardware
// sees them on the slice input registers.
func (s *SlicedAdder) EffectiveOperands(a, b uint64, op Op) (ea, eb uint64, cin0 uint) {
	m := bitmath.Mask(s.cfg.Width)
	ea = a & m
	switch op {
	case Sub:
		return ea, bitmath.OnesComplement(b, s.cfg.Width), 1
	default:
		return ea, b & m, 0
	}
}

// Execute performs one operation. predicted is the packed per-boundary
// carry predictions (bit i = predicted carry into slice i+1); bits above
// NumBoundaries-1 are ignored.
//
// Cycle 1: every slice computes with its predicted carry-in (slice 0 with
// the injected carry). Each slice i>0 then compares its prediction with
// the carry-out slice i-1 actually produced; a mismatch raises E[i].
// S[i] = OR of E[1..i]; all suspect slices recompute on cycle 2 with the
// inverted carry-in, after which — as in a carry-select adder — both
// possibilities are available everywhere and the exact result is selected.
func (s *SlicedAdder) Execute(a, b uint64, op Op, predicted uint64) Result {
	ea, eb, cin0 := s.EffectiveOperands(a, b, op)
	return s.ExecuteEffective(ea, eb, cin0, predicted)
}

// ExecuteEffective is Execute on operands EffectiveOperands has already
// transformed. It is the per-lane reference model of the datapath; the
// warp unit (internal/core) resolves all lanes at once in plane form and
// is held to this model by its fuzz oracle.
//
// It derives every per-slice signal from one full-width addition instead
// of simulating the slices one by one. With bit i of each mask standing
// for slice i:
//
//   - trueCin is the exact carry into each slice (bit 0 is the injected
//     carry), read off the carry vector ea^eb^sum;
//   - usedCin is the carry-in each slice computed with on cycle 1;
//   - allProp marks slices whose every bit propagates. A slice's carry-out
//     is G | (P & cin), and a propagating slice cannot generate, so a
//     wrong carry-in changes a slice's cycle-1 carry-out exactly when the
//     slice propagates (flip = wrong & allProp).
//
// Slice i's cycle-1 carry-out is therefore trueCin[i+1] ^ flip[i], and E[i]
// = usedCin[i] ^ cout1[i-1] = wrong[i] ^ flip[i-1]. The final select takes
// each slice's computation with its true carry-in, which together is the
// exact full-width sum.
func (s *SlicedAdder) ExecuteEffective(ea, eb uint64, cin0 uint, predicted uint64) Result {
	sum, cout := bitmath.AddWithCarry(ea, eb, cin0, s.cfg.Width)
	carries := ea ^ eb ^ sum // bit k: the carry into bit k
	prop := ea ^ eb
	var trueCin, allProp uint64
	for i, lo := uint(0), uint(0); i < s.n; i, lo = i+1, lo+s.cfg.SliceBits {
		trueCin |= (carries >> lo & 1) << i
		m := s.sliceMask
		if i == s.n-1 {
			m = s.lastMask
		}
		if prop>>lo&m == m {
			allProp |= 1 << i
		}
	}

	// Cycle 1: every slice computes with its speculated carry-in (slice 0
	// with the injected carry); misprediction detection (E signals) at its
	// end.
	usedCin := uint64(cin0) | (predicted&s.boundaries)<<1
	wrong := usedCin ^ trueCin
	e := (wrong>>1 ^ wrong&allProp) & s.boundaries
	res := Result{
		Sum:           sum,
		CarryOut:      cout,
		Cycles:        1,
		ErrorSlices:   e,
		ActualCarries: trueCin >> 1 & s.boundaries,
		Predicted:     predicted & s.boundaries,
	}
	// --- Cycle 2 (only if needed): suspect slices recompute with the
	// inverse carry-in, and each slice selects the computation matching its
	// true carry-in. S[i] = OR of E[1..i]: once any lower slice erred,
	// everything above is suspect — every boundary from the lowest error
	// upward. ---
	if e != 0 {
		res.Mispredicted = true
		res.Cycles = 2
		res.SuspectSlices = s.boundaries &^ (e&-e - 1)
		res.Recomputed = bitmath.PopCount64(res.SuspectSlices)
	}
	return res
}

// ExecuteApproximate models an *approximate* speculative adder (the
// error-accepting designs of related work [10]–[13]): it returns the
// cycle-1 result unconditionally in a single cycle, along with whether
// that result happens to be exact. Used by the ablation benches to show
// why the paper insists on correction.
func (s *SlicedAdder) ExecuteApproximate(a, b uint64, op Op, predicted uint64) (sum uint64, exact bool) {
	ea, eb, cin0 := s.EffectiveOperands(a, b, op)
	cfg := s.cfg
	n := cfg.NumSlices()
	var out uint64
	for i := uint(0); i < n; i++ {
		lo := i * cfg.SliceBits
		w := bitmath.SliceWidthAt(i, cfg.Width, cfg.SliceBits)
		sa := bitmath.Slice(ea, lo, w)
		sb := bitmath.Slice(eb, lo, w)
		cin := cin0
		if i > 0 {
			cin = uint((predicted >> (i - 1)) & 1)
		}
		sliceSum, _ := bitmath.AddWithCarry(sa, sb, cin, w)
		out |= sliceSum << lo
	}
	out &= bitmath.Mask(cfg.Width)
	want, _ := bitmath.AddWithCarry(ea, eb, cin0, cfg.Width)
	return out, out == want
}

// Describe renders a cycle-by-cycle narrative of the operation — which
// boundaries were speculated, where the errors surfaced, and which slices
// re-executed. Intended for debugging and teaching; see
// examples/quickstart.
func (r Result) Describe(cfg Config) string {
	nb := cfg.NumBoundaries()
	var b strings.Builder
	fmt.Fprintf(&b, "sum=%#x cout=%d cycles=%d\n", r.Sum, r.CarryOut, r.Cycles)
	fmt.Fprintf(&b, "  predicted carries: %0*b\n", nb, r.Predicted)
	fmt.Fprintf(&b, "  actual carries:    %0*b\n", nb, r.ActualCarries)
	if !r.Mispredicted {
		b.WriteString("  all speculated carry-ins correct: single-cycle completion\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  E (errors):        %0*b\n", nb, r.ErrorSlices)
	fmt.Fprintf(&b, "  S (suspects):      %0*b\n", nb, r.SuspectSlices)
	fmt.Fprintf(&b, "  cycle 2: %d slice(s) re-executed with inverted carry-in\n", r.Recomputed)
	return b.String()
}
