package trace

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/obs"
	"st2gpu/internal/stats"
)

// DecodedKernel is the structure-of-arrays decoded form of one kernel's
// recording: record i's masks live at index i of Kind/PC/GtidBase/
// Active/Cin, and its active lanes occupy Off[i]:Off[i+1] of the flat
// lane arrays in ascending lane order. Sums are reconstructed (and
// thereby integrity-checked) and each lane's boundary carry-outs are
// precomputed once at decode time, so evaluating a design is a pure
// array walk — no varint decoding, no carry recomputation.
type DecodedKernel struct {
	Kind     []core.UnitKind
	PC       []uint32
	GtidBase []uint32
	Active   []uint32
	Cin      []uint32
	Off      []uint32 // len(Kind)+1 prefix sums into the lane arrays
	EA, EB   []uint64
	Sum      []uint64
	Carries  []uint64 // unmasked 7-boundary carry-outs per lane
}

// NumRecords returns the number of warp-synchronous records.
func (k *DecodedKernel) NumRecords() int { return len(k.Kind) }

// NumLanes returns the total number of active thread-ops.
func (k *DecodedKernel) NumLanes() int { return len(k.EA) }

// decodeKernel runs the single varint-decode pass over one recording and
// materializes the flat arrays. Both the record-count and the lane-count
// columns are sized up front from the recording's own counters, so the
// pass appends into preallocated storage instead of re-growing the lane
// arrays.
func decodeKernel(rec *gpusim.Recording) (*DecodedKernel, error) {
	nrec := int(rec.NumOps())
	nlanes := int(rec.NumLanes())
	k := &DecodedKernel{
		Kind:     make([]core.UnitKind, 0, nrec),
		PC:       make([]uint32, 0, nrec),
		GtidBase: make([]uint32, 0, nrec),
		Active:   make([]uint32, 0, nrec),
		Cin:      make([]uint32, 0, nrec),
		Off:      make([]uint32, 1, nrec+1),
		EA:       make([]uint64, 0, nlanes),
		EB:       make([]uint64, 0, nlanes),
		Sum:      make([]uint64, 0, nlanes),
		Carries:  make([]uint64, 0, nlanes),
	}
	err := rec.Decode(func(r *gpusim.DecodedRecord) error {
		k.Kind = append(k.Kind, r.Kind)
		k.PC = append(k.PC, r.PC)
		k.GtidBase = append(k.GtidBase, r.GtidBase)
		k.Active = append(k.Active, r.Active)
		k.Cin = append(k.Cin, r.Cin)
		k.EA = append(k.EA, r.EA...)
		k.EB = append(k.EB, r.EB...)
		k.Sum = append(k.Sum, r.Sum...)
		j := 0
		for m := r.Active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			k.Carries = append(k.Carries,
				bitmath.BoundaryCarriesPacked(r.EA[j], r.EB[j], uint(r.Cin>>l&1), 64, 8))
			j++
		}
		k.Off = append(k.Off, uint32(len(k.EA)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return k, nil
}

// each walks the records in stream order, presenting each as a warpRec
// view over the flat arrays (zero-copy; valid during the callback).
func (k *DecodedKernel) each(visit func(r *warpRec)) {
	var r warpRec
	for i := range k.Kind {
		lo, hi := k.Off[i], k.Off[i+1]
		r = warpRec{
			kind: k.Kind[i], pc: k.PC[i], base: k.GtidBase[i],
			active: k.Active[i], cin: k.Cin[i],
			ea: k.EA[lo:hi], eb: k.EB[lo:hi], sum: k.Sum[lo:hi], carries: k.Carries[lo:hi],
		}
		visit(&r)
	}
}

// Replay feeds the decoded stream to a legacy AddTracer, reconstructing
// the dense [32]WarpAddOp form — bit-identical to replaying the original
// recording.
func (k *DecodedKernel) Replay(t gpusim.AddTracer) {
	k.each(func(r *warpRec) {
		var ops [32]gpusim.WarpAddOp
		j := 0
		for m := r.active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ops[l] = gpusim.WarpAddOp{
				Active: true,
				EA:     r.ea[j], EB: r.eb[j],
				Cin0: uint(r.cin >> l & 1),
				Sum:  r.sum[j],
			}
			j++
		}
		t.TraceWarpAdds(r.kind, r.pc, r.base, &ops)
	})
}

// ApproxResult is one design's uncorrected-adder outcome on one kernel.
type ApproxResult struct {
	Wrong       stats.Rate
	MeanRelErr  float64
	WrongErrSum float64 // relative-error numerator (Σ relErr over wrong results)
}

// Decoded is the decode-once form of a whole recording Set: every kernel
// materialized as a DecodedKernel, stamped with the same capture
// configuration. Build it with DecodeSet, then evaluate as many designs
// as you like — N designs cost one decode plus N array walks, and the
// flat arrays are read-only so evaluations can run concurrently.
type Decoded struct {
	Scale  int
	NumSMs int
	Seed   int64

	names   []string
	kernels map[string]*DecodedKernel
}

// DecodeSet decodes every kernel of a recording set once (kernels
// decoded concurrently, bounded by GOMAXPROCS; the result does not
// depend on the worker count).
func DecodeSet(s *Set) (*Decoded, error) {
	return DecodeSetTraced(s, nil)
}

// DecodeSetTraced is DecodeSet with span tracing: a trace.decode_set
// root span with one child per kernel, annotated with its record, lane,
// and encoded-byte counts. Spans are observability-only — decoding with
// a nil tracer produces the identical Decoded.
func DecodeSetTraced(s *Set, tr *obs.Tracer) (*Decoded, error) {
	decodeSpan := tr.Begin("trace.decode_set",
		obs.Int("kernels", int64(len(s.Names()))))
	names := s.Names()
	d := &Decoded{
		Scale: s.Scale, NumSMs: s.NumSMs, Seed: s.Seed,
		names:   names,
		kernels: make(map[string]*DecodedKernel, len(names)),
	}
	// Resolve every kernel before spawning any decode work: an early
	// return after goroutines are in flight would leak them (still
	// writing into decoded/errs past this function's lifetime).
	recs := make([]*gpusim.Recording, len(names))
	for i, name := range names {
		rec, ok := s.Get(name)
		if !ok {
			return nil, fmt.Errorf("trace: recording set is missing kernel %q", name)
		}
		recs[i] = rec
	}
	decoded := make([]*DecodedKernel, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, name := range names {
		i, name, rec := i, name, recs[i]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			kernSpan := decodeSpan.Child("decode."+name,
				obs.Int("bytes", int64(rec.Bytes())))
			k, err := decodeKernel(rec)
			if err != nil {
				errs[i] = fmt.Errorf("trace: decode kernel %q: %w", name, err)
				kernSpan.End()
				return
			}
			kernSpan.Add(
				obs.Int("records", int64(k.NumRecords())),
				obs.Int("lanes", int64(k.NumLanes())))
			kernSpan.End()
			decoded[i] = k
		}()
	}
	wg.Wait()
	decodeSpan.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, name := range names {
		d.kernels[name] = decoded[i]
	}
	return d, nil
}

// Names returns the kernel names in the set's insertion order.
func (d *Decoded) Names() []string { return append([]string(nil), d.names...) }

// Kernel returns the named kernel's decoded form.
func (d *Decoded) Kernel(name string) (*DecodedKernel, bool) {
	k, ok := d.kernels[name]
	return k, ok
}

// NumOps returns the total decoded warp-add records across all kernels.
func (d *Decoded) NumOps() uint64 {
	var n uint64
	for _, name := range d.names {
		n += uint64(d.kernels[name].NumRecords())
	}
	return n
}

// NumLanes returns the total decoded active thread-ops across all kernels.
func (d *Decoded) NumLanes() uint64 {
	var n uint64
	for _, name := range d.names {
		n += uint64(d.kernels[name].NumLanes())
	}
	return n
}

// matchesConfig checks one capture configuration against a requested
// one, reporting the first mismatching field with both the captured and
// the requested value named.
func matchesConfig(what string, haveScale, haveSMs int, haveSeed int64, scale, numSMs int, seed int64) error {
	if haveScale != scale {
		return fmt.Errorf("trace: %s scale mismatch: captured scale=%d, replay requested scale=%d", what, haveScale, scale)
	}
	if haveSMs != numSMs {
		return fmt.Errorf("trace: %s SM-count mismatch: captured sms=%d, replay requested sms=%d", what, haveSMs, numSMs)
	}
	if haveSeed != seed {
		return fmt.Errorf("trace: %s seed mismatch: captured seed=%d, replay requested seed=%d", what, haveSeed, seed)
	}
	return nil
}

// Matches reports whether the decoded set was captured under the given
// workload configuration. Each field is checked separately so the error
// names exactly what diverged, with both the captured and the requested
// value.
func (d *Decoded) Matches(scale, numSMs int, seed int64) error {
	return matchesConfig("decoded recording set", d.Scale, d.NumSMs, d.Seed, scale, numSMs, seed)
}
