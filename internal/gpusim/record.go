package gpusim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
)

// DefaultRecordMaxBytes caps a Recorder that was built with no explicit
// limit: recording a runaway kernel fails loudly at 1 GiB instead of
// exhausting host memory.
const DefaultRecordMaxBytes = 1 << 30

// recChargeChunk is the granularity at which shards charge their growth
// against the shared byte budget: coarse enough to keep the atomic off
// the per-operation path, fine enough that the cap trips promptly.
const recChargeChunk = 64 << 10

// Recorder captures a launch's warp-add operation stream into a compact
// in-memory Recording. Install it with Device.SetRecorder; unlike an
// AddTracer it does NOT force the sequential launch path — every SM
// appends to its own lock-free shard, and the shards are folded in SM-ID
// order after the workers join, so the recorded stream is bit-identical
// at any ParallelSMs worker count and equals the stream a sequential
// live tracer would have observed.
type Recorder struct {
	maxBytes uint64
	chunk    uint64        // per-shard charge granularity
	total    atomic.Uint64 // bytes charged across all shards (chunked)
	rec      Recording
}

// NewRecorder returns a recorder bounded to maxBytes of encoded stream
// (0 means DefaultRecordMaxBytes). Exceeding the cap fails the launch
// with a loud error instead of running the host out of memory.
func NewRecorder(maxBytes uint64) *Recorder {
	if maxBytes == 0 {
		maxBytes = DefaultRecordMaxBytes
	}
	// Shards charge in chunks to keep the shared atomic off the per-op
	// path; a small cap needs a proportionally small chunk or it would
	// never be reached.
	chunk := uint64(recChargeChunk)
	if c := maxBytes / 8; c < chunk {
		chunk = c + 1
	}
	return &Recorder{maxBytes: maxBytes, chunk: chunk}
}

// Recording returns the stream recorded so far. Launches accumulate:
// recording a multi-kernel application yields one stream covering every
// launch in order.
func (r *Recorder) Recording() *Recording { return &r.rec }

// newShard creates one SM's private recording buffer.
func (r *Recorder) newShard() *recShard { return &recShard{owner: r} }

// fold appends the finished shards' segments in the caller's order
// (Device.Launch passes SM-ID order) and returns the bytes this fold
// added.
func (r *Recorder) fold(shards []*recShard) uint64 {
	var n uint64
	for _, s := range shards {
		if s == nil || len(s.buf) == 0 {
			continue
		}
		r.rec.segs = append(r.rec.segs, s.buf)
		r.rec.ops += s.ops
		r.rec.lanes += s.lanes
		n += uint64(len(s.buf))
	}
	return n
}

// Recording is a compact encoded warp-add operation stream: one segment
// per (launch, SM) in execution-fold order. Within a segment, records
// carry delta-encoded PCs and warp bases, packed active/carry-in masks,
// and varint effective operands; exact sums are reconstructed at replay
// time (Sum = EA + EB + Cin0 over the unit width), so they are never
// stored.
type Recording struct {
	segs  [][]byte
	ops   uint64
	lanes uint64
}

// NumOps returns the number of recorded warp-add records.
func (r *Recording) NumOps() uint64 { return r.ops }

// NumLanes returns the total number of active thread-ops across all
// records — the exact length of the flat per-lane arrays a decoder
// materializes, so decode passes can size them up front instead of
// growing by repeated append.
func (r *Recording) NumLanes() uint64 { return r.lanes }

// Bytes returns the encoded stream size.
func (r *Recording) Bytes() uint64 {
	var n uint64
	for _, s := range r.segs {
		n += uint64(len(s))
	}
	return n
}

// recShard is one SM's private recording buffer plus its delta-encoder
// state. It belongs to exactly one worker goroutine between newShard and
// fold, so appends are lock-free; only the coarse budget charge touches
// the shared Recorder.
type recShard struct {
	owner    *Recorder
	buf      []byte
	ops      uint64
	lanes    uint64 // active thread-ops recorded (Σ popcount(active))
	prevPC   uint32
	prevBase uint32
	charged  uint64 // bytes already charged against owner's budget
}

// record header-byte layout.
const (
	recKindMask = 0b0000_0011 // core.UnitKind (ALU, ALU32, FPU, DPU)
	recFullWarp = 0b0000_0100 // all 32 lanes active
	recCinShift = 3           // bits 3-4: carry-in pattern
	recCinZero  = 0           // every active lane has Cin0 = 0 (adds)
	recCinOne   = 1           // every active lane has Cin0 = 1 (subs)
	recCinMixed = 2           // per-lane mask follows (FP mantissa ops)
	recCinBits  = 0b0001_1000 // mask extracting the pattern bits
)

// append encodes one warp-synchronous record from its packed columns:
// the j-th set bit of active owns ea[j] and eb[j], and bit l of cin is
// lane l's injected carry.
func (s *recShard) append(kind core.UnitKind, pc, gtidBase, active, cin uint32, ea, eb []uint64) error {
	if active == 0 {
		return nil
	}

	hdr := byte(kind) & recKindMask
	if active == ^uint32(0) {
		hdr |= recFullWarp
	}
	switch {
	case cin == 0:
		hdr |= recCinZero << recCinShift
	case cin == active:
		hdr |= recCinOne << recCinShift
	default:
		hdr |= recCinMixed << recCinShift
	}

	s.buf = append(s.buf, hdr)
	s.buf = binary.AppendUvarint(s.buf, zigzag(int64(pc)-int64(s.prevPC)))
	s.buf = binary.AppendUvarint(s.buf, zigzag(int64(gtidBase)-int64(s.prevBase)))
	s.prevPC, s.prevBase = pc, gtidBase
	if hdr&recFullWarp == 0 {
		s.buf = binary.AppendUvarint(s.buf, uint64(active))
	}
	if (hdr&recCinBits)>>recCinShift == recCinMixed {
		s.buf = binary.AppendUvarint(s.buf, uint64(cin))
	}
	for j := range ea {
		s.buf = binary.AppendUvarint(s.buf, ea[j])
		s.buf = binary.AppendUvarint(s.buf, eb[j])
	}
	s.ops++
	s.lanes += uint64(len(ea))

	// Charge growth against the shared budget in coarse chunks so the
	// shared atomic stays off the per-operation path.
	if grown := uint64(len(s.buf)); grown >= s.charged+s.owner.chunk {
		delta := grown - s.charged
		s.charged = grown
		if s.owner.total.Add(delta) > s.owner.maxBytes {
			return fmt.Errorf("gpusim: recording exceeded the %d-byte cap (raise it with NewRecorder, or record at a smaller scale)",
				s.owner.maxBytes)
		}
	}
	return nil
}

// unitWidth returns the datapath width of a unit kind (the mirror of
// UnitKind.AdderConfig, kept branch-cheap for the replay decoder).
func unitWidth(kind core.UnitKind) uint {
	switch kind {
	case core.ALU32:
		return 32
	case core.FPU:
		return 24
	case core.DPU:
		return 52
	default:
		return 64
	}
}

// DecodedRecord is one warp-synchronous record delivered by Decode: the
// lane masks plus the per-active-lane operands and reconstructed sums in
// ascending lane order (the j-th set bit of Active owns EA[j], EB[j],
// Sum[j]). The slices alias decoder scratch and are valid only for the
// duration of the visit callback — copy what must outlive it.
type DecodedRecord struct {
	Kind     core.UnitKind
	PC       uint32
	GtidBase uint32
	Active   uint32 // bit l set: lane l executed the op
	Cin      uint32 // bit l set: lane l's Cin0 was 1
	EA, EB   []uint64
	Sum      []uint64
}

// Decode walks the recorded stream once, in the exact order a sequential
// live tracer would have observed it (SM-ID-major, per-SM execution
// order), invoking visit per warp-synchronous record. Sums are
// reconstructed from the effective operands (Sum = EA + EB + Cin0 over
// the unit width) — the integrity check that makes a recording a valid
// stand-in for a live trace. This is the single varint-decode pass
// behind both Replay and the structure-of-arrays decoded caches built by
// internal/trace; callers that evaluate many designs should decode once
// and walk the flat arrays instead of re-decoding per consumer.
// Decode is read-only and safe to call concurrently.
func (r *Recording) Decode(visit func(rec *DecodedRecord) error) error {
	var ea, eb, sum [32]uint64
	dr := DecodedRecord{}
	for si, seg := range r.segs {
		var prevPC, prevBase uint32
		pos := 0
		for pos < len(seg) {
			hdr := seg[pos]
			pos++
			kind := core.UnitKind(hdr & recKindMask)
			width := unitWidth(kind)

			dpc, err := readZigzag(seg, &pos)
			if err != nil {
				return fmt.Errorf("gpusim: replay segment %d: pc: %w", si, err)
			}
			dbase, err := readZigzag(seg, &pos)
			if err != nil {
				return fmt.Errorf("gpusim: replay segment %d: gtidBase: %w", si, err)
			}
			pc := uint32(int64(prevPC) + dpc)
			base := uint32(int64(prevBase) + dbase)
			prevPC, prevBase = pc, base

			active := ^uint32(0)
			if hdr&recFullWarp == 0 {
				v, err := readUvarint(seg, &pos)
				if err != nil {
					return fmt.Errorf("gpusim: replay segment %d: active mask: %w", si, err)
				}
				active = uint32(v)
			}
			var cin uint32
			switch (hdr & recCinBits) >> recCinShift {
			case recCinZero:
			case recCinOne:
				cin = active
			case recCinMixed:
				v, err := readUvarint(seg, &pos)
				if err != nil {
					return fmt.Errorf("gpusim: replay segment %d: cin mask: %w", si, err)
				}
				cin = uint32(v)
			default:
				return fmt.Errorf("gpusim: replay segment %d: corrupt carry-in pattern %#x", si, hdr)
			}
			if active == 0 {
				return fmt.Errorf("gpusim: replay segment %d: record with no active lanes", si)
			}

			n := 0
			for l := 0; l < 32; l++ {
				if active&(1<<l) == 0 {
					continue
				}
				a, err := readUvarint(seg, &pos)
				if err != nil {
					return fmt.Errorf("gpusim: replay segment %d: lane %d EA: %w", si, l, err)
				}
				b, err := readUvarint(seg, &pos)
				if err != nil {
					return fmt.Errorf("gpusim: replay segment %d: lane %d EB: %w", si, l, err)
				}
				c := uint(0)
				if cin&(1<<l) != 0 {
					c = 1
				}
				s, _ := bitmath.AddWithCarry(a, b, c, width)
				ea[n], eb[n], sum[n] = a, b, s
				n++
			}
			dr = DecodedRecord{
				Kind: kind, PC: pc, GtidBase: base, Active: active, Cin: cin,
				EA: ea[:n], EB: eb[:n], Sum: sum[:n],
			}
			if err := visit(&dr); err != nil {
				return err
			}
		}
	}
	return nil
}

// Replay feeds the recorded stream to t in the exact order a sequential
// live tracer would have observed it. Sums are reconstructed from the
// effective operands, so the delivered WarpAddOps are bit-identical to
// the live-traced ones. Replay is read-only: the same Recording can be
// replayed any number of times, concurrently from multiple goroutines.
func (r *Recording) Replay(t AddTracer) error {
	return r.Decode(func(rec *DecodedRecord) error {
		var ops [32]WarpAddOp
		j := 0
		for m := rec.Active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ops[l] = WarpAddOp{
				Active: true,
				EA:     rec.EA[j], EB: rec.EB[j],
				Cin0: uint(rec.Cin >> l & 1),
				Sum:  rec.Sum[j],
			}
			j++
		}
		t.TraceWarpAdds(rec.Kind, rec.PC, rec.GtidBase, &ops)
		return nil
	})
}

// --- varint helpers ---

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func readUvarint(b []byte, pos *int) (uint64, error) {
	v, n := binary.Uvarint(b[*pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", *pos)
	}
	*pos += n
	return v, nil
}

func readZigzag(b []byte, pos *int) (int64, error) {
	v, err := readUvarint(b, pos)
	if err != nil {
		return 0, err
	}
	return unzigzag(v), nil
}
