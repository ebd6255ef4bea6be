// Package wiretaint exercises the wiretaint analyzer: wire-decoded
// lengths must pass a budget comparison before sizing an allocation.
package wiretaint

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
)

var errTooBig = errors.New("too big")

const maxBytes = 1 << 20

// readRecordingPreFix is the pre-fix PR 6 ReadRecording shape: a varint
// segment length flows straight into make with no budget check.
func readRecordingPreFix(r *bufio.Reader) ([]byte, error) {
	segLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, segLen) // want `allocation sized by wire-decoded value segLen with no bound check`
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readRecordingPostFix is the fixed shape: the decoded length is
// compared against the remaining budget before the allocation.
func readRecordingPostFix(r *bufio.Reader, total uint64) ([]byte, error) {
	segLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if segLen > maxBytes-total {
		return nil, errTooBig
	}
	buf := make([]byte, segLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

type entry struct {
	name string
}

// headerBombPreFix is the pre-fix PR 9 store-header shape: a fixed-width
// kernel count sizes slice capacity and a map hint with no bound of its
// own (the table-length budget check does not bound the count).
func headerBombPreFix(hdr []byte) []entry {
	nkern := binary.LittleEndian.Uint32(hdr[24:])
	entries := make([]entry, 0, nkern)   // want `allocation sized by wire-decoded value nkern`
	seen := make(map[string]bool, nkern) // want `allocation sized by wire-decoded value nkern`
	_ = seen
	return entries
}

// headerBombPostFix bounds the count against what the budget-checked
// table can physically hold before any allocation.
func headerBombPostFix(hdr []byte, tableLen uint64) []entry {
	nkern := binary.LittleEndian.Uint32(hdr[24:])
	if uint64(nkern) > tableLen/2 {
		return nil
	}
	entries := make([]entry, 0, nkern)
	return entries
}

type header struct {
	Count uint64
	Flags uint32
}

// binaryReadUnchecked decodes a struct and uses one of its fields as an
// allocation size without checking it.
func binaryReadUnchecked(r io.Reader) ([]byte, error) {
	var h header
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, err
	}
	return make([]byte, h.Count), nil // want `allocation sized by wire-decoded value h\.Count`
}

// binaryReadChecked compares the decoded field against the budget
// first: clean.
func binaryReadChecked(r io.Reader) ([]byte, error) {
	var h header
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, err
	}
	if h.Count > maxBytes {
		return nil, errTooBig
	}
	return make([]byte, h.Count), nil
}

type request struct {
	N int
}

// jsonUnchecked: a JSON-decoded field sizes a slice unchecked.
func jsonUnchecked(data []byte) ([]int, error) {
	var req request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, err
	}
	return make([]int, req.N), nil // want `allocation sized by wire-decoded value req\.N`
}

// jsonChecked bounds the field first: clean.
func jsonChecked(data []byte) ([]int, error) {
	var req request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, err
	}
	if req.N > 1024 {
		return nil, errTooBig
	}
	return make([]int, req.N), nil
}

// allocFor sizes an allocation directly from its parameter: callers
// passing tainted values are flagged at the call site (alloc-size-param
// fact), not here.
func allocFor(n uint64) []byte {
	return make([]byte, n)
}

// callUnchecked hands a wire-decoded length to allocFor unchecked.
func callUnchecked(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	return allocFor(n), nil // want `wire-decoded value n reaches an allocation size inside allocFor`
}

// callChecked bounds the value before the call: clean.
func callChecked(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxBytes {
		return nil, errTooBig
	}
	return allocFor(n), nil
}

// readLen is a wire-source helper: its result carries taint into
// callers (tainted-result fact).
func readLen(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

// viaHelper consumes the helper's tainted result unchecked.
func viaHelper(r *bufio.Reader) []byte {
	n, _ := readLen(r)
	return make([]byte, n) // want `allocation sized by wire-decoded value n`
}

// sanitizers stay quiet: min with a bounded operand, masking, modulo
// and narrow conversions all bound the value.
func sanitizers(r *bufio.Reader) []byte {
	a, _ := binary.ReadUvarint(r)
	b, _ := binary.ReadUvarint(r)
	c, _ := binary.ReadUvarint(r)
	d, _ := binary.ReadUvarint(r)
	buf := make([]byte, min(a, maxBytes))
	buf = append(buf, make([]byte, b%4096)...)
	buf = append(buf, make([]byte, c&0xfff)...)
	buf = append(buf, make([]byte, uint16(d))...)
	return buf
}

// loopBound: `for i < n` bounds i, not n — a loop running to a hostile
// count says nothing about the allocation after it.
func loopBound(r *bufio.Reader) []int {
	n, _ := binary.ReadUvarint(r)
	total := 0
	for i := uint64(0); i < n; i++ {
		total++
	}
	return make([]int, n) // want `allocation sized by wire-decoded value n`
}

// reversedBound: the budget on the left of < bounds n from above, like
// n > maxBytes.
func reversedBound(r *bufio.Reader) []byte {
	n, _ := binary.ReadUvarint(r)
	if maxBytes < n {
		return nil
	}
	return make([]byte, n)
}

type openMsg struct {
	Workers int
}

// workerSlotsPreClamp is the pre-clamp shard-worker shape: a
// peer-supplied worker count sizes a channel after only a lower bound,
// so a hostile peer's huge count still reaches the make.
func workerSlotsPreClamp(data []byte, procs int) (chan struct{}, error) {
	var m openMsg
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	workers := m.Workers
	if workers < 1 {
		workers = procs
	}
	return make(chan struct{}, workers), nil // want `allocation sized by wire-decoded value workers`
}

// workerSlotsClamped bounds the count from above too: clean.
func workerSlotsClamped(data []byte, procs int) (chan struct{}, error) {
	var m openMsg
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	workers := m.Workers
	if workers < 1 || workers > procs {
		workers = procs
	}
	return make(chan struct{}, workers), nil
}

// suppressed carries a conc-ok reason, so the finding is filtered.
func suppressed(r *bufio.Reader) []byte {
	n, _ := binary.ReadUvarint(r)
	return make([]byte, n) //st2:conc-ok test fixture: caller bounds n before handing over the reader
}

// notWire: lengths derived without a wire read never taint.
func notWire(items []int) []int {
	total := 0
	for range items {
		total += 2
	}
	return make([]int, total)
}
