package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"st2gpu/internal/gpusim"
)

// StoreHandle is an open decoded store with only its header and section
// table parsed: the capture config, the kernel list, and each kernel's
// section offset. LoadKernels then seeks and decodes just the requested
// sections, so a shard worker's load time and memory are proportional
// to its assigned kernels, not the suite. The handle holds no open file
// descriptor between calls and is safe for concurrent LoadKernels.
type StoreHandle struct {
	path     string
	maxBytes uint64
	info     *storeInfo
	offsets  []int64 // absolute file offset of entries[i]'s payload
}

// OpenStore parses the header + section table of the store file at
// path without reading any section payload. maxBytes (0 means
// gpusim.DefaultRecordMaxBytes) bounds the section table here and each
// subsequent LoadKernels call's payload + decoded footprint; unlike
// ReadDecoded, the whole-file payload total is NOT held to the budget —
// a store bigger than one worker's budget is readable a slice at a
// time.
func OpenStore(path string, maxBytes uint64) (*StoreHandle, error) {
	if maxBytes == 0 {
		maxBytes = gpusim.DefaultRecordMaxBytes
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open store: %w", err)
	}
	defer f.Close()
	info, err := readStoreInfo(bufio.NewReaderSize(f, 1<<16), maxBytes, false)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("trace: open store: %w", err)
	}
	if want := info.headerLen + int64(info.payloadTotal); fi.Size() != want {
		return nil, fmt.Errorf("trace: store %s is %d bytes but its section table declares %d",
			path, fi.Size(), want)
	}
	h := &StoreHandle{
		path:     path,
		maxBytes: maxBytes,
		info:     info,
		offsets:  make([]int64, len(info.entries)),
	}
	off := info.headerLen
	for i, ent := range info.entries {
		h.offsets[i] = off
		off += int64(ent.sectLen)
	}
	return h, nil
}

// Names returns the store's kernel names in insertion order.
func (h *StoreHandle) Names() []string {
	names := make([]string, len(h.info.entries))
	for i, ent := range h.info.entries {
		names[i] = ent.name
	}
	return names
}

// Matches reports whether the store was captured under the given
// config, naming the first mismatching field.
func (h *StoreHandle) Matches(scale, numSMs int, seed int64) error {
	return matchesConfig("decoded store", h.info.scale, h.info.numSMs, h.info.seed, scale, numSMs, seed)
}

// LoadKernels reads and decodes just the named kernels' sections,
// returning a Decoded holding exactly those kernels — each DeepEqual
// to the same kernel from a full ReadDecoded, in store insertion order
// regardless of the order names are given in. Duplicate names load
// once; an unknown name fails naming it and the kernels the store
// holds. The requested sections' payload bytes plus decoded column
// footprint must fit the handle's byte budget. workers bounds the
// section-decode pool (0 = GOMAXPROCS); the result is bit-identical at
// any count.
func (h *StoreHandle) LoadKernels(names []string, workers int) (*Decoded, error) {
	want := make(map[string]bool, len(names))
	for _, name := range names {
		want[name] = true
	}
	// Select in store insertion order so any subset folds in the same
	// relative order as a full load.
	var selected []storeEntry
	var selectedOff []int64
	var payload, footprint uint64
	for i, ent := range h.info.entries {
		if !want[ent.name] {
			continue
		}
		delete(want, ent.name)
		selected = append(selected, ent)
		selectedOff = append(selectedOff, h.offsets[i])
		payload += ent.sectLen
		footprint += entryFootprint(ent.records, ent.lanes)
	}
	for _, name := range names {
		if want[name] {
			return nil, fmt.Errorf("trace: decoded set kernel-list mismatch: missing kernel %q (set holds %d kernels: %v)",
				name, len(h.info.entries), h.Names())
		}
	}
	if payload > h.maxBytes || footprint > h.maxBytes-payload {
		return nil, fmt.Errorf("trace: store load of %d kernels declares %d payload + %d footprint bytes with a %d-byte budget: %w",
			len(selected), payload, footprint, h.maxBytes, ErrStoreTooBig)
	}

	f, err := os.Open(h.path)
	if err != nil {
		return nil, fmt.Errorf("trace: open store: %w", err)
	}
	defer f.Close()
	bufs := make([][]byte, len(selected))
	for i, ent := range selected {
		buf, err := readSection(io.NewSectionReader(f, selectedOff[i], int64(ent.sectLen)), ent.sectLen)
		if err != nil {
			return nil, fmt.Errorf("trace: store kernel %q payload: %w", ent.name, err)
		}
		bufs[i] = buf
	}
	return h.info.decodeSections(selected, bufs, workers)
}
