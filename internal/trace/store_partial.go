package trace

import (
	"bufio"
	"fmt"
	"os"
	"runtime"

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
// ReadStoreFile, the whole-file payload total is NOT held to the budget —
// a store bigger than one worker's budget is readable a slice at a
// time.
func OpenStore(path string, maxBytes uint64) (*StoreHandle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open store: %w", err)
	}
	defer f.Close()
	return newStoreHandle(f, maxBytes, false)
}

// newStoreHandle is OpenStore over the open store f; wholeFile also
// holds the whole store to the budget, as readStoreInfo describes.
func newStoreHandle(f *os.File, maxBytes uint64, wholeFile bool) (*StoreHandle, error) {
	if maxBytes == 0 {
		maxBytes = gpusim.DefaultRecordMaxBytes
	}
	info, err := readStoreInfo(bufio.NewReaderSize(f, 1<<16), maxBytes, wholeFile)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("trace: open store: %w", err)
	}
	if want := info.headerLen + int64(info.payloadTotal); fi.Size() != want {
		return nil, fmt.Errorf("trace: store %s is %d bytes but its section table declares %d",
			f.Name(), fi.Size(), want)
	}
	h := &StoreHandle{
		path:     f.Name(),
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
// to the same kernel from a full ReadStoreFile, in store insertion order
// regardless of the order names are given in. Duplicate names load
// once; an unknown name fails naming it and the kernels the store
// holds. The requested sections' payload bytes plus decoded column
// footprint must fit the handle's byte budget. workers bounds the
// section-decode pool (0 = GOMAXPROCS); the result is bit-identical at
// any count. Like ReadStoreFile, it returns after a full collection.
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
	if err := checkLoadBudget(len(selected), payload, footprint, h.maxBytes); err != nil {
		return nil, err
	}

	f, err := os.Open(h.path)
	if err != nil {
		return nil, fmt.Errorf("trace: open store: %w", err)
	}
	defer f.Close()
	return collected(h.readSections(f, selected, selectedOff, workers))
}

// readSections reads and decodes the given sections of the store file f,
// whose payloads start at offsets. The store matched its section table
// at open, so no declared length exceeds the file: each payload is read
// whole into one buffer of its exact size, on the worker that decodes it.
// A load thus holds at most `workers` payloads at once and allocates no
// buffer it then copies and throws away.
func (h *StoreHandle) readSections(f *os.File, entries []storeEntry, offsets []int64, workers int) (*Decoded, error) {
	return h.info.decodeSections(entries, func(i int) ([]byte, error) {
		buf := make([]byte, entries[i].sectLen)
		if _, err := f.ReadAt(buf, offsets[i]); err != nil {
			return nil, err
		}
		return buf, nil
	}, workers)
}

// collected returns a successful load after a full collection. A load
// is a burst of allocation, and without the collection the heap goal for
// the work that follows is set by whichever collection the burst
// happened to trigger last: in a scale-4 sweep, by whether one lands
// inside sgemm's 290 MB section, which moved the peak resident set by
// ~450 MB from run to run. After it, the goal is twice what the caller
// holds. The columns hold no pointers, so the collection costs about a
// millisecond.
func collected(d *Decoded, err error) (*Decoded, error) {
	if err == nil {
		runtime.GC()
	}
	return d, err
}
