package gpusim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Memory stripe geometry: addresses are striped across a small mutex
// array at 128-byte (default cache line) granularity, so kernel accesses
// to different lines proceed in parallel while same-line accesses from
// concurrently simulated SMs serialize.
const (
	memStripeShift = 7
	memStripeCount = 64 // power of two
)

// Memory page geometry: global memory is a table of 64 KiB pages, each
// allocated on its first write. A page is a whole number of stripes, so
// an access inside one page is covered by the stripe locks of its span.
const (
	memPageShift = 16
	memPageSize  = 1 << memPageShift
	memPageMask  = memPageSize - 1
)

type memPage [memPageSize]byte

// Memory is the device's global memory. Kernels address it with byte
// addresses; hosts stage inputs and read back outputs through the typed
// helpers. All multi-byte values are little-endian.
//
// Storage is lazily paged: a device of any size starts with only its page
// table, a page is allocated (zeroed) on its first write, and an untouched
// page reads as zero. Page pointers are installed by compare-and-swap, so
// SMs that first-touch the same page concurrently agree on one page.
//
// The kernel-visible accessors (Load, Store, AtomicAdd) are safe for
// concurrent use by the parallel per-SM launch path via lock striping by
// address range. The host staging helpers (WriteU32s, ReadF64s, ...) are
// not synchronized: call them only while no kernel is running.
type Memory struct {
	size    uint64
	pages   []atomic.Pointer[memPage]
	stripes [memStripeCount]sync.Mutex
}

// NewMemory returns size bytes of zero-initialized device memory. No page
// is allocated until it is first written.
func NewMemory(size uint64) *Memory {
	return &Memory{
		size:  size,
		pages: make([]atomic.Pointer[memPage], (size+memPageMask)>>memPageShift),
	}
}

// page returns page i, or nil while it has never been written.
func (m *Memory) page(i uint64) *memPage { return m.pages[i].Load() }

// pageForWrite returns page i, allocating it on first touch. Concurrent
// first touches race on the CAS; the loser adopts the winner's page.
func (m *Memory) pageForWrite(i uint64) *memPage {
	if p := m.pages[i].Load(); p != nil {
		return p
	}
	if p := new(memPage); m.pages[i].CompareAndSwap(nil, p) {
		return p
	}
	return m.pages[i].Load()
}

// lockSpan acquires the stripe lock(s) covering [addr, addr+n). An access
// can straddle a stripe boundary, so up to two stripes are taken, always
// in ascending index order to stay deadlock-free. unlockSpan releases.
func (m *Memory) lockSpan(addr, n uint64) (a, b *sync.Mutex) {
	i := (addr >> memStripeShift) % memStripeCount
	j := ((addr + n - 1) >> memStripeShift) % memStripeCount
	if i == j {
		a = &m.stripes[i]
		a.Lock()
		return a, nil
	}
	if j < i {
		i, j = j, i
	}
	a, b = &m.stripes[i], &m.stripes[j]
	a.Lock()
	b.Lock()
	return a, b
}

func unlockSpan(a, b *sync.Mutex) {
	if b != nil {
		b.Unlock()
	}
	a.Unlock()
}

// Size returns the capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }

func (m *Memory) check(addr, n uint64) error {
	if addr+n > m.size || addr+n < addr {
		return fmt.Errorf("gpusim: memory access [%#x,%#x) outside %#x-byte device memory",
			addr, addr+n, m.size)
	}
	return nil
}

func checkAccessSize(n uint64) error {
	if n != 4 && n != 8 {
		return fmt.Errorf("gpusim: unsupported access size %d", n)
	}
	return nil
}

// readBytes copies the len(b) bytes at addr into b one byte at a time (the
// path for spans that straddle a page boundary). Untouched pages read as
// zero.
func (m *Memory) readBytes(addr uint64, b []byte) {
	for k := range b {
		a := addr + uint64(k)
		if p := m.page(a >> memPageShift); p != nil {
			b[k] = p[a&memPageMask]
		} else {
			b[k] = 0
		}
	}
}

// writeBytes copies b to addr one byte at a time, allocating pages on
// first touch.
func (m *Memory) writeBytes(addr uint64, b []byte) {
	for k, v := range b {
		a := addr + uint64(k)
		m.pageForWrite(a >> memPageShift)[a&memPageMask] = v
	}
}

// load reads the n (4 or 8) byte value at addr. The caller holds the
// span's stripe locks.
func (m *Memory) load(addr, n uint64) uint64 {
	off := addr & memPageMask
	if off+n > memPageSize {
		var b [8]byte
		m.readBytes(addr, b[:n])
		return binary.LittleEndian.Uint64(b[:])
	}
	p := m.page(addr >> memPageShift)
	if p == nil {
		return 0
	}
	if n == 4 {
		return uint64(binary.LittleEndian.Uint32(p[off:]))
	}
	return binary.LittleEndian.Uint64(p[off:])
}

// store writes the n (4 or 8) byte value v at addr. The caller holds the
// span's stripe locks.
func (m *Memory) store(addr, n, v uint64) {
	off := addr & memPageMask
	if off+n > memPageSize {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m.writeBytes(addr, b[:n])
		return
	}
	p := m.pageForWrite(addr >> memPageShift)
	if n == 4 {
		binary.LittleEndian.PutUint32(p[off:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(p[off:], v)
	}
}

// Load reads n (4 or 8) bytes at addr.
func (m *Memory) Load(addr, n uint64) (uint64, error) {
	if err := checkAccessSize(n); err != nil {
		return 0, err
	}
	if err := m.check(addr, n); err != nil {
		return 0, err
	}
	a, b := m.lockSpan(addr, n)
	v := m.load(addr, n)
	unlockSpan(a, b)
	return v, nil
}

// Store writes n (4 or 8) bytes at addr.
func (m *Memory) Store(addr, n, val uint64) error {
	if err := checkAccessSize(n); err != nil {
		return err
	}
	if err := m.check(addr, n); err != nil {
		return err
	}
	a, b := m.lockSpan(addr, n)
	m.store(addr, n, val)
	unlockSpan(a, b)
	return nil
}

// AtomicAdd adds delta to the n (4 or 8) byte integer at addr and returns
// the value it held before. The stripe lock is held across the whole
// read-modify-write, so concurrent atomics from different SMs never lose
// updates; because addition commutes, the final memory state is
// independent of SM interleaving.
func (m *Memory) AtomicAdd(addr, n, delta uint64) (uint64, error) {
	if err := checkAccessSize(n); err != nil {
		return 0, err
	}
	if err := m.check(addr, n); err != nil {
		return 0, err
	}
	a, b := m.lockSpan(addr, n)
	old := m.load(addr, n)
	m.store(addr, n, old+delta)
	unlockSpan(a, b)
	return old, nil
}

// --- Host-side staging helpers ---
//
// The typed helpers walk memory one page at a time: put/get receives a
// window of whole elements inside one page and the index of its first
// element. An element that straddles a page boundary (only possible at an
// address not aligned to the element width) goes through an 8-byte bounce
// buffer instead.

// writeWords stages n elements of width bytes at addr.
func (m *Memory) writeWords(addr uint64, n int, width uint64, put func(dst []byte, i int)) error {
	if err := m.check(addr, uint64(n)*width); err != nil {
		return err
	}
	for i := 0; i < n; {
		off := addr & memPageMask
		k := min(uint64(n-i), (memPageSize-off)/width)
		if k == 0 {
			var b [8]byte
			put(b[:width], i)
			m.writeBytes(addr, b[:width])
			addr += width
			i++
			continue
		}
		put(m.pageForWrite(addr >> memPageShift)[off:off+k*width], i)
		addr += k * width
		i += int(k)
	}
	return nil
}

// readWords reads n elements of width bytes at addr, which the caller has
// bounds-checked. Elements on untouched pages are left at their zero value.
func (m *Memory) readWords(addr uint64, n int, width uint64, get func(src []byte, i int)) {
	for i := 0; i < n; {
		off := addr & memPageMask
		k := min(uint64(n-i), (memPageSize-off)/width)
		if k == 0 {
			var b [8]byte
			m.readBytes(addr, b[:width])
			get(b[:width], i)
			addr += width
			i++
			continue
		}
		if p := m.page(addr >> memPageShift); p != nil {
			get(p[off:off+k*width], i)
		}
		addr += k * width
		i += int(k)
	}
}

// WriteU32s stages a []uint32 at addr.
func (m *Memory) WriteU32s(addr uint64, vals []uint32) error {
	return m.writeWords(addr, len(vals), 4, func(dst []byte, i int) {
		for j, v := range vals[i : i+len(dst)/4] {
			binary.LittleEndian.PutUint32(dst[4*j:], v)
		}
	})
}

// ReadU32s reads n uint32 values from addr.
func (m *Memory) ReadU32s(addr uint64, n int) ([]uint32, error) {
	if err := m.check(addr, uint64(n)*4); err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	m.readWords(addr, n, 4, func(src []byte, i int) {
		for j := range out[i : i+len(src)/4] {
			out[i+j] = binary.LittleEndian.Uint32(src[4*j:])
		}
	})
	return out, nil
}

// WriteF32s stages a []float32 at addr.
func (m *Memory) WriteF32s(addr uint64, vals []float32) error {
	return m.writeWords(addr, len(vals), 4, func(dst []byte, i int) {
		for j, v := range vals[i : i+len(dst)/4] {
			binary.LittleEndian.PutUint32(dst[4*j:], f32bits(v))
		}
	})
}

// ReadF32s reads n float32 values from addr.
func (m *Memory) ReadF32s(addr uint64, n int) ([]float32, error) {
	if err := m.check(addr, uint64(n)*4); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	m.readWords(addr, n, 4, func(src []byte, i int) {
		for j := range out[i : i+len(src)/4] {
			out[i+j] = f32fromBits(binary.LittleEndian.Uint32(src[4*j:]))
		}
	})
	return out, nil
}

// WriteF64s stages a []float64 at addr.
func (m *Memory) WriteF64s(addr uint64, vals []float64) error {
	return m.writeWords(addr, len(vals), 8, func(dst []byte, i int) {
		for j, v := range vals[i : i+len(dst)/8] {
			binary.LittleEndian.PutUint64(dst[8*j:], f64bits(v))
		}
	})
}

// ReadF64s reads n float64 values from addr.
func (m *Memory) ReadF64s(addr uint64, n int) ([]float64, error) {
	if err := m.check(addr, uint64(n)*8); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	m.readWords(addr, n, 8, func(src []byte, i int) {
		for j := range out[i : i+len(src)/8] {
			out[i+j] = f64fromBits(binary.LittleEndian.Uint64(src[8*j:]))
		}
	})
	return out, nil
}

// WriteU64s stages a []uint64 at addr.
func (m *Memory) WriteU64s(addr uint64, vals []uint64) error {
	return m.writeWords(addr, len(vals), 8, func(dst []byte, i int) {
		for j, v := range vals[i : i+len(dst)/8] {
			binary.LittleEndian.PutUint64(dst[8*j:], v)
		}
	})
}

// ReadU64s reads n uint64 values from addr.
func (m *Memory) ReadU64s(addr uint64, n int) ([]uint64, error) {
	if err := m.check(addr, uint64(n)*8); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	m.readWords(addr, n, 8, func(src []byte, i int) {
		for j := range out[i : i+len(src)/8] {
			out[i+j] = binary.LittleEndian.Uint64(src[8*j:])
		}
	})
	return out, nil
}
