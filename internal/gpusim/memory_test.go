package gpusim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// flatMemory is the flat []byte global memory the paged Memory replaced,
// kept as the oracle for TestMemoryMatchesFlat and FuzzMemory.
type flatMemory struct{ data []byte }

func (m *flatMemory) check(addr, n uint64) error {
	if addr+n > uint64(len(m.data)) || addr+n < addr {
		return fmt.Errorf("out of bounds")
	}
	return nil
}

func (m *flatMemory) Load(addr, n uint64) (uint64, error) {
	if n != 4 && n != 8 {
		return 0, fmt.Errorf("size")
	}
	if err := m.check(addr, n); err != nil {
		return 0, err
	}
	if n == 4 {
		return uint64(binary.LittleEndian.Uint32(m.data[addr:])), nil
	}
	return binary.LittleEndian.Uint64(m.data[addr:]), nil
}

func (m *flatMemory) Store(addr, n, val uint64) error {
	if n != 4 && n != 8 {
		return fmt.Errorf("size")
	}
	if err := m.check(addr, n); err != nil {
		return err
	}
	if n == 4 {
		binary.LittleEndian.PutUint32(m.data[addr:], uint32(val))
	} else {
		binary.LittleEndian.PutUint64(m.data[addr:], val)
	}
	return nil
}

func (m *flatMemory) AtomicAdd(addr, n, delta uint64) (uint64, error) {
	old, err := m.Load(addr, n)
	if err != nil {
		return 0, err
	}
	return old, m.Store(addr, n, old+delta)
}

// writeWords and readWords are the flat per-word host helpers.
func (m *flatMemory) writeWords(addr uint64, vals []uint64, width uint64) error {
	if err := m.check(addr, uint64(len(vals))*width); err != nil {
		return err
	}
	for i, v := range vals {
		a := addr + uint64(i)*width
		if width == 4 {
			binary.LittleEndian.PutUint32(m.data[a:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(m.data[a:], v)
		}
	}
	return nil
}

func (m *flatMemory) readWords(addr uint64, n int, width uint64) ([]uint64, error) {
	if err := m.check(addr, uint64(n)*width); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		a := addr + uint64(i)*width
		if width == 4 {
			out[i] = uint64(binary.LittleEndian.Uint32(m.data[a:]))
		} else {
			out[i] = binary.LittleEndian.Uint64(m.data[a:])
		}
	}
	return out, nil
}

// hostWrite stages vals through the paged helper named by kind (0: U32s,
// 1: F32s, 2: U64s, 3: F64s), passing each value's low bits.
func hostWrite(m *Memory, kind int, addr uint64, vals []uint64) error {
	switch kind {
	case 0:
		u := make([]uint32, len(vals))
		for i, v := range vals {
			u[i] = uint32(v)
		}
		return m.WriteU32s(addr, u)
	case 1:
		f := make([]float32, len(vals))
		for i, v := range vals {
			f[i] = math.Float32frombits(uint32(v))
		}
		return m.WriteF32s(addr, f)
	case 2:
		return m.WriteU64s(addr, vals)
	default:
		f := make([]float64, len(vals))
		for i, v := range vals {
			f[i] = math.Float64frombits(v)
		}
		return m.WriteF64s(addr, f)
	}
}

// hostRead reads n values through the paged helper named by kind and
// returns their bit patterns.
func hostRead(m *Memory, kind int, addr uint64, n int) ([]uint64, error) {
	out := make([]uint64, n)
	switch kind {
	case 0:
		u, err := m.ReadU32s(addr, n)
		for i := range u {
			out[i] = uint64(u[i])
		}
		return out, err
	case 1:
		f, err := m.ReadF32s(addr, n)
		for i := range f {
			out[i] = uint64(math.Float32bits(f[i]))
		}
		return out, err
	case 2:
		return m.ReadU64s(addr, n)
	default:
		f, err := m.ReadF64s(addr, n)
		for i := range f {
			out[i] = math.Float64bits(f[i])
		}
		return out, err
	}
}

// allocatedPages counts the pages that have been materialized.
func allocatedPages(m *Memory) int {
	n := 0
	for i := range m.pages {
		if m.page(uint64(i)) != nil {
			n++
		}
	}
	return n
}

// TestMemoryPageStraddle covers 4- and 8-byte kernel accesses that span
// a page boundary, where the byte-wise path takes over.
func TestMemoryPageStraddle(t *testing.T) {
	for _, n := range []uint64{4, 8} {
		for off := uint64(1); off < n; off++ {
			m := NewMemory(4 * memPageSize)
			addr := 2*memPageSize - off
			mask := uint64(1)<<(8*n) - 1 // all ones for n = 8
			want := uint64(0x0807060504030201) & mask
			if err := m.Store(addr, n, want); err != nil {
				t.Fatal(err)
			}
			if got := allocatedPages(m); got != 2 {
				t.Errorf("n=%d off=%d: straddling store materialized %d pages, want 2", n, off, got)
			}
			if v, err := m.Load(addr, n); err != nil || v != want {
				t.Errorf("n=%d off=%d: Load = %#x, %v; want %#x", n, off, v, err, want)
			}
			old, err := m.AtomicAdd(addr, n, 0xff)
			if err != nil || old != want {
				t.Errorf("n=%d off=%d: AtomicAdd old = %#x, %v; want %#x", n, off, old, err, want)
			}
			sum := (want + 0xff) & mask
			if v, _ := m.Load(addr, n); v != sum {
				t.Errorf("n=%d off=%d: after AtomicAdd = %#x, want %#x", n, off, v, sum)
			}
			// The first off bytes end the low page; the rest start the high one.
			lo, hi := m.page(1), m.page(2)
			for k := uint64(0); k < n; k++ {
				var got byte
				if k < off {
					got = lo[memPageSize-off+k]
				} else {
					got = hi[k-off]
				}
				if got != byte(sum>>(8*k)) {
					t.Errorf("n=%d off=%d: byte %d = %#x, want %#x", n, off, k, got, byte(sum>>(8*k)))
				}
			}
		}
	}
	// A straddling load of a half-touched boundary reads zeros from the
	// untouched side without materializing it.
	m := NewMemory(2 * memPageSize)
	if err := m.Store(memPageSize-4, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Load(memPageSize-4, 8); v != 0xdeadbeef {
		t.Errorf("half-touched straddle = %#x, want 0xdeadbeef", v)
	}
	if got := allocatedPages(m); got != 1 {
		t.Errorf("straddling load materialized a page: %d pages", got)
	}
}

// TestMemoryUntouchedReadsZero pins lazy paging: every read of memory
// never written returns zero and allocates no page.
func TestMemoryUntouchedReadsZero(t *testing.T) {
	m := NewMemory(64 << 20)
	for _, addr := range []uint64{0, memPageSize - 2, 5 * memPageSize, 64<<20 - 8} {
		if v, err := m.Load(addr, 8); err != nil || v != 0 {
			t.Errorf("Load(%#x) = %#x, %v; want 0", addr, v, err)
		}
	}
	u, err := m.ReadU32s(memPageSize-64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.ReadF64s(3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range u {
		if v != 0 {
			t.Fatalf("ReadU32s[%d] = %#x, want 0", i, v)
		}
	}
	for i, v := range f {
		if v != 0 {
			t.Fatalf("ReadF64s[%d] = %g, want 0", i, v)
		}
	}
	if got := allocatedPages(m); got != 0 {
		t.Errorf("reads materialized %d pages", got)
	}
}

// TestMemoryPartialLastPage uses a size that is not a multiple of the page
// size: the last page is short, and the bounds check sits at Size(), not
// at the page end.
func TestMemoryPartialLastPage(t *testing.T) {
	const size = 2*memPageSize + 100
	m := NewMemory(size)
	if m.Size() != size {
		t.Fatalf("Size = %d, want %d", m.Size(), size)
	}
	if len(m.pages) != 3 {
		t.Fatalf("%d pages for %d bytes, want 3", len(m.pages), size)
	}
	if err := m.Store(size-8, 8, 42); err != nil {
		t.Fatalf("store at the last word: %v", err)
	}
	if v, err := m.Load(size-8, 8); err != nil || v != 42 {
		t.Errorf("Load(size-8) = %d, %v; want 42", v, err)
	}
	if _, err := m.Load(size-4, 8); err == nil {
		t.Error("load crossing Size() should fail")
	}
	if err := m.Store(size, 4, 1); err == nil {
		t.Error("store at Size() should fail")
	}
	if _, err := m.AtomicAdd(size-2, 4, 1); err == nil {
		t.Error("AtomicAdd crossing Size() should fail")
	}
	if err := m.WriteU32s(size-8, []uint32{1, 2, 3}); err == nil {
		t.Error("host write crossing Size() should fail")
	}
	if _, err := m.ReadU64s(size-8, 2); err == nil {
		t.Error("host read crossing Size() should fail")
	}
	if v, err := m.ReadU32s(size-8, 2); err != nil || v[0] != 42 || v[1] != 0 {
		t.Errorf("ReadU32s at the edge = %v, %v", v, err)
	}
}

// TestMemoryConcurrentFirstTouch has many goroutines write distinct words
// of one fresh page at once: under -race this checks the CAS install, and
// every write must survive (no goroutine may write into a losing page).
func TestMemoryConcurrentFirstTouch(t *testing.T) {
	const workers = 32
	for round := 0; round < 20; round++ {
		m := NewMemory(4 * memPageSize)
		base := uint64(memPageSize)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g uint64) {
				defer wg.Done()
				<-start
				if err := m.Store(base+g*1024, 8, g+1); err != nil {
					t.Error(err)
				}
				if _, err := m.AtomicAdd(base+g*1024+8, 4, g+1); err != nil {
					t.Error(err)
				}
			}(uint64(g))
		}
		close(start)
		wg.Wait()
		if got := allocatedPages(m); got != 1 {
			t.Fatalf("round %d: %d pages materialized, want 1", round, got)
		}
		for g := uint64(0); g < workers; g++ {
			v, _ := m.Load(base+g*1024, 8)
			a, _ := m.Load(base+g*1024+8, 4)
			if v != g+1 || a != g+1 {
				t.Fatalf("round %d: worker %d's writes lost: %d, %d", round, g, v, a)
			}
		}
	}
}

// TestNewAllocatesNoMemoryImage pins the lazy device build: New on the
// default 64 MB configuration allocates only its page table, price map and
// bookkeeping, well under 1 MiB.
func TestNewAllocatesNoMemoryImage(t *testing.T) {
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
		t.Errorf("New(DefaultConfig()) allocated %d bytes, want < 1 MiB", delta)
	}
	runtime.KeepAlive(d)
}

// memoryOps replays an op stream decoded from data against the paged
// memory and the flat oracle and reports the first divergence. Each op
// takes 5 bytes: kind, boundary selector, signed offset from it, count,
// value seed. Addresses cluster around page boundaries and the end of
// memory, where the paths differ.
func memoryOps(data []byte) error {
	const size = 3*memPageSize + 100
	m := NewMemory(size)
	o := &flatMemory{data: make([]byte, size)}
	bounds := []uint64{0, memPageSize, 2 * memPageSize, 3 * memPageSize, size}
	for step := 0; len(data) >= 5; step++ {
		op, sel, off, cnt, seed := data[0], data[1], int8(data[2]), data[3], data[4]
		data = data[5:]
		addr := bounds[int(sel)%len(bounds)] + uint64(int64(off)) // may wrap: both must reject it
		width := uint64(4)
		if op&1 != 0 {
			width = 8
		}
		val := uint64(seed) * 0x9e3779b97f4a7c15
		switch kind := op >> 1 % 5; kind {
		case 0:
			got, gerr := m.Load(addr, width)
			want, werr := o.Load(addr, width)
			if (gerr != nil) != (werr != nil) || got != want {
				return fmt.Errorf("step %d: Load(%#x,%d) = %#x,%v; oracle %#x,%v", step, addr, width, got, gerr, want, werr)
			}
		case 1:
			gerr, werr := m.Store(addr, width, val), o.Store(addr, width, val)
			if (gerr != nil) != (werr != nil) {
				return fmt.Errorf("step %d: Store(%#x,%d) = %v; oracle %v", step, addr, width, gerr, werr)
			}
		case 2:
			got, gerr := m.AtomicAdd(addr, width, val)
			want, werr := o.AtomicAdd(addr, width, val)
			if (gerr != nil) != (werr != nil) || got != want {
				return fmt.Errorf("step %d: AtomicAdd(%#x,%d) = %#x,%v; oracle %#x,%v", step, addr, width, got, gerr, want, werr)
			}
		case 3:
			helper := int(seed) % 4
			w := uint64(4 << (helper / 2))
			vals := make([]uint64, int(cnt)%40)
			for i := range vals {
				vals[i] = (val + uint64(i)*0x0123456789abcdef) & (uint64(1)<<(8*w) - 1)
			}
			gerr, werr := hostWrite(m, helper, addr, vals), o.writeWords(addr, vals, w)
			if (gerr != nil) != (werr != nil) {
				return fmt.Errorf("step %d: host write(%#x,%d×%d) = %v; oracle %v", step, addr, len(vals), w, gerr, werr)
			}
		case 4:
			helper := int(seed) % 4
			w := uint64(4 << (helper / 2))
			got, gerr := hostRead(m, helper, addr, int(cnt)%40)
			want, werr := o.readWords(addr, int(cnt)%40, w)
			if (gerr != nil) != (werr != nil) {
				return fmt.Errorf("step %d: host read(%#x,%d×%d) = %v; oracle %v", step, addr, int(cnt)%40, w, gerr, werr)
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("step %d: host read(%#x)[%d] = %#x; oracle %#x", step, addr, i, got[i], want[i])
				}
			}
		}
	}
	var zero memPage
	for i := range m.pages {
		lo := uint64(i) * memPageSize
		hi := min(lo+memPageSize, size)
		got := zero[:hi-lo]
		if p := m.page(uint64(i)); p != nil {
			got = p[:hi-lo]
		}
		if !bytes.Equal(got, o.data[lo:hi]) {
			return fmt.Errorf("final image of page %d differs from the oracle", i)
		}
	}
	return nil
}

// TestMemoryMatchesFlat replays a fixed op stream that hits every op kind
// at every boundary through the differential check.
func TestMemoryMatchesFlat(t *testing.T) {
	var data []byte
	for op := byte(0); op < 10; op++ {
		for sel := byte(0); sel < 5; sel++ {
			for _, off := range []int8{-9, -7, -6, -5, -3, -1, 0, 1, 3} {
				data = append(data, op, sel, byte(off), 13+op, 3*sel+op)
			}
		}
	}
	if err := memoryOps(data); err != nil {
		t.Fatal(err)
	}
}

// FuzzMemory differentially fuzzes the paged memory against the flat
// []byte oracle: any op stream must give identical results, errors and
// final contents.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0xfe, 0, 7, 1, 1, 0xfe, 0, 0})
	f.Add([]byte{7, 2, 0xf9, 20, 5, 9, 2, 0xf5, 20, 3, 4, 4, 0xfc, 0, 1})
	f.Add([]byte{6, 3, 0xfd, 39, 2, 8, 3, 0xfb, 39, 6, 5, 4, 0xf8, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := memoryOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
