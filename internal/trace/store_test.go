package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// storePathfinder decodes the real pathfinder capture used across this
// package's tests — the reference Decoded every store assertion compares
// against.
func storePathfinder(t *testing.T) *Decoded {
	t.Helper()
	dec, err := DecodeSet(recordPathfinder(t))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func encodeStore(t *testing.T, d *Decoded, opts StoreOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteDecoded(&buf, d, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readStoreBytes writes data to a file under t.TempDir() and loads it
// with readStorePath.
func readStoreBytes(t testing.TB, data []byte, budget uint64, workers int) (*Decoded, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.st2dec")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return readStorePath(t, path, budget, workers)
}

// readStorePath loads the store file at path as ReadStoreFile does — the
// whole store held to budget (0 means the default), every section read
// at its offset — on the given number of decode workers. It skips
// ReadStoreFile's closing collection, which would dominate a fuzz
// iteration.
func readStorePath(t testing.TB, path string, budget uint64, workers int) (*Decoded, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := newStoreHandle(f, budget, true)
	if err != nil {
		return nil, err
	}
	return h.readSections(f, h.info.entries, h.offsets, workers)
}

// TestStoreRoundTripBitIdentical pins the tentpole guarantee: a Decoded
// loaded from the store is bit-identical (reflect.DeepEqual) to the one
// DecodeSet produced, at any load worker count, whether the derived
// Sum/Carries columns were stored or recomputed at load.
func TestStoreRoundTripBitIdentical(t *testing.T) {
	want := storePathfinder(t)
	if want.NumLanes() == 0 {
		t.Fatal("reference capture holds no lanes")
	}
	for _, omit := range []bool{false, true} {
		raw := encodeStore(t, want, StoreOptions{OmitDerived: omit})
		for _, workers := range []int{1, 2, 8} {
			got, err := readStoreBytes(t, raw, 0, workers)
			if err != nil {
				t.Fatalf("omit=%v workers=%d: %v", omit, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("omit=%v workers=%d: store-loaded Decoded is not bit-identical to DecodeSet output", omit, workers)
			}
		}
	}
}

// TestStoreBytesDeterministic pins the writer's determinism rule: equal
// sets write equal bytes at any encode worker count, and the OmitDerived
// file is strictly smaller.
func TestStoreBytesDeterministic(t *testing.T) {
	d := storePathfinder(t)
	full := encodeStore(t, d, StoreOptions{Workers: 1})
	for _, workers := range []int{2, 8} {
		if !bytes.Equal(full, encodeStore(t, d, StoreOptions{Workers: workers})) {
			t.Fatalf("store bytes differ at %d encode workers", workers)
		}
	}
	compact := encodeStore(t, d, StoreOptions{OmitDerived: true})
	if len(compact) >= len(full) {
		t.Errorf("OmitDerived store (%d bytes) is not smaller than the full store (%d bytes)", len(compact), len(full))
	}
}

// TestStoreFileRoundTrip exercises the atomic file path end to end,
// checks the store gets the mode os.Create would have given it, and
// checks the config header round-trips through Matches.
func TestStoreFileRoundTrip(t *testing.T) {
	d := storePathfinder(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.decoded")
	if err := d.WriteStoreFile(path, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	assertOnlyFiles(t, dir, "suite.decoded")
	ref, err := os.Create(filepath.Join(dir, "reference"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	refInfo, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode() != refInfo.Mode() {
		t.Errorf("store mode = %v, want %v (what os.Create gives under this umask)", info.Mode(), refInfo.Mode())
	}
	got, err := ReadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatal("file round-trip is not bit-identical")
	}
	if err := got.Matches(1, 2, 1); err != nil {
		t.Errorf("loaded store rejects its own capture config: %v", err)
	}
	err = got.Matches(4, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "scale") {
		t.Errorf("scale mismatch error = %v, want a per-field scale error", err)
	}
}

// assertOnlyFiles fails unless dir holds exactly the named entries — in
// particular, no temp file a writer left behind.
func assertOnlyFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("directory holds %v, want exactly %v", got, names)
	}
}

// TestWriteStoreFileConcurrentWriters pins that two writers of one path
// never share a temp file: both writes succeed and the file left behind
// is byte for byte one of the two encodings, never a mix of them.
func TestWriteStoreFileConcurrentWriters(t *testing.T) {
	d := storePathfinder(t)
	optsA, optsB := StoreOptions{}, StoreOptions{OmitDerived: true}
	encA, encB := encodeStore(t, d, optsA), encodeStore(t, d, optsB)
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.decoded")
	for iter := 0; iter < 40; iter++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, opts := range []StoreOptions{optsA, optsB} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = d.WriteStoreFile(path, opts)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("iteration %d: writer %d failed: %v", iter, i, err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, encA) && !bytes.Equal(got, encB) {
			t.Fatalf("iteration %d: the store equals neither writer's encoding (%d bytes; want %d or %d)",
				iter, len(got), len(encA), len(encB))
		}
	}
	assertOnlyFiles(t, dir, "suite.decoded")
}

// TestWriteStoreFileCleansUpOnFailure pins the atomic-writer contract:
// when the rename (or the write itself) fails, no temp file may survive
// in the target's directory.
func TestWriteStoreFileCleansUpOnFailure(t *testing.T) {
	d := storePathfinder(t)
	// Rename onto a non-empty directory fails after a successful write.
	dir := t.TempDir()
	target := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteStoreFile(target, StoreOptions{}); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	assertOnlyFiles(t, dir, "occupied")

	// A failing writer mid-stream must also clean up (exercised through
	// the shared helper with an injected error), and the helper must
	// return that error, not swallow it.
	path := filepath.Join(dir, "failing")
	wantErr := errors.New("disk on fire")
	err := writeFileAtomic(path, func(io.Writer) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Errorf("writeFileAtomic error = %v, want the writer's own error", err)
	}
	// Neither a temp file nor the destination may exist.
	assertOnlyFiles(t, dir, "occupied")
}

// TestStoreRejectsCorruptInputs is the table-driven robustness suite for
// the store reader: every corruption fails with an error naming the
// problem (never a panic or a giant allocation), and budget violations
// fail with ErrStoreTooBig before any length-sized allocation.
func TestStoreRejectsCorruptInputs(t *testing.T) {
	valid := encodeStore(t, storePathfinder(t), StoreOptions{})

	flip := func(off int, b byte) []byte {
		c := append([]byte(nil), valid...)
		c[off] = b
		return c
	}
	// Header field offsets (see the format comment in store.go).
	const (
		offBOM      = len(storeMagicStr)
		offFlags    = offBOM + 4 + 4 + 4 + 8
		offTableLen = offFlags + 4 + 4
	)
	bigTable := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(bigTable[offTableLen:], 1<<62)

	v9 := append([]byte(nil), valid...)
	copy(v9, storeVersionPrefix+"v9\n")

	bigEndian := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(bigEndian[offBOM:], storeBOM)

	cases := []struct {
		name    string
		data    []byte
		max     uint64
		wantBig bool
		wantMsg string
	}{
		{name: "empty", data: nil},
		{name: "bad magic", data: []byte("definitely not a decoded store, not even close")},
		{name: "future version", data: v9, wantMsg: "unsupported decoded-store version"},
		{name: "big-endian writer", data: bigEndian, wantMsg: "byte-order mismatch"},
		{name: "corrupt byte-order marker", data: flip(offBOM, 0xEE), wantMsg: "byte-order marker"},
		{name: "truncated header", data: valid[:offFlags]},
		{name: "truncated table", data: valid[:offTableLen+8+4]},
		{name: "truncated payload", data: valid[:len(valid)-7]},
		{name: "oversized table length", data: bigTable, wantBig: true},
		{name: "whole store beyond budget", data: valid, max: 256, wantBig: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readStoreBytes(t, tc.data, tc.max, 0)
			if err == nil {
				t.Fatal("corrupt store accepted")
			}
			if tc.wantBig != errors.Is(err, ErrStoreTooBig) {
				t.Fatalf("error = %v, ErrStoreTooBig match = %v, want %v", err, !tc.wantBig, tc.wantBig)
			}
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error = %v, want it to mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestStoreFootprintBudget builds a tiny hand-rolled store whose header
// declares a huge lane count backed by width-0 blocks — a few hundred
// bytes on disk that would decode into gigabytes. The reader must refuse
// with ErrStoreTooBig before allocating.
func TestStoreFootprintBudget(t *testing.T) {
	var b []byte
	b = append(b, storeMagicStr...)
	b = binary.LittleEndian.AppendUint32(b, storeBOM)
	b = binary.LittleEndian.AppendUint32(b, 1) // scale
	b = binary.LittleEndian.AppendUint32(b, 2) // numSMs
	b = binary.LittleEndian.AppendUint64(b, 1) // seed
	b = binary.LittleEndian.AppendUint32(b, 0) // flags (derived omitted)
	b = binary.LittleEndian.AppendUint32(b, 1) // one kernel

	var table []byte
	table = binary.LittleEndian.AppendUint16(table, 4)
	table = append(table, "huge"...)
	table = binary.LittleEndian.AppendUint32(table, 1<<30) // records
	table = binary.LittleEndian.AppendUint32(table, 1<<31) // lanes
	table = binary.LittleEndian.AppendUint64(table, 1<<10) // tiny payload
	b = binary.LittleEndian.AppendUint64(b, uint64(len(table)))
	b = append(b, table...)
	b = append(b, make([]byte, 1<<10)...)

	_, err := readStoreBytes(t, b, 1<<20, 0)
	if !errors.Is(err, ErrStoreTooBig) {
		t.Fatalf("error = %v, want ErrStoreTooBig for a width-0 decode bomb", err)
	}
}

// TestStoreRejectsInconsistentSections corrupts section-level invariants
// (duplicate kernels, lane-count mismatches, bad unit kinds) and checks
// each is named in the error.
func TestStoreRejectsInconsistentSections(t *testing.T) {
	d := storePathfinder(t)
	k, _ := d.Kernel("pathfinder")

	dup := &Decoded{Scale: 1, NumSMs: 2, Seed: 1,
		names:   []string{"pathfinder", "pathfinder"},
		kernels: map[string]*DecodedKernel{"pathfinder": k}}
	raw := encodeStore(t, dup, StoreOptions{})
	if _, err := readStoreBytes(t, raw, 0, 0); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate kernel error = %v", err)
	}
}

// FuzzReadStoreFile drives the full store reader with arbitrary bytes,
// written to a file, under a small budget: it must never panic or
// over-allocate, and anything it accepts must re-serialize and read back
// to a fixed point.
func FuzzReadStoreFile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(storeMagicStr))
	// Seed from a valid store (and a truncation of it) so the fuzzer
	// starts inside the format instead of rediscovering the magic.
	seed, err := DecodeSet(recordPathfinder(f))
	if err != nil {
		f.Fatal(err)
	}
	var seedBuf bytes.Buffer
	if _, err := WriteDecoded(&seedBuf, seed, StoreOptions{}); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.Bytes())
	f.Add(seedBuf.Bytes()[:seedBuf.Len()/2])
	var compact bytes.Buffer
	if _, err := WriteDecoded(&compact, seed, StoreOptions{OmitDerived: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Small, yet large enough for the valid seeds' pathfinder
		// section (~2 MB decoded), so the fixed-point oracle runs on them.
		const budget = 4 << 20
		d, err := readStoreBytes(t, data, budget, 1)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := WriteDecoded(&out, d, StoreOptions{Workers: 1}); err != nil {
			t.Fatalf("accepted store failed to serialize: %v", err)
		}
		// The rewrite always stores the derived columns, so it can be
		// larger than a compact input that just squeezed under the
		// budget — read it back under a proportionally larger one.
		again, err := readStoreBytes(t, out.Bytes(), 8*budget, 1)
		if err != nil {
			t.Fatalf("accepted store failed to read back: %v", err)
		}
		var out2 bytes.Buffer
		if _, err := WriteDecoded(&out2, again, StoreOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Error("serialize/read/serialize is not a fixed point")
		}
		if !reflect.DeepEqual(d, again) {
			t.Error("read/serialize/read changed the decoded set")
		}
	})
}

// TestStoreColumnPacking exercises the block packer/unpacker directly
// across widths, block boundaries, and reference offsets.
func TestStoreColumnPacking(t *testing.T) {
	cases := [][]uint64{
		nil,
		{0},
		{42},
		{7, 7, 7, 7},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{0, ^uint64(0)},
		{1 << 63, 1<<63 + 1, 1<<63 + 2},
	}
	// A multi-block column with an outlier confined to the second block.
	big := make([]uint64, colBlock+100)
	for i := range big {
		big[i] = uint64(i % 17)
	}
	big[colBlock+5] = 1 << 40
	cases = append(cases, big)
	// Pseudo-random widths spanning byte boundaries.
	mixed := make([]uint64, 1000)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range mixed {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		mixed[i] = x >> (i % 64)
	}
	cases = append(cases, mixed)

	for i, vals := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			packed := appendColumn(nil, vals)
			out := make([]uint64, len(vals))
			pos := 0
			if err := readColumn(packed, &pos, out); err != nil {
				t.Fatal(err)
			}
			if pos != len(packed) {
				t.Errorf("unpack consumed %d of %d bytes", pos, len(packed))
			}
			for j := range vals {
				if out[j] != vals[j] {
					t.Fatalf("value %d: packed %#x, unpacked %#x", j, vals[j], out[j])
				}
			}
		})
	}
}
