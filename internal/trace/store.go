// The on-disk columnar decoded-trace store: st2gpu.decoded/v1.
//
// The store is the one on-disk trace format. A Decoded set is the
// decode-once structure-of-arrays form of a suite capture — every sweep
// strategy walks its flat columns. The store persists exactly those
// columns so a sweep process pays the simulation and the varint decode
// (and the carry/sum reconstruction behind it) once, ever: loading is a
// sequential read of bit-packed columns, not a re-decode.
//
// Layout (all fixed-width integers little-endian):
//
//	magic    "st2gpu.decoded/v1\n"            (18 bytes)
//	bom      uint32 = 0x01020304              (byte-order tripwire)
//	scale    uint32  │
//	numSMs   uint32  │ capture config — checked field by field by
//	seed     uint64  │ Decoded.Matches and StoreHandle.Matches
//	flags    uint32  (bit0: Sum columns stored, bit1: Carries stored)
//	kernels  uint32
//	tableLen uint64  (section-table bytes, budget-checked before read)
//
// then the section table — per kernel, in Set insertion order:
//
//	nameLen  uint16, name bytes
//	records  uint32, lanes uint32   (column lengths, sanity-checked)
//	sectLen  uint64                 (payload bytes, budget-checked)
//
// then the section payloads, concatenated in table order. A section is
// the kernel's columns back to back, each encoded as frame-of-reference
// + narrow-width bit-packing in blocks of colBlock values (ref uint64,
// width byte, then ceil(n·width/8) packed bytes — one operand outlier
// widens at most its own block):
//
//	Kind, ΔPC (zigzag), ΔGtidBase (zigzag), Active, Cin   over records
//	EA, EB                                                over lanes
//	Sum, Carries (iff stored by flags)                    over lanes
//
// Off is never stored: it is the prefix sum of popcount(Active). When
// the writer omitted Sum/Carries (StoreOptions.OmitDerived), the loader
// recomputes them exactly as decodeKernel does, so the loaded Decoded is
// bit-identical to DecodeSet output either way. Sections encode and load
// on a bounded worker pool and fold in insertion order, so the bytes and
// the loaded form are independent of the worker count.
//
// Version policy: any wire change bumps the magic (…/v2) and this
// package keeps reading every version it ever wrote or fails with an
// error naming both versions — a store is a cache of a simulation, so a
// reader that cannot load one rebuilds it rather than guessing.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/obs"
)

// storeMagic names the format and its version; storeVersionPrefix lets
// the reader distinguish "not a store at all" from "a store this build
// is too old (or too new) to read".
const (
	storeVersionPrefix = "st2gpu.decoded/"
	storeMagicStr      = storeVersionPrefix + "v1\n"
	storeBOM           = uint32(0x01020304)
)

// Store header flag bits.
const (
	storeHasSum     = 1 << 0
	storeHasCarries = 1 << 1
)

// colBlock is the FOR/bit-packing block size: small enough that one
// outlier operand widens only its own 4096 values, large enough that the
// 9-byte block header amortizes away.
const colBlock = 4096

// ErrStoreTooBig marks a store whose declared section-table or column
// payload lengths exceed the reader's byte budget. It fires before any
// length-sized allocation, so a corrupt or hostile header cannot trigger
// a multi-GiB make.
var ErrStoreTooBig = errors.New("trace: decoded store exceeds byte budget")

// maxKernelNameLen caps a section-table kernel name; kernel names are
// short identifiers, so anything larger marks a corrupt table.
const maxKernelNameLen = 4096

// StoreOptions parameterizes WriteDecoded and Decoded.WriteStoreFile.
type StoreOptions struct {
	// OmitDerived drops the Sum and Carries columns from the file; loads
	// recompute them from EA/EB/Cin (smaller file, slower load). Either
	// way the loaded Decoded is bit-identical to DecodeSet output.
	OmitDerived bool
	// Workers bounds the section-encode worker pool (0 = GOMAXPROCS).
	// The written bytes are identical at any count.
	Workers int
	// Tracer, when non-nil, receives a store.encode span annotated with
	// the kernel, record, lane, and byte totals. Observability only: the
	// written bytes are identical without it.
	Tracer *obs.Tracer
}

// storeWorkers resolves a worker-count knob.
func storeWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// --- column encoding ---

// appendColumn appends vals as FOR/bit-packed blocks.
func appendColumn(dst []byte, vals []uint64) []byte {
	for lo := 0; lo < len(vals); lo += colBlock {
		hi := lo + colBlock
		if hi > len(vals) {
			hi = len(vals)
		}
		block := vals[lo:hi]
		ref := block[0]
		for _, v := range block {
			if v < ref {
				ref = v
			}
		}
		var maxDelta uint64
		for _, v := range block {
			if d := v - ref; d > maxDelta {
				maxDelta = d
			}
		}
		width := uint(bits.Len64(maxDelta))
		dst = binary.LittleEndian.AppendUint64(dst, ref)
		dst = append(dst, byte(width))
		if width == 0 {
			continue
		}
		var acc uint64
		var nb uint
		for _, v := range block {
			d := v - ref
			acc |= d << nb
			if nb+width >= 64 {
				dst = binary.LittleEndian.AppendUint64(dst, acc)
				acc = d >> (64 - nb) // 0 when nb == 0 (Go over-shift)
				nb = nb + width - 64
			} else {
				nb += width
			}
		}
		for nb > 0 {
			dst = append(dst, byte(acc))
			acc >>= 8
			if nb >= 8 {
				nb -= 8
			} else {
				nb = 0
			}
		}
	}
	return dst
}

// le64Padded reads 8 little-endian bytes at i, zero-padding past the end
// of b — the tail of a packed block spans fewer than 8 real bytes.
func le64Padded(b []byte, i int) uint64 {
	if i+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var v uint64
	for k := 0; k < 8 && i+k < len(b); k++ {
		v |= uint64(b[i+k]) << (8 * uint(k))
	}
	return v
}

// readColumn unpacks len(out) values from buf at *pos, advancing it.
func readColumn(buf []byte, pos *int, out []uint64) error {
	for lo := 0; lo < len(out); lo += colBlock {
		hi := lo + colBlock
		if hi > len(out) {
			hi = len(out)
		}
		n := hi - lo
		if len(buf)-*pos < 9 {
			return fmt.Errorf("truncated column block header at offset %d", *pos)
		}
		ref := binary.LittleEndian.Uint64(buf[*pos:])
		width := uint(buf[*pos+8])
		*pos += 9
		if width > 64 {
			return fmt.Errorf("column block declares %d-bit values (max 64)", width)
		}
		block := out[lo:hi]
		if width == 0 {
			for i := range block {
				block[i] = ref
			}
			continue
		}
		plen := (n*int(width) + 7) / 8
		if len(buf)-*pos < plen {
			return fmt.Errorf("column block declares %d packed bytes with %d present", plen, len(buf)-*pos)
		}
		packed := buf[*pos : *pos+plen]
		*pos += plen
		unpackBlock(packed, width, ref, block)
	}
	return nil
}

// unpackBlock is the store loader's hot loop: it undoes one appendColumn
// block. Narrow widths (the common case — deltas, masks, FOR-reduced
// operands) stream through a 64-bit reservoir refilled 32 bits at a
// time, ~one load per two values; wide values take two unchecked loads
// each. Both paths are branch-predictable: no data-dependent branch sits
// inside either loop.
func unpackBlock(packed []byte, width uint, ref uint64, block []uint64) {
	mask := bitmath.Mask(width)
	plen := len(packed)
	if width <= 32 {
		var res uint64 // bit reservoir, low nb bits valid
		var nb uint
		s := 0
		for i := range block {
			if nb < width {
				if s+4 <= plen {
					res |= uint64(binary.LittleEndian.Uint32(packed[s:])) << nb
					s += 4
					nb += 32
				} else {
					// Tail: at most the last few values. The encoder wrote
					// every one of the block's n·width bits, so byte-wise
					// refill always reaches nb ≥ width before s runs out.
					for s < plen && nb <= 56 {
						res |= uint64(packed[s]) << nb
						s++
						nb += 8
					}
				}
			}
			block[i] = ref + (res & mask)
			res >>= width
			nb -= width
		}
		return
	}
	// Wide values: a 9-byte window covers any (shift, width ≤ 64) pair.
	// The OR of the ninth byte is unconditional — when shift+width ≤ 64
	// its bits land at positions ≥ width and the mask strips them (and a
	// shift by 64 is 0 by Go's shift semantics).
	fast := 0
	if plen >= 9 {
		fast = ((plen-9)*8)/int(width) + 1
		if fast > len(block) {
			fast = len(block)
		}
	}
	bitpos := uint(0)
	for i := 0; i < fast; i++ {
		p := packed[bitpos>>3 : bitpos>>3+9]
		shift := bitpos & 7
		v := binary.LittleEndian.Uint64(p)>>shift | uint64(p[8])<<(64-shift)
		block[i] = ref + (v & mask)
		bitpos += width
	}
	for i := fast; i < len(block); i++ {
		byteIdx := int(bitpos >> 3)
		shift := bitpos & 7
		v := le64Padded(packed, byteIdx) >> shift
		if shift+width > 64 && byteIdx+8 < plen {
			v |= uint64(packed[byteIdx+8]) << (64 - shift)
		}
		block[i] = ref + (v & mask)
		bitpos += width
	}
}

// --- section encoding ---

// encodeSection serializes one kernel's columns.
func encodeSection(k *DecodedKernel, omitDerived bool) []byte {
	nrec := k.NumRecords()
	scratch := make([]uint64, nrec)
	// Rough estimate: masks/kinds pack tightly, operands dominate.
	dst := make([]byte, 0, 8*k.NumLanes()+4*nrec+64)

	for i, kind := range k.Kind {
		scratch[i] = uint64(kind)
	}
	dst = appendColumn(dst, scratch)
	var prev uint32
	for i, pc := range k.PC {
		scratch[i] = zigzag64(int64(pc) - int64(prev))
		prev = pc
	}
	dst = appendColumn(dst, scratch)
	prev = 0
	for i, base := range k.GtidBase {
		scratch[i] = zigzag64(int64(base) - int64(prev))
		prev = base
	}
	dst = appendColumn(dst, scratch)
	for i, a := range k.Active {
		scratch[i] = uint64(a)
	}
	dst = appendColumn(dst, scratch)
	for i, c := range k.Cin {
		scratch[i] = uint64(c)
	}
	dst = appendColumn(dst, scratch)

	dst = appendColumn(dst, k.EA)
	dst = appendColumn(dst, k.EB)
	if !omitDerived {
		dst = appendColumn(dst, k.Sum)
		dst = appendColumn(dst, k.Carries)
	}
	return dst
}

// decodeSection rebuilds one kernel from its columns. The result is
// bit-identical to decodeKernel's output for the same stream.
func decodeSection(buf []byte, nrec, nlanes int, hasSum, hasCarries bool) (*DecodedKernel, error) {
	k := &DecodedKernel{
		Kind:     make([]core.UnitKind, nrec),
		PC:       make([]uint32, nrec),
		GtidBase: make([]uint32, nrec),
		Active:   make([]uint32, nrec),
		Cin:      make([]uint32, nrec),
		Off:      make([]uint32, nrec+1),
		EA:       make([]uint64, nlanes),
		EB:       make([]uint64, nlanes),
		Sum:      make([]uint64, nlanes),
		Carries:  make([]uint64, nlanes),
	}
	pos := 0
	scratch := make([]uint64, nrec)

	if err := readColumn(buf, &pos, scratch); err != nil {
		return nil, fmt.Errorf("kind column: %w", err)
	}
	for i, v := range scratch {
		if v >= uint64(len(core.UnitKinds)) {
			return nil, fmt.Errorf("kind column: record %d declares unit kind %d", i, v)
		}
		k.Kind[i] = core.UnitKind(v)
	}
	if err := readColumn(buf, &pos, scratch); err != nil {
		return nil, fmt.Errorf("pc column: %w", err)
	}
	var prev uint32
	for i, v := range scratch {
		prev = uint32(int64(prev) + unzigzag64(v))
		k.PC[i] = prev
	}
	if err := readColumn(buf, &pos, scratch); err != nil {
		return nil, fmt.Errorf("gtidBase column: %w", err)
	}
	prev = 0
	for i, v := range scratch {
		prev = uint32(int64(prev) + unzigzag64(v))
		k.GtidBase[i] = prev
	}
	if err := readColumn(buf, &pos, scratch); err != nil {
		return nil, fmt.Errorf("active column: %w", err)
	}
	var laneTotal uint64
	for i, v := range scratch {
		if v == 0 || v > uint64(^uint32(0)) {
			return nil, fmt.Errorf("active column: record %d mask %#x is empty or wider than a warp", i, v)
		}
		k.Active[i] = uint32(v)
		laneTotal += uint64(bits.OnesCount32(uint32(v)))
		k.Off[i+1] = uint32(laneTotal)
	}
	if laneTotal != uint64(nlanes) {
		return nil, fmt.Errorf("active masks hold %d lanes, section header declares %d", laneTotal, nlanes)
	}
	if err := readColumn(buf, &pos, scratch); err != nil {
		return nil, fmt.Errorf("cin column: %w", err)
	}
	for i, v := range scratch {
		if v > uint64(^uint32(0)) {
			return nil, fmt.Errorf("cin column: record %d mask %#x is wider than a warp", i, v)
		}
		k.Cin[i] = uint32(v)
	}

	if err := readColumn(buf, &pos, k.EA); err != nil {
		return nil, fmt.Errorf("ea column: %w", err)
	}
	if err := readColumn(buf, &pos, k.EB); err != nil {
		return nil, fmt.Errorf("eb column: %w", err)
	}
	if hasSum {
		if err := readColumn(buf, &pos, k.Sum); err != nil {
			return nil, fmt.Errorf("sum column: %w", err)
		}
	}
	if hasCarries {
		if err := readColumn(buf, &pos, k.Carries); err != nil {
			return nil, fmt.Errorf("carries column: %w", err)
		}
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("section holds %d trailing bytes", len(buf)-pos)
	}
	if !hasSum || !hasCarries {
		deriveLaneColumns(k, !hasSum, !hasCarries)
	}
	return k, nil
}

// deriveLaneColumns recomputes the Sum and/or Carries columns exactly as
// decodeKernel does: Sum = EA + EB + Cin0 over the unit width, Carries =
// the packed 8-bit-slice boundary carry-outs of the full 64-bit add.
func deriveLaneColumns(k *DecodedKernel, sum, carries bool) {
	j := 0
	for i, kind := range k.Kind {
		width := widthOf(kind)
		for m := k.Active[i]; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			cin := uint(k.Cin[i] >> l & 1)
			if sum {
				k.Sum[j], _ = bitmath.AddWithCarry(k.EA[j], k.EB[j], cin, width)
			}
			if carries {
				k.Carries[j] = bitmath.BoundaryCarriesPacked(k.EA[j], k.EB[j], cin, 64, 8)
			}
			j++
		}
	}
}

// --- writer ---

// WriteDecoded serializes the decoded set in st2gpu.decoded/v1 form.
// Deterministic: equal sets (and equal OmitDerived settings) write equal
// bytes at any opts.Workers count.
func WriteDecoded(w io.Writer, d *Decoded, opts StoreOptions) (int64, error) {
	span := opts.Tracer.Begin("store.encode", obs.Int("kernels", int64(len(d.names))))

	// Encode every section on the bounded pool; sections land in
	// insertion-order slots, so the write below is schedule-independent.
	sections := make([][]byte, len(d.names))
	sem := make(chan struct{}, storeWorkers(opts.Workers))
	var wg sync.WaitGroup
	for i, name := range d.names {
		i, k := i, d.kernels[name]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sections[i] = encodeSection(k, opts.OmitDerived)
		}()
	}
	wg.Wait()

	flags := uint32(0)
	if !opts.OmitDerived {
		flags = storeHasSum | storeHasCarries
	}
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, storeMagicStr...)
	hdr = binary.LittleEndian.AppendUint32(hdr, storeBOM)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.Scale))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.NumSMs))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.Seed))
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(d.names)))

	var table []byte
	for i, name := range d.names {
		k := d.kernels[name]
		table = binary.LittleEndian.AppendUint16(table, uint16(len(name)))
		table = append(table, name...)
		table = binary.LittleEndian.AppendUint32(table, uint32(k.NumRecords()))
		table = binary.LittleEndian.AppendUint32(table, uint32(k.NumLanes()))
		table = binary.LittleEndian.AppendUint64(table, uint64(len(sections[i])))
	}
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(table)))

	var total int64
	for _, chunk := range append([][]byte{hdr, table}, sections...) {
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			span.End()
			return total, err
		}
	}
	span.Add(
		obs.Int("bytes", total),
		obs.Int("records", int64(d.NumOps())),
		obs.Int("lanes", int64(d.NumLanes())))
	span.End()
	return total, nil
}

// WriteStoreFile saves the decoded set to path atomically (a uniquely
// named sibling temp file renamed into place; on any write, close, or
// rename failure the temp file is removed, so a crashed or failed writer
// never leaves a partial store behind, and concurrent writers of one
// path never share a temp file).
func (d *Decoded) WriteStoreFile(path string, opts StoreOptions) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		_, err := WriteDecoded(w, d, opts)
		return err
	})
}

// writeFileAtomic writes a file via a sibling temp file renamed into
// place, so readers never observe a partial write. On any failure —
// write, sync, close, or the rename itself — the temp file is removed
// and the first error is returned; a failed writer leaves nothing
// behind. The data is fsynced before the rename and the parent
// directory after it: rename-without-sync can survive a crash as a
// zero-length or absent file even though the write "succeeded". Each
// call writes its own temp file, so concurrent writers of one path
// never truncate each other's data: the last rename wins whole.
func writeFileAtomic(path string, write func(w io.Writer) error) error {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// tempSeq numbers this process's temp files; with the process ID it
// gives every writer of a path its own temp name.
var tempSeq atomic.Uint64

// createTemp creates a new, uniquely named sibling of path. Unlike
// os.CreateTemp, which always uses mode 0600, it creates the file with
// mode 0666 masked by the umask, exactly as os.Create does, so a store
// stays readable by the other users and hosts shard workers run as.
// O_EXCL turns a name collision (a leftover from a crashed writer, or a
// writer on another host sharing the directory) into a retry under the
// next name instead of a shared file.
func createTemp(path string) (*os.File, error) {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.%d-%d.tmp", path, os.Getpid(), tempSeq.Add(1))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil || !errors.Is(err, fs.ErrExist) || i == 1000 {
			return f, err
		}
	}
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// platforms refuse to sync directories; those errors are ignored — the
// rename itself is still atomic there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.EBADF) {
		return err
	}
	return nil
}

// --- reader ---

// storeEntry is one parsed section-table row.
type storeEntry struct {
	name    string
	records int
	lanes   int
	sectLen uint64
}

// storeInfo is the parsed header + section table of a store: everything
// a reader needs to know before touching any section payload. headerLen
// is the byte length of magic + fixed header + table — the file offset
// of the first section payload.
type storeInfo struct {
	scale, numSMs int
	seed          int64
	flags         uint32
	entries       []storeEntry
	payloadTotal  uint64 // Σ declared section bytes
	headerLen     int64
}

// readStoreInfo parses the store header and section table from r,
// leaving r positioned at the first section payload. Every table row is
// sanity-checked (name length, duplicates, lane/record consistency) and
// the table itself is budget-checked before it is allocated. When
// wholeFile is set the whole store is held to checkLoadBudget, as a
// LoadKernels of every kernel would be; a partial loader (StoreHandle)
// instead budgets each LoadKernels call over just its requested
// sections, so a store bigger than one worker's budget can still be
// read a slice at a time.
func readStoreInfo(r io.Reader, maxBytes uint64, wholeFile bool) (*storeInfo, error) {
	magic := make([]byte, len(storeMagicStr))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("trace: store header: %w", err)
	}
	if string(magic) != storeMagicStr {
		if strings.HasPrefix(string(magic), storeVersionPrefix) {
			return nil, fmt.Errorf("trace: unsupported decoded-store version %q (this build reads %q); regenerate the store",
				strings.TrimSpace(string(magic)), strings.TrimSpace(storeMagicStr))
		}
		return nil, fmt.Errorf("trace: not an st2gpu.decoded store (bad magic %q)", magic)
	}
	var fixed [36]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("trace: store header: %w", err)
	}
	bom := binary.LittleEndian.Uint32(fixed[0:])
	if bom != storeBOM {
		if bits.ReverseBytes32(bom) == storeBOM {
			return nil, fmt.Errorf("trace: store byte-order mismatch (written as big-endian, this build reads little-endian)")
		}
		return nil, fmt.Errorf("trace: corrupt store byte-order marker %#x (want %#x)", bom, storeBOM)
	}
	info := &storeInfo{
		scale:  int(int32(binary.LittleEndian.Uint32(fixed[4:]))),
		numSMs: int(int32(binary.LittleEndian.Uint32(fixed[8:]))),
		seed:   int64(binary.LittleEndian.Uint64(fixed[12:])),
		flags:  binary.LittleEndian.Uint32(fixed[20:]),
	}
	nkern := binary.LittleEndian.Uint32(fixed[24:])
	tableLen := binary.LittleEndian.Uint64(fixed[28:])

	if tableLen > maxBytes {
		return nil, fmt.Errorf("trace: store declares a %d-byte section table with a %d-byte budget: %w",
			tableLen, maxBytes, ErrStoreTooBig)
	}
	// The kernel count sizes the entry slice and the dedup map below, so
	// it gets its own bound before any allocation: every table row is at
	// least 2 bytes (the name-length prefix), so a count the
	// budget-checked table cannot physically hold is corrupt, not big.
	if uint64(nkern) > tableLen/2 {
		return nil, fmt.Errorf("trace: store declares %d kernels but its %d-byte section table cannot hold them",
			nkern, tableLen)
	}
	table := make([]byte, tableLen)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, fmt.Errorf("trace: store section table: %w", err)
	}
	info.headerLen = int64(len(storeMagicStr)) + int64(len(fixed)) + int64(tableLen)

	// Parse and sanity-check every table row before any section payload
	// or column allocation: declared payload bytes plus the decoded column
	// footprint stay under the budget (full loads), and lane counts
	// must be consistent with record counts (1..32 active lanes per
	// record).
	info.entries = make([]storeEntry, 0, nkern)
	seen := make(map[string]bool, nkern)
	var footprint uint64
	pos := 0
	for i := uint32(0); i < nkern; i++ {
		if len(table)-pos < 2 {
			return nil, fmt.Errorf("trace: store section table truncated at entry %d", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(table[pos:]))
		pos += 2
		if nameLen > maxKernelNameLen || len(table)-pos < nameLen+16 {
			return nil, fmt.Errorf("trace: store section table entry %d truncated or name too long (%d bytes)", i, nameLen)
		}
		name := string(table[pos : pos+nameLen])
		pos += nameLen
		records := binary.LittleEndian.Uint32(table[pos:])
		lanes := binary.LittleEndian.Uint32(table[pos+4:])
		sectLen := binary.LittleEndian.Uint64(table[pos+8:])
		pos += 16
		if seen[name] {
			return nil, fmt.Errorf("trace: store declares kernel %q twice", name)
		}
		seen[name] = true
		if uint64(lanes) < uint64(records) || uint64(lanes) > 32*uint64(records) {
			return nil, fmt.Errorf("trace: store kernel %q declares %d lanes for %d records (want 1..32 per record)",
				name, lanes, records)
		}
		if sectLen > uint64(1)<<62-info.payloadTotal {
			// Every reader refuses absurd declared lengths: the payload
			// total must stay far below int64 so section offset
			// arithmetic cannot overflow.
			return nil, fmt.Errorf("trace: store kernel %q declares a %d-byte section: %w", name, sectLen, ErrStoreTooBig)
		}
		info.payloadTotal += sectLen
		if wholeFile {
			// The decoded footprint counts too, so a tiny file full of
			// width-0 blocks cannot demand gigabytes.
			footprint += entryFootprint(int(records), int(lanes))
			if err := checkLoadBudget(len(info.entries)+1, info.payloadTotal, footprint, maxBytes); err != nil {
				return nil, err
			}
		}
		info.entries = append(info.entries, storeEntry{name: name, records: int(records), lanes: int(lanes), sectLen: sectLen})
	}
	if pos != len(table) {
		return nil, fmt.Errorf("trace: store section table holds %d trailing bytes", len(table)-pos)
	}
	return info, nil
}

// checkLoadBudget is the one budget rule of both load paths: a load of
// kernels sections must fit its payload bytes plus their decoded column
// footprint in maxBytes, or it fails with ErrStoreTooBig.
func checkLoadBudget(kernels int, payload, footprint, maxBytes uint64) error {
	if payload > maxBytes || footprint > maxBytes-payload {
		return fmt.Errorf("trace: store load of %d kernels declares %d payload + %d footprint bytes with a %d-byte budget: %w",
			kernels, payload, footprint, maxBytes, ErrStoreTooBig)
	}
	return nil
}

// entryFootprint is the decoded in-memory cost of one kernel's columns:
// ~21 bytes per record of mask/offset columns plus four 8-byte lane
// columns.
func entryFootprint(records, lanes int) uint64 {
	return 21*uint64(records) + 32*uint64(lanes)
}

// decodeSections decodes the given sections on a bounded pool and folds
// them, in entries order, into a Decoded stamped with the store's capture
// config. payload(i) returns entries[i]'s payload bytes; it runs on the
// worker that decodes the section, and nothing keeps the bytes once the
// section's columns are built.
func (info *storeInfo) decodeSections(entries []storeEntry, payload func(i int) ([]byte, error), workers int) (*Decoded, error) {
	d := &Decoded{
		Scale: info.scale, NumSMs: info.numSMs, Seed: info.seed,
		names:   make([]string, len(entries)),
		kernels: make(map[string]*DecodedKernel, len(entries)),
	}
	decoded := make([]*DecodedKernel, len(entries))
	errs := make([]error, len(entries))
	sem := make(chan struct{}, storeWorkers(workers))
	var wg sync.WaitGroup
	for i, ent := range entries {
		i, ent := i, ent
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			buf, err := payload(i)
			if err != nil {
				errs[i] = fmt.Errorf("trace: store kernel %q payload: %w", ent.name, err)
				return
			}
			k, err := decodeSection(buf, ent.records, ent.lanes,
				info.flags&storeHasSum != 0, info.flags&storeHasCarries != 0)
			if err != nil {
				errs[i] = fmt.Errorf("trace: store kernel %q: %w", ent.name, err)
				return
			}
			decoded[i] = k
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, ent := range entries {
		d.names[i] = ent.name
		d.kernels[ent.name] = decoded[i]
	}
	return d, nil
}

// ReadStoreFile loads a store saved by WriteStoreFile under the default
// byte budget with GOMAXPROCS section-decode workers: the one full-load
// path. Its section table must fit the budget, and so must its section
// payloads plus their decoded column footprint, together — the budget a
// LoadKernels of every kernel is held to; otherwise it fails with
// ErrStoreTooBig before allocating them. Like LoadKernels it refuses a file whose size
// differs from its section table, reads each section at its offset and
// returns after a full collection.
func ReadStoreFile(path string) (*Decoded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, err := newStoreHandle(f, gpusim.DefaultRecordMaxBytes, true)
	if err != nil {
		return nil, err
	}
	return collected(h.readSections(f, h.info.entries, h.offsets, 0))
}

// --- zigzag helpers (the recording encoder's delta transform) ---

func zigzag64(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag64(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
