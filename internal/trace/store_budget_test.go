package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"st2gpu/internal/gpusim"
)

// storeHeaderBytes hand-rolls a store header + one-kernel section table
// with the given declared sizes, so budget tests control the exact
// declarations under test without materializing the declared bytes.
func storeHeaderBytes(records, lanes uint32, sectLen, tableLen uint64, withTable bool) []byte {
	var b []byte
	b = append(b, storeMagicStr...)
	b = binary.LittleEndian.AppendUint32(b, storeBOM)
	b = binary.LittleEndian.AppendUint32(b, 1) // scale
	b = binary.LittleEndian.AppendUint32(b, 2) // numSMs
	b = binary.LittleEndian.AppendUint64(b, 1) // seed
	b = binary.LittleEndian.AppendUint32(b, 0) // flags (derived omitted)
	b = binary.LittleEndian.AppendUint32(b, 1) // one kernel
	if !withTable {
		b = binary.LittleEndian.AppendUint64(b, tableLen)
		return b
	}
	var table []byte
	table = binary.LittleEndian.AppendUint16(table, 4)
	table = append(table, "huge"...)
	table = binary.LittleEndian.AppendUint32(table, records)
	table = binary.LittleEndian.AppendUint32(table, lanes)
	table = binary.LittleEndian.AppendUint64(table, sectLen)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(table)))
	b = append(b, table...)
	return b
}

// TestNoLimitReadersDefaultBudget pins the budget-hardening contract:
// the store entry points given no budget (ReadDecoded with a zero
// ReadOptions.MaxBytes, ReadStoreFile, OpenStore, LoadKernels) all default to gpusim.DefaultRecordMaxBytes
// rather than an unlimited budget, so a corrupt input declaring
// gigabytes fails with ErrStoreTooBig before any length-sized
// allocation.
func TestNoLimitReadersDefaultBudget(t *testing.T) {
	writeTemp := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// A section table declared just past the 1 GiB default: every entry
	// point must refuse before allocating it.
	hugeTable := storeHeaderBytes(0, 0, 0, gpusim.DefaultRecordMaxBytes+1, false)
	hugeTablePath := writeTemp("huge_table.st2dec", hugeTable)
	if _, err := ReadDecoded(bytes.NewReader(hugeTable), ReadOptions{}); !errors.Is(err, ErrStoreTooBig) {
		t.Errorf("ReadDecoded(huge table) = %v, want ErrStoreTooBig under the default budget", err)
	}
	if _, err := ReadStoreFile(hugeTablePath); !errors.Is(err, ErrStoreTooBig) {
		t.Errorf("ReadStoreFile(huge table) = %v, want ErrStoreTooBig under the default budget", err)
	}
	if _, err := OpenStore(hugeTablePath, 0); !errors.Is(err, ErrStoreTooBig) {
		t.Errorf("OpenStore(huge table) = %v, want ErrStoreTooBig under the default budget", err)
	}

	// A decode bomb: a 1 KiB payload whose declared record/lane counts
	// would decode into >70 GiB of columns. The full readers refuse at
	// the table; the handle opens fine (it reads no payloads) but must
	// refuse the load under its default budget.
	bomb := storeHeaderBytes(1<<30, 1<<31, 1<<10, 0, true)
	bomb = append(bomb, make([]byte, 1<<10)...)
	bombPath := writeTemp("bomb.st2dec", bomb)
	if _, err := ReadDecoded(bytes.NewReader(bomb), ReadOptions{}); !errors.Is(err, ErrStoreTooBig) {
		t.Errorf("ReadDecoded(decode bomb) = %v, want ErrStoreTooBig under the default budget", err)
	}
	if _, err := ReadStoreFile(bombPath); !errors.Is(err, ErrStoreTooBig) {
		t.Errorf("ReadStoreFile(decode bomb) = %v, want ErrStoreTooBig under the default budget", err)
	}
	h, err := OpenStore(bombPath, 0)
	if err != nil {
		t.Fatalf("OpenStore(decode bomb) = %v, want success (no payload is read at open)", err)
	}
	if _, err := h.LoadKernels([]string{"huge"}, 0); !errors.Is(err, ErrStoreTooBig) {
		t.Errorf("LoadKernels(decode bomb) = %v, want ErrStoreTooBig under the default budget", err)
	}
}
