package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
)

// recordMultiKernel captures a three-kernel Set (pathfinder plus two
// micro stressors) under the standard scale-1/2-SM/seed-1 config, so
// partial loads have distinct kernels to select between.
func recordMultiKernel(t testing.TB) *Set {
	t.Helper()
	set := NewSet(1, 2, 1)
	specs := []*kernels.Spec{}
	pf, err := kernels.Pathfinder(1)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, pf)
	for i := 0; i < 2; i++ {
		sp, err := kernels.Micro(i)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	for _, spec := range specs {
		cfg := gpusim.DefaultConfig()
		cfg.NumSMs = 2
		cfg.AdderMode = gpusim.BaselineAdders
		cfg.Seed = 1
		d, err := gpusim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Setup(d.Memory()); err != nil {
			t.Fatal(err)
		}
		rec := gpusim.NewRecorder(0)
		d.SetRecorder(rec)
		if _, err := d.Launch(spec.Kernel); err != nil {
			t.Fatal(err)
		}
		set.Add(spec.Name, rec.Recording())
	}
	return set
}

// writeMultiKernelStore decodes the multi-kernel capture and persists
// it to a store file, returning the path and the in-memory reference.
func writeMultiKernelStore(t *testing.T, opts StoreOptions) (string, *Decoded) {
	t.Helper()
	dec, err := DecodeSet(recordMultiKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "multi.st2dec")
	if err := dec.WriteStoreFile(path, opts); err != nil {
		t.Fatal(err)
	}
	return path, dec
}

// TestPartialLoadMatchesFullRead pins the partial loader's contract:
// LoadKernels returns kernels DeepEqual to the same kernels from a full
// ReadStoreFile, at 1/2/8 decode workers and both omit-derived modes, for
// subsets given in any order and with duplicates.
func TestPartialLoadMatchesFullRead(t *testing.T) {
	for _, omit := range []bool{false, true} {
		path, _ := writeMultiKernelStore(t, StoreOptions{OmitDerived: omit})
		full, err := ReadStoreFile(path)
		if err != nil {
			t.Fatal(err)
		}
		names := full.Names()
		if len(names) != 3 {
			t.Fatalf("omit=%v: capture holds %d kernels, want 3", omit, len(names))
		}
		h, err := OpenStore(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h.Names(), names) {
			t.Fatalf("omit=%v: handle names %v, full-read names %v", omit, h.Names(), names)
		}
		if err := h.Matches(full.Scale, full.NumSMs, full.Seed); err != nil {
			t.Fatalf("omit=%v: handle rejects capture config: %v", omit, err)
		}
		subsets := [][]string{
			{names[0]},
			{names[2]},
			{names[2], names[0]},           // reversed request order
			{names[1], names[1], names[2]}, // duplicate request
			{names[2], names[1], names[0]}, // full suite, reversed
		}
		for _, workers := range []int{1, 2, 8} {
			for _, req := range subsets {
				part, err := h.LoadKernels(req, workers)
				if err != nil {
					t.Fatalf("omit=%v workers=%d req=%v: %v", omit, workers, req, err)
				}
				if part.Scale != full.Scale || part.NumSMs != full.NumSMs || part.Seed != full.Seed {
					t.Fatalf("omit=%v workers=%d req=%v: partial load config %d/%d/%d, want %d/%d/%d",
						omit, workers, req, part.Scale, part.NumSMs, part.Seed, full.Scale, full.NumSMs, full.Seed)
				}
				// Loaded names must follow store insertion order, deduped.
				want := []string{}
				seen := map[string]bool{}
				for _, n := range req {
					seen[n] = true
				}
				for _, n := range names {
					if seen[n] {
						want = append(want, n)
					}
				}
				if !reflect.DeepEqual(part.Names(), want) {
					t.Fatalf("omit=%v workers=%d req=%v: loaded names %v, want %v", omit, workers, req, part.Names(), want)
				}
				for _, n := range want {
					pk, ok := part.Kernel(n)
					if !ok {
						t.Fatalf("omit=%v workers=%d req=%v: kernel %q missing from partial load", omit, workers, req, n)
					}
					fk, _ := full.Kernel(n)
					if !reflect.DeepEqual(pk, fk) {
						t.Fatalf("omit=%v workers=%d req=%v: kernel %q differs between partial and full load", omit, workers, req, n)
					}
				}
			}
		}
	}
}

// TestPartialLoadErrors covers the handle's failure paths: unknown
// kernels fail naming the missing kernel, over-budget subsets fail
// with ErrStoreTooBig before any payload read, and a truncated file is
// rejected at OpenStore and by ReadStoreFile.
func TestPartialLoadErrors(t *testing.T) {
	path, full := writeMultiKernelStore(t, StoreOptions{})
	names := full.Names()

	h, err := OpenStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.LoadKernels([]string{names[0], "no_such_kernel"}, 0); err == nil {
		t.Fatal("unknown kernel: want error, got nil")
	} else if !strings.Contains(err.Error(), `missing kernel "no_such_kernel"`) {
		t.Fatalf("unknown kernel: error %q does not name the missing kernel", err)
	}

	// A budget large enough for the table but far too small for any
	// kernel's payload + decoded footprint must refuse the load (and
	// must have refused nothing at OpenStore, which reads no payloads).
	tiny, err := OpenStore(path, 4096)
	if err != nil {
		t.Fatalf("OpenStore with small budget: %v", err)
	}
	if _, err := tiny.LoadKernels(names[:1], 0); !errors.Is(err, ErrStoreTooBig) {
		t.Fatalf("over-budget load: got %v, want ErrStoreTooBig", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "truncated.st2dec")
	if err := os.WriteFile(cut, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(cut, 0); err == nil {
		t.Fatal("truncated store: want error, got nil")
	} else if !strings.Contains(err.Error(), "declares") {
		t.Fatalf("truncated store: error %q does not report the size mismatch", err)
	}
	if _, err := ReadStoreFile(cut); err == nil {
		t.Fatal("ReadStoreFile(truncated store): want error, got nil")
	} else if !strings.Contains(err.Error(), "declares") {
		t.Fatalf("ReadStoreFile(truncated store): error %q does not report the size mismatch", err)
	}
}

// FuzzOpenStore drives the shard workers' disk reader with arbitrary
// bytes written to a file: OpenStore under a small budget, then
// LoadKernels for each name its section table declares. Neither may
// panic or over-allocate, and whenever the full reader accepts the same
// bytes, every partially loaded kernel must equal the full read's.
func FuzzOpenStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(storeMagicStr))
	f.Add(storeHeaderBytes(1<<30, 1<<31, 1<<10, 0, true))
	// Seed from valid stores (and a truncation) so the fuzzer starts
	// inside the format instead of rediscovering the magic.
	seed, err := DecodeSet(recordPathfinder(f))
	if err != nil {
		f.Fatal(err)
	}
	for _, opts := range []StoreOptions{{}, {OmitDerived: true}} {
		var buf bytes.Buffer
		if _, err := WriteDecoded(&buf, seed, opts); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-7])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Small, yet large enough for the valid seeds' pathfinder
		// section (~2 MB decoded), so the equality oracle runs on them.
		const budget = 4 << 20
		path := filepath.Join(t.TempDir(), "fuzz.st2dec")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := OpenStore(path, budget)
		if err != nil {
			return
		}
		full, fullErr := readStorePath(t, path, budget, 1)
		for _, name := range h.Names() {
			part, err := h.LoadKernels([]string{name}, 1)
			if err != nil || fullErr != nil {
				continue
			}
			pk, _ := part.Kernel(name)
			fk, _ := full.Kernel(name)
			if !reflect.DeepEqual(pk, fk) {
				t.Fatalf("kernel %q differs between LoadKernels and the full read", name)
			}
		}
	})
}
