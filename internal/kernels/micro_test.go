package kernels

import (
	"reflect"
	"testing"

	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/isa"
)

// microFullWords is the input buffer every stressor used to stage: the
// whole 4 MiB at AddrIn0, whatever its family reads.
const microFullWords = 1 << 20

// stageMicro returns a Setup that writes data at AddrIn0 and clears the
// atomics bins. With the full 1M-word input stream it is the original
// stressor Setup.
func stageMicro(data []uint32) func(m *gpusim.Memory) error {
	return func(m *gpusim.Memory) error {
		if err := m.WriteU32s(AddrIn0, data); err != nil {
			return err
		}
		return m.WriteU32s(AddrOut1, make([]uint32, 64))
	}
}

// microRun is everything a launch of a stressor produces that the power
// calibration or a reader of its outputs can see.
type microRun struct {
	rs     *gpusim.RunStats
	prices map[core.UnitKind]core.EnergyParams
	out    []uint32 // one accumulator per thread at AddrOut0
	bins   []uint32 // the atomics bins at AddrOut1
}

// runMicro launches spec with the given setup on the device the power
// calibration uses (two SMs, baseline adders).
func runMicro(t *testing.T, spec *Spec, setup func(m *gpusim.Memory) error) microRun {
	t.Helper()
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.AdderMode = gpusim.BaselineAdders
	cfg.Seed = 1
	d, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup(d.Memory()); err != nil {
		t.Fatalf("%s setup: %v", spec.Name, err)
	}
	rs, err := d.Launch(spec.Kernel)
	if err != nil {
		t.Fatalf("%s launch: %v", spec.Name, err)
	}
	out, err := d.Memory().ReadU32s(AddrOut0, spec.Kernel.GridDim*spec.Kernel.BlockDim)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := d.Memory().ReadU32s(AddrOut1, 64)
	if err != nil {
		t.Fatal(err)
	}
	return microRun{rs: rs, prices: d.Prices(), out: out, bins: bins}
}

func sameMicroRun(t *testing.T, name, what string, got, want microRun) {
	t.Helper()
	if !reflect.DeepEqual(got.rs, want.rs) {
		t.Errorf("%s: RunStats differ %s", name, what)
	}
	if !reflect.DeepEqual(got.prices, want.prices) {
		t.Errorf("%s: device prices differ %s", name, what)
	}
	if !reflect.DeepEqual(got.out, want.out) || !reflect.DeepEqual(got.bins, want.bins) {
		t.Errorf("%s: outputs differ %s", name, what)
	}
}

// microReach is the number of AddrIn0 words stressor i's Setup stages.
func microReach(t *testing.T, i int, spec *Spec) int {
	t.Helper()
	fam := microFamilies[i%len(microFamilies)]
	if fam.inWords == nil {
		return 0
	}
	iters := 8 * (i/len(microFamilies) + 1)
	n := fam.inWords(spec.Kernel.GridDim*spec.Kernel.BlockDim, iters)
	if n < 0 || n > microFullWords {
		t.Fatalf("%s: reach %d words outside [0, %d]", spec.Name, n, microFullWords)
	}
	return n
}

// Staging only the prefix of the input stream a family can read must not
// change anything the calibration sees: every stressor's RunStats, device
// prices and outputs match the run with the full 4 MiB buffer.
//
// The same pass checks that each family's declared reach covers the
// highest AddrIn0 word its program loads: every stressor that reads
// AddrIn0 also runs with the full buffer's words past its reach poisoned
// (each replaced by its complement). A load from any of them would
// change the accumulator it feeds, so that run too must match the
// full-buffer run.
func TestMicroSizedInputsMatchFullBuffer(t *testing.T) {
	for i := 0; i < NumMicro; i++ {
		spec, err := Micro(i)
		if err != nil {
			t.Fatal(err)
		}
		data := microInput(i, microFullWords)
		full := runMicro(t, spec, stageMicro(data))
		sized := runMicro(t, spec, spec.Setup)
		sameMicroRun(t, spec.Name, "between full and sized inputs", sized, full)

		reach := microReach(t, i, spec)
		if reach == 0 {
			continue // TestMicroReachlessFamiliesLoadNothing covers these
		}
		for j := reach; j < len(data); j++ {
			data[j] = ^data[j]
		}
		poisoned := runMicro(t, spec, stageMicro(data))
		sameMicroRun(t, spec.Name, "with the words past its reach poisoned", poisoned, full)
	}
}

// A family that declares no input reach must issue no global load.
func TestMicroReachlessFamiliesLoadNothing(t *testing.T) {
	for f, fam := range microFamilies {
		if fam.inWords != nil {
			continue
		}
		spec, err := Micro(f)
		if err != nil {
			t.Fatal(err)
		}
		for pc, in := range spec.Kernel.Program.Instrs {
			if in.Op == isa.OpLd && in.Space == isa.Global {
				t.Errorf("%s: global load at pc %d but the family declares no input reach", fam.name, pc)
			}
		}
	}
}
