package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"unsafe"

	"st2gpu/internal/experiments"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/obs"
	"st2gpu/internal/speculate"
	"st2gpu/internal/trace"
)

// digestJSON is the canonical-JSON sha256 of a driver's rows (map keys
// sorted, floats in shortest round-trip form), truncated to 128 bits.
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

func experimentsConfig(e env) experiments.Config {
	cfg := experiments.Default()
	cfg.Scale = e.scale
	cfg.NumSMs = numSMs
	cfg.Seed = e.seed
	return cfg
}

// buildSuite builds every suite kernel once — the workload's input
// generation — so a kernel that cannot be built fails before timing.
func buildSuite(sw *stopwatch, root *obs.ActiveSpan, scale int, oc *outcome) {
	for _, w := range kernels.Suite() {
		err := sw.timed(root, "kernels.build", func(*obs.ActiveSpan) error {
			spec, err := w.Build(scale)
			if err != nil {
				return err
			}
			return spec.Kernel.Validate()
		}, obs.Str("kernel", w.Name))
		oc.op("build "+w.Name, err)
	}
}

func setupErr(oc outcome) error {
	if len(oc.errs) > 0 {
		return fmt.Errorf("setup: %s", oc.errs[0])
	}
	return nil
}

// --- repro: every figure, table and ablation driver ---

// reproDriver is one driver call of the repro workload. Its span is
// experiments.<span>; its time adds to experiments.<metric>_s.
type reproDriver struct {
	span, metric string
	call         func(cfg experiments.Config) (any, error)
}

func pair[A, B any](a A, b B, err error) (any, error) { return [2]any{a, b}, err }

// reproDrivers is the fixed driver order of the repro workload.
var reproDrivers = []reproDriver{
	{"fig1", "fig1", func(c experiments.Config) (any, error) { return experiments.Fig1(c) }},
	{"fig2", "fig2", func(c experiments.Config) (any, error) { return experiments.Fig2(c, 37, 30) }},
	{"fig3", "fig3", func(c experiments.Config) (any, error) { return experiments.Fig3(c) }},
	{"fig5", "fig5", func(c experiments.Config) (any, error) { return experiments.Fig5(c, nil) }},
	{"fig6", "fig6", func(c experiments.Config) (any, error) { return experiments.Fig6(c) }},
	{"fig7", "fig7", func(c experiments.Config) (any, error) { return pair(experiments.Fig7(c)) }},
	{"perf_overhead", "perf_overhead", func(c experiments.Config) (any, error) { return experiments.PerfOverhead(c) }},
	{"power_validation", "power_validation", func(c experiments.Config) (any, error) {
		return pair(experiments.PowerValidation(c, 0.06))
	}},
	{"approx", "approx", func(c experiments.Config) (any, error) { return experiments.ApproximateAdderStudy(c) }},
	{"ablation_peek", "ablation_peek", func(c experiments.Config) (any, error) { return experiments.AblationPeek(c) }},
	{"ablation_contention", "ablation_contention", func(c experiments.Config) (any, error) { return experiments.AblationContention(c) }},
	{"ablation_crf_size", "ablation_crf_size", func(c experiments.Config) (any, error) { return experiments.AblationCRFSize(c, nil) }},
	{"ablation_sharing", "ablation_sharing", func(c experiments.Config) (any, error) { return experiments.AblationSharing(c) }},
	{"ablation_xor_hash", "ablation_xor_hash", func(c experiments.Config) (any, error) { return experiments.AblationXORHash(c) }},
	{"ablation_history_depth", "ablation_history_depth", func(c experiments.Config) (any, error) { return experiments.AblationHistoryDepth(c) }},
	{"slice_width_dse", "circuit_tables", func(experiments.Config) (any, error) { return pair(experiments.SliceWidthDSE()) }},
	{"overheads", "circuit_tables", func(experiments.Config) (any, error) { return experiments.Overheads(0) }},
	{"technology_scaling", "circuit_tables", func(experiments.Config) (any, error) { return experiments.TechnologyScaling(nil) }},
}

type repro struct{ e env }

func newRepro(e env) instance { return &repro{e: e} }

func (r *repro) setup(sw *stopwatch, root *obs.ActiveSpan) (outcome, error) {
	var oc outcome
	buildSuite(sw, root, r.e.scale, &oc)
	return oc, setupErr(oc)
}

func (r *repro) body(sw *stopwatch, root *obs.ActiveSpan) outcome {
	var oc outcome
	cfg := experimentsConfig(r.e)
	rows := make([]any, len(reproDrivers))
	for i, d := range reproDrivers {
		err := sw.timed(root, "experiments."+d.span, func(*obs.ActiveSpan) error {
			var err error
			rows[i], err = d.call(cfg)
			return err
		})
		if oc.op(d.span, err) {
			oc.digest("repro/"+d.span, digestJSON(rows[i]))
		}
	}
	return oc
}

func (r *repro) rootAttrs() []obs.Attr { return nil }

// --- simulate: every suite kernel under both adder modes ---

type simulate struct{ e env }

func newSimulate(e env) instance { return &simulate{e: e} }

func (s *simulate) setup(sw *stopwatch, root *obs.ActiveSpan) (outcome, error) {
	var oc outcome
	buildSuite(sw, root, s.e.scale, &oc)
	return oc, setupErr(oc)
}

func (s *simulate) body(sw *stopwatch, root *obs.ActiveSpan) outcome {
	var oc outcome
	for _, w := range kernels.Suite() {
		for _, mode := range []gpusim.AdderMode{gpusim.BaselineAdders, gpusim.ST2Adders} {
			key := w.Name + "/" + mode.String()
			ks := root.Child("kernel", obs.Str("kernel", w.Name), obs.Str(attrMode, mode.String()))
			rs, err := s.launch(sw, ks, w, mode)
			ks.End()
			if oc.op(key, err) {
				var mis uint64
				for _, u := range rs.Units {
					mis += u.ThreadMispredicts
				}
				oc.digest("simulate/"+key, fmt.Sprintf("cycles=%d thread_instrs=%d mispredicts=%d",
					rs.Cycles, rs.TotalThreadInstrs(), mis))
			}
		}
	}
	return oc
}

// launch runs one kernel the way a user of the simulator does: build the
// spec, make a fresh device, stage the inputs, launch, verify the outputs.
func (s *simulate) launch(sw *stopwatch, ks *obs.ActiveSpan, w kernels.Workload, mode gpusim.AdderMode) (*gpusim.RunStats, error) {
	var spec *kernels.Spec
	if err := sw.timed(ks, "kernels.build", func(*obs.ActiveSpan) error {
		var err error
		spec, err = w.Build(s.e.scale)
		return err
	}); err != nil {
		return nil, err
	}
	dc := gpusim.DefaultConfig()
	dc.NumSMs = numSMs
	dc.AdderMode = mode
	dc.Seed = s.e.seed
	var d *gpusim.Device
	if err := sw.timed(ks, "gpusim.new", func(*obs.ActiveSpan) error {
		var err error
		d, err = gpusim.New(dc)
		return err
	}); err != nil {
		return nil, err
	}
	if spec.Setup != nil {
		if err := sw.timed(ks, "kernels.setup", func(*obs.ActiveSpan) error {
			return spec.Setup(d.Memory())
		}); err != nil {
			return nil, err
		}
	}
	var rs *gpusim.RunStats
	if err := sw.timed(ks, "gpusim.launch", func(sp *obs.ActiveSpan) error {
		var err error
		if rs, err = d.Launch(spec.Kernel); err != nil {
			return err
		}
		sp.Add(
			obs.Int("thread_instrs", int64(rs.TotalThreadInstrs())),
			obs.Int("cycles", int64(rs.Cycles)),
			obs.Int("simulate_ns", int64(d.LaunchTimings().Simulate)))
		return nil
	}, obs.Str(attrMode, mode.String())); err != nil {
		return nil, err
	}
	if spec.Verify != nil {
		if err := sw.timed(ks, "kernels.verify", func(*obs.ActiveSpan) error {
			return spec.Verify(d.Memory())
		}); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	return rs, nil
}

func (s *simulate) rootAttrs() []obs.Attr { return nil }

// --- sweep: the store read path, batched evaluation and shards ---

type sweep struct {
	e       env
	path    string // the store the latest setup wrote
	records int64  // warp-add records in the store
}

func newSweep(e env) instance {
	return &sweep{e: e, path: filepath.Join(e.tmpDir, "suite.st2dec")}
}

// setup builds the store fresh: record the suite, decode it, encode it.
// It keeps a digest of the decoded form rather than the form itself, so
// the body's peak RSS is the read path's alone.
func (s *sweep) setup(sw *stopwatch, root *obs.ActiveSpan) (outcome, error) {
	var oc outcome
	cfg := experimentsConfig(s.e)
	var set *trace.Set
	err := sw.timed(root, "gpusim.record", func(sp *obs.ActiveSpan) error {
		var err error
		if set, err = experiments.RecordSuite(cfg); err != nil {
			return err
		}
		sp.Add(obs.Int("records", int64(set.NumOps())), obs.Int("bytes", int64(set.Bytes())))
		return nil
	})
	if !oc.op("record", err) {
		return oc, setupErr(oc)
	}
	var dec *trace.Decoded
	err = sw.timed(root, "trace.decode_set", func(*obs.ActiveSpan) error {
		var err error
		dec, err = trace.DecodeSet(set)
		return err
	})
	if !oc.op("decode", err) {
		return oc, setupErr(oc)
	}
	var size int64
	err = sw.timed(root, "trace.write_store_file", func(sp *obs.ActiveSpan) error {
		if err := dec.WriteStoreFile(s.path, trace.StoreOptions{}); err != nil {
			return err
		}
		st, err := os.Stat(s.path)
		if err != nil {
			return err
		}
		size = st.Size()
		sp.Add(obs.Int("store_bytes", size))
		return nil
	})
	if !oc.op("encode", err) {
		return oc, setupErr(oc)
	}
	s.records = int64(set.NumOps())
	oc.digest("sweep/recorded_ops", fmt.Sprint(set.NumOps()))
	oc.digest("sweep/recorded_bytes", fmt.Sprint(set.Bytes()))
	oc.digest("sweep/store_bytes", fmt.Sprint(size))
	// The body's loaded store carries the same key, so it must equal this.
	oc.digest("sweep/decoded", decodedDigest(dec))
	return oc, nil
}

// evalDesigns is the records × designs factor of one body: Fig5 over the
// whole design space in process and again over the shards, plus Fig3.
func evalDesigns() int64 { return int64(2*len(speculate.DesignSpace) + len(trace.Fig3Designs)) }

func (s *sweep) rootAttrs() []obs.Attr {
	return []obs.Attr{obs.Int("records", s.records), obs.Int("eval_ops", s.records*evalDesigns())}
}

func (s *sweep) body(sw *stopwatch, root *obs.ActiveSpan) outcome {
	var oc outcome
	cfg := experimentsConfig(s.e)

	var loaded *trace.Decoded
	err := sw.timed(root, "trace.read_store_file", func(*obs.ActiveSpan) error {
		var err error
		loaded, err = trace.ReadStoreFile(s.path)
		return err
	})
	if !oc.op("load", err) {
		return oc
	}
	oc.digest("sweep/decoded", decodedDigest(loaded))

	var fig5 []experiments.Fig5Row
	err = sw.timed(root, "experiments.fig5_from_decoded", func(*obs.ActiveSpan) error {
		var err error
		fig5, err = experiments.Fig5FromDecoded(cfg, loaded, nil)
		return err
	}, obs.Int("eval_ops", s.records*int64(len(speculate.DesignSpace))))
	if oc.op("fig5", err) {
		oc.digest("sweep/fig5", digestJSON(fig5))
	}

	var fig3 []experiments.Fig3Row
	err = sw.timed(root, "experiments.fig3_from_decoded", func(*obs.ActiveSpan) error {
		var err error
		fig3, err = experiments.Fig3FromDecoded(cfg, loaded)
		return err
	}, obs.Int("eval_ops", s.records*int64(len(trace.Fig3Designs))))
	if oc.op("fig3", err) {
		oc.digest("sweep/fig3", digestJSON(fig3))
	}

	var h *trace.StoreHandle
	err = sw.timed(root, "trace.open_store", func(*obs.ActiveSpan) error {
		var err error
		h, err = trace.OpenStore(s.path, 0)
		return err
	})
	if oc.op("open store", err) {
		for _, name := range loaded.Names() {
			var part *trace.Decoded
			err := sw.timed(root, "trace.load_kernels", func(*obs.ActiveSpan) error {
				var err error
				part, err = h.LoadKernels([]string{name}, 0)
				return err
			}, obs.Str("kernel", name))
			if !oc.op("partial load "+name, err) {
				continue
			}
			full, _ := loaded.Kernel(name)
			got, ok := part.Kernel(name)
			switch {
			case !ok || len(part.Names()) != 1:
				oc.errs = append(oc.errs, fmt.Sprintf("partial load %s returned kernels %v", name, part.Names()))
			case !sameKernel(got, full):
				oc.errs = append(oc.errs, fmt.Sprintf("partial load %s differs from its full-load kernel", name))
			}
		}
	}
	// The shard workers load their own copies; drop this one first.
	loaded = nil

	var sharded []experiments.Fig5Row
	err = sw.timed(root, "experiments.fig5_sharded", func(*obs.ActiveSpan) error {
		var err error
		sharded, err = fig5Sharded(cfg, s.path)
		return err
	})
	if oc.op("fig5 sharded", err) && fig5 != nil && !reflect.DeepEqual(sharded, fig5) {
		oc.errs = append(oc.errs, "sharded Fig5 rows differ from the in-process rows")
	}
	return oc
}

// fig5Sharded runs Fig5Sharded over two in-process shard workers, each
// served on a pair of pipes with one sweep worker.
func fig5Sharded(cfg experiments.Config, path string) ([]experiments.Fig5Row, error) {
	cfg.SweepWorkers = 1
	const shards = 2
	conns := make([]*experiments.ShardConn, shards)
	var wg sync.WaitGroup
	for i := range conns {
		coordR, workerW := io.Pipe()
		workerR, coordW := io.Pipe()
		conns[i] = &experiments.ShardConn{
			Name: fmt.Sprintf("pipe-%d", i), R: coordR, W: coordW,
			C: pipeCloser{coordR, coordW},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's error only matters when the sweep fails, and
			// the sweep reports that itself.
			_ = experiments.ServeShardWorker(workerR, workerW)
			workerW.Close()
			workerR.Close()
		}()
	}
	rows, err := experiments.Fig5Sharded(cfg, path, nil, conns, experiments.ShardOptions{})
	experiments.CloseShardConns(conns)
	wg.Wait()
	return rows, err
}

type pipeCloser struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (p pipeCloser) Close() error {
	p.w.Close()
	return p.r.Close()
}

// decodedDigest is the sha256 of a decoded set — stamp, kernel order and
// every column of every kernel, in host byte order — truncated to 128
// bits. Two sets with equal digests are equal column for column.
func decodedDigest(d *trace.Decoded) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %q\n", d.Scale, d.NumSMs, d.Seed, d.Names())
	for _, name := range d.Names() {
		k, _ := d.Kernel(name)
		hashColumn(h, k.Kind)
		hashColumn(h, k.PC)
		hashColumn(h, k.GtidBase)
		hashColumn(h, k.Active)
		hashColumn(h, k.Cin)
		hashColumn(h, k.Off)
		hashColumn(h, k.EA)
		hashColumn(h, k.EB)
		hashColumn(h, k.Sum)
		hashColumn(h, k.Carries)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func hashColumn[T ~int | ~uint32 | ~uint64](h hash.Hash, col []T) {
	fmt.Fprintf(h, "%d:", len(col))
	if len(col) > 0 {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&col[0])), len(col)*int(unsafe.Sizeof(col[0]))))
	}
}

// sameKernel compares every column of two decoded kernels: what
// reflect.DeepEqual checks, at memcmp speed on the multi-million-element
// lane columns.
func sameKernel(a, b *trace.DecodedKernel) bool {
	return slices.Equal(a.Kind, b.Kind) && slices.Equal(a.PC, b.PC) &&
		slices.Equal(a.GtidBase, b.GtidBase) && slices.Equal(a.Active, b.Active) &&
		slices.Equal(a.Cin, b.Cin) && slices.Equal(a.Off, b.Off) &&
		slices.Equal(a.EA, b.EA) && slices.Equal(a.EB, b.EB) &&
		slices.Equal(a.Sum, b.Sum) && slices.Equal(a.Carries, b.Carries)
}
