package experiments

import (
	"errors"
	"io/fs"

	"st2gpu/internal/obs"
	"st2gpu/internal/trace"
)

// SuiteStore makes the decoded suite store at path available for cfg —
// the one way every CLI's -store flag reaches the file. When no file
// exists there it writes cfg's decoded baseline suite pass there,
// atomically with opts, its store.encode span going to cfg.Obs. A store
// that already exists must have been captured under cfg's scale, SM
// count and seed, or the call fails with the per-field Matches error.
//
// With load set it returns the whole decoded suite: the fresh decode
// when it built the file, else every section of the file loaded on
// cfg.SweepWorkers decode workers, its store.load span going to cfg.Obs.
// cfg.RecordMaxBytes budgets that load's payload and decoded footprint
// jointly. Without load it parses only the store's header and returns
// nil, for the sharded sweeps, whose workers load just the kernel
// sections their cells name.
func SuiteStore(cfg Config, path string, opts trace.StoreOptions, load bool) (*trace.Decoded, error) {
	dec, err := openSuiteStore(cfg, path, load)
	if !errors.Is(err, fs.ErrNotExist) {
		return dec, err
	}
	if dec, err = cfg.decoded(); err != nil {
		return nil, err
	}
	opts.Tracer = cfg.Obs
	if err := dec.WriteStoreFile(path, opts); err != nil {
		return nil, err
	}
	if !load {
		return nil, nil
	}
	return dec, nil
}

// openSuiteStore opens an existing store, checks its capture config
// against cfg and, with load set, loads every section.
func openSuiteStore(cfg Config, path string, load bool) (*trace.Decoded, error) {
	h, err := trace.OpenStore(path, cfg.RecordMaxBytes)
	if err != nil {
		return nil, err
	}
	if err := h.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil || !load {
		return nil, err
	}
	span := cfg.Obs.Begin("store.load")
	dec, err := h.LoadKernels(h.Names(), cfg.SweepWorkers)
	if err == nil {
		span.Add(
			obs.Int("kernels", int64(len(dec.Names()))),
			obs.Int("records", int64(dec.NumOps())),
			obs.Int("lanes", int64(dec.NumLanes())))
	}
	span.End()
	return dec, err
}
