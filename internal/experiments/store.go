package experiments

import (
	"errors"
	"io/fs"
	"os"

	"st2gpu/internal/trace"
)

// SuiteStore makes the decoded suite store at path available for cfg —
// the one way every CLI's -store flag reaches the file. When no file
// exists there it builds one: the suite is recorded once (RecordSuite),
// decoded once, and written atomically with opts, its store.encode span
// going to cfg.Obs. A store that already exists must have been captured
// under cfg's scale, SM count and seed, or the call fails with the
// per-field Matches error.
//
// With load set it returns the whole decoded suite: the fresh decode
// when it built the file, else the file read under cfg.RecordMaxBytes on
// cfg.SweepWorkers decode workers. Without load it parses only the
// store's header and returns nil, for the sharded sweeps, whose workers
// load just the kernel sections their cells name.
func SuiteStore(cfg Config, path string, opts trace.StoreOptions, load bool) (*trace.Decoded, error) {
	dec, err := openSuiteStore(cfg, path, load)
	if !errors.Is(err, fs.ErrNotExist) {
		return dec, err
	}
	set, err := RecordSuite(cfg)
	if err != nil {
		return nil, err
	}
	if dec, err = trace.DecodeSetTraced(set, cfg.Obs); err != nil {
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

// openSuiteStore reads an existing store (load) or parses just its
// header, and checks its capture config against cfg.
func openSuiteStore(cfg Config, path string, load bool) (*trace.Decoded, error) {
	if !load {
		h, err := trace.OpenStore(path, cfg.RecordMaxBytes)
		if err != nil {
			return nil, err
		}
		return nil, h.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec, err := trace.ReadDecoded(f, trace.ReadOptions{
		MaxBytes: cfg.RecordMaxBytes, Workers: cfg.SweepWorkers, Tracer: cfg.Obs})
	if err != nil {
		return nil, err
	}
	if err := dec.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil {
		return nil, err
	}
	return dec, nil
}
