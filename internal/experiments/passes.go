package experiments

import (
	"strconv"
	"sync"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/obs"
	"st2gpu/internal/trace"
)

// passKey names one suite pass: the workload scale, the recording cap
// and the effective device configuration. ParallelSMs is zeroed because
// results are bit-identical at any SM-worker count, and a zero
// CRFEntries reads as the 16 entries it means.
type passKey struct {
	scale  int
	recCap uint64
	dc     gpusim.Config
}

// suitePass is one launch of every suite kernel under one device config,
// its results in suite order. A baseline pass also keeps each kernel's
// recorded add stream. A pass holds no device, so each launch's memory
// is freed when it ends.
type suitePass struct {
	dc    gpusim.Config
	ready sync.WaitGroup // released once runs, recs and err are set
	err   error
	runs  []run
	recs  []*gpusim.Recording
}

// passMemo holds the suite passes of one Default() value and its copies,
// plus the decoded form of one recorded pass. The decoded form takes 32
// bytes per lane, about nine times its recording, so it is dropped
// whenever a suite pass launches: simulation garbage and the decoded
// stream are never live together, which keeps the peak heap where one
// figure's decode puts it. The benchmark's driver order decodes three
// times.
type passMemo struct {
	mu     sync.Mutex
	passes map[passKey]*suitePass

	decMu sync.Mutex
	decOf *suitePass
	dec   *trace.Decoded
}

func (c Config) passKey(dc gpusim.Config) passKey {
	dc.ParallelSMs = 0
	if dc.CRFEntries == 0 {
		dc.CRFEntries = 16
	}
	return passKey{scale: c.Scale, recCap: c.RecordMaxBytes, dc: dc}
}

// suite returns the suite pass of every device config in dcs, in dcs
// order. A pass the memo already holds is reused, after waiting for it
// if another driver is still running it; the rest launch together on
// one runGrid pool. A Config literal has no memo, so each call shares
// passes only within itself.
func (c Config) suite(dcs ...gpusim.Config) ([]*suitePass, error) {
	m := c.memo
	if m == nil {
		m = new(passMemo)
	}
	out := make([]*suitePass, len(dcs))
	var todo []*suitePass
	m.mu.Lock()
	if m.passes == nil {
		m.passes = make(map[passKey]*suitePass)
	}
	for i, dc := range dcs {
		k := c.passKey(dc)
		if m.passes[k] == nil {
			m.passes[k] = &suitePass{dc: dc}
			m.passes[k].ready.Add(1)
			todo = append(todo, m.passes[k])
		}
		out[i] = m.passes[k]
	}
	m.mu.Unlock()
	if len(todo) > 0 {
		m.decMu.Lock()
		m.dec = nil
		m.decMu.Unlock()
	}
	if c.Metrics != nil {
		c.Metrics.Counter("experiments.suite_passes.reused").Add(uint64(len(dcs) - len(todo)))
	}
	c.runPasses(todo)
	for _, p := range out {
		p.ready.Wait()
		if p.err != nil {
			return nil, p.err
		}
	}
	return out, nil
}

// runPasses launches every suite kernel under each pass's device config
// on one runGrid pool, so no pass waits for another's slowest kernel,
// then releases the passes. Progress counts kernels over all of them. A
// baseline pass also records each kernel's stream. Each pass keeps the
// error of its first failing kernel in suite order, and emits one
// experiments.suite_pass span.
func (c Config) runPasses(ps []*suitePass) {
	ws := kernels.Suite()
	n, total := len(ws), len(ps)*len(ws)
	spans := make([]*obs.ActiveSpan, len(ps))
	for i, p := range ps {
		defer p.ready.Done()
		p.runs = make([]run, n)
		if p.dc.AdderMode == gpusim.BaselineAdders {
			p.recs = make([]*gpusim.Recording, n)
		}
		spans[i] = c.Obs.Begin("experiments.suite_pass", c.passAttrs(p.dc)...)
	}
	if c.Metrics != nil {
		c.Metrics.Counter("experiments.suite_passes.run").Add(uint64(len(ps)))
	}
	errs := make([]error, total)
	var mu sync.Mutex
	done := 0
	_ = runGrid(0, total, func(_, cell int) error {
		w := ws[cell%n]
		errs[cell] = c.launchPassKernel(ps[cell/n], cell%n, w)
		if c.Progress != nil {
			mu.Lock()
			done++
			c.Progress(done, total, w.Name)
			mu.Unlock()
		}
		return nil
	})
	for i, p := range ps {
		for _, err := range errs[i*n : (i+1)*n] {
			if err != nil && p.err == nil {
				p.err = err
			}
		}
		spans[i].End()
	}
}

// launchPassKernel runs suite kernel k of pass p and stores its results.
func (c Config) launchPassKernel(p *suitePass, k int, w kernels.Workload) error {
	spec, err := w.Build(c.Scale)
	if err != nil {
		return err
	}
	var rec *gpusim.Recorder
	if p.recs != nil {
		rec = gpusim.NewRecorder(c.RecordMaxBytes)
	}
	if p.runs[k], err = c.runSpec(spec, p.dc, rec); err != nil {
		return err
	}
	if rec != nil {
		p.recs[k] = rec.Recording()
	}
	return nil
}

// passAttrs names a pass on its span: its adder mode and each ablated
// field that differs from the mode's default device config.
func (c Config) passAttrs(dc gpusim.Config) []obs.Attr {
	def := c.deviceConfig(dc.AdderMode)
	attrs := []obs.Attr{obs.Str("mode", dc.AdderMode.String())}
	if dc.DisablePeek != def.DisablePeek {
		attrs = append(attrs, obs.Str("disable_peek", strconv.FormatBool(dc.DisablePeek)))
	}
	if dc.UseCRF != def.UseCRF {
		attrs = append(attrs, obs.Str("use_crf", strconv.FormatBool(dc.UseCRF)))
	}
	if c.passKey(dc).dc.CRFEntries != c.passKey(def).dc.CRFEntries {
		attrs = append(attrs, obs.Int("crf_entries", int64(dc.CRFEntries)))
	}
	return attrs
}

// set returns a recorded pass's streams as a trace.Set tagged with c's
// capture configuration.
func (p *suitePass) set(c Config) *trace.Set {
	set := trace.NewSet(c.Scale, c.NumSMs, c.Seed)
	for i, w := range kernels.Suite() {
		set.Add(w.Name, p.recs[i])
	}
	return set
}

// decoded returns the default baseline pass's add streams in decoded
// form, with the trace.decode_set span going to c.Obs. The memo keeps it
// until the next suite pass launches; a Config literal decodes on every
// call.
func (c Config) decoded() (*trace.Decoded, error) {
	ps, err := c.suite(c.deviceConfig(gpusim.BaselineAdders))
	if err != nil {
		return nil, err
	}
	m := c.memo
	if m == nil {
		return trace.DecodeSetTraced(ps[0].set(c), c.Obs)
	}
	m.decMu.Lock()
	defer m.decMu.Unlock()
	if m.dec == nil || m.decOf != ps[0] {
		dec, err := trace.DecodeSetTraced(ps[0].set(c), c.Obs)
		if err != nil {
			return nil, err
		}
		m.dec, m.decOf = dec, ps[0]
	}
	return m.dec, nil
}
