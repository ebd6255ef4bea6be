package trace

import "st2gpu/internal/gpusim"

// Set is an ordered collection of named per-kernel recordings plus their
// capture configuration: the in-memory result of one suite capture,
// which DecodeSet turns into the decoded form that sweeps evaluate and
// the store persists. A recording is only a valid stand-in for a live
// trace of the same (scale, SM count, seed) workload, so those travel
// with it and are stamped onto the decoded form.
type Set struct {
	Scale  int
	NumSMs int
	Seed   int64

	names []string
	recs  map[string]*gpusim.Recording
}

// NewSet builds an empty recording set for the given capture config.
func NewSet(scale, numSMs int, seed int64) *Set {
	return &Set{Scale: scale, NumSMs: numSMs, Seed: seed, recs: make(map[string]*gpusim.Recording)}
}

// Add stores a kernel's recording (replacing any previous entry with the
// same name; first-add order is preserved).
func (s *Set) Add(name string, rec *gpusim.Recording) {
	if _, ok := s.recs[name]; !ok {
		s.names = append(s.names, name)
	}
	s.recs[name] = rec
}

// Get returns the named kernel's recording.
func (s *Set) Get(name string) (*gpusim.Recording, bool) {
	r, ok := s.recs[name]
	return r, ok
}

// Names returns the kernel names in insertion order.
func (s *Set) Names() []string { return append([]string(nil), s.names...) }

// Bytes returns the total encoded size across all recordings.
func (s *Set) Bytes() uint64 {
	var n uint64
	for _, name := range s.names {
		n += s.recs[name].Bytes()
	}
	return n
}

// NumOps returns the total recorded warp-add records across all kernels.
func (s *Set) NumOps() uint64 {
	var n uint64
	for _, name := range s.names {
		n += s.recs[name].NumOps()
	}
	return n
}
