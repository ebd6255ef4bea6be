// Package runlog writes the structured JSONL run manifest: one event
// per kernel launch, carrying the device configuration, a full RunStats
// snapshot (including the observability histograms), wall-clock phase
// timings, host info, and build version. Manifests are append-only JSON
// Lines, so manifests can be diffed across runs with line-oriented
// tools and parsed by any JSON reader.
package runlog

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/metrics"
	"st2gpu/internal/stats"
)

// Schema is the manifest line format identifier; bump on incompatible
// changes to Event. v2 is additive over v1: run events gain a "type"
// discriminator ("run") and the manifest may interleave "spans" lines
// (SpanEvent) — v1 readers that decode run events by field name still
// parse every v2 run line, and skip span lines by checking "type".
const Schema = "st2gpu.runlog/v2"

// TypeRun and TypeSpans discriminate manifest line shapes in v2.
const (
	TypeRun   = "run"
	TypeSpans = "spans"
)

// Event is one manifest line: everything needed to reproduce and to
// diff a single kernel launch.
type Event struct {
	Schema  string     `json:"schema"`
	Type    string     `json:"type"`
	Seq     int        `json:"seq"`
	UnixMS  int64      `json:"unix_ms"`
	Kernel  string     `json:"kernel"`
	Mode    string     `json:"mode"`
	Config  ConfigSnap `json:"config"`
	Host    Host       `json:"host"`
	Version string     `json:"version"`
	Phases  PhaseSnap  `json:"phases"`
	Stats   RunSnap    `json:"stats"`
	// Metrics is the installed registry's snapshot at log time —
	// cumulative across launches when one registry serves a whole sweep.
	Metrics map[string]any `json:"metrics,omitempty"`
}

// ConfigSnap is the launch-relevant subset of gpusim.Config plus the
// experiment-level workload scale.
type ConfigSnap struct {
	Name            string `json:"name"`
	NumSMs          int    `json:"num_sms"`
	SchedulersPerSM int    `json:"schedulers_per_sm"`
	MaxWarpsPerSM   int    `json:"max_warps_per_sm"`
	MaxBlocksPerSM  int    `json:"max_blocks_per_sm"`
	Scheduler       string `json:"scheduler"`
	AdderMode       string `json:"adder_mode"`
	SliceBits       uint   `json:"slice_bits"`
	Speculation     string `json:"speculation"`
	UseCRF          bool   `json:"use_crf"`
	CRFEntries      int    `json:"crf_entries"`
	Seed            int64  `json:"seed"`
	ParallelSMs     int    `json:"parallel_sms"`
	Scale           int    `json:"scale"`
}

// Host describes the machine a manifest line was produced on.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	Hostname  string `json:"hostname"`
}

// PhaseSnap is the wall-clock phase breakdown in seconds.
type PhaseSnap struct {
	SetupS    float64 `json:"setup_s"`
	SimulateS float64 `json:"simulate_s"`
	FoldS     float64 `json:"fold_s"`
	VerifyS   float64 `json:"verify_s"`
	TotalS    float64 `json:"total_s"`
}

// HistSnap serializes a fixed-bucket histogram with its derived moments.
type HistSnap struct {
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
	Mean   float64  `json:"mean"`
	Max    int      `json:"max"`
}

// UnitSnap is one ST² unit family's statistics.
type UnitSnap struct {
	WarpOps           uint64  `json:"warp_ops"`
	StalledWarpOps    uint64  `json:"stalled_warp_ops"`
	ThreadOps         uint64  `json:"thread_ops"`
	ThreadMispredicts uint64  `json:"thread_mispredicts"`
	MispredRate       float64 `json:"mispred_rate"`
	SliceComputations uint64  `json:"slice_computations"`
	RecomputedSlices  uint64  `json:"recomputed_slices"`
	EnergyST2         float64 `json:"energy_st2_j"`
	EnergyBaseline    float64 `json:"energy_baseline_j"`
}

// CacheSnap is one cache level's counters.
type CacheSnap struct {
	Accesses uint64  `json:"accesses"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}

// CRFSnap is the Carry Register File's activity including the per-row
// occupancy views.
type CRFSnap struct {
	Reads           uint64   `json:"reads"`
	WriteRequests   uint64   `json:"write_requests"`
	WritesCommitted uint64   `json:"writes_committed"`
	Conflicts       uint64   `json:"conflicts"`
	LaneBitsWritten uint64   `json:"lane_bits_written"`
	RowReads        []uint64 `json:"row_reads,omitempty"`
	RowDistinctPCs  []uint64 `json:"row_distinct_pcs,omitempty"`
}

// RunSnap is the JSON shape of gpusim.RunStats.
type RunSnap struct {
	Cycles            uint64              `json:"cycles"`
	SMsUsed           int                 `json:"sms_used"`
	PerSMCycles       []uint64            `json:"per_sm_cycles"`
	CycleImbalance    float64             `json:"cycle_imbalance"`
	WarpInstrs        map[string]uint64   `json:"warp_instrs"`
	ThreadInstrs      map[string]uint64   `json:"thread_instrs"`
	TotalThreadInstrs uint64              `json:"total_thread_instrs"`
	SIMDEfficiency    float64             `json:"simd_efficiency"`
	MispredRate       float64             `json:"mispred_rate"`
	Units             map[string]UnitSnap `json:"units"`
	BaselineAdderOps  map[string]uint64   `json:"baseline_adder_ops"`
	CRF               CRFSnap             `json:"crf"`
	RegReads          uint64              `json:"reg_reads"`
	RegWrites         uint64              `json:"reg_writes"`
	SharedAccesses    uint64              `json:"shared_accesses"`
	ParamAccesses     uint64              `json:"param_accesses"`
	L1                CacheSnap           `json:"l1"`
	L2                CacheSnap           `json:"l2"`
	DRAMAccesses      uint64              `json:"dram_accesses"`
	AtomicLaneOps     uint64              `json:"atomic_lane_ops"`
	ST2StallCycles    uint64              `json:"st2_stall_cycles"`
	RecomputeHist     *HistSnap           `json:"recompute_hist,omitempty"`
	MispredLanesHist  *HistSnap           `json:"mispred_lanes_hist,omitempty"`
}

// CollectHost captures the current machine's identity.
func CollectHost() Host {
	hn, _ := os.Hostname()
	return Host{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Hostname:  hn,
	}
}

// Version returns the build's VCS revision ("rev" or "rev-dirty") from
// the embedded build info. Outside a VCS-stamped build (go test, go run
// of a tree built without stamping) it degrades through the module
// version (e.g. "(devel)") and then the toolchain version, so manifests
// still record which build produced them; "unknown" only appears when
// the binary carries no build info at all.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		if v := bi.Main.Version; v != "" {
			return v
		}
		if bi.GoVersion != "" {
			return bi.GoVersion
		}
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

// Logger writes manifest events as JSON Lines. Safe for concurrent use;
// sequence numbers follow write order.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	seq int

	// Host, Version, and Now are capture points overridable for
	// deterministic tests; New fills them with the live values.
	Host    Host
	Version string
	Now     func() time.Time
}

// New creates a Logger writing to w with live host/version/clock info.
func New(w io.Writer) *Logger {
	return &Logger{w: w, Host: CollectHost(), Version: Version(), Now: time.Now}
}

// Log stamps ev with schema, sequence number, host, version, and time,
// then writes it as one JSON line. Events containing NaN or Inf floats
// fail to encode — a NaN statistic is a regression the manifest is
// supposed to catch, so the error is surfaced, not sanitized.
func (l *Logger) Log(ev *Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev.Schema = Schema
	ev.Type = TypeRun
	ev.Seq = l.seq
	ev.Host = l.Host
	ev.Version = l.Version
	ev.UnixMS = l.Now().UnixMilli()
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("runlog: encoding %s event: %w", ev.Kernel, err)
	}
	line = append(line, '\n')
	if _, err := l.w.Write(line); err != nil {
		return fmt.Errorf("runlog: writing event: %w", err)
	}
	l.seq++
	return nil
}

// LogRun assembles and writes the manifest event for one launch. reg may
// be nil (no registry snapshot in the event).
func (l *Logger) LogRun(scale int, cfg gpusim.Config, rs *gpusim.RunStats, ph gpusim.PhaseTimings, reg *metrics.Registry) error {
	ev := NewEvent(scale, cfg, rs, ph)
	if reg != nil {
		ev.Metrics = reg.Snapshot()
	}
	return l.Log(ev)
}

// NewEvent builds the unstamped event for one launch (Log fills schema,
// seq, host, version, and time).
func NewEvent(scale int, cfg gpusim.Config, rs *gpusim.RunStats, ph gpusim.PhaseTimings) *Event {
	return &Event{
		Kernel: rs.Kernel,
		Mode:   rs.Mode.String(),
		Config: ConfigSnap{
			Name:            cfg.Name,
			NumSMs:          cfg.NumSMs,
			SchedulersPerSM: cfg.SchedulersPerSM,
			MaxWarpsPerSM:   cfg.MaxWarpsPerSM,
			MaxBlocksPerSM:  cfg.MaxBlocksPerSM,
			Scheduler:       cfg.Scheduler.String(),
			AdderMode:       cfg.AdderMode.String(),
			SliceBits:       cfg.SliceBits,
			Speculation:     cfg.Speculation,
			UseCRF:          cfg.UseCRF,
			CRFEntries:      cfg.CRFEntries,
			Seed:            cfg.Seed,
			ParallelSMs:     cfg.ParallelSMs,
			Scale:           scale,
		},
		Phases: PhaseSnap{
			SetupS:    ph.Setup.Seconds(),
			SimulateS: ph.Simulate.Seconds(),
			FoldS:     ph.Fold.Seconds(),
			VerifyS:   ph.Verify.Seconds(),
			TotalS:    ph.Total().Seconds(),
		},
		Stats: snapRun(rs),
	}
}

func snapRun(rs *gpusim.RunStats) RunSnap {
	warp := make(map[string]uint64, len(rs.WarpInstrs))
	for c, v := range rs.WarpInstrs { //st2:det-ok re-keying into a map: distinct keys hit distinct cells and encoding/json renders maps in sorted key order
		warp[c.String()] = v
	}
	thread := make(map[string]uint64, len(rs.ThreadInstrs))
	for c, v := range rs.ThreadInstrs { //st2:det-ok re-keying into a map: distinct keys hit distinct cells and encoding/json renders maps in sorted key order
		thread[c.String()] = v
	}
	units := make(map[string]UnitSnap, len(rs.Units))
	for k, u := range rs.Units { //st2:det-ok re-keying into a map: distinct keys hit distinct cells and encoding/json renders maps in sorted key order
		units[k.String()] = UnitSnap{
			WarpOps:           u.WarpOps,
			StalledWarpOps:    u.StalledWarpOps,
			ThreadOps:         u.ThreadOps,
			ThreadMispredicts: u.ThreadMispredicts,
			MispredRate:       u.ThreadMispredictionRate(),
			SliceComputations: u.SliceComputations,
			RecomputedSlices:  u.RecomputedSlices,
			EnergyST2:         u.EnergyST2,
			EnergyBaseline:    u.EnergyBaseline,
		}
	}
	base := make(map[string]uint64, len(rs.BaselineAdderOps))
	for k, v := range rs.BaselineAdderOps { //st2:det-ok re-keying into a map: distinct keys hit distinct cells and encoding/json renders maps in sorted key order
		base[k.String()] = v
	}
	return RunSnap{
		Cycles:            rs.Cycles,
		SMsUsed:           rs.SMsUsed,
		PerSMCycles:       rs.PerSMCycles,
		CycleImbalance:    rs.CycleImbalance(),
		WarpInstrs:        warp,
		ThreadInstrs:      thread,
		TotalThreadInstrs: rs.TotalThreadInstrs(),
		SIMDEfficiency:    rs.SIMDEfficiency(),
		MispredRate:       rs.MispredictionRate(),
		Units:             units,
		BaselineAdderOps:  base,
		CRF: CRFSnap{
			Reads:           rs.CRF.Reads,
			WriteRequests:   rs.CRF.WriteRequests,
			WritesCommitted: rs.CRF.WritesCommitted,
			Conflicts:       rs.CRF.Conflicts,
			LaneBitsWritten: rs.CRF.LaneBitsWritten,
			RowReads:        rs.CRF.RowReads,
			RowDistinctPCs:  rs.CRF.RowDistinctPCs,
		},
		RegReads:         rs.RegReads,
		RegWrites:        rs.RegWrites,
		SharedAccesses:   rs.SharedAccesses,
		ParamAccesses:    rs.ParamAccesses,
		L1:               snapCache(rs.L1),
		L2:               snapCache(rs.L2),
		DRAMAccesses:     rs.DRAMAccesses,
		AtomicLaneOps:    rs.AtomicLaneOps,
		ST2StallCycles:   rs.ST2StallCycles,
		RecomputeHist:    snapHist(rs.RecomputeHist),
		MispredLanesHist: snapHist(rs.MispredLanesHist),
	}
}

func snapCache(c gpusim.CacheStats) CacheSnap {
	return CacheSnap{Accesses: c.Accesses, Hits: c.Hits, Misses: c.Misses, HitRate: c.HitRate()}
}

func snapHist(h *stats.Histogram) *HistSnap {
	if h == nil {
		return nil
	}
	counts := make([]uint64, len(h.Counts))
	copy(counts, h.Counts)
	return &HistSnap{Counts: counts, Total: h.Total(), Mean: h.Mean(), Max: h.Max()}
}
