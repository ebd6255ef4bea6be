package speculate

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"st2gpu/internal/adder"
	"st2gpu/internal/bitmath"
)

var g64 = Geometry{Width: 64, SliceBits: 8}

func TestGeometry(t *testing.T) {
	if g64.Boundaries() != 7 {
		t.Errorf("64/8 boundaries = %d", g64.Boundaries())
	}
	if (Geometry{Width: 24, SliceBits: 8}).Boundaries() != 2 {
		t.Error("24/8 boundaries wrong")
	}
	if err := g64.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if err := (Geometry{Width: 8, SliceBits: 8}).Validate(); err == nil {
		t.Error("single-slice geometry has nothing to speculate; want error")
	}
	if err := (Geometry{Width: 0, SliceBits: 8}).Validate(); err == nil {
		t.Error("zero width should error")
	}
	if GeometryOf(adder.Config{Width: 52, SliceBits: 8}).Boundaries() != 6 {
		t.Error("GeometryOf wrong")
	}
}

func TestStaticPredictors(t *testing.T) {
	z := NewStaticZero(g64)
	o := NewStaticOne(g64)
	ctx := laneCtx{EA: 123, EB: 456}
	if p := predictOne(t, z, ctx); p.Carries != 0 || p.Static != 0 {
		t.Errorf("staticZero predicted %v", p)
	}
	if p := predictOne(t, o, ctx); p.Carries != 0x7F || p.Static != 0 {
		t.Errorf("staticOne predicted %v, want carries 0x7F", p)
	}
	updateOne(z, ctx, 0x7F, true) // no-op
	if p := predictOne(t, z, ctx); p.Carries != 0 {
		t.Error("static predictor must be stateless")
	}
}

// Peek's static resolutions must never be wrong: whenever PeekPlanes claims
// a boundary, the claimed value equals the true boundary carry.
func TestPeekGuaranteedCorrect(t *testing.T) {
	f := func(a, b uint64, cinRaw bool) bool {
		cin := uint(0)
		if cinRaw {
			cin = 1
		}
		static, values := peekOne(g64, a, b)
		truth := bitmath.BoundaryCarriesPacked(a, b, cin, 64, 8)
		return (truth^values)&static == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestPeekKnownCases(t *testing.T) {
	// All slice MSBs zero → every boundary statically 0.
	static, values := peekOne(g64, 0, 0)
	if static != 0x7F || values != 0 {
		t.Errorf("zeros: static=%07b values=%07b", static, values)
	}
	// All slice MSBs one → every boundary statically 1.
	allMSB := uint64(0x8080808080808080)
	static, values = peekOne(g64, allMSB, allMSB)
	if static != 0x7F || values != 0x7F {
		t.Errorf("ones: static=%07b values=%07b", static, values)
	}
	// Disagreeing MSBs → nothing resolvable.
	static, _ = peekOne(g64, allMSB, 0)
	if static != 0 {
		t.Errorf("mixed: static=%07b, want 0", static)
	}
}

func TestWithPeekDelegation(t *testing.T) {
	inner := NewStaticOne(g64)
	p := WithPeek(g64, inner)
	// Operands with all slice MSBs 0: peek forces every boundary to 0
	// even though the inner predictor says 1.
	got := predictOne(t, p, laneCtx{EA: 0, EB: 0})
	if got.Carries != 0 || got.Static != 0x7F {
		t.Errorf("peek did not override: %+v", got)
	}
	// Mixed: unresolved boundaries fall through to the inner prediction.
	got = predictOne(t, p, laneCtx{EA: 0x80, EB: 0}) // slice 0 MSBs disagree
	if got.Static&1 != 0 {
		t.Error("boundary 0 should be dynamic")
	}
	if got.Carries&1 != 1 {
		t.Error("dynamic boundary should use inner prediction (1)")
	}
}

func TestOracleAlwaysRight(t *testing.T) {
	o := &Oracle{G: g64}
	f := func(a, b uint64, cinRaw bool, ltid uint8) bool {
		cin := uint(0)
		if cinRaw {
			cin = 1
		}
		ltid %= 32
		p := predictOne(t, o, laneCtx{Gtid: uint32(ltid), Ltid: ltid, EA: a, EB: b, Cin0: cin})
		return p.Carries == bitmath.BoundaryCarriesPacked(a, b, cin, 64, 8) && p.Static == g64.BoundaryMask()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestHistoryConfigValidate(t *testing.T) {
	bad := []HistoryConfig{
		{Geometry: Geometry{Width: 0, SliceBits: 8}},
		{Geometry: g64, PCMode: ModPC, PCBits: 0},
		{Geometry: g64, PCMode: ModPC, PCBits: 20},
		{Geometry: g64, PCMode: NoPC, PCBits: 3},
		{Geometry: g64, PCMode: PCMode(9)},
		{Geometry: g64, PCMode: NoPC, Threads: ThreadMode(9)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v) should fail", i, c)
		}
	}
}

// TestHistoryNames pins each Prev-family design label to the table it
// builds: the thread mode, the PC fold and the update policy.
func TestHistoryNames(t *testing.T) {
	cases := []struct {
		name string
		want HistoryConfig
	}{
		{"Prev", HistoryConfig{Geometry: g64}},
		{"Prev+ModPC4+Peek", HistoryConfig{Geometry: g64, PCMode: ModPC, PCBits: 4}},
		{"Ltid+Prev+ModPC4+Peek", HistoryConfig{Geometry: g64, PCMode: ModPC, PCBits: 4, Threads: ByLtid}},
		{"Gtid+Prev+ModPC4+Peek", HistoryConfig{Geometry: g64, PCMode: ModPC, PCBits: 4, Threads: ByGtid}},
		{"Ltid+Prev+XorPC4+Peek", HistoryConfig{Geometry: g64, PCMode: XorPC, PCBits: 4, Threads: ByLtid}},
		{"Gtid+Prev+FullPC", HistoryConfig{Geometry: g64, PCMode: FullPC, Threads: ByGtid, AlwaysUpdate: true}},
		{"Gtid+Prev", HistoryConfig{Geometry: g64, Threads: ByGtid, AlwaysUpdate: true}},
	}
	for _, c := range cases {
		p, err := NewDesign(c.name, g64, testBounds(t))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		inner, _ := SplitPeek(p)
		h, ok := inner.(*History)
		if !ok {
			t.Fatalf("%s builds a %T, want *History", c.name, inner)
		}
		if h.cfg != c.want {
			t.Errorf("%s builds %+v, want %+v", c.name, h.cfg, c.want)
		}
	}
}

func TestHistoryLearnsPerPC(t *testing.T) {
	h, err := NewHistory(HistoryConfig{Geometry: g64, PCMode: ModPC, PCBits: 4, AlwaysUpdate: true}, testBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	ctxA := laneCtx{PC: 3}
	ctxB := laneCtx{PC: 5}
	updateOne(h, ctxA, 0x15, true)
	updateOne(h, ctxB, 0x2A, true)
	if p := predictOne(t, h, ctxA); p.Carries != 0x15 {
		t.Errorf("PC3 prediction %#x", p.Carries)
	}
	if p := predictOne(t, h, ctxB); p.Carries != 0x2A {
		t.Errorf("PC5 prediction %#x", p.Carries)
	}
	// PC 19 aliases PC 3 under ModPC4.
	if p := predictOne(t, h, laneCtx{PC: 19}); p.Carries != 0x15 {
		t.Errorf("aliased PC prediction %#x", p.Carries)
	}
	// PC 4 has its own, cold, entry.
	if p := predictOne(t, h, laneCtx{PC: 4}); p.Carries != 0 {
		t.Errorf("cold PC prediction %#x", p.Carries)
	}
}

func TestHistoryThreadModes(t *testing.T) {
	// Gtid fully disambiguates; Ltid shares across warps by lane.
	gt, _ := NewHistory(HistoryConfig{Geometry: g64, Threads: ByGtid, AlwaysUpdate: true}, testBounds(t))
	lt, _ := NewHistory(HistoryConfig{Geometry: g64, Threads: ByLtid, AlwaysUpdate: true}, testBounds(t))

	// Thread 5 (lane 5) learns; thread 37 (lane 5 of the next warp) asks.
	learn := laneCtx{Gtid: 5, Ltid: 5}
	ask := laneCtx{Gtid: 37, Ltid: 5}
	updateOne(gt, learn, 0x3, true)
	updateOne(lt, learn, 0x3, true)
	if p := predictOne(t, gt, ask); p.Carries != 0 {
		t.Errorf("Gtid mode leaked history across threads: %#x", p.Carries)
	}
	if p := predictOne(t, lt, ask); p.Carries != 0x3 {
		t.Errorf("Ltid mode should share across warps: %#x", p.Carries)
	}
	// Different lane must not see it.
	if p := predictOne(t, lt, laneCtx{Gtid: 38, Ltid: 6}); p.Carries != 0 {
		t.Errorf("Ltid mode leaked across lanes: %#x", p.Carries)
	}
}

func TestHistoryUpdatePolicy(t *testing.T) {
	h, _ := NewHistory(HistoryConfig{Geometry: g64}, testBounds(t))
	ctx := laneCtx{PC: 1}
	updateOne(h, ctx, 0x7F, false) // correct prediction → no write-back
	if predictOne(t, h, ctx).Carries != 0 {
		t.Error("non-mispredicted op should not update history")
	}
	updateOne(h, ctx, 0x7F, true)
	if predictOne(t, h, ctx).Carries != 0x7F {
		t.Error("mispredicted op must update history")
	}
}

func TestXorPCFolding(t *testing.T) {
	h, _ := NewHistory(HistoryConfig{Geometry: g64, PCMode: XorPC, PCBits: 4, AlwaysUpdate: true}, testBounds(t))
	// PCs 0x13 and 0x31 fold to 1^3 = 2 and 3^1 = 2: they alias.
	updateOne(h, laneCtx{PC: 0x13}, 0x55, true)
	if p := predictOne(t, h, laneCtx{PC: 0x31}); p.Carries != 0x55 {
		t.Errorf("XOR-folded PCs should alias: %#x", p.Carries)
	}
	// PC 0x10 folds to 1: distinct.
	if p := predictOne(t, h, laneCtx{PC: 0x10}); p.Carries != 0 {
		t.Errorf("distinct fold leaked: %#x", p.Carries)
	}
}

func TestVaLHALLA(t *testing.T) {
	v, err := NewVaLHALLA(g64, testBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := laneCtx{Gtid: 9}
	if predictOne(t, v, ctx).Carries != 0 {
		t.Error("cold VaLHALLA should predict 0")
	}
	// Majority of boundaries carried → broadcast 1 everywhere.
	updateOne(v, ctx, 0x7F, false)
	if predictOne(t, v, ctx).Carries != 0x7F {
		t.Error("after all-ones carries, should broadcast 1")
	}
	// Minority → broadcast 0.
	updateOne(v, ctx, 0x03, false)
	if predictOne(t, v, ctx).Carries != 0 {
		t.Error("after two-of-seven carries, should broadcast 0")
	}
	// Per-thread isolation.
	updateOne(v, ctx, 0x7F, false)
	if predictOne(t, v, laneCtx{Gtid: 10}).Carries != 0 {
		t.Error("VaLHALLA state leaked across threads")
	}
}

func TestRegistryConstructsAllDesigns(t *testing.T) {
	for _, name := range DesignSpace {
		p, err := NewDesign(name, g64, testBounds(t))
		if err != nil {
			t.Errorf("NewDesign(%q): %v", name, err)
			continue
		}
		// Smoke: predict/update cycle.
		ctx := laneCtx{PC: 7, Gtid: 33, Ltid: 1, EA: 100, EB: 200}
		predictOne(t, p, ctx)
		updateOne(p, ctx, 0x7F, true)
	}
	extra := []string{"oracle", "CASA", "VLSA", "Ltid+Prev+XorPC4+Peek", "Ltid+Prev2+ModPC4+Peek",
		"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC"}
	for _, name := range extra {
		if _, err := NewDesign(name, g64, testBounds(t)); err != nil {
			t.Errorf("NewDesign(%q): %v", name, err)
		}
	}
	if _, err := NewDesign("bogus", g64, testBounds(t)); err == nil {
		t.Error("unknown design should error")
	}
	if _, err := NewDesign("staticZero", Geometry{}, testBounds(t)); err == nil {
		t.Error("invalid geometry should error")
	}
	if FinalDesign != DesignSpace[len(DesignSpace)-1] {
		t.Error("FinalDesign should be the last Figure 5 point")
	}
}

// Bounds past the byte cap fail with ErrTableTooLarge before anything
// is sized from them: a PC of 2^32-1 in NewBounds, and a gtid of 2^32-1
// in every design with a per-gtid table. Designs without one ignore the
// thread bound.
func TestBoundsPastByteCap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewBounds([]uint32{0, math.MaxUint32}, 32); !errors.Is(err, ErrTableTooLarge) {
		t.Errorf("NewBounds with PC 2^32-1: %v, want ErrTableTooLarge", err)
	}
	b, err := NewBounds([]uint32{0, 7}, math.MaxUint32+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"VaLHALLA", "VaLHALLA+Peek", "Gtid+Prev+ModPC4+Peek", "Gtid+Prev", "Gtid+Prev+FullPC"} {
		if _, err := NewDesign(name, g64, b); !errors.Is(err, ErrTableTooLarge) {
			t.Errorf("NewDesign(%q) with gtid 2^32-1: %v, want ErrTableTooLarge", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("bounds past the cap allocated %d bytes before failing", grew)
	}
	for _, name := range []string{FinalDesign, "Ltid+Prev+FullPC", "Prev"} {
		if _, err := NewDesign(name, g64, b); err != nil {
			t.Errorf("NewDesign(%q) has no gtid axis but failed: %v", name, err)
		}
	}
}

func TestCRFGeometryAndErrors(t *testing.T) {
	if _, err := NewCRF(0, 32, 7, 16, 1); err == nil {
		t.Error("zero entries should error")
	}
	if _, err := NewCRF(16, 0, 7, 16, 1); err == nil {
		t.Error("zero lanes should error")
	}
	if _, err := NewCRF(16, 32, 0, 16, 1); err == nil {
		t.Error("zero boundaries should error")
	}
	if _, err := NewCRF(16, 32, 7, 0, 1); err == nil {
		t.Error("empty program should error")
	}
	// Regression: Index masks the low PC bits, so a 12-entry CRF would
	// silently alias rows 12..15 onto 8..11 instead of erroring.
	for _, n := range []int{3, 12, 24, 100} {
		if _, err := NewCRF(n, 32, 7, 16, 1); err == nil {
			t.Errorf("non-power-of-two entry count %d should error", n)
		}
	}
	for _, n := range []int{1, 2, 4, 16, 64} {
		c, err := NewCRF(n, 32, 7, 16, 1)
		if err != nil {
			t.Errorf("power-of-two entry count %d rejected: %v", n, err)
			continue
		}
		if got := c.Index(uint32(n + 1)); got != (n+1)%n {
			t.Errorf("entries=%d: Index(%d) = %d, want %d", n, n+1, got, (n+1)%n)
		}
	}
	c := NewDefaultCRF(testPCs, 1)
	if c.Entries() != 16 {
		t.Errorf("entries = %d", c.Entries())
	}
	if c.Index(0x123) != 3 {
		t.Errorf("Index(0x123) = %d, want 3", c.Index(0x123))
	}
	for _, geo := range [][2]int{{33, 7}, {32, 64}} {
		if _, err := NewCRF(16, geo[0], uint(geo[1]), 16, 1); err == nil {
			t.Errorf("%d lanes × %d boundaries should error: a row is at most 32 lanes × %d planes",
				geo[0], geo[1], MaxBoundaries)
		}
	}
	// A write-back's planes past the row's boundaries are dropped, and
	// missing ones write zero.
	c.BeginCycle(1)
	c.WriteBack(2, 1, []uint32{1, 0, 1, 1, 1, 1, 1, 1, 1})
	c.BeginCycle(2)
	if got := readLane(c, 2, 0); got != 0x7D {
		t.Errorf("9-plane write-back left %#x, want 0x7D", got)
	}
	c.WriteBack(2, 1, []uint32{0, 1})
	c.BeginCycle(3)
	if got := readLane(c, 2, 0); got != 0x2 {
		t.Errorf("2-plane write-back left %#x, want 0x2", got)
	}
}

// readLane returns one lane's committed history from a row read, packed
// one bit per boundary.
func readLane(c *CRF, pc uint32, lane int) uint64 {
	var v uint64
	for b, p := range c.ReadRow(pc, make([]uint32, MaxBoundaries)) {
		v |= uint64(p>>lane&1) << b
	}
	return v
}

// lanePlanes packs lane values, from lane 0 up, into the CRF's 7 planes.
func lanePlanes(lanes []uint64) []uint32 {
	dense := make([]uint64, 32)
	copy(dense, lanes)
	return naivePlanes(^uint32(0), dense, 7)
}

func TestCRFReadWriteCycle(t *testing.T) {
	c := NewDefaultCRF(testPCs, 42)
	carries := make([]uint64, 32)
	carries[3] = 0x55
	carries[7] = 0x2A
	c.BeginCycle(1)
	c.WriteBack(5, 1<<3|1<<7, lanePlanes(carries))
	// Write not yet committed within the same cycle.
	if readLane(c, 5, 3) != 0 {
		t.Error("staged write visible before commit")
	}
	c.BeginCycle(2)
	if readLane(c, 5, 3) != 0x55 || readLane(c, 5, 7) != 0x2A {
		t.Error("committed write not visible")
	}
	if readLane(c, 5, 4) != 0 {
		t.Error("unmasked lane was written")
	}
	// PC 21 aliases PC 5 (same low 4 bits).
	if readLane(c, 21, 3) != 0x55 {
		t.Error("PC aliasing into the same row failed")
	}
	// readLane's row reads above count too: take the three below apart.
	before := c.Stats()
	row := c.ReadRow(5, make([]uint32, 7))
	if lanes := naiveLanes(^uint32(0), row); lanes[3] != 0x55 || lanes[7] != 0x2A {
		t.Error("ReadRow wrong")
	}
	c.ReadRow(21, row)
	c.ReadRow(5, row)
	st := c.Stats()
	if st.Reads-before.Reads != 3 || st.WritesCommitted != 1 || st.Conflicts != 0 {
		t.Errorf("stats = %+v, %d reads before", st, before.Reads)
	}
	if reads := st.RowReads[5] - before.RowReads[5]; reads != 3 || st.RowDistinctPCs[5] != 2 {
		t.Errorf("row 5: %d reads by %d distinct PCs, want 3 by 2", reads, st.RowDistinctPCs[5])
	}
	if st.LaneBitsWritten != 14 {
		t.Errorf("lane bits written = %d, want 14", st.LaneBitsWritten)
	}
}

func TestCRFZeroMaskWriteIsFree(t *testing.T) {
	c := NewDefaultCRF(testPCs, 1)
	c.WriteBack(0, 0, make([]uint32, 7))
	if c.Stats().WriteRequests != 0 {
		t.Error("zero-mask write should not count as a request")
	}
}

// Two warps writing the same row in one cycle: exactly one wins, the
// conflict is counted, and the loser's lanes are untouched.
func TestCRFArbitration(t *testing.T) {
	c := NewDefaultCRF(testPCs, 7)
	w1 := lanePlanes([]uint64{0x11})
	w2 := lanePlanes([]uint64{0x22})
	c.BeginCycle(1)
	c.WriteBack(4, 1, w1)
	c.WriteBack(4, 1, w2)
	c.BeginCycle(2)
	got := readLane(c, 4, 0)
	if got != 0x11 && got != 0x22 {
		t.Fatalf("lane holds %#x, want one of the two writes", got)
	}
	st := c.Stats()
	if st.Conflicts != 1 || st.WritesCommitted != 1 || st.WriteRequests != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Different rows do not conflict.
	c = NewDefaultCRF(testPCs, 7)
	c.BeginCycle(1)
	c.WriteBack(1, 1, w1)
	c.WriteBack(2, 1, w2)
	c.BeginCycle(2)
	if c.Stats().Conflicts != 0 {
		t.Error("writes to distinct rows should not conflict")
	}
	if readLane(c, 1, 0) != 0x11 || readLane(c, 2, 0) != 0x22 {
		t.Error("both row writes should commit")
	}
}

func TestCRFArbitrationDeterministic(t *testing.T) {
	run := func() []uint64 {
		c := NewDefaultCRF(testPCs, 99)
		rng := rand.New(rand.NewSource(5))
		for cyc := uint64(1); cyc <= 50; cyc++ {
			c.BeginCycle(cyc)
			for w := 0; w < 3; w++ {
				carries := make([]uint64, 32)
				for l := range carries {
					carries[l] = rng.Uint64() & 0x7F
				}
				c.WriteBack(uint32(rng.Intn(16)), rng.Uint32(), lanePlanes(carries))
			}
		}
		c.Flush()
		out := make([]uint64, 0, 16*32)
		for pc := uint32(0); pc < 16; pc++ {
			for l := 0; l < 32; l++ {
				out = append(out, readLane(c, pc, l))
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different CRF state at %d", i)
		}
	}
}

// End-to-end: the final design predictor drives the sliced adder over a
// loop-like correlated value stream and converges to far better accuracy
// than staticZero on the same stream.
func TestFinalDesignBeatsStaticOnLoopStream(t *testing.T) {
	ad, err := adder.New(adder.Config{Width: 64, SliceBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Predictor) (mispredicts, total int) {
		// A synthetic "hot loop": 4 PCs with evolving operands per thread,
		// mimicking Figure 2's pathfinder behaviour.
		for lane := uint8(0); lane < 8; lane++ {
			base := uint64(lane) * 1000
			for iter := 0; iter < 200; iter++ {
				for pc := uint32(0); pc < 4; pc++ {
					a := base + uint64(iter)*uint64(pc+1)
					b := uint64(pc) * 37
					ctx := laneCtx{PC: pc, Gtid: uint32(lane), Ltid: lane, EA: a, EB: b}
					pred := predictOne(t, p, ctx)
					r := ad.Execute(a, b, adder.Add, pred.Carries)
					if r.Mispredicted {
						mispredicts++
					}
					updateOne(p, ctx, r.ActualCarries, r.Mispredicted)
					total++
				}
			}
		}
		return
	}
	final, _ := NewDesign(FinalDesign, g64, testBounds(t))
	zero, _ := NewDesign("staticZero", g64, testBounds(t))
	fm, ft := run(final)
	zm, zt := run(zero)
	frate := float64(fm) / float64(ft)
	zrate := float64(zm) / float64(zt)
	if frate >= zrate {
		t.Errorf("final design rate %.3f not better than staticZero %.3f", frate, zrate)
	}
	if frate > 0.15 {
		t.Errorf("final design misprediction rate %.3f too high on a correlated stream", frate)
	}
}

func TestHistory2AlternationHeuristic(t *testing.T) {
	cfg := HistoryConfig{Geometry: g64, AlwaysUpdate: true}
	h, err := NewHistory2(cfg, testBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := laneCtx{PC: 1}
	// Steady stream: agreement → predict the agreed bits.
	updateOne(h, ctx, 0x55, true)
	updateOne(h, ctx, 0x55, true)
	if p := predictOne(t, h, ctx); p.Carries != 0x55 {
		t.Errorf("steady stream predicted %#x", p.Carries)
	}
	// Alternating stream on bit 0: ..., 1, 0 → predict toggle back to 1.
	h, _ = NewHistory2(cfg, testBounds(t))
	updateOne(h, ctx, 0x01, true)
	updateOne(h, ctx, 0x00, true)
	if p := predictOne(t, h, ctx); p.Carries&1 != 1 {
		t.Errorf("alternating bit should be predicted to toggle: %#x", p.Carries)
	}
	// Update policy: no write without misprediction when AlwaysUpdate off.
	h2, _ := NewHistory2(HistoryConfig{Geometry: g64}, testBounds(t))
	updateOne(h2, ctx, 0x7F, false)
	if predictOne(t, h2, ctx).Carries != 0 {
		t.Error("non-mispredicted op should not update depth-2 history")
	}
	if _, err := NewHistory2(HistoryConfig{Geometry: Geometry{}}, testBounds(t)); err == nil {
		t.Error("bad geometry should error")
	}
}

// Prev2 predicts the carries written two updates earlier, whatever the
// last update wrote: on every boundary where the two histories agree
// that is the agreed bit, and where they disagree it is the older one.
func TestHistory2PredictsTwoUpdatesBack(t *testing.T) {
	h, err := NewHistory2(HistoryConfig{Geometry: g64, Threads: ByLtid, AlwaysUpdate: true}, testBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ctx := laneCtx{PC: 2, Ltid: 9}
	written := []uint64{0, 0}
	for i := 0; i < 200; i++ {
		if got, want := predictOne(t, h, ctx).Carries, written[len(written)-2]; got != want {
			t.Fatalf("after %d updates: predicted %#x, want %#x written two updates earlier", i, got, want)
		}
		v := rng.Uint64() & g64.BoundaryMask()
		updateOne(h, ctx, v, true)
		written = append(written, v)
	}
}

func TestHistory2InRegistry(t *testing.T) {
	p, err := NewDesign("Ltid+Prev2+ModPC4+Peek", g64, testBounds(t))
	if err != nil {
		t.Fatal(err)
	}
	inner, peeked := SplitPeek(p)
	if h, ok := inner.(*History2); !peeked || !ok || h.cfg != (HistoryConfig{Geometry: g64, PCMode: ModPC, PCBits: 4, Threads: ByLtid}) {
		t.Errorf("Ltid+Prev2+ModPC4+Peek builds %T (Peek %v), want a Peek-wrapped Ltid ModPC4 *History2", inner, peeked)
	}
}

// Arbitration fairness: with two warps persistently contending for the
// same CRF row, both win a non-trivial share of the commits.
func TestCRFArbitrationFairness(t *testing.T) {
	c := NewDefaultCRF(testPCs, 123)
	w1 := lanePlanes([]uint64{0x11})
	w2 := lanePlanes([]uint64{0x22})
	wins1, wins2 := 0, 0
	for cyc := uint64(1); cyc <= 400; cyc++ {
		c.BeginCycle(cyc)
		c.WriteBack(4, 1, w1)
		c.WriteBack(4, 1, w2)
		c.BeginCycle(cyc + 1) // commit
		switch readLane(c, 4, 0) {
		case 0x11:
			wins1++
		case 0x22:
			wins2++
		}
	}
	total := wins1 + wins2
	if total != 400 {
		t.Fatalf("commits = %d", total)
	}
	if wins1 < total/4 || wins2 < total/4 {
		t.Errorf("arbitration unfair: %d vs %d", wins1, wins2)
	}
}

// Registry-wide safety properties: no design ever claims a wrong static
// resolution, or panics, over random warps of its bounds at any plane
// count up to its boundaries.
func TestAllDesignsSafetyProperties(t *testing.T) {
	names := append(append([]string{}, DesignSpace...),
		"oracle", "CASA", "VLSA", "Ltid+Prev+XorPC4+Peek", "Ltid+Prev2+ModPC4+Peek",
		"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC")
	for i, name := range names {
		p, err := NewDesign(name, g64, testBounds(t))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for step, w := range randomWarps(rng, 500) {
			ea, eb := w.packed()
			np := 1 + rng.Intn(7)
			carries, static := predictLanes(t, p, 7, np, w.pc, w.base, w.active, w.cin, ea, eb)
			actual := make([]uint64, len(ea))
			for j, ctx := range w.contexts(ea, eb) {
				actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, 64, 8)
				if (carries[j]^actual[j])&static[j] != 0 {
					t.Fatalf("%s step %d lane %d: static boundaries %#x of %#x wrong, truth %#x",
						name, step, ctx.Ltid, static[j], carries[j], actual[j])
				}
			}
			updateLanes(p, 7, w.pc, w.base, w.active, rng.Uint32()&w.active, w.cin, ea, eb, actual)
		}
	}
}
