package core

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"testing"

	"st2gpu/internal/adder"
	"st2gpu/internal/speculate"
)

// laneOp is one thread's operation within a warp instruction, as the unit
// took it before warp adds became packed columns.
type laneOp struct {
	active bool
	a, b   uint64
	op     adder.Op
}

// effOperands are a lane's effective (post subtraction-transform) operands.
type effOperands struct {
	ea, eb uint64
	cin0   uint
}

// laneSpeculator is the per-lane speculator interface of the oracle: 32-lane
// arrays of packed boundary carries indexed by lane, inactive lanes zero.
type laneSpeculator interface {
	predictWarp(pc uint32, lanes *[WarpSize]laneOp, eff *[WarpSize]effOperands) [WarpSize]uint64
	updateWarp(pc uint32, mispred uint32, actual *[WarpSize]uint64)
}

// oracleUnit is the per-lane ExecuteWarp loop the columnar unit replaced:
// one adder.Result per lane, its own statistics. It is the reference
// FuzzUnitExecuteWarp holds the unit to.
type oracleUnit struct {
	ad    *adder.SlicedAdder
	price EnergyParams
	agg   UnitStats
}

func newOracleUnit(t *testing.T, kind UnitKind) *oracleUnit {
	t.Helper()
	u := newTestUnit(t, kind)
	o := &oracleUnit{ad: u.ad, price: u.price}
	o.agg = u.Stats()
	return o
}

// executeWarp returns every lane's sum and the warp's cycle count (0 for a
// warp with no active lane).
func (u *oracleUnit) executeWarp(spec laneSpeculator, pc uint32, lanes *[WarpSize]laneOp) (sums [WarpSize]uint64, cycles uint) {
	var eff [WarpSize]effOperands
	var actual [WarpSize]uint64
	var activeMask uint32
	for l := 0; l < WarpSize; l++ {
		if !lanes[l].active {
			continue
		}
		activeMask |= 1 << l
		ea, eb, cin0 := u.ad.EffectiveOperands(lanes[l].a, lanes[l].b, lanes[l].op)
		eff[l] = effOperands{ea, eb, cin0}
	}
	if activeMask == 0 {
		return sums, 0
	}

	preds := spec.predictWarp(pc, lanes, &eff)

	var mispred uint32
	activeLanes, threadMispredicts, recomputed, sliceComps := 0, 0, 0, 0
	for l := 0; l < WarpSize; l++ {
		if !lanes[l].active {
			continue
		}
		activeLanes++
		r := u.ad.ExecuteEffective(eff[l].ea, eff[l].eb, eff[l].cin0, preds[l])
		sums[l] = r.Sum
		actual[l] = r.ActualCarries
		sliceComps += int(u.price.NumSlices) + r.Recomputed
		recomputed += r.Recomputed
		if r.Mispredicted {
			mispred |= 1 << l
			threadMispredicts++
			u.agg.RecomputeHistogram.Observe(r.Recomputed)
		}
	}
	cycles = 1
	if mispred != 0 {
		cycles = 2
	}
	spec.updateWarp(pc, mispred, &actual)

	u.agg.MispredLanesHistogram.Observe(threadMispredicts)
	u.agg.WarpOps++
	if cycles == 2 {
		u.agg.StalledWarpOps++
	}
	u.agg.ThreadOps += uint64(activeLanes)
	u.agg.ThreadMispredicts += uint64(threadMispredicts)
	u.agg.SliceComputations += uint64(sliceComps)
	u.agg.RecomputedSlices += uint64(recomputed)
	u.agg.EnergyST2 += u.price.ST2WarpEnergy(activeLanes, recomputed, threadMispredicts)
	u.agg.EnergyBaseline += u.price.BaselineWarpEnergy(activeLanes)
	return sums, cycles
}

// peekRef is Peek for one lane: boundary i (the carry out of slice i)
// resolves when the operands' MSBs of slice i agree, to their AND.
func peekRef(g speculate.Geometry, ea, eb uint64) (static, values uint64) {
	for i := uint(0); i < g.Boundaries(); i++ {
		msb := (i+1)*g.SliceBits - 1
		if ea>>msb&1 == eb>>msb&1 {
			static |= 1 << i
			values |= (ea >> msb & 1) << i
		}
	}
	return static, values
}

// peekLane overlays Peek on one lane's history.
func peekLane(g speculate.Geometry, hist uint64, eff effOperands) uint64 {
	static, values := peekRef(g, eff.ea, eff.eb)
	return hist&^static | values
}

// laneCRF is the per-lane CRF speculator: one row read per warp, Peek per
// lane, and a write-back of the mispredicted lanes from a lane-indexed row.
type laneCRF struct {
	crf         *speculate.CRF
	geom        speculate.Geometry
	disablePeek bool
}

func (c *laneCRF) predictWarp(pc uint32, lanes *[WarpSize]laneOp, eff *[WarpSize]effOperands) [WarpSize]uint64 {
	row := c.crf.ReadRow(pc, make([]uint32, c.geom.Boundaries()))
	var out [WarpSize]uint64
	for l := 0; l < WarpSize; l++ {
		if !lanes[l].active {
			continue
		}
		for b, p := range row {
			out[l] |= uint64(p>>l&1) << b
		}
		if !c.disablePeek {
			out[l] = peekLane(c.geom, out[l], eff[l])
		}
	}
	return out
}

func (c *laneCRF) updateWarp(pc uint32, mispred uint32, actual *[WarpSize]uint64) {
	if mispred == 0 {
		return
	}
	planes := make([]uint32, c.geom.Boundaries())
	for l, v := range actual {
		for b := range planes {
			planes[b] |= uint32(v>>b&1) << l
		}
	}
	c.crf.WriteBack(pc, mispred, planes)
}

// laneHistory is the final design, Ltid+Prev+ModPC4+Peek, one lane at a
// time: an entry of carries per (PC[3:0], lane), predicted behind Peek
// and rewritten by each mispredicting lane.
type laneHistory struct {
	geom    speculate.Geometry
	entries [16][WarpSize]uint64
}

func (h *laneHistory) predictWarp(pc uint32, lanes *[WarpSize]laneOp, eff *[WarpSize]effOperands) [WarpSize]uint64 {
	var out [WarpSize]uint64
	for l := 0; l < WarpSize; l++ {
		if lanes[l].active {
			out[l] = peekLane(h.geom, h.entries[pc&15][l], eff[l])
		}
	}
	return out
}

func (h *laneHistory) updateWarp(pc uint32, mispred uint32, actual *[WarpSize]uint64) {
	for m := mispred; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		h.entries[pc&15][l] = actual[l]
	}
}

// fuzzStream hands out the fuzz input a byte at a time and, once it runs
// dry, continues with a splitmix64 stream seeded by its length, so short
// inputs still drive long warp-op sequences.
type fuzzStream struct {
	data  []byte
	state uint64
}

func (s *fuzzStream) u64() uint64 {
	if len(s.data) >= 8 {
		v := binary.LittleEndian.Uint64(s.data)
		s.data = s.data[8:]
		return v
	}
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// FuzzUnitExecuteWarp drives the columnar unit and the per-lane oracle in
// lock step with the same random warp adds — any unit kind, random active
// and subtraction masks, operands that are random, small, correlated with
// the lane's previous ones, or long carry chains — under the CRF
// speculator with Peek on or off, or the final History design. After
// every warp the sums and the stall must equal the oracle's; at the end
// every UnitStats field, the CRF's statistics and every CRF row must.
func FuzzUnitExecuteWarp(f *testing.F) {
	for kind := uint8(0); kind < 4; kind++ {
		for _, spec := range []uint8{0, 1, 2, 4, 5, 6} {
			f.Add(kind, spec, []byte{kind, spec, 0x5A, 0xC3, 0x0F, 0xF0, 0x99, 0x66})
		}
	}
	f.Fuzz(func(t *testing.T, kindB, specB uint8, data []byte) {
		kind := UnitKinds[int(kindB)%len(UnitKinds)]
		u := newTestUnit(t, kind)
		o := newOracleUnit(t, kind)
		// The device hands every unit the 64-bit ALU's speculation
		// geometry; bit 2 of specB picks that, otherwise the unit's own.
		geom := u.Geometry()
		if specB&4 != 0 {
			geom = newTestUnit(t, ALU).Geometry()
		}

		var spec speculate.Predictor
		var ospec laneSpeculator
		var crf, ocrf *speculate.CRF
		// Bits 0-1 of specB pick the speculator: the CRF with Peek (0) or
		// without (1), or the final History design (2, 3).
		switch specB & 3 {
		case 0, 1:
			var err error
			if crf, err = speculate.NewCRF(16, WarpSize, 7, 32, int64(specB)); err != nil {
				t.Fatal(err)
			}
			if ocrf, err = speculate.NewCRF(16, WarpSize, 7, 32, int64(specB)); err != nil {
				t.Fatal(err)
			}
			noPeek := specB&3 == 1
			spec = speculate.WithPeek(geom, crf)
			if noPeek {
				spec = crf
			}
			ospec = &laneCRF{crf: ocrf, geom: geom, disablePeek: noPeek}
		default:
			// The stream below draws PCs below 32 and 8 warps' gtids.
			pcs := make([]uint32, 32)
			for i := range pcs {
				pcs[i] = uint32(i)
			}
			b, err := speculate.NewBounds(pcs, 8*WarpSize)
			if err != nil {
				t.Fatal(err)
			}
			p, err := speculate.NewDesign(speculate.FinalDesign, geom, b)
			if err != nil {
				t.Fatal(err)
			}
			spec, ospec = p, &laneHistory{geom: geom}
		}

		s := &fuzzStream{data: data, state: uint64(len(data))}
		var prevA, prevB [WarpSize]uint64
		cycle := uint64(0)
		steps := 1 + len(data)%64
		for step := 0; step < steps; step++ {
			ctl := s.u64()
			active, sub := uint32(s.u64()), uint32(ctl>>32)
			if ctl&1 == 0 {
				cycle++ // else the warp shares a cycle: write-backs contend
			}
			pc, gtidBase := uint32(ctl>>1&31), uint32(ctl>>8&7)*WarpSize
			if crf != nil {
				crf.BeginCycle(cycle)
				ocrf.BeginCycle(cycle)
			}

			var lanes [WarpSize]laneOp
			var cin uint32
			var ea, eb []uint64
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				r := s.u64()
				var a, b uint64
				switch r & 3 {
				case 0:
					a, b = s.u64(), s.u64()
				case 1:
					a, b = r>>2&0xFFFF, r>>18&0xFFFF
				case 2:
					a, b = prevA[l]+r>>2&0xFF, prevB[l]
				default:
					a, b = ^uint64(0)<<(r>>2&63)|r>>8&0xFF, r>>16&0xFF
				}
				prevA[l], prevB[l] = a, b
				op := adder.Add
				if sub&(1<<l) != 0 {
					op = adder.Sub
				}
				lanes[l] = laneOp{active: true, a: a, b: b, op: op}
				x, y, c := u.Adder().EffectiveOperands(a, b, op)
				ea, eb = append(ea, x), append(eb, y)
				cin |= uint32(c) << l
			}

			sums, stall := u.ExecuteWarp(spec, pc, gtidBase, active, cin, ea, eb)
			want, cycles := o.executeWarp(ospec, pc, &lanes)
			if stall != (cycles == 2) {
				t.Fatalf("step %d: stall %v, oracle took %d cycles", step, stall, cycles)
			}
			if len(sums) != len(ea) {
				t.Fatalf("step %d: %d sums for %d active lanes", step, len(sums), len(ea))
			}
			j := 0
			for m := active; m != 0; m &= m - 1 {
				if l := bits.TrailingZeros32(m); sums[j] != want[l] {
					t.Fatalf("step %d lane %d: sum %#x, oracle %#x", step, l, sums[j], want[l])
				}
				j++
			}
		}

		if got := u.Stats(); !reflect.DeepEqual(got, o.agg) {
			t.Fatalf("unit stats differ from the oracle's:\n got  %+v\n want %+v", got, o.agg)
		}
		if crf != nil {
			crf.Flush()
			ocrf.Flush()
			if got, want := crf.Stats(), ocrf.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("CRF stats differ:\n got  %+v\n want %+v", got, want)
			}
			for pc := uint32(0); pc < uint32(crf.Entries()); pc++ {
				for l := 0; l < WarpSize; l++ {
					if got, want := crf.ReadLane(pc, l), ocrf.ReadLane(pc, l); got != want {
						t.Fatalf("CRF row %d lane %d: %#x, oracle %#x", pc, l, got, want)
					}
				}
			}
		}
	})
}
