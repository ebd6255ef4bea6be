package gpusim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/isa"
)

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32fromBits(b uint32) float32 { return math.Float32frombits(b) }
func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64fromBits(b uint64) float64 { return math.Float64frombits(b) }

// warp is one warp's architectural and scheduling state.
type warp struct {
	id       int
	blockIdx int    // global block index
	gtidBase uint32 // global thread id of lane 0
	tidBase  uint32 // block-local thread id of lane 0
	nLanes   int    // threads actually populated (last warp may be partial)

	pc     [32]int32 // per-thread next instruction; -1 = exited
	regs   []uint64  // flat: reg*32 + lane
	preds  []bool    // flat: pred*32 + lane
	shared []byte    // block shared memory (shared with sibling warps)

	// Cached SIMT reconvergence state, derived from pc. rpc is the
	// smallest live PC (-1 once every thread has exited) and atMask the
	// lanes whose PC equals it; live is the lanes that have not exited.
	// PCs move only in executeStep and launchBlock, so these are valid
	// after every executeStep and change nowhere else.
	rpc    int32
	atMask uint32
	live   uint32

	// Scheduling state.
	regReady  []uint64 // scoreboard: cycle each data register becomes readable
	nextIssue uint64   // in-order issue point
	atBarrier bool
	done      bool
}

func (w *warp) setReg(r isa.Reg, lane int, v uint64) { w.regs[int(r)*32+lane] = v }

// regRow returns register r's 32 lane values.
func (w *warp) regRow(r isa.Reg) *[32]uint64 { return (*[32]uint64)(w.regs[int(r)*32:]) }

// predRow returns predicate p's 32 lane values.
func (w *warp) predRow(p isa.PReg) *[32]bool { return (*[32]bool)(w.preds[int(p)*32:]) }

// reconverge recomputes rpc and atMask from the per-lane PCs (SIMT
// min-PC reconvergence).
func (w *warp) reconverge() {
	rpc := int32(-1)
	var at uint32
	for l := 0; l < w.nLanes; l++ {
		switch p := w.pc[l]; {
		case p < 0:
		case rpc < 0 || p < rpc:
			rpc, at = p, 1<<l
		case p == rpc:
			at |= 1 << l
		}
	}
	w.rpc, w.atMask = rpc, at
}

// jump moves the lanes in mask to next. When they were every live lane,
// they stay together at the new PC; otherwise the reconvergence state is
// rescanned.
func (w *warp) jump(mask uint32, next int32) {
	for m := mask; m != 0; m &= m - 1 {
		w.pc[bits.TrailingZeros32(m)] = next
	}
	if mask == w.live {
		w.rpc = next
		return
	}
	w.reconverge()
}

// stepResult is what one warp instruction's functional execution reports
// to the timing model.
type stepResult struct {
	latency         uint64 // producer→consumer latency
	occupancy       uint64 // cycles the FU pipe stays busy (initiation interval)
	activeLanes     int
	memTransactions int
	barrier         bool
	exited          bool // every thread gone after this step
	st2Stall        bool // warp pays the misprediction recompute cycle
}

// srcVec returns operand o's value in each of the warp's 32 lanes: a view
// of the register row for a register operand, otherwise buf filled in.
// Lane l of the result is only read before lane l of any destination is
// written, so a view aliasing the destination row is safe.
func (sm *smState) srcVec(w *warp, o isa.Operand, buf *[32]uint64) *[32]uint64 {
	switch o.Kind {
	case isa.OpReg:
		return w.regRow(o.Reg)
	case isa.OpImm:
		for l := range buf {
			buf[l] = o.Imm
		}
	case isa.OpSpecial:
		var base, step uint64
		switch o.SReg {
		case isa.SRegTid:
			base, step = uint64(w.tidBase), 1
		case isa.SRegNTid:
			base = uint64(sm.kernel.BlockDim)
		case isa.SRegCtaid:
			base = uint64(w.blockIdx)
		case isa.SRegNCtaid:
			base = uint64(sm.kernel.GridDim)
		case isa.SRegGtid:
			base, step = uint64(w.gtidBase), 1
		case isa.SRegLane:
			step = 1
		}
		for l := range buf {
			buf[l] = base + step*uint64(l)
		}
	default:
		*buf = [32]uint64{}
	}
	return buf
}

// truncate narrows a raw 64-bit value to the type's width with the
// type-appropriate extension, the canonical register representation.
func truncate(ty isa.Type, v uint64) uint64 {
	switch ty {
	case isa.U32:
		return uint64(uint32(v))
	case isa.S32:
		return uint64(int64(int32(uint32(v))))
	case isa.F32:
		return uint64(uint32(v))
	default:
		return v
	}
}

// executeStep functionally executes instruction d at the warp's
// reconvergence PC for every thread there, advances their PCs, refreshes
// the cached reconvergence state, and returns the timing facts. Errors
// indicate simulator bugs or out-of-bounds memory.
func (sm *smState) executeStep(w *warp, d *decodedInstr) (stepResult, error) {
	if w.rpc < 0 {
		return stepResult{exited: true}, nil
	}
	pc, in := w.rpc, d.in
	res := stepResult{latency: d.lat, occupancy: d.occ}

	// The execution set: threads at this PC whose guard passes. Threads at
	// this PC with a failing guard still advance their PC.
	atPC := w.atMask
	execMask := atPC
	if in.Guard != isa.NoPred {
		guard := w.predRow(in.Guard)
		execMask = 0
		for m := atPC; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros32(m); guard[l] != in.GuardNeg {
				execMask |= 1 << l
			}
		}
	}
	res.activeLanes = bits.OnesCount32(execMask)

	switch in.Op {
	case isa.OpNop:

	case isa.OpExit:
		for m := execMask; m != 0; m &= m - 1 {
			w.pc[bits.TrailingZeros32(m)] = -1
		}
		w.live &^= execMask
		for m := atPC &^ execMask; m != 0; m &= m - 1 {
			w.pc[bits.TrailingZeros32(m)] = pc + 1
		}
		w.reconverge()
		res.exited = w.rpc < 0
		return res, nil

	case isa.OpBar:
		res.barrier = true

	case isa.OpBra:
		switch {
		case execMask == atPC:
			w.jump(atPC, int32(in.Target))
		case execMask == 0:
			w.jump(atPC, pc+1)
		default:
			for m := execMask; m != 0; m &= m - 1 {
				w.pc[bits.TrailingZeros32(m)] = int32(in.Target)
			}
			for m := atPC &^ execMask; m != 0; m &= m - 1 {
				w.pc[bits.TrailingZeros32(m)] = pc + 1
			}
			w.reconverge()
		}
		return res, nil

	case isa.OpIAdd, isa.OpISub:
		if err := sm.execIntAddSub(w, uint32(pc), in, execMask, &res); err != nil {
			return res, err
		}

	case isa.OpFAdd, isa.OpFSub:
		if err := sm.execFloatAddSub(w, uint32(pc), in, execMask, &res); err != nil {
			return res, err
		}

	case isa.OpSetp:
		a := sm.srcVec(w, in.Srcs[0], &sm.opA)
		b := sm.srcVec(w, in.Srcs[1], &sm.opB)
		p := w.predRow(in.PDst)
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			p[l] = compare(in.Cmp, in.Type, a[l], b[l])
		}

	case isa.OpLd, isa.OpSt, isa.OpAtomAdd:
		if err := sm.execMemory(w, in, execMask, &res); err != nil {
			return res, err
		}

	default:
		if err := sm.execScalar(w, pc, in, execMask); err != nil {
			return res, err
		}
	}
	w.jump(atPC, pc+1)
	return res, nil
}

// execIntAddSub routes an integer add/sub through the ST² ALU (or the
// baseline adder in baseline mode).
func (sm *smState) execIntAddSub(w *warp, pc uint32, in *isa.Instr, execMask uint32, res *stepResult) error {
	sub := in.Op == isa.OpISub
	unit, width := sm.alu32, uint(32)
	if in.Type.Is64() {
		unit, width = sm.alu64, 64
	}
	a := sm.srcVec(w, in.Srcs[0], &sm.opA)
	b := sm.srcVec(w, in.Srcs[1], &sm.opB)
	dst := w.regRow(in.Dst)
	st2 := sm.dev.cfg.AdderMode == ST2Adders
	if st2 || sm.rec != nil {
		// The warp add's columns: each executing lane's effective operands
		// (a subtraction ones'-complements b and injects carry 1), packed
		// in ascending lane order.
		m := bitmath.Mask(width)
		var flip uint64
		var cin uint32
		if sub {
			flip, cin = m, execMask
		}
		n := 0
		for mm := execMask; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros32(mm)
			sm.ea[n], sm.eb[n] = a[l]&m, (b[l]^flip)&m
			n++
		}
		ea, eb := sm.ea[:n], sm.eb[:n]
		if err := sm.observe(unit, pc, w.gtidBase, execMask, cin, ea, eb); err != nil {
			return err
		}
		if st2 {
			sums, stall := unit.ExecuteWarp(sm.spec, pc, w.gtidBase, execMask, cin, ea, eb)
			j := 0
			for mm := execMask; mm != 0; mm &= mm - 1 {
				dst[bits.TrailingZeros32(mm)] = truncate(in.Type, sums[j])
				j++
			}
			res.st2Stall = stall
			return nil
		}
	}
	// Baseline: exact native arithmetic; count the op for pricing.
	if sub {
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dst[l] = truncate(in.Type, a[l]-b[l])
		}
	} else {
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dst[l] = truncate(in.Type, a[l]+b[l])
		}
	}
	sm.baselineAdderOps[unit.Kind] += uint64(res.activeLanes)
	return nil
}

// observe hands one warp add's columns to this SM's recording shard. The
// only error it can return is the recording byte-cap tripping.
func (sm *smState) observe(unit *core.Unit, pc, gtidBase, active, cin uint32, ea, eb []uint64) error {
	if sm.rec == nil || active == 0 {
		return nil
	}
	if check := sm.dev.recordCheck; check != nil {
		check(unit.Kind, pc, gtidBase, active, cin, ea, eb)
	}
	return sm.rec.append(unit.Kind, pc, gtidBase, active, cin, ea, eb)
}

// execFloatAddSub: the architectural result is native IEEE; in ST² mode
// the aligned mantissa operation additionally flows through the FPU/DPU
// sliced adder for timing/energy/misprediction accounting. Lanes whose
// operands bypass the significand adder (specials, zero + zero) leave it.
func (sm *smState) execFloatAddSub(w *warp, pc uint32, in *isa.Instr, execMask uint32, res *stepResult) error {
	is64 := in.Type == isa.F64
	unit := sm.fpu
	if is64 {
		unit = sm.dpu
	}
	st2 := sm.dev.cfg.AdderMode == ST2Adders
	mantissa := st2 || sm.rec != nil
	a := sm.srcVec(w, in.Srcs[0], &sm.opA)
	b := sm.srcVec(w, in.Srcs[1], &sm.opB)
	dst := w.regRow(in.Dst)
	sub := in.Op == isa.OpFSub
	// The mantissa adds' columns, packed in ascending lane order.
	var active, cin uint32
	n := 0
	if is64 {
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			x, y := f64fromBits(a[l]), f64fromBits(b[l])
			if sub {
				y = -y
			}
			dst[l] = f64bits(x + y)
			if mantissa {
				if ea, eb, c, ok := core.MantissaOpF64(x, y); ok {
					active |= 1 << l
					cin |= uint32(c) << l
					sm.ea[n], sm.eb[n] = ea, eb
					n++
				}
			}
		}
	} else {
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			x, y := f32fromBits(uint32(a[l])), f32fromBits(uint32(b[l]))
			if sub {
				y = -y
			}
			dst[l] = uint64(f32bits(x + y))
			if mantissa {
				if ea, eb, c, ok := core.MantissaOpF32(x, y); ok {
					active |= 1 << l
					cin |= uint32(c) << l
					sm.ea[n], sm.eb[n] = ea, eb
					n++
				}
			}
		}
	}
	ea, eb := sm.ea[:n], sm.eb[:n]
	if err := sm.observe(unit, pc, w.gtidBase, active, cin, ea, eb); err != nil {
		return err
	}
	if st2 {
		_, res.st2Stall = unit.ExecuteWarp(sm.spec, pc, w.gtidBase, active, cin, ea, eb)
	} else {
		sm.baselineAdderOps[unit.Kind] += uint64(res.activeLanes)
	}
	return nil
}

// compare evaluates a SETP comparison.
func compare(cmp isa.CmpOp, ty isa.Type, a, b uint64) bool {
	var lt, eq bool
	switch {
	case ty == isa.F32:
		x, y := f32fromBits(uint32(a)), f32fromBits(uint32(b))
		lt, eq = x < y, x == y
	case ty == isa.F64:
		x, y := f64fromBits(a), f64fromBits(b)
		lt, eq = x < y, x == y
	case ty.IsSigned():
		x, y := int64(a), int64(b)
		if ty == isa.S32 {
			x, y = int64(int32(uint32(a))), int64(int32(uint32(b)))
		}
		lt, eq = x < y, x == y
	default:
		x, y := a, b
		if ty == isa.U32 {
			x, y = uint64(uint32(a)), uint64(uint32(b))
		}
		lt, eq = x < y, x == y
	}
	switch cmp {
	case isa.EQ:
		return eq
	case isa.NE:
		return !eq
	case isa.LT:
		return lt
	case isa.LE:
		return lt || eq
	case isa.GT:
		return !lt && !eq
	case isa.GE:
		return !lt
	default:
		return false
	}
}

// execScalar executes the non-memory, non-add scalar opcodes: one switch
// per warp instruction, then a typed loop over the exec mask. Lanes run
// in ascending order, so a failing lane reports the same error it would
// in a lane-by-lane interpreter.
func (sm *smState) execScalar(w *warp, pc int32, in *isa.Instr, execMask uint32) error {
	if execMask == 0 {
		return nil
	}
	ty := in.Type
	a := sm.srcVec(w, in.Srcs[0], &sm.opA)
	b, c := &sm.opB, &sm.opC
	if in.Op.NumSrcs() >= 2 {
		b = sm.srcVec(w, in.Srcs[1], b)
	}
	if in.Op.NumSrcs() >= 3 && in.Op != isa.OpSelp {
		c = sm.srcVec(w, in.Srcs[2], c)
	}
	d := w.regRow(in.Dst)

	switch in.Op {
	case isa.OpMov:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, a[l])
		}
	case isa.OpIMin, isa.OpIMax:
		wantMin := in.Op == isa.OpIMin
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			x, y := a[l], b[l]
			var amin bool
			switch {
			case ty == isa.S32:
				amin = int32(uint32(x)) < int32(uint32(y))
			case ty.IsSigned():
				amin = int64(x) < int64(y)
			case ty == isa.U32:
				amin = uint32(x) < uint32(y)
			default:
				amin = x < y
			}
			if wantMin != amin {
				x = y
			}
			d[l] = truncate(ty, x)
		}
	case isa.OpAnd:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, a[l]&b[l])
		}
	case isa.OpOr:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, a[l]|b[l])
		}
	case isa.OpXor:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, a[l]^b[l])
		}
	case isa.OpNot:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, ^a[l])
		}
	case isa.OpShl:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, a[l]<<(b[l]&63))
		}
	case isa.OpShr:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			var v uint64
			switch {
			case ty == isa.S32:
				v = uint64(int32(uint32(a[l])) >> (b[l] & 31))
			case ty.IsSigned():
				v = uint64(int64(a[l]) >> (b[l] & 63))
			case ty == isa.U32:
				v = uint64(uint32(a[l]) >> (b[l] & 31))
			default:
				v = a[l] >> (b[l] & 63)
			}
			d[l] = truncate(ty, v)
		}
	case isa.OpAbs:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			var v uint64
			if ty == isa.S32 {
				x := int32(uint32(a[l]))
				if x < 0 {
					x = -x
				}
				v = uint64(x)
			} else {
				x := int64(a[l])
				if x < 0 {
					x = -x
				}
				v = uint64(x)
			}
			d[l] = truncate(ty, v)
		}
	case isa.OpSelp:
		p := w.predRow(isa.PReg(in.Srcs[2].Reg))
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			v := b[l]
			if p[l] {
				v = a[l]
			}
			d[l] = truncate(ty, v)
		}
	case isa.OpCvt:
		from := isa.Type(in.Srcs[1].Imm)
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, convert(from, ty, a[l]))
		}
	case isa.OpIMul:
		narrow := ty == isa.S32 || ty == isa.U32
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			v := a[l] * b[l]
			if narrow {
				v = uint64(uint32(a[l]) * uint32(b[l]))
			}
			d[l] = truncate(ty, v)
		}
	case isa.OpIMad:
		narrow := ty == isa.S32 || ty == isa.U32
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			v := a[l]*b[l] + c[l]
			if narrow {
				v = uint64(uint32(a[l])*uint32(b[l]) + uint32(c[l]))
			}
			d[l] = truncate(ty, v)
		}
	case isa.OpIDiv, isa.OpIRem:
		div := in.Op == isa.OpIDiv
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			x, y := a[l], b[l]
			if y == 0 || ((ty == isa.S32 || ty == isa.U32) && uint32(y) == 0) {
				return sm.laneError(pc, l, errDivByZero)
			}
			var v uint64
			switch ty {
			case isa.S32:
				if div {
					v = uint64(uint32(int32(uint32(x)) / int32(uint32(y))))
				} else {
					v = uint64(uint32(int32(uint32(x)) % int32(uint32(y))))
				}
			case isa.U32:
				if div {
					v = uint64(uint32(x) / uint32(y))
				} else {
					v = uint64(uint32(x) % uint32(y))
				}
			case isa.S64:
				if div {
					v = uint64(int64(x) / int64(y))
				} else {
					v = uint64(int64(x) % int64(y))
				}
			default:
				if div {
					v = x / y
				} else {
					v = x % y
				}
			}
			d[l] = truncate(ty, v)
		}
	case isa.OpFMul:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, fenc(ty, fdec(ty, a[l])*fdec(ty, b[l])))
		}
	case isa.OpFFma:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, fenc(ty, fdec(ty, a[l])*fdec(ty, b[l])+fdec(ty, c[l])))
		}
	case isa.OpFDiv:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, fenc(ty, fdec(ty, a[l])/fdec(ty, b[l])))
		}
	case isa.OpFMin:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, fenc(ty, math.Min(fdec(ty, a[l]), fdec(ty, b[l]))))
		}
	case isa.OpFMax:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, fenc(ty, math.Max(fdec(ty, a[l]), fdec(ty, b[l]))))
		}
	case isa.OpFNeg, isa.OpFAbs, isa.OpSqrt, isa.OpRsqrt, isa.OpSin, isa.OpCos, isa.OpExp2, isa.OpLog2, isa.OpRcp:
		f := floatUnary(in.Op)
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = truncate(ty, fenc(ty, f(fdec(ty, a[l]))))
		}
	default:
		return sm.laneError(pc, bits.TrailingZeros32(execMask), fmt.Errorf("unimplemented opcode %v", in.Op))
	}
	return nil
}

var errDivByZero = errors.New("division by zero")

// laneError attributes a functional-execution failure to its kernel, PC
// and lane.
func (sm *smState) laneError(pc int32, lane int, err error) error {
	return fmt.Errorf("gpusim: %s @%d lane %d: %w", sm.kernel.Program.Name, pc, lane, err)
}

// floatUnary returns a one-operand floating-point opcode's arithmetic,
// evaluated in float64 and rounded to the instruction's type by fenc.
func floatUnary(op isa.Opcode) func(float64) float64 {
	switch op {
	case isa.OpFNeg:
		return func(x float64) float64 { return -x }
	case isa.OpFAbs:
		return math.Abs
	case isa.OpSqrt:
		return math.Sqrt
	case isa.OpRsqrt:
		return func(x float64) float64 { return 1 / math.Sqrt(x) }
	case isa.OpSin:
		return math.Sin
	case isa.OpCos:
		return math.Cos
	case isa.OpExp2:
		return math.Exp2
	case isa.OpLog2:
		return math.Log2
	default: // isa.OpRcp
		return func(x float64) float64 { return 1 / x }
	}
}

// fdec widens a register value of floating-point type ty to float64.
func fdec(ty isa.Type, v uint64) float64 {
	if ty == isa.F32 {
		return float64(f32fromBits(uint32(v)))
	}
	return f64fromBits(v)
}

// fenc rounds v to floating-point type ty and returns its register bits.
func fenc(ty isa.Type, v float64) uint64 {
	if ty == isa.F32 {
		return uint64(f32bits(float32(v)))
	}
	return f64bits(v)
}

// convert implements CVT between the numeric types via the natural Go
// conversions.
func convert(from, to isa.Type, v uint64) uint64 {
	// Decode source to a canonical pair (i int64, f float64, isF bool).
	var f float64
	var i int64
	isF := false
	switch from {
	case isa.F32:
		f, isF = float64(f32fromBits(uint32(v))), true
	case isa.F64:
		f, isF = f64fromBits(v), true
	case isa.S32:
		i = int64(int32(uint32(v)))
	case isa.U32:
		i = int64(uint32(v))
	case isa.S64:
		i = int64(v)
	default:
		i = int64(v)
	}
	switch to {
	case isa.F32:
		if isF {
			return uint64(f32bits(float32(f)))
		}
		return uint64(f32bits(float32(i)))
	case isa.F64:
		if isF {
			return f64bits(f)
		}
		return f64bits(float64(i))
	default:
		if isF {
			i = int64(f)
		}
		return truncate(to, uint64(i))
	}
}
