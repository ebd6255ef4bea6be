package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WireTaint tracks untrusted wire-decoded integers — varint and
// fixed-width reads, binary.Read / JSON decode targets, and values
// returned by helpers that decode them — into allocation sizes, the bug
// class behind the pre-fix ReadRecording segment bomb (PR 6) and the
// store header bomb (PR 9): a corrupt or hostile length prefix a few
// bytes long demanding a multi-GiB make.
//
// The rule it encodes: every wire-decoded length must pass a budget
// comparison before it sizes a make (or reaches a callee that sizes one
// with it). Sanitizers are ordering comparisons that bound the value
// from above (if n > budget; not if n < 1 or for i < n), min() with a
// bounded argument, masking (& / %), and narrow (≤16-bit) conversions;
// an allocation is flagged only when the tainted value reaches it with
// none of those on any earlier line of the function — a deliberate
// lexical approximation of "checked on every path" that matches both
// pre-fix bug shapes and stays quiet on the budget-checked readers.
//
// Taint crosses function boundaries through facts: a function whose
// parameter flows unchecked into an allocation size exports an
// alloc-size-param fact, and callers passing tainted values into such a
// parameter are flagged at the call site; a function returning a
// wire-decoded value (like the varint helpers) exports a tainted-result
// fact, so its callers treat the result as wire input. Facts propagate
// across packages within one run.
var WireTaint = &Analyzer{
	Name:      "wiretaint",
	Directive: DirectiveConcOk,
	Doc: "flags allocations sized by unchecked wire-decoded lengths\n\n" +
		"Every decoded length must be compared against a budget before " +
		"it sizes a make; a lying length prefix must fail, not allocate.",
	Skip: skipUnder(
		"st2gpu/internal/analysis",
		"st2gpu/examples",
	),
	Run: runWireTaint,
}

// wtAllocParamsFact marks parameters that flow unchecked into an
// allocation size inside the function.
type wtAllocParamsFact struct {
	params []int // parameter indices
}

// wtTaintedResultFact marks functions whose results carry wire-decoded
// values (varint helpers and the like).
type wtTaintedResultFact struct{}

func runWireTaint(pass *Pass) error {
	wt := &wireTaint{pass: pass}
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// Fact rounds before the reporting round: same-package helpers can
	// chain (readUvarint feeding a sizing helper), so facts are computed
	// twice to let one level of local chaining settle; cross-package
	// facts from dependencies are already present.
	for round := 0; round < 2; round++ {
		for _, fd := range decls {
			wt.computeFacts(fd)
		}
	}
	for _, fd := range decls {
		fn := wt.newFn(fd, false, false)
		fn.walk(fd.Body)
	}
	return nil
}

type wireTaint struct {
	pass *Pass
}

// wtFn analyzes one function body in source order.
type wtFn struct {
	wt   *wireTaint
	decl *ast.FuncDecl
	// factMode: findings are recorded as facts instead of diagnostics.
	factMode bool
	// taintParams: parameters are pre-tainted to discover alloc-size
	// params. Off in the result-fact walk, where only genuine wire
	// sources may taint a result — a pure arithmetic helper returning a
	// param-derived value is not wire input.
	taintParams bool

	// tainted holds locals carrying unchecked wire-decoded values.
	tainted map[types.Object]bool
	// checked holds objects that passed a bound comparison.
	checked map[types.Object]bool
	// decodeTargets holds objects whose address was handed to a decode
	// call (binary.Read, json.Unmarshal, Decoder.Decode): their fields
	// are wire input too.
	decodeTargets map[types.Object]bool
	// checkedSel holds "obj.Field" selector paths that passed a bound
	// comparison.
	checkedSel map[string]bool
	// condBlocks holds the bodies that run on some paths only (if/else
	// branches, switch and select cases, loop bodies); loopConds the
	// for-loop conditions. Entries may be nil.
	condBlocks, loopConds []ast.Node

	// factMode outputs.
	paramIdx    map[types.Object]int
	allocParams map[int]bool
	resTainted  bool
}

func (wt *wireTaint) newFn(fd *ast.FuncDecl, factMode, taintParams bool) *wtFn {
	fn := &wtFn{
		wt:            wt,
		decl:          fd,
		factMode:      factMode,
		taintParams:   taintParams,
		tainted:       make(map[types.Object]bool),
		checked:       make(map[types.Object]bool),
		decodeTargets: make(map[types.Object]bool),
		checkedSel:    make(map[string]bool),
	}
	if taintParams {
		fn.paramIdx = make(map[types.Object]int)
		fn.allocParams = make(map[int]bool)
		for i, p := range paramObjs(wt.pass.TypesInfo, fd.Type) {
			if p != nil && isInteger(p.Type()) {
				fn.paramIdx[p] = i
				fn.tainted[p] = true
			}
		}
	}
	return fn
}

// computeFacts runs fd in fact mode twice — once with parameters
// tainted (alloc-size-param discovery) and once with only genuine wire
// sources (tainted-result discovery) — and exports the resulting facts.
// The split matters: a pure arithmetic helper whose result derives from
// its parameters must not be mistaken for a wire decoder.
func (wt *wireTaint) computeFacts(fd *ast.FuncDecl) {
	obj := wt.pass.TypesInfo.ObjectOf(fd.Name)
	if obj == nil {
		return
	}
	fn := wt.newFn(fd, true, true)
	fn.walk(fd.Body)
	if len(fn.allocParams) > 0 {
		var idxs []int
		for i := range fn.allocParams {
			idxs = append(idxs, i)
		}
		wt.pass.ExportFact(obj, &wtAllocParamsFact{params: idxs})
	}
	res := wt.newFn(fd, true, false)
	res.walk(fd.Body)
	if res.resTainted {
		wt.pass.ExportFact(obj, &wtTaintedResultFact{})
	}
}

// walk visits the body in source order, updating taint state and
// reporting (or fact-recording) sink hits.
func (fn *wtFn) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures get their own facts only via decls; skip
		case *ast.IfStmt:
			fn.condBlocks = append(fn.condBlocks, n.Body, n.Else)
		case *ast.CaseClause, *ast.CommClause:
			fn.condBlocks = append(fn.condBlocks, n)
		case *ast.RangeStmt:
			fn.condBlocks = append(fn.condBlocks, n.Body)
		case *ast.ForStmt:
			fn.condBlocks = append(fn.condBlocks, n.Body)
			fn.loopConds = append(fn.loopConds, n.Cond)
		case *ast.BinaryExpr:
			fn.noteComparison(n)
		case *ast.AssignStmt:
			fn.assign(n)
		case *ast.CallExpr:
			fn.call(n)
		case *ast.ReturnStmt:
			if fn.factMode && !fn.taintParams {
				for _, r := range n.Results {
					if fn.taintedExpr(r) {
						fn.resTainted = true
					}
				}
			}
		}
		return true
	})
}

// noteComparison marks the operand an ordering comparison bounds from
// above checked. In a branch condition that is the left of > / >= and the
// right of < / <=: the budget-check idiom (`if segLen > maxBytes-total {
// return err }`) keeps the decoded value there, and a lower bound (`if
// workers < 1`) puts it on the other side, checking nothing. A loop
// condition holds while the loop runs, so it bounds the opposite side:
// `for i < n` bounds i, not n.
func (fn *wtFn) noteComparison(b *ast.BinaryExpr) {
	greater, lesser := b.X, b.Y
	switch b.Op {
	case token.GTR, token.GEQ:
	case token.LSS, token.LEQ:
		greater, lesser = b.Y, b.X
	default:
		return
	}
	side := greater
	for _, c := range fn.loopConds {
		if within(c, b.Pos()) {
			side = lesser
		}
	}
	side = ast.Unparen(side)
	// A widening conversion in the comparison (`uint64(n) > budget`)
	// still checks the underlying value.
	if call, ok := side.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := fn.wt.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			side = ast.Unparen(call.Args[0])
		}
	}
	if id, ok := side.(*ast.Ident); ok {
		if obj := fn.wt.pass.TypesInfo.ObjectOf(id); obj != nil {
			fn.checked[obj] = true
		}
		return
	}
	if key, ok := fn.selKey(side); ok {
		fn.checkedSel[key] = true
	}
}

// selKey renders obj.Field (with the root a decode target or any local)
// as a stable string key, reporting whether e is such a selector.
func (fn *wtFn) selKey(e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	root := rootIdent(sel.X)
	if root == nil {
		return "", false
	}
	obj := fn.wt.pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return "", false
	}
	return obj.Name() + "\x00" + sel.Sel.Name, true
}

// assign re-classifies assignment targets: a tainted right side taints
// the target (clearing any earlier check — it is a new untrusted
// value); an untainted right side clears it, unless the assignment sits
// in a branch the target was declared outside of, where the tainted
// value still flows past it on the other path (`if workers < 1 {
// workers = procs }`).
func (fn *wtFn) assign(a *ast.AssignStmt) {
	info := fn.wt.pass.TypesInfo
	if len(a.Lhs) == len(a.Rhs) {
		for i, l := range a.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				continue
			}
			if fn.taintedExpr(a.Rhs[i]) {
				fn.tainted[obj] = true
				delete(fn.checked, obj)
			} else if (a.Tok == token.DEFINE || a.Tok == token.ASSIGN) && !fn.branchOnly(a.Pos(), obj) {
				delete(fn.tainted, obj)
			}
		}
		return
	}
	// Multi-value form: x, err := f(...). Taint every non-error target
	// when the call is a wire source.
	if len(a.Rhs) == 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok && fn.wireSourceCall(call) {
			for _, l := range a.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || !isInteger(obj.Type()) {
					continue
				}
				fn.tainted[obj] = true
				delete(fn.checked, obj)
			}
		}
	}
}

// branchOnly reports whether pos lies in a conditional body that obj was
// declared outside of: code there runs on some paths to obj's later uses
// but not all.
func (fn *wtFn) branchOnly(pos token.Pos, obj types.Object) bool {
	for _, b := range fn.condBlocks {
		if within(b, pos) && !within(b, obj.Pos()) {
			return true
		}
	}
	return false
}

// within reports whether p lies inside the (possibly nil) node n.
func within(n ast.Node, p token.Pos) bool {
	return n != nil && n.Pos() <= p && p < n.End()
}

// call handles decode-target registration and the two sinks: make sizes
// and alloc-size parameters of known callees.
func (fn *wtFn) call(call *ast.CallExpr) {
	info := fn.wt.pass.TypesInfo

	// Register decode targets: binary.Read(r, order, &x),
	// json.Unmarshal(b, &x), (*json.Decoder).Decode(&x).
	if target := decodeTargetArg(info, call); target != nil {
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				fn.decodeTargets[obj] = true
			}
		}
	}

	// Sink 1: make([]T, n[, c]) / make(map, n) / make(chan, n).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			for _, sz := range call.Args[1:] {
				if fn.taintedExpr(sz) {
					fn.sink(sz, "make")
				}
			}
			return
		}
	}

	// Sink 2: passing a tainted value into a callee parameter that sizes
	// an allocation unchecked (alloc-size-param fact).
	callee := calleeObject(info, call.Fun)
	if callee == nil {
		return
	}
	fact, ok := fn.wt.pass.ImportFact(callee)
	if !ok {
		return
	}
	ap, ok := fact.(*wtAllocParamsFact)
	if !ok {
		return
	}
	for _, i := range ap.params {
		if i < len(call.Args) && fn.taintedExpr(call.Args[i]) {
			fn.sinkCall(call.Args[i], callee)
		}
	}
}

// sink records a tainted allocation size: a finding in reporting mode,
// an alloc-param fact in fact mode.
func (fn *wtFn) sink(sz ast.Expr, kind string) {
	if fn.factMode {
		fn.recordParamSink(sz)
		return
	}
	fn.wt.pass.ReportRangef(sz.Pos(), sz.End(),
		"allocation sized by wire-decoded value %s with no bound check before it: a corrupt or hostile length prefix can demand GiBs; compare it against a byte budget (the RecordMaxBytes idiom) before the %s (DESIGN.md §16)",
		types.ExprString(sz), kind)
}

func (fn *wtFn) sinkCall(arg ast.Expr, callee types.Object) {
	if fn.factMode {
		fn.recordParamSink(arg)
		return
	}
	fn.wt.pass.ReportRangef(arg.Pos(), arg.End(),
		"wire-decoded value %s reaches an allocation size inside %s with no bound check on this path; check it against a byte budget before the call (DESIGN.md §16)",
		types.ExprString(arg), callee.Name())
}

// recordParamSink marks the parameters feeding a tainted sink
// expression in fact mode.
func (fn *wtFn) recordParamSink(e ast.Expr) {
	if fn.paramIdx == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := fn.wt.pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return true
		}
		if i, isParam := fn.paramIdx[obj]; isParam && fn.tainted[obj] && !fn.checked[obj] {
			fn.allocParams[i] = true
		}
		return true
	})
}

// taintedExpr reports whether e carries an unchecked wire-decoded value.
func (fn *wtFn) taintedExpr(e ast.Expr) bool {
	info := fn.wt.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return false
		}
		if fn.decodeTargets[obj] && !fn.checked[obj] {
			return true
		}
		return fn.tainted[obj] && !fn.checked[obj]
	case *ast.SelectorExpr:
		// A field of a decode target is wire input until that field is
		// checked.
		if root := rootIdent(e.X); root != nil {
			obj := info.ObjectOf(root)
			if obj != nil && fn.decodeTargets[obj] {
				if key, ok := fn.selKey(e); ok && fn.checkedSel[key] {
					return false
				}
				return true
			}
		}
		return false
	case *ast.IndexExpr:
		return fn.taintedExpr(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.REM, token.AND:
			return false // masked/modulo: bounded by the right operand
		case token.ADD, token.SUB, token.MUL, token.QUO, token.SHL, token.SHR, token.OR, token.XOR:
			return fn.taintedExpr(e.X) || fn.taintedExpr(e.Y)
		}
		return false
	case *ast.UnaryExpr:
		return fn.taintedExpr(e.X)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: narrow integer targets bound the value.
			if isNarrowInt(tv.Type) {
				return false
			}
			for _, a := range e.Args {
				if fn.taintedExpr(a) {
					return true
				}
			}
			return false
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
				switch id.Name {
				case "min":
					// min is tainted only if every argument is: one bounded
					// operand bounds the result.
					for _, a := range e.Args {
						if !fn.taintedExpr(a) {
							return false
						}
					}
					return len(e.Args) > 0
				case "len", "cap", "max":
					return false
				}
				return false
			}
		}
		return fn.wireSourceCall(e)
	}
	return false
}

// wireSourceCall reports whether call reads a wire-level integer:
// binary.ReadUvarint / ReadVarint, binary.<Order>.Uint32/Uint64, or a
// function carrying a tainted-result fact.
func (fn *wtFn) wireSourceCall(call *ast.CallExpr) bool {
	info := fn.wt.pass.TypesInfo
	if pkgFunc(info, call.Fun, "encoding/binary", "ReadUvarint") ||
		pkgFunc(info, call.Fun, "encoding/binary", "ReadVarint") {
		return true
	}
	// binary.LittleEndian.Uint32(b) and friends: a *types.Func from
	// encoding/binary named Uint32/Uint64 (Uint16 is bounded at 64 KiB
	// and sizes nothing dangerous).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj, ok := info.ObjectOf(sel.Sel).(*types.Func); ok && obj.Pkg() != nil &&
			obj.Pkg().Path() == "encoding/binary" &&
			(sel.Sel.Name == "Uint32" || sel.Sel.Name == "Uint64") {
			return true
		}
	}
	if callee := calleeObject(info, call.Fun); callee != nil {
		if fact, ok := fn.wt.pass.ImportFact(callee); ok {
			if _, ok := fact.(*wtTaintedResultFact); ok {
				return true
			}
		}
	}
	return false
}

// decodeTargetArg returns the &x argument of a decode call, or nil:
// binary.Read(r, order, &x) — arg 2; json.Unmarshal(b, &x) — arg 1;
// dec.Decode(&x) on *encoding/json.Decoder — arg 0.
func decodeTargetArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	deref := func(e ast.Expr) ast.Expr {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
			return u.X
		}
		return e
	}
	if pkgFunc(info, call.Fun, "encoding/binary", "Read") && len(call.Args) == 3 {
		return deref(call.Args[2])
	}
	if pkgFunc(info, call.Fun, "encoding/json", "Unmarshal") && len(call.Args) == 2 {
		return deref(call.Args[1])
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Decode" && len(call.Args) == 1 {
		if obj, ok := info.ObjectOf(sel.Sel).(*types.Func); ok && obj.Pkg() != nil &&
			obj.Pkg().Path() == "encoding/json" {
			return deref(call.Args[0])
		}
	}
	return nil
}

// isNarrowInt reports whether t is an integer type of 16 bits or fewer:
// converting through one bounds the value below any realistic budget.
func isNarrowInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int8, types.Int16, types.Uint8, types.Uint16:
		return true
	}
	return false
}
