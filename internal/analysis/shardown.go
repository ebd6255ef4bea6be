package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardOwn enforces the per-SM / per-cell ownership rule of DESIGN.md §7
// inside worker goroutines: a goroutine spawned by Launch or a sweep
// pool may write a shared slice only at the index it owns (its claimed
// SM id, its grid-cell index, its per-iteration loop variable), and may
// never write a shared map or append to a shared slice at all.
//
// "Owned" is computed by local dataflow inside the worker body:
//
//   - parameters of a worker callback invoked by a dispatcher (a
//     function that calls its func-typed parameter from inside a
//     goroutine, like experiments.runGrid, or from inside a
//     callback it hands such a dispatcher);
//   - variables captured from a loop iteration that encloses the `go`
//     statement (Go ≥1.22 loop variables are per-iteration);
//   - results of an atomic claim (x.Add(1) on a sync/atomic value) or a
//     channel receive;
//   - arithmetic over owned values, constants, and read-only captures;
//     and elements of shared slices read at an owned index.
//
// Ownership facts propagate across same-package helper calls: passing a
// shared slice together with an owned index into a helper re-checks the
// helper's writes with those parameters marked shared/owned. Writes to
// captured scalars are allowed only under a held sync mutex.
var ShardOwn = &Analyzer{
	Name:      "shardown",
	Directive: DirectiveDetOk,
	Doc: "enforces worker-goroutine shard ownership (DESIGN.md §7)\n\n" +
		"Worker goroutines may write shared slices only at worker-owned " +
		"indices, and may never write shared maps.",
	Skip: skipUnder(
		"st2gpu/internal/analysis",
		"st2gpu/examples",
	),
	Run: runShardOwn,
}

func runShardOwn(pass *Pass) error {
	so := &shardOwn{
		pass:    pass,
		decls:   make(map[types.Object]*ast.FuncDecl),
		checked: make(map[helperKey]bool),
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.ObjectOf(fd.Name); obj != nil {
					so.decls[obj] = fd
				}
			}
		}
	}
	// Export a writes-summary fact for every function before checking, so
	// importing packages (checked later in dependency order) can validate
	// calls into this package's helpers from their worker goroutines.
	for obj, fd := range so.decls {
		if fact := so.computeWritesFact(fd); fact != nil {
			pass.ExportFact(obj, fact)
		}
	}
	so.findDispatchers()
	for _, file := range pass.Files {
		so.checkFile(file)
	}
	return nil
}

// Write kinds recorded in soWritesFact.
const (
	soWriteIndex  = iota // container[expr] = ...
	soWriteMap           // map[key] = ...
	soWriteAppend        // container = append(container, ...)
	soWriteScalar        // *p = ... / p.Field = ... without indexing
)

// soWrite is one write to a parameter-rooted container inside a helper.
type soWrite struct {
	param     int   // written parameter index (soRecvParam for the receiver)
	kind      int   // soWrite* constant
	idxParams []int // parameters the index expression derives from
	// paramOnly: every identifier in the index expression is a parameter
	// or a constant, so the call site fully determines the index.
	paramOnly bool
}

// soRecvParam is the pseudo-index of a method receiver in soWrite.param.
const soRecvParam = -1

// soWritesFact summarizes how a function writes through its parameters,
// so a caller in another package can check worker-goroutine calls into
// it: a shared container passed to a recorded write is safe only when
// the write is an index write whose index parameters all receive owned
// values at the call site.
type soWritesFact struct {
	writes []soWrite
}

// computeWritesFact records fd's writes through parameter- or
// receiver-rooted containers, or nil when there are none. Function
// literals inside fd run on unknown goroutines and are skipped — calls
// into fd only account for fd's own frame.
func (so *shardOwn) computeWritesFact(fd *ast.FuncDecl) *soWritesFact {
	info := so.pass.TypesInfo
	paramIdx := make(map[types.Object]int)
	for i, p := range paramObjs(info, fd.Type) {
		if p != nil {
			paramIdx[p] = i
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		if obj := info.ObjectOf(fd.Recv.List[0].Names[0]); obj != nil {
			paramIdx[obj] = soRecvParam
		}
	}
	if len(paramIdx) == 0 {
		return nil
	}
	var fact soWritesFact
	record := func(lhs ast.Expr, rhs []ast.Expr) {
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			return
		}
		root := rootIdent(lhs)
		if root == nil {
			return
		}
		pi, isParam := paramIdx[info.ObjectOf(root)]
		if !isParam {
			return
		}
		if rootmost := rootmostIndex(lhs); rootmost != nil {
			if isMap(info.Types[rootmost.X].Type) {
				fact.writes = append(fact.writes, soWrite{param: pi, kind: soWriteMap})
				return
			}
			w := soWrite{param: pi, kind: soWriteIndex, paramOnly: true}
			seen := make(map[int]bool)
			ast.Inspect(rootmost.Index, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.ObjectOf(id)
				if obj == nil {
					w.paramOnly = false
					return true
				}
				if _, isConst := obj.(*types.Const); isConst {
					return true
				}
				if j, ok := paramIdx[obj]; ok && j >= 0 {
					if !seen[j] {
						seen[j] = true
						w.idxParams = append(w.idxParams, j)
					}
					return true
				}
				w.paramOnly = false
				return true
			})
			fact.writes = append(fact.writes, w)
			return
		}
		for _, r := range rhs {
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
						fact.writes = append(fact.writes, soWrite{param: pi, kind: soWriteAppend})
						return
					}
				}
			}
		}
		// A plain rebind of the parameter itself (`p = ...`) changes only
		// the callee's local copy; only derefs and field writes reach the
		// caller's state.
		if _, plain := lhs.(*ast.Ident); plain {
			return
		}
		fact.writes = append(fact.writes, soWrite{param: pi, kind: soWriteScalar})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				record(l, n.Rhs)
			}
		case *ast.IncDecStmt:
			record(n.X, nil)
		}
		return true
	})
	if len(fact.writes) == 0 {
		return nil
	}
	return &fact
}

type shardOwn struct {
	pass  *Pass
	decls map[types.Object]*ast.FuncDecl
	// dispatchers maps a function's func-typed parameter object to the
	// per-argument ownedness with which worker goroutines invoke it.
	dispatchers map[types.Object][]bool
	checked     map[helperKey]bool
}

type helperKey struct {
	fn          types.Object
	shared, own uint64 // parameter bitmasks (receiver = bit 63)
}

const recvBit = 63

// workerCtx is the analysis state for one worker function body.
type workerCtx struct {
	so *shardOwn
	// body is the worker function literal (or helper declaration).
	fn ast.Node
	// encl is the outermost enclosing FuncDecl, for read-only checks.
	encl *ast.FuncDecl
	// owned holds objects carrying the worker-owned index/work-item.
	owned map[types.Object]bool
	// sharedParams marks helper parameters bound to shared containers at
	// a propagated call site: declared inside the helper, but aliasing
	// state shared across workers.
	sharedParams map[types.Object]bool
	// loops are the for/range statements enclosing the `go` statement;
	// variables declared inside them are per-iteration copies.
	loops []ast.Node
	depth int
}

// findDispatchers records, for every function in the package that calls
// one of its own func-typed parameters from inside a `go` literal, how
// owned each argument of that call is. A func literal passed to such a
// parameter elsewhere in the package is then analyzed as a worker body.
// Dispatchers layer: a function that calls its func-typed parameter from
// inside a callback it hands to another dispatcher is one too, so the
// search iterates to a fixpoint. Ownedness only ever narrows, so the
// iteration terminates.
func (so *shardOwn) findDispatchers() {
	so.dispatchers = make(map[types.Object][]bool)
	for changed := true; changed; {
		changed = false
		for _, fd := range so.decls {
			fd := fd
			walkStack(fd, func(n ast.Node, stack []ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						changed = so.recordParamCalls(fd, lit, so.newGoCtx(fd, n, lit, stack)) || changed
					}
				case *ast.CallExpr:
					so.forDispatchedLits(n, func(lit *ast.FuncLit, ownedArgs []bool) {
						ctx := so.dispatchedCtx(lit, ownedArgs, fd)
						changed = so.recordParamCalls(fd, lit, ctx) || changed
					})
				}
				return true
			})
		}
	}
}

// recordParamCalls folds the ownedness of every call to one of fd's
// func-typed parameters inside worker body lit into so.dispatchers, and
// reports whether that added a dispatcher or narrowed one.
func (so *shardOwn) recordParamCalls(fd *ast.FuncDecl, lit *ast.FuncLit, ctx *workerCtx) bool {
	info := so.pass.TypesInfo
	changed := false
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil || !isFuncParamOf(obj, fd) {
			return true
		}
		ownedArgs := make([]bool, len(call.Args))
		for i, a := range call.Args {
			ownedArgs[i] = ctx.ownedExpr(a) == ownOwned
		}
		prev, ok := so.dispatchers[obj]
		if !ok {
			so.dispatchers[obj] = ownedArgs
			changed = true
			return true
		}
		for i := range prev {
			if i < len(ownedArgs) && prev[i] && !ownedArgs[i] {
				prev[i] = false
				changed = true
			}
		}
		return true
	})
	return changed
}

// forDispatchedLits calls fn for every func literal that call passes to a
// known dispatcher parameter, with the ownedness of the arguments the
// dispatcher invokes it with.
func (so *shardOwn) forDispatchedLits(call *ast.CallExpr, fn func(lit *ast.FuncLit, ownedArgs []bool)) {
	info := so.pass.TypesInfo
	callee := calleeObject(info, call.Fun)
	if callee == nil {
		return
	}
	fd, ok := so.decls[callee]
	if !ok {
		return
	}
	params := paramObjs(info, fd.Type)
	for i, a := range call.Args {
		lit, ok := ast.Unparen(a).(*ast.FuncLit)
		if !ok || i >= len(params) {
			continue
		}
		if ownedArgs, ok := so.dispatchers[params[i]]; ok {
			fn(lit, ownedArgs)
		}
	}
}

// dispatchedCtx builds the worker context for a func literal a dispatcher
// runs on worker goroutines: its parameters are owned where the
// dispatcher passes owned arguments.
func (so *shardOwn) dispatchedCtx(lit *ast.FuncLit, ownedArgs []bool, encl *ast.FuncDecl) *workerCtx {
	ctx := &workerCtx{
		so:    so,
		fn:    lit,
		encl:  encl,
		owned: make(map[types.Object]bool),
	}
	for j, p := range paramObjs(so.pass.TypesInfo, lit.Type) {
		if j < len(ownedArgs) && ownedArgs[j] {
			ctx.owned[p] = true
		}
	}
	return ctx
}

// isFuncParamOf reports whether obj is a func-typed parameter of fd.
func isFuncParamOf(obj types.Object, fd *ast.FuncDecl) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return false
	}
	if fd.Type.Params == nil {
		return false
	}
	return declaredWithin(obj, fd.Type.Params)
}

// checkFile analyzes every worker body in the file: `go` literals, and
// func literals passed to known dispatcher parameters.
func (so *shardOwn) checkFile(file *ast.File) {
	info := so.pass.TypesInfo
	walkStack(file, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				fd := enclosingDecl(stack)
				ctx := so.newGoCtx(fd, n, lit, stack)
				// Immediate-call arguments bind to literal parameters.
				params := paramObjs(info, lit.Type)
				for i, a := range n.Call.Args {
					if i < len(params) && ctx.ownedExpr(a) == ownOwned {
						ctx.owned[params[i]] = true
					}
				}
				ctx.checkBody(lit.Body)
				return false // literal handled; don't double-visit nested go stmts? keep walking for nested
			}
		case *ast.CallExpr:
			// A func literal passed to a dispatcher parameter runs on
			// worker goroutines.
			so.forDispatchedLits(n, func(lit *ast.FuncLit, ownedArgs []bool) {
				so.dispatchedCtx(lit, ownedArgs, enclosingDecl(stack)).checkBody(lit.Body)
			})
		}
		return true
	})
}

// newGoCtx builds the worker context for a `go func(...){...}(...)`
// statement: captures declared inside enclosing loops are per-iteration.
func (so *shardOwn) newGoCtx(encl *ast.FuncDecl, gs *ast.GoStmt, lit *ast.FuncLit, stack []ast.Node) *workerCtx {
	ctx := &workerCtx{
		so:    so,
		fn:    lit,
		encl:  encl,
		owned: make(map[types.Object]bool),
	}
	for _, a := range stack {
		switch a.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			ctx.loops = append(ctx.loops, a)
		}
	}
	return ctx
}

func enclosingDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

func paramObjs(info *types.Info, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft.Params == nil {
		return nil
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			out = append(out, info.ObjectOf(name))
		}
	}
	return out
}

// calleeObject resolves a call target to its function object, for plain
// and method calls.
func calleeObject(info *types.Info, fun ast.Expr) types.Object {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if o, ok := info.ObjectOf(f).(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if o, ok := info.ObjectOf(f.Sel).(*types.Func); ok {
			return o
		}
	}
	return nil
}

// ownedness lattice for expressions inside a worker body.
type ownedness int

const (
	ownTaint ownedness = iota // reaches shared mutable state or unknown calls
	ownPure                   // constants and read-only captures only
	ownOwned                  // derived from the worker-owned index/claim
)

func combine(a, b ownedness) ownedness {
	if a == ownTaint || b == ownTaint {
		return ownTaint
	}
	if a == ownOwned || b == ownOwned {
		return ownOwned
	}
	return ownPure
}

// localTo reports whether obj is declared inside the worker body itself.
func (ctx *workerCtx) localTo(obj types.Object) bool {
	return declaredWithin(obj, ctx.fn)
}

// perIteration reports whether obj is declared inside a loop that
// encloses the worker's `go` statement — a fresh copy per iteration.
func (ctx *workerCtx) perIteration(obj types.Object) bool {
	for _, l := range ctx.loops {
		if declaredWithin(obj, l) {
			return true
		}
	}
	return false
}

// readOnlyCapture reports whether obj (captured from outside the worker
// body) is never reassigned or address-taken in the enclosing function,
// making it constant-like for index arithmetic.
func (ctx *workerCtx) readOnlyCapture(obj types.Object) bool {
	if ctx.encl == nil || !declaredWithin(obj, ctx.encl) {
		return false // package-level or unknown: stay conservative
	}
	info := ctx.so.pass.TypesInfo
	writable := false
	ast.Inspect(ctx.encl, func(n ast.Node) bool {
		if writable {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok && info.ObjectOf(id) == obj {
					writable = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && info.ObjectOf(id) == obj {
				writable = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && info.ObjectOf(id) == obj {
					writable = true
				}
			}
		}
		return !writable
	})
	return !writable
}

// ownedExpr classifies an expression.
func (ctx *workerCtx) ownedExpr(e ast.Expr) ownedness {
	info := ctx.so.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return ownPure
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return ownTaint
		}
		if _, isConst := obj.(*types.Const); isConst {
			return ownPure
		}
		if ctx.sharedParams[obj] {
			return ownTaint
		}
		if ctx.owned[obj] || ctx.perIteration(obj) {
			return ownOwned
		}
		if ctx.localTo(obj) {
			// Locals are classified when assigned (checkBody seeds
			// ctx.owned); an unseeded local is schedule-private but not
			// owned: it cannot prove a shared write safe.
			return ownPure
		}
		if ctx.readOnlyCapture(obj) {
			return ownPure
		}
		return ownTaint
	case *ast.SelectorExpr:
		if root := rootIdent(e); root != nil {
			return ctx.ownedExpr(root)
		}
		return ownTaint
	case *ast.IndexExpr:
		base := ctx.ownedExpr(e.X)
		idx := ctx.ownedExpr(e.Index)
		if idx == ownOwned {
			return ownOwned // shared[ownedIdx]: the worker's own element
		}
		return combine(base, idx)
	case *ast.BinaryExpr:
		return combine(ctx.ownedExpr(e.X), ctx.ownedExpr(e.Y))
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return ownOwned // received work item
		}
		return ctx.ownedExpr(e.X)
	case *ast.StarExpr:
		return ctx.ownedExpr(e.X)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion.
			res := ownPure
			for _, a := range e.Args {
				res = combine(res, ctx.ownedExpr(a))
			}
			return res
		}
		if isAtomicClaim(info, e) {
			return ownOwned
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin &&
				(id.Name == "len" || id.Name == "cap" || id.Name == "min" || id.Name == "max") {
				res := ownPure
				for _, a := range e.Args {
					if ctx.ownedExpr(a) == ownOwned {
						res = ownOwned
					}
				}
				return res
			}
		}
		return ownTaint
	}
	return ownTaint
}

// isAtomicClaim recognizes x.Add(n) on a sync/atomic value — the
// worker-pool idiom for claiming the next work index.
func isAtomicClaim(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" {
		return false
	}
	obj, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "sync/atomic"
}

// checkBody walks a worker body: classifying locals, validating writes,
// and propagating facts into same-package helpers.
func (ctx *workerCtx) checkBody(body *ast.BlockStmt) {
	info := ctx.so.pass.TypesInfo
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// First classify defines so later uses see ownedness.
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.ObjectOf(id); obj != nil && ctx.ownedExpr(n.Rhs[i]) == ownOwned {
							ctx.owned[obj] = true
						}
					}
				}
			}
			for _, l := range n.Lhs {
				ctx.checkWrite(n, l, n.Rhs, stack)
			}
		case *ast.RangeStmt:
			// `for v := range ch` inside the worker: items are owned.
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.ObjectOf(id); obj != nil {
							ctx.owned[obj] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			ctx.checkWrite(n, n.X, nil, stack)
		case *ast.CallExpr:
			ctx.propagateCall(n, stack)
		}
		return true
	})
}

// sharedRoot resolves the base of a write target: returns the captured
// (shared, non-owned) root identifier's object, or nil when the target
// is local or owned.
func (ctx *workerCtx) sharedRoot(e ast.Expr) types.Object {
	root := rootIdent(e)
	if root == nil {
		return nil // unknown shape: stay silent rather than guess
	}
	obj := ctx.so.pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return nil
	}
	if ctx.sharedParams[obj] {
		return obj
	}
	if ctx.localTo(obj) || ctx.owned[obj] || ctx.perIteration(obj) {
		return nil
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}

// checkWrite validates one assignment target inside the worker body.
func (ctx *workerCtx) checkWrite(stmt ast.Node, lhs ast.Expr, rhs []ast.Expr, stack []ast.Node) {
	info := ctx.so.pass.TypesInfo
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if rootmost := rootmostIndex(lhs); rootmost != nil {
		obj := ctx.sharedRoot(rootmost.X)
		if obj == nil {
			return
		}
		// The index applied directly to the shared root decides ownership:
		// once the worker has selected its own cell (rows[i]), everything
		// beneath it (rows[i].Rates[j]) is worker-private.
		baseType := info.Types[rootmost.X].Type
		if isMap(baseType) {
			ctx.so.pass.Reportf(lhs.Pos(),
				"write to shared map %s inside a worker goroutine: concurrent map writes fault even at distinct keys; give each worker its own map and fold in SM-ID order (DESIGN.md §7)",
				types.ExprString(rootmost.X))
			return
		}
		if ctx.ownedExpr(rootmost.Index) != ownOwned {
			ctx.so.pass.Reportf(lhs.Pos(),
				"write to shared %s at index %s that is not derived from the worker-owned index; workers may write only the cells they own (DESIGN.md §7)",
				types.ExprString(rootmost.X), types.ExprString(rootmost.Index))
		}
		return
	}
	obj := ctx.sharedRoot(lhs)
	if obj == nil {
		return
	}
	// append-to-shared is a growth race even at "distinct" elements.
	for _, r := range rhs {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					ctx.so.pass.Reportf(lhs.Pos(),
						"append to shared slice %s inside a worker goroutine races on length and backing array; accumulate into a per-worker shard and fold after the workers join (DESIGN.md §7)",
						obj.Name())
					return
				}
			}
		}
	}
	if ctx.mutexHeld(stack) {
		return
	}
	ctx.so.pass.Reportf(lhs.Pos(),
		"write to captured variable %s inside a worker goroutine without a held mutex; shard it per worker or guard it (DESIGN.md §7)",
		types.ExprString(lhs))
}

// rootmostIndex returns the index expression applied closest to the
// root of an lvalue chain (rows[i].Rates[j] -> rows[i]), or nil when
// the chain contains no indexing. The root-most index is the one that
// selects the worker's cell out of the shared container; everything
// below it lives inside that cell.
func rootmostIndex(e ast.Expr) *ast.IndexExpr {
	var last *ast.IndexExpr
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			last = v
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return last
		}
	}
}

// mutexHeld reports whether a sync mutex .Lock() call appears earlier in
// one of the statement blocks enclosing the write, inside the worker
// body — a lightweight "is this the guarded-progress idiom" test.
func (ctx *workerCtx) mutexHeld(stack []ast.Node) bool {
	info := ctx.so.pass.TypesInfo
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == ctx.fn {
			break
		}
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, s := range block.List {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
				continue
			}
			if fn, ok := info.ObjectOf(sel.Sel).(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				return true
			}
		}
	}
	return false
}

// propagateCall pushes shared/owned facts into same-package helpers: a
// helper handed a shared container plus owned indices must itself obey
// the ownership rule.
func (ctx *workerCtx) propagateCall(call *ast.CallExpr, stack []ast.Node) {
	if ctx.depth >= 4 {
		return
	}
	info := ctx.so.pass.TypesInfo
	callee := calleeObject(info, call.Fun)
	if callee == nil {
		return
	}
	fd, ok := ctx.so.decls[callee]
	if !ok {
		// Cross-package helper: no syntax to re-walk, but the callee's
		// pass exported a writes summary we can check this call against.
		ctx.applyWritesFact(call, callee)
		return
	}
	var sharedMask, ownMask uint64
	params := paramObjs(info, fd.Type)
	for i, a := range call.Args {
		if i >= len(params) || i >= 63 {
			break
		}
		t := info.Types[a].Type
		if t != nil && (isMap(t) || isSliceOrArray(t) || isPointer(t)) {
			if obj := ctx.sharedRoot(a); obj != nil && ctx.ownedExpr(a) != ownOwned {
				sharedMask |= 1 << i
				continue
			}
		}
		if ctx.ownedExpr(a) == ownOwned {
			ownMask |= 1 << i
		}
	}
	// A method's receiver propagates too: calling m on a shared pointer
	// receiver hands the callee the shared state.
	var recvShared bool
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fd.Recv != nil {
		t := info.Types[sel.X].Type
		if t != nil && isPointer(t) {
			if obj := ctx.sharedRoot(sel.X); obj != nil && ctx.ownedExpr(sel.X) != ownOwned {
				recvShared = true
				sharedMask |= 1 << recvBit
			}
		}
	}
	if sharedMask == 0 {
		return
	}
	key := helperKey{fn: callee, shared: sharedMask, own: ownMask}
	if ctx.so.checked[key] {
		return
	}
	ctx.so.checked[key] = true

	helper := &workerCtx{
		so:    ctx.so,
		fn:    fd,
		encl:  fd,
		owned: make(map[types.Object]bool),
		depth: ctx.depth + 1,
	}
	for i, p := range params {
		if ownMask&(1<<i) != 0 {
			helper.owned[p] = true
		}
	}
	helper.sharedParams = make(map[types.Object]bool)
	for i, p := range params {
		if sharedMask&(1<<i) != 0 {
			helper.sharedParams[p] = true
		}
	}
	if recvShared && fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		if obj := info.ObjectOf(fd.Recv.List[0].Names[0]); obj != nil {
			helper.sharedParams[obj] = true
		}
	}
	helper.checkBody(fd.Body)
}

// applyWritesFact checks one worker-goroutine call into another
// package's helper against the helper's exported writes summary: every
// shared container handed to a recorded write must be an index write
// whose index parameters all receive worker-owned values here.
func (ctx *workerCtx) applyWritesFact(call *ast.CallExpr, callee types.Object) {
	fact, ok := ctx.so.pass.ImportFact(callee)
	if !ok {
		return
	}
	wf, ok := fact.(*soWritesFact)
	if !ok {
		return
	}
	argFor := func(param int) ast.Expr {
		var arg ast.Expr
		if param == soRecvParam {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				arg = sel.X
			}
		} else if param >= 0 && param < len(call.Args) {
			arg = call.Args[param]
		}
		if arg == nil {
			return nil
		}
		// &x hands over x itself; the callee writes through the pointer.
		if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
			return u.X
		}
		return arg
	}
	for _, w := range wf.writes {
		arg := argFor(w.param)
		if arg == nil {
			continue
		}
		if ctx.sharedRoot(arg) == nil || ctx.ownedExpr(arg) == ownOwned {
			continue // not shared state, or the worker's own cell
		}
		switch w.kind {
		case soWriteIndex:
			safe := w.paramOnly && len(w.idxParams) > 0
			for _, j := range w.idxParams {
				idxArg := argFor(j)
				if idxArg == nil || ctx.ownedExpr(idxArg) != ownOwned {
					safe = false
				}
			}
			if !safe {
				ctx.so.pass.Reportf(call.Pos(),
					"call passes shared %s to %s, which writes it at an index not fully determined by worker-owned arguments here (DESIGN.md §7)",
					types.ExprString(arg), callee.Name())
			}
		case soWriteMap:
			ctx.so.pass.Reportf(call.Pos(),
				"call passes shared map %s to %s, which writes it: concurrent map writes fault even at distinct keys (DESIGN.md §7)",
				types.ExprString(arg), callee.Name())
		case soWriteAppend:
			ctx.so.pass.Reportf(call.Pos(),
				"call passes shared slice %s to %s, which appends to it: append races on length and backing array (DESIGN.md §7)",
				types.ExprString(arg), callee.Name())
		case soWriteScalar:
			ctx.so.pass.Reportf(call.Pos(),
				"call passes shared %s to %s, which writes through it without indexing; shard it per worker or guard it (DESIGN.md §7)",
				types.ExprString(arg), callee.Name())
		}
	}
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
