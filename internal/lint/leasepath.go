package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LeasePath is the interprocedural upgrade of scratchalias: a pool lease
// (grid.CMatPool/MatPool or sync.Pool Get) must be released or handed off
// on every path out of the function that acquired it — including paths
// that leave early through an error return, and releases that happen
// inside helpers or deferred closures.
//
// Where scratchalias asks "does the lease alias memory beyond this call?",
// leasepath asks the dual question: "does every path dispose of the
// lease?" A lease is disposed by a Put (direct, deferred, inside a
// deferred closure, or inside a callee whose summary proves it always
// releases that parameter), by being returned to the caller (an explicit
// hand-off — scratchalias decides whether that is legal), or by being
// stored into a container for a later drain (the sanctioned ParallelFor
// fan-out). A path that simply drops the lease — the classic
// `if err != nil { return nil, err }` between Get and Put — leaks pool
// memory and, once the pool refills from elsewhere, silently degrades the
// zero-alloc steady state the perf PRs measured.
//
// The analysis is a branch-sensitive must-release walk over each function,
// consulting per-function summaries (summary.go) at call sites so release
// helpers and pass-through functions (fft.ApplyKernel returning its dst)
// are followed through the call graph. A lease acquired on only one
// arm of a conditional stops being tracked at the join — path correlation
// like `if banded { prod = Get } … if prod != nil { Put(prod) }` is beyond
// a linter, and a false positive here would train people to ignore the
// rule. Calls into packages outside the analysis set likewise end
// tracking.
var LeasePath = &Analyzer{
	Name: "leasepath",
	Doc:  "flags pool leases (grid pools, sync.Pool) not released or handed off on every path, following helpers and deferred closures",
	Run:  runLeasePath,
}

func runLeasePath(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	if strings.HasSuffix(pass.Pkg.Path(), "internal/grid") {
		// The pool implementation itself hands leases out; the contract
		// binds its clients.
		return
	}
	pkg := pass.Prog.packageOf(pass.Pkg)
	if pkg == nil {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lw := newLeaseWalker(pass.Prog, pkg, fd, pass)
			lw.seedGets = true
			lw.walk()
		}
	}
}

// A lease is one tracked pool acquisition (or, in summary mode, one
// tracked parameter).
type lease struct {
	id     int
	pos    token.Pos // Get site (or parameter declaration)
	name   string
	param  int // parameter index in summary mode, -1 for Get leases
	depth  int // function-literal nesting depth at the seed site
	leaked bool

	onReturn func()
	onEscape func()
}

// leaseState is one control-flow path's view: which objects currently
// alias which lease, and which leases are still live (present and true) or
// disposed (present and false). A lease absent from live is untracked on
// this path.
type leaseState struct {
	bind map[types.Object]int
	live map[int]bool
}

func newLeaseState() *leaseState {
	return &leaseState{bind: map[types.Object]int{}, live: map[int]bool{}}
}

func (s *leaseState) clone() *leaseState {
	c := newLeaseState()
	for k, v := range s.bind {
		c.bind[k] = v
	}
	for k, v := range s.live {
		c.live[k] = v
	}
	return c
}

// mergeMust joins two branch states under must-release semantics: a lease
// is disposed only when both arms disposed it, and a lease tracked on only
// one arm (born inside it) becomes untracked — see the analyzer comment on
// path correlation.
func mergeMust(a, b *leaseState) *leaseState {
	m := newLeaseState()
	for id, la := range a.live {
		lb, ok := b.live[id]
		if !ok {
			continue // tracked on one arm only: drop
		}
		m.live[id] = la || lb // live on either arm → still owed a release
	}
	for obj, id := range a.bind {
		if _, ok := m.live[id]; ok {
			m.bind[obj] = id
		}
	}
	for obj, id := range b.bind {
		if _, ok := m.bind[obj]; !ok {
			if _, tracked := m.live[id]; tracked {
				m.bind[obj] = id
			}
		}
	}
	return m
}

type leaseWalker struct {
	prog *Program
	pkg  *Package
	fd   *ast.FuncDecl
	pass *Pass // analyzer mode: leak/escape reporting; nil in summary mode

	seedGets bool
	leases   []*lease
	seeded   *leaseState // pre-seeded parameter bindings (summary mode)
	depth    int         // current function-literal nesting depth
	noExit   int         // >0 while inside a deferred closure: suppress exit checks
}

func newLeaseWalker(prog *Program, pkg *Package, fd *ast.FuncDecl, pass *Pass) *leaseWalker {
	return &leaseWalker{prog: prog, pkg: pkg, fd: fd, pass: pass, seeded: newLeaseState()}
}

// seedParam registers parameter i as a tracked lease (summary mode), with
// hooks fired when a path returns or escapes it.
func (w *leaseWalker) seedParam(fd *ast.FuncDecl, i int, onReturn, onEscape func()) {
	obj := paramObject(w.pkg.Info, fd, i)
	if obj == nil {
		return
	}
	l := &lease{id: len(w.leases), pos: obj.Pos(), name: obj.Name(), param: i,
		onReturn: onReturn, onEscape: onEscape}
	w.leases = append(w.leases, l)
	w.seeded.bind[obj] = l.id
	w.seeded.live[l.id] = true
}

// paramObject returns the types.Object of declared parameter i of fd.
func paramObject(info *types.Info, fd *ast.FuncDecl, i int) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	n := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if n == i {
				return info.Defs[name]
			}
			n++
		}
		if len(field.Names) == 0 {
			n++
		}
	}
	return nil
}

// walk runs the analysis and returns, per parameter index, whether some
// path left that parameter's lease neither released nor handed off.
func (w *leaseWalker) walk() []bool {
	st := w.seeded.clone()
	w.stmt(w.fd.Body, st)
	w.exitCheck(w.fd.Body.End(), st)

	leaked := make([]bool, numParams(w.fd))
	for _, l := range w.leases {
		if l.param >= 0 && l.param < len(leaked) && l.leaked {
			leaked[l.param] = true
		}
	}
	return leaked
}

// exitCheck fires at every path exit: any lease still live that was seeded
// at the current literal depth (or shallower, for the function body's own
// exit) leaks on this path.
func (w *leaseWalker) exitCheck(pos token.Pos, st *leaseState) {
	if w.noExit > 0 {
		return
	}
	for id, live := range st.live {
		if !live {
			continue
		}
		l := w.leases[id]
		if l.depth < w.depth {
			continue // an outer lease is not leaked by an inner return
		}
		if !l.leaked {
			l.leaked = true
			if w.pass != nil && l.param < 0 {
				w.pass.Report(l.pos,
					"pool lease %s is not released on every path: the exit at line %d neither Puts it nor hands it off (leasepath contract, DESIGN.md)",
					l.name, w.pass.Fset.Position(pos).Line)
			}
		}
	}
}

// newLease seeds a fresh Get-site lease on the current path.
func (w *leaseWalker) newLease(pos token.Pos, name string, st *leaseState) int {
	l := &lease{id: len(w.leases), pos: pos, name: name, param: -1, depth: w.depth}
	w.leases = append(w.leases, l)
	st.live[l.id] = true
	return l.id
}

func (w *leaseWalker) dispose(id int, st *leaseState) {
	if _, ok := st.live[id]; ok {
		st.live[id] = false
	}
}

func (w *leaseWalker) escape(id int, st *leaseState) {
	l := w.leases[id]
	if l.onEscape != nil {
		l.onEscape()
	}
	w.dispose(id, st)
}

// isPoolGet mirrors scratchalias's source set.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	mi, ok := methodInfoOf(info, call)
	if !ok || mi.name != "Get" {
		return false
	}
	if mi.pkg == "sync" && mi.typ == "Pool" {
		return true
	}
	return strings.HasSuffix(mi.pkg, "internal/grid") && (mi.typ == "CMatPool" || mi.typ == "MatPool")
}

func isPoolPut(info *types.Info, call *ast.CallExpr) bool {
	mi, ok := methodInfoOf(info, call)
	if !ok || mi.name != "Put" {
		return false
	}
	if mi.pkg == "sync" && mi.typ == "Pool" {
		return true
	}
	return strings.HasSuffix(mi.pkg, "internal/grid") && (mi.typ == "CMatPool" || mi.typ == "MatPool")
}

// expr evaluates e for lease identity: the returned id is the lease e
// aliases, or -1. Sub-expressions with call effects are processed.
func (w *leaseWalker) expr(e ast.Expr, st *leaseState) int {
	switch e := e.(type) {
	case nil:
		return -1
	case *ast.Ident:
		if obj := w.pkg.Info.ObjectOf(e); obj != nil {
			if id, ok := st.bind[obj]; ok {
				if live, tracked := st.live[id]; tracked && live {
					return id
				}
			}
		}
		return -1
	case *ast.ParenExpr:
		return w.expr(e.X, st)
	case *ast.CallExpr:
		return w.call(e, st)
	case *ast.UnaryExpr:
		w.expr(e.X, st)
		return -1
	case *ast.StarExpr:
		w.expr(e.X, st)
		return -1
	case *ast.SelectorExpr:
		w.expr(e.X, st)
		return -1
	case *ast.IndexExpr:
		w.expr(e.X, st)
		w.expr(e.Index, st)
		return -1
	case *ast.SliceExpr:
		w.expr(e.X, st)
		return -1
	case *ast.TypeAssertExpr:
		// v.(*grid.CMat) preserves identity for sync.Pool leases.
		return w.expr(e.X, st)
	case *ast.BinaryExpr:
		w.expr(e.X, st)
		w.expr(e.Y, st)
		return -1
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if id := w.expr(el, st); id >= 0 {
				// A lease captured in a composite literal is handed off to
				// whatever owns the literal.
				w.escape(id, st)
			}
		}
		return -1
	case *ast.FuncLit:
		// The closure runs in this scope (ParallelFor worker bodies):
		// analyze against the shared state, one literal level deeper.
		w.depth++
		w.stmt(e.Body, st)
		w.depth--
		return -1
	}
	return -1
}

// call processes one call expression: pool Get/Put, summary-informed
// helper effects, and lease pass-through.
func (w *leaseWalker) call(call *ast.CallExpr, st *leaseState) int {
	info := w.pkg.Info
	w.expr(call.Fun, st) // selector bases, inline literals

	if isPoolGet(info, call) {
		for _, a := range call.Args {
			w.expr(a, st)
		}
		if w.seedGets {
			return w.newLease(call.Pos(), exprText(call.Fun), st)
		}
		return -1
	}
	if isPoolPut(info, call) && len(call.Args) == 1 {
		if id := w.expr(call.Args[0], st); id >= 0 {
			w.dispose(id, st)
		}
		return -1
	}

	// Evaluate arguments, remembering which carry leases.
	argLease := make([]int, len(call.Args))
	any := false
	for i, a := range call.Args {
		argLease[i] = w.expr(a, st)
		if argLease[i] >= 0 {
			any = true
		}
	}
	if !any {
		return -1
	}

	sum := w.prog.SummaryFor(w.pkg, call)
	if sum == nil {
		// A callee outside the analysis set (or a dynamic call) swallows
		// the lease: assume a hand-off rather than accuse unseen code.
		for _, id := range argLease {
			if id >= 0 {
				w.dispose(id, st)
			}
		}
		return -1
	}
	result := -1
	for i, id := range argLease {
		if id < 0 {
			continue
		}
		si := i
		if si >= sum.NumParams { // variadic tail collapses onto the last
			si = sum.NumParams - 1
		}
		if si < 0 {
			continue
		}
		switch {
		case sum.Releases[si]:
			w.dispose(id, st)
		case sum.Escapes[si]:
			l := w.leases[id]
			if w.pass != nil && l.param < 0 && !l.leaked {
				l.leaked = true
				w.pass.Report(call.Pos(),
					"pool lease %s escapes through this call: %s stores its parameter %d beyond the call (leasepath contract, DESIGN.md)",
					l.name, calleeText(call), si)
			}
			w.escape(id, st)
		case sum.Returns[si]:
			// Pass-through: the result aliases the same lease (the
			// fft.ApplyKernel shape). The argument keeps it too.
			result = id
		}
	}
	return result
}

func calleeText(call *ast.CallExpr) string {
	return exprText(call.Fun)
}

// assign binds or escapes the flow of a lease into one assignment target.
func (w *leaseWalker) assign(lhs ast.Expr, id int, st *leaseState) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := w.pkg.Info.ObjectOf(lhs)
		if obj == nil {
			return
		}
		if id >= 0 {
			if isPackageLevel(obj) {
				w.escape(id, st)
				return
			}
			st.bind[obj] = id
		} else {
			delete(st.bind, obj)
		}
	case *ast.SelectorExpr:
		w.expr(lhs.X, st)
		if id >= 0 {
			w.escape(id, st) // field store: scratchalias's finding to make
		}
	case *ast.IndexExpr:
		w.expr(lhs.X, st)
		w.expr(lhs.Index, st)
		if id >= 0 {
			// Container hand-off: the sanctioned fan-out (contribs[k] = c,
			// drained and Put by the enclosing function).
			w.escape(id, st)
		}
	case *ast.StarExpr:
		w.expr(lhs.X, st)
		if id >= 0 {
			w.escape(id, st)
		}
	}
}

// stmt walks one statement under must-release semantics.
func (w *leaseWalker) stmt(s ast.Stmt, st *leaseState) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			w.stmt(sub, st)
		}
	case *ast.ExprStmt:
		w.expr(s.X, st)
		// A path ending in panic crashes out; pool state is moot there.
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok {
				if _, isBuiltin := w.pkg.Info.ObjectOf(id).(*types.Builtin); isBuiltin && id.Name == "panic" {
					for lid := range st.live {
						st.live[lid] = false
					}
				}
			}
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			// Multi-assign from one call: the lease (if any) lands on the
			// first alias-capable target.
			id := w.expr(s.Rhs[0], st)
			for _, l := range s.Lhs {
				w.assign(l, id, st)
				id = -1
			}
			return
		}
		for i, l := range s.Lhs {
			if i < len(s.Rhs) {
				w.assign(l, w.expr(s.Rhs[i], st), st)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					id := w.expr(vs.Values[0], st)
					for _, name := range vs.Names {
						w.assign(name, id, st)
						id = -1
					}
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.assign(name, w.expr(vs.Values[i], st), st)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if id := w.expr(r, st); id >= 0 {
				l := w.leases[id]
				if l.onReturn != nil {
					l.onReturn()
				}
				w.dispose(id, st) // hand-off to the caller
			}
		}
		w.exitCheck(s.Pos(), st)
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		if id := w.expr(s.Value, st); id >= 0 {
			w.escape(id, st) // scratchalias reports the send itself
		}
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		thenSt := st.clone()
		w.stmt(s.Body, thenSt)
		elseSt := st.clone()
		w.stmt(s.Else, elseSt)
		*st = *mergeMust(thenSt, elseSt)
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		body := st.clone()
		w.stmt(s.Body, body)
		w.stmt(s.Post, body)
		*st = *mergeMust(st, body)
	case *ast.RangeStmt:
		w.expr(s.X, st)
		body := st.clone()
		for _, v := range []ast.Expr{s.Key, s.Value} {
			if v != nil {
				w.assign(v, -1, body)
			}
		}
		w.stmt(s.Body, body)
		*st = *mergeMust(st, body)
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		w.expr(s.Tag, st)
		w.branches(st, caseBodies(s.Body), hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		w.branches(st, caseBodies(s.Body), hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		def := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				def = true
			}
			bodies = append(bodies, append([]ast.Stmt{}, cc.Body...))
		}
		w.branches(st, bodies, def)
	case *ast.DeferStmt:
		// A deferred Put (or release helper, or closure containing one)
		// runs at every subsequent exit: apply its release effects now.
		// Exit checks inside a deferred closure are suppressed — its
		// returns end the defer, not the function.
		w.noExit++
		if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.depth++
			w.stmt(lit.Body, st)
			w.depth--
		} else {
			w.expr(s.Call, st)
		}
		w.noExit--
	case *ast.GoStmt:
		if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.depth++
			w.stmt(lit.Body, st)
			w.depth--
		} else {
			w.expr(s.Call, st)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	}
}

// branches merges a set of alternative bodies. Without a default clause
// the fall-through (no case taken) path keeps the incoming state in the
// merge; with one, some body always runs.
func (w *leaseWalker) branches(st *leaseState, bodies [][]ast.Stmt, hasDefault bool) {
	var merged *leaseState
	for _, body := range bodies {
		branch := st.clone()
		for _, sub := range body {
			w.stmt(sub, branch)
		}
		if merged == nil {
			merged = branch
		} else {
			merged = mergeMust(merged, branch)
		}
	}
	if merged == nil {
		return
	}
	if !hasDefault {
		merged = mergeMust(merged, st)
	}
	*st = *merged
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// methodInfoOf is the Pass-free form of Pass.method (callgraph and
// summaries run before any Pass exists).
func methodInfoOf(info *types.Info, call *ast.CallExpr) (methodInfo, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return methodInfo{}, false
	}
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return methodInfo{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return methodInfo{}, false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return methodInfo{}, false
	}
	mi := methodInfo{typ: named.Obj().Name(), name: fn.Name()}
	if named.Obj().Pkg() != nil {
		mi.pkg = named.Obj().Pkg().Path()
	}
	return mi, true
}
