package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ScratchAlias flags pool-leased scratch buffers that escape the scope of
// the function that leased them.
//
// The SOCS loops and the FFT plans stay zero-alloc by leasing scratch from
// grid.CMatPool / grid.MatPool (and sync.Pool inside the FFT plans). The lease contract is strictly scoped:
// Get, use, Put — all within one call. A leased buffer that is returned,
// stored in a struct field or package variable, or sent on a channel
// aliases memory the pool will hand to another goroutine, which is a
// silent data race the moment the pool recycles it.
//
// The analysis is a branch-sensitive taint walk: a variable assigned from
// a pool Get (directly or through a call that received leased scratch as
// an argument, like fft.ApplyKernel returning its dst) is tainted;
// reassigning it from a clean source clears the taint on that path, so
// `if keepAmps { amp = grid.NewCMat(...); f.Amps[k] = amp }` is correctly
// accepted while the pooled branch stays guarded.
var ScratchAlias = &Analyzer{
	Name: "scratchalias",
	Doc:  "flags pool-leased scratch (grid pools, sync.Pool) escaping via return, field/global store, or channel send",
	Run:  runScratchAlias,
}

func runScratchAlias(pass *Pass) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/grid") {
		// The pool implementation itself necessarily returns leased
		// memory from Get; the contract binds the pools' clients.
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &aliasWalker{pass: pass, reported: map[token.Pos]bool{}}
			w.stmt(fd.Body, taintState{})
		}
	}
}

// taintState maps local objects to "currently holds pool-leased scratch".
type taintState map[types.Object]bool

func (s taintState) clone() taintState {
	c := make(taintState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// merge unions o into s (join point of two control-flow branches: tainted
// on either path means tainted after).
func (s taintState) merge(o taintState) {
	for k, v := range o {
		if v {
			s[k] = true
		}
	}
}

type aliasWalker struct {
	pass *Pass
	// reported dedupes findings: loop bodies are walked twice for the
	// fixpoint, which must not double-report one escape site.
	reported map[token.Pos]bool
}

func (w *aliasWalker) report(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Report(pos, format, args...)
}

// taintedValue reports whether e currently aliases pool-leased memory:
// the expression must both carry taint and have a type through which the
// lease can escape (an element copy like m.Data[i] = buf[y] moves a
// float, not an alias).
func (w *aliasWalker) taintedValue(e ast.Expr, st taintState) bool {
	return w.expr(e, st) && refLike(w.pass.TypeOf(e))
}

// isScratchSource reports whether call leases scratch from a pool.
func (w *aliasWalker) isScratchSource(call *ast.CallExpr) bool {
	mi, ok := w.pass.method(call)
	if !ok || mi.name != "Get" {
		return false
	}
	if mi.pkg == "sync" && mi.typ == "Pool" {
		return true
	}
	return strings.HasSuffix(mi.pkg, "internal/grid") && (mi.typ == "CMatPool" || mi.typ == "MatPool")
}

// refLike reports whether values of t can alias pooled memory.
func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// expr evaluates taint for e under st, walking func-literal bodies it
// encounters (closures share the enclosing state: they run in this scope).
func (w *aliasWalker) expr(e ast.Expr, st taintState) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		if obj := w.pass.Info.ObjectOf(e); obj != nil {
			return st[obj]
		}
		return false
	case *ast.CallExpr:
		if w.isScratchSource(e) {
			// Arguments still evaluated for nested sources/closures.
			for _, a := range e.Args {
				w.expr(a, st)
			}
			return true
		}
		tainted := false
		for _, a := range e.Args {
			if w.expr(a, st) {
				tainted = true
			}
		}
		w.expr(e.Fun, st) // func literals called inline, selector bases
		// A call that received leased scratch may return it (e.g.
		// fft.ApplyKernel returns its dst); propagate only when a
		// result can alias. Multi-value results surface as a tuple here
		// and assignTo filters per-target by refLike.
		if !tainted {
			return false
		}
		t := w.pass.TypeOf(e)
		if tup, ok := t.(*types.Tuple); ok {
			for i := 0; i < tup.Len(); i++ {
				if refLike(tup.At(i).Type()) {
					return true
				}
			}
			return false
		}
		return refLike(t)
	case *ast.ParenExpr:
		return w.expr(e.X, st)
	case *ast.UnaryExpr:
		return w.expr(e.X, st)
	case *ast.StarExpr:
		return w.expr(e.X, st)
	case *ast.SelectorExpr:
		return w.expr(e.X, st)
	case *ast.IndexExpr:
		w.expr(e.Index, st)
		return w.expr(e.X, st)
	case *ast.SliceExpr:
		return w.expr(e.X, st)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, st)
	case *ast.CompositeLit:
		tainted := false
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.expr(el, st) {
				tainted = true
			}
		}
		return tainted
	case *ast.BinaryExpr:
		w.expr(e.X, st)
		w.expr(e.Y, st)
		return false
	case *ast.FuncLit:
		// The closure runs in this scope (worker bodies passed to
		// grid.ParallelFor); analyze it against the shared state.
		w.stmt(e.Body, st)
		return false
	}
	return false
}

// assignTo records or reports the flow of a (possibly tainted) value into
// one assignment target.
func (w *aliasWalker) assignTo(lhs ast.Expr, tainted bool, st taintState) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := w.pass.Info.ObjectOf(lhs)
		if obj == nil {
			return
		}
		if isPackageLevel(obj) {
			if tainted {
				w.report(lhs.Pos(),
					"pool-leased scratch stored in package-level variable %s; the lease must stay within its call scope (zero-alloc contract, DESIGN.md)", lhs.Name)
			}
			return
		}
		if tainted && refLike(obj.Type()) {
			st[obj] = true
		} else {
			delete(st, obj) // clean reassignment kills the taint on this path
		}
	case *ast.SelectorExpr:
		w.expr(lhs.X, st)
		if tainted {
			w.report(lhs.Pos(),
				"pool-leased scratch escapes into field or variable %s; Get/Put leases must not outlive the call (aliasing contract, DESIGN.md)", exprText(lhs))
		}
	case *ast.IndexExpr:
		// contribs[k] = c with contribs a local is the sanctioned
		// fan-out pattern (the slice is drained and Put back before
		// return); the container is marked tainted so returning it later
		// still trips the return check. Indexing through a field or
		// global is an escape.
		switch base := lhs.X.(type) {
		case *ast.Ident:
			obj := w.pass.Info.ObjectOf(base)
			if obj != nil && isPackageLevel(obj) {
				if tainted {
					w.report(lhs.Pos(),
						"pool-leased scratch stored into package-level container %s; the lease must stay within its call scope", base.Name)
				}
				return
			}
			if tainted && obj != nil {
				st[obj] = true
			}
		case *ast.SelectorExpr:
			if tainted {
				w.report(lhs.Pos(),
					"pool-leased scratch stored into %s; Get/Put leases must not outlive the call (aliasing contract, DESIGN.md)", exprText(base))
			}
		default:
			w.expr(lhs.X, st)
		}
	case *ast.StarExpr:
		// *p = v stores through a pointer whose target is unknown; the
		// value-copy form (*dst = *src) does not alias, and the repo has
		// no **Mat indirection, so this stays unflagged.
		w.expr(lhs.X, st)
	}
}

// stmt walks one statement, updating st and reporting escapes.
func (w *aliasWalker) stmt(s ast.Stmt, st taintState) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			w.stmt(sub, st)
		}
	case *ast.ExprStmt:
		w.expr(s.X, st)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			// x, y := call(): taint every alias-capable target if the
			// call result is tainted.
			tainted := w.expr(s.Rhs[0], st)
			for _, l := range s.Lhs {
				t := tainted && refLike(w.pass.TypeOf(l))
				w.assignTo(l, t, st)
			}
			return
		}
		for i, l := range s.Lhs {
			if i < len(s.Rhs) {
				w.assignTo(l, w.taintedValue(s.Rhs[i], st), st)
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
					tainted := w.expr(vs.Values[0], st)
					for _, name := range vs.Names {
						w.assignTo(name, tainted && refLike(w.pass.TypeOf(name)), st)
					}
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.assignTo(name, w.taintedValue(vs.Values[i], st), st)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if w.taintedValue(r, st) {
				w.report(s.Pos(),
					"pool-leased scratch escapes via return; Put it and return a copy, or allocate the result (aliasing contract, DESIGN.md)")
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		if w.taintedValue(s.Value, st) {
			w.report(s.Pos(),
				"pool-leased scratch sent on a channel escapes its call scope (aliasing contract, DESIGN.md)")
		}
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		thenSt := st.clone()
		w.stmt(s.Body, thenSt)
		elseSt := st.clone()
		w.stmt(s.Else, elseSt)
		st.merge(thenSt)
		st.merge(elseSt)
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		// Two passes approximate the loop fixpoint: taint introduced at
		// the bottom of the body is visible at the top on pass two.
		w.stmt(s.Body, st)
		w.stmt(s.Post, st)
		w.stmt(s.Body, st)
		w.stmt(s.Post, st)
	case *ast.RangeStmt:
		tainted := w.expr(s.X, st)
		for _, v := range []ast.Expr{s.Key, s.Value} {
			if v != nil {
				w.assignTo(v, tainted && refLike(w.pass.TypeOf(v)), st)
			}
		}
		w.stmt(s.Body, st)
		w.stmt(s.Body, st)
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		w.expr(s.Tag, st)
		w.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		w.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := st.clone()
			w.stmt(cc.Comm, branch)
			for _, sub := range cc.Body {
				w.stmt(sub, branch)
			}
			st.merge(branch)
		}
	case *ast.DeferStmt:
		w.expr(s.Call, st)
	case *ast.GoStmt:
		w.expr(s.Call, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	}
}

func (w *aliasWalker) caseClauses(body *ast.BlockStmt, st taintState) {
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		branch := st.clone()
		for _, sub := range cc.Body {
			w.stmt(sub, branch)
		}
		st.merge(branch)
	}
}

func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// exprText renders a simple ident/selector chain for messages.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	}
	return "expression"
}
