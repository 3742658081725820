package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GridRes enforces the paper's multi-level contract: values living on the
// coarse (s-reduced, Eq. 7/8) grid and values on the fine grid must never
// meet in an elementwise operation without an explicit resample
// (grid.AvgPoolDown / UpsampleNearest / their adjoints). Dimension checks
// catch most violations at runtime — but only when the sizes happen to
// differ. Two grids pooled by different factors from different bases can
// agree in size and silently produce a wrong loss or gradient, the exact
// bug class that degrades EPE without failing a single assertion.
//
// The analysis is a typestate walk. Each value carries a resolution level
// relative to a root (the expression it was resampled from, or a
// parameter): AvgPoolDown adds a coarsening level, UpsampleNearest removes
// one, the adjoints invert that, SmoothPool is level-preserving. Mixing is
// flagged when two operands of a same-resolution operation share a root
// but disagree on level — at grid.Mat/CMat elementwise methods, at raw
// paired `.Data[i]` loops, and at calls whose callee summary (summary.go)
// constrains two parameters to matching resolution (loss kernels, FFT
// apply helpers — any function whose body pairs its parameters
// elementwise, found transitively through the call-graph fixpoint).
// Values whose relation is unknown (different roots, or a hop through an
// unsummarized call) are never flagged: silence is cheap, a false alarm
// here would be fatal to the rule's credibility.
var GridRes = &Analyzer{
	Name: "gridres",
	Doc:  "flags coarse/fine grid mixing without an explicit resample (multi-level contract), interprocedurally via call summaries",
	Run:  runGridRes,
}

func runGridRes(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	if strings.HasSuffix(pass.Pkg.Path(), "internal/grid") {
		// The resample implementation crosses levels by definition.
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
			w := &resWalker{prog: pass.Prog, pkg: pkg, fd: fd, pass: pass, reported: map[token.Pos]bool{}}
			w.run()
		}
	}
}

// gridResSummary derives the resolution facts of fi for its summary:
// SameRes constraints between parameters and per-result level deltas.
func gridResSummary(prog *Program, fi *FuncInfo, sum *Summary) {
	if strings.HasSuffix(fi.Pkg.Path, "internal/grid") {
		return
	}
	w := &resWalker{prog: prog, pkg: fi.Pkg, fd: fi.Decl, sum: sum, reported: map[token.Pos]bool{}}
	w.run()
}

// A resVal is one value's resolution level: off coarsening steps above its
// root. Roots are parameter slots ("param:0"), local objects, or selector
// chains ("sel:o.target").
type resVal struct {
	root string
	off  int
}

// resState carries the typestate along one control-flow path.
type resState struct {
	vars map[types.Object]resVal
	sels map[string]resVal
}

func newResState() *resState {
	return &resState{vars: map[types.Object]resVal{}, sels: map[string]resVal{}}
}

func (s *resState) clone() *resState {
	c := newResState()
	for k, v := range s.vars {
		c.vars[k] = v
	}
	for k, v := range s.sels {
		c.sels[k] = v
	}
	return c
}

// mergeRes intersects two branch states: only facts both arms agree on
// survive the join.
func mergeRes(a, b *resState) *resState {
	m := newResState()
	for k, v := range a.vars {
		if bv, ok := b.vars[k]; ok && bv == v {
			m.vars[k] = v
		}
	}
	for k, v := range a.sels {
		if bv, ok := b.sels[k]; ok && bv == v {
			m.sels[k] = v
		}
	}
	return m
}

type resWalker struct {
	prog     *Program
	pkg      *Package
	fd       *ast.FuncDecl
	pass     *Pass    // analyzer mode: report mixing
	sum      *Summary // summary mode: record constraints and result deltas
	reported map[token.Pos]bool

	// results accumulates per-result-index deltas across return sites;
	// conflicting sites poison the entry.
	results map[int]*ResultRes
	poisons map[int]bool
}

func (w *resWalker) run() {
	st := newResState()
	// Parameters are roots at level 0.
	n := numParams(w.fd)
	for i := 0; i < n; i++ {
		obj := paramObject(w.pkg.Info, w.fd, i)
		if obj != nil && isGridType(obj.Type()) {
			st.vars[obj] = resVal{root: "param:" + itoa(i), off: 0}
		}
	}
	w.results = map[int]*ResultRes{}
	w.poisons = map[int]bool{}
	w.stmt(w.fd.Body, st)
	if w.sum != nil {
		for k, r := range w.results {
			if !w.poisons[k] {
				w.sum.Results = append(w.sum.Results, *r)
			}
		}
		sortResults(w.sum.Results)
		sortConstraints(w.sum.SameRes)
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}

// isGridType reports whether t is *grid.Mat or *grid.CMat.
func isGridType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/grid") {
		return false
	}
	return named.Obj().Name() == "Mat" || named.Obj().Name() == "CMat"
}

// resampleDelta maps grid's resolution-changing functions to the level
// step their result takes relative to their first argument.
var resampleDelta = map[string]int{
	"AvgPoolDown":            +1,
	"AvgPoolDownAdjoint":     -1,
	"UpsampleNearest":        -1,
	"UpsampleNearestAdjoint": +1,
	"SmoothPool":             0,
	"SmoothPoolAdjoint":      0,
}

// levelPreservingMethods yield a value at their receiver's level.
var levelPreservingMethods = map[string]bool{
	"Clone": true, "Threshold": true, "Real": true, "AbsSq": true,
}

// sameResMethods maps a grid.Mat/CMat method to the argument indices that
// must share the receiver's resolution.
var sameResMethods = map[string][]int{
	"Add": {0}, "Sub": {0}, "MulElem": {0}, "AddScaled": {1},
	"CopyFrom": {0}, "Dot": {0}, "Equal": {0}, "MaxAbsDiff": {0},
	"SetReal": {0}, "AbsSqScaledInto": {0}, "AddAbsSqScaled": {0},
}

// rootKey returns a stable root identity for e, or "".
func (w *resWalker) rootKey(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := w.pkg.Info.ObjectOf(e); obj != nil {
			return "obj:" + itoaPos(obj.Pos())
		}
	case *ast.SelectorExpr:
		if pureChain(e.X) {
			return "sel:" + exprText(e)
		}
	}
	return ""
}

func itoaPos(p token.Pos) string {
	n := int(p)
	if n < 0 {
		n = 0
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoaPos(token.Pos(n/10)) + string(rune('0'+n%10))
}

// valOf looks e up (without seeding); ok is false when untracked.
func (w *resWalker) valOf(e ast.Expr, st *resState) (resVal, bool) {
	e = unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := w.pkg.Info.ObjectOf(e); obj != nil {
			v, ok := st.vars[obj]
			return v, ok
		}
	case *ast.SelectorExpr:
		if pureChain(e.X) {
			v, ok := st.sels["sel:"+exprText(e)]
			return v, ok
		}
	case *ast.CallExpr:
		vals := w.callVals(e, st)
		if len(vals) == 1 {
			return vals[0].val, vals[0].ok
		}
	}
	return resVal{}, false
}

// seedOf looks e up, seeding untracked grid-typed idents/selectors at
// level 0 of their own root so later resamples of the same base relate.
func (w *resWalker) seedOf(e ast.Expr, st *resState) (resVal, bool) {
	if v, ok := w.valOf(e, st); ok {
		return v, true
	}
	e = unparen(e)
	t := typeOf(w.pkg.Info, e)
	if !isGridType(t) {
		return resVal{}, false
	}
	key := w.rootKey(e)
	if key == "" {
		return resVal{}, false
	}
	v := resVal{root: key, off: 0}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := w.pkg.Info.ObjectOf(e); obj != nil {
			st.vars[obj] = v
		}
	case *ast.SelectorExpr:
		st.sels[key] = v
	}
	return v, true
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

type maybeVal struct {
	val resVal
	ok  bool
}

// callVals evaluates a call's per-result resolution values and runs the
// call-site checks (same-res methods, callee SameRes constraints).
func (w *resWalker) callVals(call *ast.CallExpr, st *resState) []maybeVal {
	info := w.pkg.Info

	// grid.<Resample>(x, s): level step relative to x.
	if pkg, name, ok := pkgFuncOf(info, call); ok && strings.HasSuffix(pkg, "internal/grid") {
		if delta, isResample := resampleDelta[name]; isResample && len(call.Args) >= 1 {
			if v, ok := w.seedOf(call.Args[0], st); ok {
				return []maybeVal{{resVal{v.root, v.off + delta}, true}}
			}
			return []maybeVal{{resVal{}, false}}
		}
	}

	// grid.Mat/CMat methods: level-preserving producers and same-res checks.
	if mi, ok := methodInfoOf(info, call); ok && strings.HasSuffix(mi.pkg, "internal/grid") {
		sel, _ := call.Fun.(*ast.SelectorExpr)
		if sel != nil {
			if args, isCheck := sameResMethods[mi.name]; isCheck {
				rv, rok := w.seedOf(sel.X, st)
				for _, ai := range args {
					if ai >= len(call.Args) {
						continue
					}
					av, aok := w.seedOf(call.Args[ai], st)
					if rok && aok {
						w.requireSame(call.Pos(), rv, av, 0, sel.X, call.Args[ai])
					}
				}
				return nil
			}
			if levelPreservingMethods[mi.name] {
				if v, ok := w.valOf(sel.X, st); ok {
					return []maybeVal{{v, true}}
				}
				return []maybeVal{{resVal{}, false}}
			}
		}
		return nil
	}

	// In-module callee: apply its SameRes constraints and map results.
	sum := w.prog.SummaryFor(w.pkg, call)
	if sum == nil {
		return nil
	}
	argVal := func(i int) (resVal, bool) {
		if i < 0 || i >= len(call.Args) {
			return resVal{}, false
		}
		return w.seedOf(call.Args[i], st)
	}
	for _, c := range sum.SameRes {
		vi, oki := argVal(c.I)
		vj, okj := argVal(c.J)
		if oki && okj {
			w.requireSame(call.Pos(), vi, vj, c.Delta, argExpr(call, c.I), argExpr(call, c.J))
		}
	}
	if len(sum.Results) == 0 {
		return nil
	}
	nres := maxResultIndex(sum.Results) + 1
	out := make([]maybeVal, nres)
	for _, r := range sum.Results {
		if v, ok := argVal(r.Param); ok {
			out[r.Result] = maybeVal{resVal{v.root, v.off + r.Delta}, true}
		}
	}
	return out
}

func argExpr(call *ast.CallExpr, i int) ast.Expr {
	if i >= 0 && i < len(call.Args) {
		return call.Args[i]
	}
	return call
}

func maxResultIndex(rs []ResultRes) int {
	m := 0
	for _, r := range rs {
		if r.Result > m {
			m = r.Result
		}
	}
	return m
}

// requireSame enforces level(b) == level(a) + delta. With a shared root
// the check is decidable: disagreement is reported (analyzer mode). With
// two distinct parameter roots the requirement becomes a constraint of the
// enclosing function's summary.
func (w *resWalker) requireSame(pos token.Pos, a, b resVal, delta int, ea, eb ast.Expr) {
	if a.root == b.root {
		if b.off != a.off+delta && w.pass != nil && !w.reported[pos] {
			w.reported[pos] = true
			w.pass.Report(pos,
				"grid resolution mismatch: %s is %d coarsening level(s) from %s but the operation requires them to match (multi-level contract Eq. 7/8; resample with grid.AvgPoolDown/UpsampleNearest first)",
				exprText(unparen(eb)), b.off-(a.off+delta), exprText(unparen(ea)))
		}
		return
	}
	if w.sum == nil {
		return
	}
	pi, iok := paramRoot(a.root)
	pj, jok := paramRoot(b.root)
	if !iok || !jok {
		return
	}
	// level(pj) + b.off == level(pi) + a.off + delta
	// → level(pj) == level(pi) + (a.off + delta - b.off)
	c := ResConstraint{I: pi, J: pj, Delta: a.off + delta - b.off}
	for _, have := range w.sum.SameRes {
		if have == c {
			return
		}
	}
	w.sum.SameRes = append(w.sum.SameRes, c)
}

func paramRoot(root string) (int, bool) {
	s, ok := strings.CutPrefix(root, "param:")
	if !ok {
		return 0, false
	}
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, false
		}
		n = n*10 + int(r-'0')
	}
	return n, true
}

// assign records the flow of a resolution value into one target.
func (w *resWalker) assign(lhs ast.Expr, v maybeVal, st *resState) {
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := w.pkg.Info.ObjectOf(lhs)
		if obj == nil {
			return
		}
		if v.ok {
			st.vars[obj] = v.val
		} else {
			delete(st.vars, obj)
		}
	case *ast.SelectorExpr:
		if pureChain(lhs.X) {
			key := "sel:" + exprText(lhs)
			if v.ok {
				st.sels[key] = v.val
			} else {
				delete(st.sels, key)
			}
		}
	}
}

// exprVal evaluates e for assignment purposes, running call-site checks on
// the way.
func (w *resWalker) exprVal(e ast.Expr, st *resState) maybeVal {
	if e == nil {
		return maybeVal{}
	}
	e = unparen(e)
	switch e := e.(type) {
	case *ast.CallExpr:
		w.exprEffects(e, st)
		vals := w.callVals(e, st)
		if len(vals) >= 1 {
			return vals[0]
		}
		return maybeVal{}
	case *ast.Ident, *ast.SelectorExpr:
		if v, ok := w.valOf(e, st); ok {
			return maybeVal{v, true}
		}
		return maybeVal{}
	default:
		w.exprEffects(e, st)
		return maybeVal{}
	}
}

// exprEffects walks nested calls (and function literals) inside e for
// their check side effects, without needing a value.
func (w *resWalker) exprEffects(e ast.Expr, st *resState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.callVals(n, st)
			return true
		case *ast.FuncLit:
			w.stmt(n.Body, st)
			return false
		}
		return true
	})
}

// dataPairs scans one loop for paired <base>.Data[idx] accesses sharing an
// index variable (including the range key) and requires every pair to sit
// at one resolution.
func (w *resWalker) dataPairs(loop ast.Node, st *resState) {
	groups := map[types.Object][]ast.Expr{} // index object → .Data bases
	add := func(idxObj types.Object, base ast.Expr) {
		if idxObj == nil || base == nil {
			return
		}
		for _, have := range groups[idxObj] {
			if exprText(have) == exprText(base) {
				return
			}
		}
		groups[idxObj] = append(groups[idxObj], base)
	}
	var rangeKey types.Object
	if r, ok := loop.(*ast.RangeStmt); ok {
		if id, ok := r.Key.(*ast.Ident); ok {
			rangeKey = w.pkg.Info.ObjectOf(id)
		}
		if base := dataBase(r.X); base != nil {
			add(rangeKey, base)
		}
	}
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		id, ok := unparen(ix.Index).(*ast.Ident)
		if !ok {
			return true
		}
		if base := dataBase(ix.X); base != nil {
			add(w.pkg.Info.ObjectOf(id), base)
		}
		return true
	})
	for _, bases := range groups {
		if len(bases) < 2 {
			continue
		}
		first, fok := w.seedOf(bases[0], st)
		if !fok {
			continue
		}
		for _, b := range bases[1:] {
			if v, ok := w.seedOf(b, st); ok {
				w.requireSame(b.Pos(), first, v, 0, bases[0], b)
			}
		}
	}
}

// dataBase unwraps <base>.Data to its grid-typed base expression.
func dataBase(e ast.Expr) ast.Expr {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Data" {
		return nil
	}
	return sel.X
}

// stmt walks one statement, threading the typestate.
func (w *resWalker) stmt(s ast.Stmt, st *resState) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			w.stmt(sub, st)
		}
	case *ast.ExprStmt:
		w.exprVal(s.X, st)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			var vals []maybeVal
			if call, ok := unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				vals = w.callVals(call, st)
			}
			for i, l := range s.Lhs {
				var v maybeVal
				if i < len(vals) {
					v = vals[i]
				}
				w.assign(l, v, st)
			}
			return
		}
		for i, l := range s.Lhs {
			if i < len(s.Rhs) {
				w.assign(l, w.exprVal(s.Rhs[i], st), st)
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
					var vals []maybeVal
					if call, ok := unparen(vs.Values[0]).(*ast.CallExpr); ok {
						vals = w.callVals(call, st)
					}
					for i, name := range vs.Names {
						var v maybeVal
						if i < len(vals) {
							v = vals[i]
						}
						w.assign(name, v, st)
					}
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.assign(name, w.exprVal(vs.Values[i], st), st)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for k, r := range s.Results {
			v := w.exprVal(r, st)
			if w.sum == nil {
				continue
			}
			pi, ok := 0, false
			if v.ok {
				pi, ok = paramRoot(v.val.root)
			}
			if !ok {
				if _, tracked := w.results[k]; tracked {
					w.poisons[k] = true
				}
				continue
			}
			entry := ResultRes{Result: k, Param: pi, Delta: v.val.off}
			if have, tracked := w.results[k]; tracked {
				if *have != entry {
					w.poisons[k] = true
				}
			} else {
				w.results[k] = &entry
			}
		}
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		w.exprVal(s.Cond, st)
		thenSt := st.clone()
		w.stmt(s.Body, thenSt)
		elseSt := st.clone()
		w.stmt(s.Else, elseSt)
		*st = *mergeRes(thenSt, elseSt)
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		w.exprVal(s.Cond, st)
		w.dataPairs(s, st)
		body := st.clone()
		w.stmt(s.Body, body)
		w.stmt(s.Post, body)
		*st = *mergeRes(st, body)
	case *ast.RangeStmt:
		w.exprVal(s.X, st)
		w.dataPairs(s, st)
		body := st.clone()
		for _, v := range []ast.Expr{s.Key, s.Value} {
			if v != nil {
				w.assign(v, maybeVal{}, body)
			}
		}
		w.stmt(s.Body, body)
		*st = *mergeRes(st, body)
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		w.exprVal(s.Tag, st)
		w.resBranches(st, caseBodies(s.Body))
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		w.resBranches(st, caseBodies(s.Body))
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := st.clone()
				w.stmt(cc.Comm, branch)
				for _, sub := range cc.Body {
					w.stmt(sub, branch)
				}
				*st = *mergeRes(st, branch)
			}
		}
	case *ast.DeferStmt:
		w.exprVal(s.Call, st)
	case *ast.GoStmt:
		w.exprVal(s.Call, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.SendStmt:
		w.exprVal(s.Chan, st)
		w.exprVal(s.Value, st)
	case *ast.IncDecStmt:
		w.exprVal(s.X, st)
	}
}

func (w *resWalker) resBranches(st *resState, bodies [][]ast.Stmt) {
	var merged *resState
	for _, body := range bodies {
		branch := st.clone()
		for _, sub := range body {
			w.stmt(sub, branch)
		}
		if merged == nil {
			merged = branch
		} else {
			merged = mergeRes(merged, branch)
		}
	}
	if merged != nil {
		*st = *mergeRes(st, merged)
	}
}

// pkgFuncOf is the Pass-free form of Pass.pkgFunc.
func pkgFuncOf(info *types.Info, call *ast.CallExpr) (pkg, name string, ok bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id, isID := fun.X.(*ast.Ident)
		if !isID {
			return "", "", false
		}
		pn, isPkg := info.ObjectOf(id).(*types.PkgName)
		if !isPkg {
			return "", "", false
		}
		return pn.Imported().Path(), fun.Sel.Name, true
	case *ast.Ident:
		fn, isFn := info.ObjectOf(fun).(*types.Func)
		if !isFn || fn.Pkg() == nil {
			return "", "", false
		}
		sig, isSig := fn.Type().(*types.Signature)
		if !isSig || sig.Recv() != nil {
			return "", "", false
		}
		return fn.Pkg().Path(), fn.Name(), true
	}
	return "", "", false
}

func sortResults(rs []ResultRes) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && lessResult(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func lessResult(a, b ResultRes) bool {
	if a.Result != b.Result {
		return a.Result < b.Result
	}
	if a.Param != b.Param {
		return a.Param < b.Param
	}
	return a.Delta < b.Delta
}

func sortConstraints(cs []ResConstraint) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && lessConstraint(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func lessConstraint(a, b ResConstraint) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	if a.J != b.J {
		return a.J < b.J
	}
	return a.Delta < b.Delta
}

// pureChain accepts identifiers and selector chains (z, st.z, o.cfg.z):
// side-effect-free expressions that name the same grid each time they are
// evaluated.
func pureChain(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return pureChain(e.X)
	}
	return false
}
