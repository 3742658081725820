package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the interprocedural substrate the cross-function
// analyzers (gridres, leasepath) stand on: a call graph over the loaded
// package set plus the bookkeeping needed to compute per-function
// summaries bottom-up (see summary.go).
//
// Identity. Packages are type-checked independently against compiler
// export data (see load.go), so one function has *different* types.Func
// objects depending on whether it is seen from its defining package's
// source or through an importer. Nodes are therefore keyed by FuncKey — a
// stable, printable name derived from the package path, receiver type and
// function name — and every resolution goes through keyOf. String keys
// also make summaries and diagnostics trivially deterministic.
//
// Only static calls are edges. A call through an interface has no single
// callee whose facts could be followed, so it ends tracking the way a call
// out of the package set does.

// A FuncKey canonically names a function or method across the package set:
// "pkg/path.Name" for functions, "pkg/path.(Recv).Name" for methods.
type FuncKey string

// keyOf derives the canonical key of fn, or "" when fn has no package
// (builtins, error.Error on the universe interface).
func keyOf(fn *types.Func) FuncKey {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, isPtr := rt.(*types.Pointer); isPtr {
			rt = ptr.Elem()
		}
		if named, isNamed := rt.(*types.Named); isNamed {
			return FuncKey(fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name())
		}
		// Interface receiver or unnamed receiver type: key on the method
		// name alone under its package; these are resolution sources, not
		// graph nodes.
		return FuncKey(fn.Pkg().Path() + ".(?)." + fn.Name())
	}
	return FuncKey(fn.Pkg().Path() + "." + fn.Name())
}

// A FuncInfo is one call-graph node: a function or method declared in one
// of the loaded packages.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package

	// Callees holds the static out-edges to functions in the package set.
	Callees map[FuncKey]bool

	// Summary holds the bottom-up facts; populated by computeSummaries.
	Summary *Summary
}

// A Program is the interprocedural view of one analysis run: every loaded
// package and the call graph over them.
type Program struct {
	Pkgs  []*Package
	Funcs map[FuncKey]*FuncInfo
}

// BuildProgram constructs the call graph and computes summaries for the
// loaded packages. It is deterministic: iteration over packages and files
// follows load order, and every map consumed for output is sorted.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, Funcs: map[FuncKey]*FuncInfo{}}

	// Nodes: every declared function/method in the loaded set.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := keyOf(fn)
				if key == "" {
					continue
				}
				prog.Funcs[key] = &FuncInfo{Decl: fd, Pkg: pkg, Callees: map[FuncKey]bool{}}
			}
		}
	}

	// Edges: every static call to a function in the set.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				node := prog.FuncOf(pkg, fd)
				if node == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if callee := staticCalleeKey(pkg.Info, call); prog.Funcs[callee] != nil {
							node.Callees[callee] = true
						}
					}
					return true
				})
			}
		}
	}

	computeSummaries(prog)
	return prog
}

// staticCalleeKey resolves call to an in-module function key, or "".
func staticCalleeKey(info *types.Info, call *ast.CallExpr) FuncKey {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return keyOf(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
				return keyOf(fn)
			}
			return ""
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return keyOf(fn)
		}
	}
	return ""
}

// sortedFuncKeys returns every node key in sorted order: the deterministic
// iteration base for everything derived from the Funcs map.
func (p *Program) sortedFuncKeys() []FuncKey {
	keys := make([]FuncKey, 0, len(p.Funcs))
	for k := range p.Funcs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// sccOrder returns the strongly connected components of the static call
// graph in bottom-up (callees before callers) order, via Tarjan's
// algorithm seeded in sorted key order for determinism.
func (p *Program) sccOrder() [][]FuncKey {
	index := map[FuncKey]int{}
	low := map[FuncKey]int{}
	onStack := map[FuncKey]bool{}
	var stack []FuncKey
	var sccs [][]FuncKey
	next := 0

	var strongconnect func(v FuncKey)
	strongconnect = func(v FuncKey) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true

		fi := p.Funcs[v]
		callees := make([]FuncKey, 0, len(fi.Callees))
		for c := range fi.Callees {
			callees = append(callees, c)
		}
		sort.Slice(callees, func(i, j int) bool { return callees[i] < callees[j] })
		for _, w := range callees {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}

		if low[v] == index[v] {
			var scc []FuncKey
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, k := range p.sortedFuncKeys() {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation — exactly the bottom-up order summaries need.
	return sccs
}

// packageOf maps a *types.Package back to its loaded Package, or nil.
func (p *Program) packageOf(tp *types.Package) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Types == tp {
			return pkg
		}
	}
	return nil
}

// FuncOf resolves the node of declaration fd within pkg, or nil.
func (p *Program) FuncOf(pkg *Package, fd *ast.FuncDecl) *FuncInfo {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return p.Funcs[keyOf(fn)]
}

// SummaryFor returns the summary of an in-module static callee of call, or
// nil: the single hook analyzers use to follow facts through a call.
func (p *Program) SummaryFor(pkg *Package, call *ast.CallExpr) *Summary {
	fi := p.Funcs[staticCalleeKey(pkg.Info, call)]
	if fi == nil {
		return nil
	}
	return fi.Summary
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
