// Package lint is a repo-specific static-analysis framework built entirely
// on the standard library: packages are located with `go list -json -deps
// -export`, parsed with go/parser and type-checked with go/types against
// the compiler's export data, so the module stays zero-dependency.
//
// The analyzers in this package mechanically enforce the invariants the
// perf PRs proved by hand and that reviewer vigilance alone would lose:
//
//   - floatcmp      — no ==/!= on float/complex operands (bit-exactness
//     contract of the parallel SOCS and band-pruned FFT equivalence work)
//   - maporder      — no map-iteration order reaching trace events, JSON
//     or file output, and no float reductions folded in map order
//     (determinism contract)
//   - scratchalias  — pool-leased scratch (grid.CMatPool/MatPool,
//     sync.Pool) must not escape its call scope
//   - hotalloc      — no Sprintf/closures/map-or-slice literals inside
//     telemetry-instrumented hot loops unless guarded by
//     Recorder.Enabled() (AllocsPerRun=0 contract)
//   - errcheck      — unchecked error returns in main packages and on
//     Close/Flush/Sync paths everywhere
//   - gridres       — coarse (s-reduced) and fine grids must not meet in
//     an elementwise operation without an explicit resample (multi-level
//     contract, Eq. 7/8), followed through calls via summaries
//   - leasepath     — a pool lease must be released or handed off on
//     every path, including through helpers and deferred closures
//
// gridres and leasepath are interprocedural: they consult a package-set
// call graph and bottom-up per-function summaries (callgraph.go,
// summary.go) built once per run and shared through Pass.Prog.
//
// A finding can be suppressed with a mandatory-reason directive on the
// same line or the line above:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// A directive without a reason, or one naming a rule that is not in All,
// suppresses nothing and is itself reported under the rule name "ignore".
// See DESIGN.md, "Static analysis".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named rule: a documentation string plus a Run function
// invoked once per type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the registry of analyzers shipped with the suite, in the order
// they run. cmd/iltlint selects from this set with -rules.
var All = []*Analyzer{FloatCmp, MapOrder, ScratchAlias, HotAlloc, ErrCheck, GridRes, LeasePath}

// Lookup resolves a comma-separated rule list against the registry.
func Lookup(rules string) ([]*Analyzer, error) {
	if rules == "" || rules == "all" {
		return All, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		a := analyzerNamed(name)
		if a == nil {
			return nil, fmt.Errorf("unknown rule %q (have %s)", name, strings.Join(RuleNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// analyzerNamed returns the registered analyzer called name, or nil.
func analyzerNamed(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RuleNames lists the registered rule names in registry order.
func RuleNames() []string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return names
}

// A Diagnostic is one finding: a resolved position, the rule that fired
// and a message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Prog is the interprocedural view of the whole run (call graph and
	// summaries). Nil only when a Pass is built outside the runner.
	Prog *Program

	diags *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when e was not type-checked.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// methodInfo describes a resolved method call: the receiver's defining
// package path and type name (pointers stripped) plus the method name.
type methodInfo struct {
	pkg, typ, name string
}

// method resolves call as a method invocation, returning ok=false for
// plain function calls, conversions and builtins.
func (p *Pass) method(call *ast.CallExpr) (methodInfo, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return methodInfo{}, false
	}
	fn, ok := p.Info.ObjectOf(sel.Sel).(*types.Func)
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

// pkgFunc resolves call as a package-level function call, returning the
// package path and function name ("fmt", "Sprintf").
func (p *Pass) pkgFunc(call *ast.CallExpr) (pkg, name string, ok bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id, isID := fun.X.(*ast.Ident)
		if !isID {
			return "", "", false
		}
		pn, isPkg := p.Info.ObjectOf(id).(*types.PkgName)
		if !isPkg {
			return "", "", false
		}
		return pn.Imported().Path(), fun.Sel.Name, true
	case *ast.Ident:
		fn, isFn := p.Info.ObjectOf(fun).(*types.Func)
		if !isFn || fn.Pkg() == nil {
			return "", "", false
		}
		return fn.Pkg().Path(), fn.Name(), true
	}
	return "", "", false
}

// sortDiags orders diagnostics deterministically: file, line, column,
// rule, message. Every output mode (text, JSON, golden tests) sees this
// order.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
