package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags per-iteration allocation sites inside telemetry-
// instrumented hot loops that are not behind the Recorder.Enabled() guard.
//
// The telemetry work (PR 2) guarantees a nil Recorder costs zero
// allocations on the instrumented paths (AllocsPerRun = 0 in the litho and
// telemetry test suites). That guarantee is defeated at the call site, not
// in the recorder: a telemetry.Fields{...} literal, an fmt.Sprintf, a
// closure, or a Progressf (whose ...any arguments box) inside the loop
// allocates on every iteration whether or not the recorder is enabled.
// The sanctioned idiom is the guard the optimizer's iteration loop uses:
//
//	if rec.Enabled() {
//	    rec.Emit("iter", telemetry.Fields{...})
//	}
//
// A loop counts as hot when its body records telemetry (StartSpan, Add,
// Emit, Progressf on a Recorder, or Span.End).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags Sprintf/closures/map-slice literals and unguarded Emit/Progressf inside telemetry-instrumented loops",
	Run:  runHotAlloc,
}

const telemetryPkg = "repro/internal/telemetry"

var recorderMethods = map[string]bool{
	"StartSpan": true, "Add": true, "Emit": true, "Progressf": true,
}

var sprintFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

func runHotAlloc(pass *Pass) {
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if !containsTelemetry(pass, body) {
				return true
			}
			checkHotBody(pass, body, reported)
			return true
		})
	}
}

// containsTelemetry reports whether body records telemetry somewhere.
func containsTelemetry(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mi, ok := pass.method(call); ok && mi.pkg == telemetryPkg {
			if (mi.typ == "Recorder" && recorderMethods[mi.name]) || (mi.typ == "Span" && mi.name == "End") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkHotBody walks one hot loop body with an explicit ancestor stack so
// each allocation site can be tested for an Enabled() guard between it and
// the loop.
func checkHotBody(pass *Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			report(pass, reported, n.Pos(),
				"closure allocated per iteration of a telemetry-instrumented hot loop; hoist it out of the loop (zero-alloc contract, PR 2)")
			// Do not descend: the closure body runs when called, and its
			// own loops are analyzed independently.
			return false
		case *ast.CompositeLit:
			if isMapOrSliceLit(pass, n) && !guarded(pass, stack) {
				report(pass, reported, n.Pos(),
					"%s literal allocates per iteration of a telemetry-instrumented hot loop; guard it with Recorder.Enabled() (zero-alloc contract, PR 2)",
					litKind(pass, n))
			}
		case *ast.CallExpr:
			if pkg, name, ok := pass.pkgFunc(n); ok && pkg == "fmt" && sprintFuncs[name] {
				// Error construction on the way out of the loop is an exit
				// path, not a per-iteration cost.
				if !guarded(pass, stack) && !underReturn(stack) {
					report(pass, reported, n.Pos(),
						"fmt.%s allocates per iteration of a telemetry-instrumented hot loop; guard it with Recorder.Enabled() or hoist it", name)
				}
			}
			if mi, ok := pass.method(n); ok && mi.pkg == telemetryPkg && mi.typ == "Recorder" && mi.name == "Progressf" {
				if !guarded(pass, stack) {
					report(pass, reported, n.Pos(),
						"Progressf boxes its arguments per iteration of a hot loop; guard it with Recorder.Enabled() (zero-alloc contract, PR 2)")
				}
			}
		}
		stack = append(stack, n)
		return true
	}
	for _, s := range body.List {
		ast.Inspect(s, visit)
	}
}

func report(pass *Pass, reported map[token.Pos]bool, pos token.Pos, format string, args ...any) {
	if reported[pos] {
		return // site already flagged via an enclosing hot loop
	}
	reported[pos] = true
	pass.Report(pos, format, args...)
}

// isMapOrSliceLit reports whether lit allocates a map or slice (named
// types like telemetry.Fields included). Arrays and structs are
// stack-allocatable and stay legal.
func isMapOrSliceLit(pass *Pass, lit *ast.CompositeLit) bool {
	t := pass.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}

func litKind(pass *Pass, lit *ast.CompositeLit) string {
	t := pass.TypeOf(lit)
	if t == nil {
		return "composite"
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

// guarded reports whether any ancestor if-statement's condition consults a
// telemetry Recorder — rec.Enabled() or rec != nil — which is the idiom
// that keeps the allocation off the disabled path.
func guarded(pass *Pass, stack []ast.Node) bool {
	for _, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		isGuard := false
		ast.Inspect(ifStmt.Cond, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.CallExpr:
				if mi, ok := pass.method(c); ok && mi.pkg == telemetryPkg && mi.typ == "Recorder" && mi.name == "Enabled" {
					isGuard = true
					return false
				}
			case *ast.BinaryExpr:
				if c.Op == token.NEQ && (isRecorderExpr(pass, c.X) || isRecorderExpr(pass, c.Y)) {
					isGuard = true
					return false
				}
			}
			return true
		})
		if isGuard {
			return true
		}
	}
	return false
}

// underReturn reports whether the node under inspection sits inside a
// return statement (its ancestors include one).
func underReturn(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}

func isRecorderExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == telemetryPkg && named.Obj().Name() == "Recorder"
}
