package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` loops over maps whose bodies feed output sinks
// (trace events, JSON encoders, writers, printf-to-writer) or fold
// floating-point reductions, both of which inherit Go's randomized map
// iteration order.
//
// The determinism contract from PRs 1–2 — bit-identical results at any
// worker count, byte-identical traces given a deterministic clock — dies
// the moment map order reaches an output stream or a float accumulation
// (float addition is not associative, so the sum depends on visit order).
// Collect the keys, sort them, then iterate.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flags map-ordered output (events, writers, encoders) and map-ordered floating-point reductions",
	Run:  runMapOrder,
}

// mapSinkMethods are method names that move bytes or events toward an
// output stream regardless of receiver: calling one in map order makes the
// stream order nondeterministic.
var mapSinkMethods = map[string]bool{
	"Emit": true, "Encode": true, "Progressf": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// fmtOutputFuncs are fmt functions that write to a stream (Sprint* only
// builds a value and is left to hotalloc).
var fmtOutputFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(pass, rs) {
				return true
			}
			checkMapRangeBody(pass, rs)
			return true
		})
	}
}

func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// checkMapRangeBody scans one map-range body. Nested map ranges are
// skipped here — they are visited and checked on their own, which keeps
// each finding attributed to the innermost map loop.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rs && isMapRange(pass, n) {
				return false
			}
		case *ast.CallExpr:
			if name, ok := sinkCall(pass, n); ok {
				pass.Report(n.Pos(),
					"map iteration order reaches output through %s; collect and sort the keys first (determinism contract, DESIGN.md)",
					name)
			}
		case *ast.AssignStmt:
			checkFloatReduction(pass, n)
		}
		return true
	})
}

// sinkCall reports whether call is an output sink and names it.
func sinkCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if mi, ok := pass.method(call); ok {
		if mapSinkMethods[mi.name] {
			return mi.typ + "." + mi.name, true
		}
		return "", false
	}
	if pkg, name, ok := pass.pkgFunc(call); ok && pkg == "fmt" && fmtOutputFuncs[name] {
		return "fmt." + name, true
	}
	return "", false
}

// checkFloatReduction flags `x += v` / `x = x + v` (and -, *, /) where x
// is floating-point or complex: accumulation order follows the map.
func checkFloatReduction(pass *Pass, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Lhs) == 1 && isFloaty(typeOrNil(pass, as.Lhs[0])) {
			pass.Report(as.TokPos,
				"floating-point reduction %s in map iteration order is nondeterministic (float ops are not associative); accumulate over sorted keys",
				as.Tok)
		}
	case token.ASSIGN:
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		be, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return
		}
		if !isFloaty(typeOrNil(pass, as.Lhs[0])) {
			return
		}
		if sameIdentExpr(as.Lhs[0], be.X) || sameIdentExpr(as.Lhs[0], be.Y) {
			pass.Report(as.TokPos,
				"floating-point reduction x = x %s v in map iteration order is nondeterministic; accumulate over sorted keys",
				be.Op)
		}
	}
}

func typeOrNil(pass *Pass, e ast.Expr) types.Type {
	t := pass.TypeOf(e)
	if t == nil {
		return types.Typ[types.Invalid]
	}
	return t
}

// sameIdentExpr reports whether a and b are the same plain identifier or
// the same one-level selector chain (x.f) — enough to recognize the
// self-accumulation shape.
func sameIdentExpr(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		return ok && a.Name == bi.Name
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == bs.Sel.Name && sameIdentExpr(a.X, bs.X)
	}
	return false
}
