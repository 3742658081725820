package lint

import (
	"go/ast"
	"go/types"
)

// ErrCheck is a deliberately narrow unchecked-error analyzer ("errcheck-
// lite"): it flags call statements that drop an error return
//
//   - anywhere, when the callee is named Close, Flush or Sync — the paths
//     where a dropped error silently truncates a trace, a manifest, a PNG
//     or a layout file; and
//   - throughout main packages (cmd/, examples/), where a dropped error
//     is the difference between a failing exit code and silent garbage.
//
// fmt.Print/Fprint-to-stream calls are exempt (their error is interactive
// I/O), and an explicit `_ =` assignment is accepted as a statement that
// the error was considered. Deferred calls are not flagged: `defer
// f.Close()` on read paths is accepted idiom, and write paths flush
// explicitly before returning.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "flags unchecked error returns on Close/Flush/Sync paths and in main packages",
	Run:  runErrCheck,
}

var closeishNames = map[string]bool{"Close": true, "Flush": true, "Sync": true}

func runErrCheck(pass *Pass) {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(pass, call) {
				return true
			}
			name, closeish := calleeName(pass, call)
			if pkg, fn, ok := pass.pkgFunc(call); ok && pkg == "fmt" && fmtOutputFuncs[fn] {
				return true
			}
			if closeish {
				pass.Report(call.Pos(),
					"unchecked error returned by %s; Close/Flush/Sync errors are where lost writes hide — handle or fold into the function's error", name)
				return true
			}
			if isMain {
				pass.Report(call.Pos(),
					"unchecked error returned by %s in a main package; handle it or assign to _ deliberately", name)
			}
			return true
		})
	}
}

// returnsError reports whether the call yields at least one error value.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// calleeName renders the callee for messages and classifies Close/Flush/
// Sync method or function names.
func calleeName(pass *Pass, call *ast.CallExpr) (string, bool) {
	if mi, ok := pass.method(call); ok {
		return exprText(call.Fun), closeishNames[mi.name]
	}
	if _, name, ok := pass.pkgFunc(call); ok {
		return exprText(call.Fun), closeishNames[name]
	}
	return exprText(call.Fun), false
}
