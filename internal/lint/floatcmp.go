package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatCmp flags == and != between floating-point or complex operands.
//
// The parallel SOCS reductions (PR 1) and the band-pruned FFT engine
// (PR 3) are proven bit-identical, and that proof is only meaningful if
// "identical" is tested bit-exactly: a plain float == silently conflates
// +0/-0, disagrees with itself under NaN, and invites tolerance drift. In
// production code a comparison must either go through math.Float64bits
// (bit-exact by construction) or use an explicit tolerance. Test files are
// not linted — that is where tolerance-0 assertions legitimately live.
//
// Comparisons against a constant zero are exempt: `x == 0` is the
// repo-wide sentinel idiom (division guards, skip-zero sparsity in the
// TCC eigensolver, "empty tile" checks) and zero is exactly representable,
// so the comparison means what it says. Every other comparison — two
// computed values, or a computed value against a nonzero constant — is
// where rounding drift silently breaks the bit-identical contract.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flags ==/!= on float or complex operands (constant-zero sentinels exempt); compare math.Float64bits values or use a tolerance",
	Run:  runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, xok := pass.Info.Types[be.X]
			yt, yok := pass.Info.Types[be.Y]
			if !xok || !yok {
				return true
			}
			if !isFloaty(xt.Type) && !isFloaty(yt.Type) {
				return true
			}
			if xt.Value != nil && yt.Value != nil {
				return true // constant-folded at compile time
			}
			if isZeroConst(xt) || isZeroConst(yt) {
				return true // sentinel comparison against exact zero
			}
			pass.Report(be.OpPos,
				"float equality: %s on %s operands is not bit-exact-safe; compare math.Float64bits values or use an explicit tolerance",
				be.Op, floatLabel(xt.Type, yt.Type))
			return true
		})
	}
}

// isZeroConst reports whether the operand is a compile-time constant equal
// to zero (0, 0.0, 0i, or a named constant with that value).
func isZeroConst(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	case constant.Complex:
		return constant.Sign(constant.Real(tv.Value)) == 0 && constant.Sign(constant.Imag(tv.Value)) == 0
	}
	return false
}

func isFloaty(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// floatLabel names the wider of the two operand types for the message.
func floatLabel(x, y types.Type) string {
	for _, t := range []types.Type{x, y} {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsComplex != 0 {
			return "complex"
		}
	}
	for _, t := range []types.Type{x, y} {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			return b.Name()
		}
	}
	return "float"
}
