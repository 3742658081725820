package lint

import "go/ast"

// A Summary is one function's interprocedural facts, computed bottom-up
// over the call graph (callees first, SCCs iterated to a fixpoint) so an
// analyzer can follow an invariant through a call without re-walking the
// callee. Parameter indices refer to declared parameters in order;
// receivers are not summarized (no repo invariant travels through one).
type Summary struct {
	NumParams int

	// Lease facts (leasepath, scratchalias hand-off discipline):
	// Releases[i] — the function Puts parameter i back to its pool on
	// every path (a "release helper"); Returns[i] — some return statement
	// hands parameter i (or an alias) back to the caller; Escapes[i] —
	// some path stores parameter i beyond the call (field, global,
	// channel, container, or an escaping callee position).
	Releases []bool
	Returns  []bool
	Escapes  []bool

	// Grid-resolution facts (gridres): SameRes constraints the body
	// imposes between grid-typed parameters, and the resolution level of
	// each result relative to a parameter, when derivable.
	SameRes []ResConstraint
	Results []ResultRes
}

// A ResConstraint requires level(param J) == level(param I) + Delta,
// where level counts coarsening steps (AvgPoolDown +1, Upsample −1).
type ResConstraint struct {
	I, J  int
	Delta int
}

// A ResultRes ties one result's resolution level to a parameter's:
// level(result) == level(param Param) + Delta.
type ResultRes struct {
	Result int
	Param  int
	Delta  int
}

func numParams(fd *ast.FuncDecl) int {
	if fd.Type.Params == nil {
		return 0
	}
	n := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			n++
		} else {
			n += len(field.Names)
		}
	}
	return n
}

// computeSummaries runs the bottom-up fixpoint: strongly connected
// components of the static call graph are processed callees-first, and
// each component is re-summarized until its facts stop changing (facts are
// monotone — booleans only flip one way, constraints only accumulate — so
// termination is structural, with a belt-and-braces iteration cap).
func computeSummaries(prog *Program) {
	for _, key := range prog.sortedFuncKeys() {
		fi := prog.Funcs[key]
		fi.Summary = newSummary(numParams(fi.Decl))
	}
	for _, scc := range prog.sccOrder() {
		for iter := 0; iter < len(scc)+1; iter++ {
			changed := false
			for _, key := range scc {
				fi := prog.Funcs[key]
				next := summarize(prog, fi)
				if !fi.Summary.equal(next) {
					fi.Summary = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

func newSummary(n int) *Summary {
	return &Summary{
		NumParams: n,
		Releases:  make([]bool, n),
		Returns:   make([]bool, n),
		Escapes:   make([]bool, n),
	}
}

func (s *Summary) equal(o *Summary) bool {
	if s == nil || o == nil {
		return s == o
	}
	eqBools := func(a, b []bool) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !eqBools(s.Releases, o.Releases) || !eqBools(s.Returns, o.Returns) ||
		!eqBools(s.Escapes, o.Escapes) {
		return false
	}
	if len(s.SameRes) != len(o.SameRes) || len(s.Results) != len(o.Results) {
		return false
	}
	for i := range s.SameRes {
		if s.SameRes[i] != o.SameRes[i] {
			return false
		}
	}
	for i := range s.Results {
		if s.Results[i] != o.Results[i] {
			return false
		}
	}
	return true
}

// summarize computes one function's summary against the current summaries
// of its callees.
func summarize(prog *Program, fi *FuncInfo) *Summary {
	n := numParams(fi.Decl)
	sum := newSummary(n)

	// Lease facts: seed every parameter as a tracked lease and observe
	// what each path does with it. leakObserved[i] is set when some exit
	// leaves parameter i neither released nor handed off.
	lw := newLeaseWalker(prog, fi.Pkg, fi.Decl, nil)
	for i := 0; i < n; i++ {
		i := i
		lw.seedParam(fi.Decl, i,
			func() { sum.Returns[i] = true },
			func() { sum.Escapes[i] = true })
	}
	leaked := lw.walk()
	for i := 0; i < n; i++ {
		sum.Releases[i] = !leaked[i] && !sum.Returns[i] && !sum.Escapes[i]
	}

	// Grid-resolution constraints and result deltas.
	gridResSummary(prog, fi, sum)

	return sum
}
