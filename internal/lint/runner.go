package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/grid"
)

// Options configures one analysis run.
type Options struct {
	// Dir is where `go list` runs and the base against which diagnostic
	// file paths are relativized; "" means the current directory.
	Dir string
	// Patterns are go package patterns; empty means ./...
	Patterns []string
	// Analyzers to run; empty means All.
	Analyzers []*Analyzer
	// Workers bounds load/analyze parallelism per the repo convention
	// (grid.ParallelFor): ≤ 0 means GOMAXPROCS, 1 is fully serial. Output
	// is byte-identical at every setting — packages keep load order and
	// diagnostics are sorted after the merge.
	Workers int
}

// Result is the outcome of a run: suppression-filtered, deterministically
// ordered diagnostics.
type Result struct {
	Diags []Diagnostic
}

// Run loads the requested packages and applies every analyzer to each,
// then filters the findings through //lint:ignore directives and sorts
// them (file, line, column, rule, message) so repeated runs over the same
// tree produce byte-identical output.
func Run(opts Options) (*Result, error) {
	analyzers := opts.Analyzers
	if len(analyzers) == 0 {
		analyzers = All
	}
	workers := opts.Workers
	pkgs, fset, err := LoadWorkers(opts.Dir, workers, opts.Patterns...)
	if err != nil {
		return nil, err
	}

	// The interprocedural substrate is built once, serially, and shared
	// read-only by every pass.
	prog := BuildProgram(pkgs)

	// Packages are independent analysis units: fan out across workers,
	// each accumulating into its own slot, then merge in load order so
	// the result stream is identical at any worker count.
	perPkgDiags := make([][]Diagnostic, len(pkgs))
	perPkgIgnores := make([][]ignoreDirective, len(pkgs))
	grid.ParallelFor(workers, len(pkgs), func(i int) {
		pkg := pkgs[i]
		for _, f := range pkg.Files {
			perPkgIgnores[i] = append(perPkgIgnores[i], scanIgnores(fset, f)...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &perPkgDiags[i],
			}
			a.Run(pass)
		}
	})
	var diags []Diagnostic
	var ignores []ignoreDirective
	for i := range pkgs {
		diags = append(diags, perPkgDiags[i]...)
		ignores = append(ignores, perPkgIgnores[i]...)
	}

	diags = applyIgnores(diags, ignores)
	relativize(diags, opts.Dir)
	sortDiags(diags)
	return &Result{Diags: diags}, nil
}

// An ignoreDirective is one parsed //lint:ignore comment. It suppresses
// diagnostics of the named rules on targetLine of its file — the directive's
// own line for a trailing comment, the following line for a comment that
// stands alone. A directive without a reason suppresses nothing and is
// reported itself, as is every rule name it gives that is not in All.
type ignoreDirective struct {
	pos        token.Position
	rules      []string
	hasReason  bool
	targetLine int
}

// scanIgnores extracts //lint:ignore directives from one file.
func scanIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	// Lines on which non-comment code starts, to distinguish trailing
	// directives from stand-alone ones.
	codeLines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return false
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return false
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		return true
	})

	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			d := ignoreDirective{pos: pos, targetLine: pos.Line}
			fields := strings.Fields(text)
			if len(fields) > 0 {
				d.rules = strings.Split(fields[0], ",")
				d.hasReason = len(fields) > 1
			}
			// A directive with no code before it on its line guards the
			// next line instead.
			if !codeLines[pos.Line] || pos.Column == 1 {
				d.targetLine = pos.Line + 1
			}
			out = append(out, d)
		}
	}
	return out
}

// applyIgnores drops diagnostics matched by a well-formed directive and
// reports malformed directives under the "ignore" rule: a missing reason,
// and each rule name the registry does not know. Names are checked against
// All, not the rules selected for this run, so a directive left behind by
// a deleted or misspelled rule fails every run.
func applyIgnores(diags []Diagnostic, ignores []ignoreDirective) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, ig := range ignores {
			if !ig.hasReason || ig.pos.Filename != d.Pos.Filename || ig.targetLine != d.Pos.Line {
				continue
			}
			for _, r := range ig.rules {
				if r == d.Rule {
					suppressed = true
					break
				}
			}
			if suppressed {
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, ig := range ignores {
		if !ig.hasReason {
			out = append(out, Diagnostic{
				Pos:     ig.pos,
				Rule:    "ignore",
				Message: "//lint:ignore directive needs a reason: //lint:ignore <rule>[,<rule>] <reason>",
			})
		}
		for _, r := range ig.rules {
			if analyzerNamed(r) == nil {
				out = append(out, Diagnostic{
					Pos:     ig.pos,
					Rule:    "ignore",
					Message: fmt.Sprintf("//lint:ignore names unknown rule %q (have %s)", r, strings.Join(RuleNames(), ", ")),
				})
			}
		}
	}
	return out
}

// relativize rewrites diagnostic file paths relative to dir so output is
// stable across checkouts and machines.
func relativize(diags []Diagnostic, dir string) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(abs, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// jsonDiag is the stable wire form of one diagnostic. Field order is the
// schema; see README ("iltlint").
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// WriteJSON emits {"count": N, "diagnostics": [...]} with diagnostics in
// the runner's deterministic order. The byte stream is identical across
// runs over the same tree.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	payload := struct {
		Count       int        `json:"count"`
		Diagnostics []jsonDiag `json:"diagnostics"`
	}{Count: len(diags), Diagnostics: make([]jsonDiag, 0, len(diags))}
	for _, d := range diags {
		payload.Diagnostics = append(payload.Diagnostics, jsonDiag{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// WriteText emits one "file:line:col: message (rule)" line per diagnostic.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}
