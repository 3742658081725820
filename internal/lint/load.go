package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/grid"
)

// Package is one parsed, type-checked, in-module package ready for
// analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// LoadWorkers locates the packages matching patterns with `go list` (run
// in dir; "" means the current directory), parses their non-test sources
// and type-checks them from source. Imports — including the standard
// library — resolve through the compiler export data `go list -export`
// leaves in the build cache, so no dependency is ever re-checked and the
// module needs no loader dependency.
//
// Test files are deliberately excluded: they are where bit-exactness
// assertions and fixture abuse legitimately live, and the invariants the
// analyzers guard are production-path contracts.
//
// Parsing fans out across workers goroutines per the repo's Workers
// convention (≤ 0 means GOMAXPROCS). Parsing dominates load time and each
// file is independent; a token.FileSet is safe for concurrent use, so
// files land in the shared set from any worker. Type-checking stays
// serial: packages must check in dependency order against one importer,
// and the importer's export-data cache is not synchronized.
func LoadWorkers(dir string, workers int, patterns ...string) ([]*Package, *token.FileSet, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Name,GoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var roots []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("loading %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue // test-only directory
		}
		roots = append(roots, p)
	}
	if len(roots) == 0 {
		return nil, nil, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	// Parse every root file in parallel; results keep source order.
	type parseJob struct {
		pkg, file int
		path      string
	}
	var jobs []parseJob
	parsed := make([][]*ast.File, len(roots))
	for pi, p := range roots {
		parsed[pi] = make([]*ast.File, len(p.GoFiles))
		for fi, name := range p.GoFiles {
			jobs = append(jobs, parseJob{pkg: pi, file: fi, path: filepath.Join(p.Dir, name)})
		}
	}
	parseErrs := make([]error, len(jobs))
	grid.ParallelFor(workers, len(jobs), func(i int) {
		j := jobs[i]
		af, err := parser.ParseFile(fset, j.path, nil,
			parser.ParseComments|parser.SkipObjectResolution)
		parsed[j.pkg][j.file] = af
		parseErrs[i] = err
	})
	for _, err := range parseErrs {
		if err != nil {
			return nil, nil, err
		}
	}

	var pkgs []*Package
	for pi, p := range roots {
		files := parsed[pi]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var typeErrs []string
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if len(typeErrs) < 10 {
					typeErrs = append(typeErrs, err.Error())
				}
			},
		}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if len(typeErrs) > 0 {
			return nil, nil, fmt.Errorf("type-checking %s:\n  %s", p.ImportPath, strings.Join(typeErrs, "\n  "))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  p.ImportPath,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, fset, nil
}
