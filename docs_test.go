package repro

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/litho"
	"repro/internal/mask"
	"repro/internal/metrics"
	"repro/internal/optics"
	"repro/internal/post"
)

// TestDocsCiteWhatExists: every Test… identifier the docs name is a
// function in the module (a test, or a helper such as optics.TestScale),
// every `make <target>` they cite in inline code or a code block is a
// Makefile target, and every cmd/<name> cited there is a directory under
// cmd/, so a renamed or deleted test, target or tool cannot stay cited.
func TestDocsCiteWhatExists(t *testing.T) {
	funcs := moduleFuncs(t)
	targets := makeTargets(t)
	testRef := regexp.MustCompile(`\bTest[A-Z]\w*`)
	code := regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	makeRef := regexp.MustCompile(`\bmake\s+([a-z][\w-]*)`)
	cmdRef := regexp.MustCompile(`\bcmd/([a-z]\w*)`)
	for _, doc := range []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range testRef.FindAllString(string(b), -1) {
			if !funcs[id] {
				t.Errorf("%s names %s, which is no function in the module", doc, id)
			}
		}
		for _, span := range code.FindAllString(string(b), -1) {
			for _, m := range makeRef.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s cites `make %s`, which is no Makefile target", doc, m[1])
				}
			}
			for _, m := range cmdRef.FindAllStringSubmatch(span, -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s cites cmd/%s, which is no directory under cmd/", doc, m[1])
				}
			}
		}
	}
}

// Example_apiSketch is README's "Public API sketch", which
// TestREADMESketchCompiles holds to this body. It has no Output line, so go
// test compiles it but never runs it.
func Example_apiSketch() {
	model, _ := optics.BuildModel(optics.Default()) // synthesize SOCS kernels (2048 nm field)
	sim := litho.NewSim(model)                      // simulator, corners + resist
	cs, _ := bench.PaperCase(512, 2048, 1)          // synthetic M1 case 1 at 4 nm/px
	target := cs.Target

	opts := core.DefaultOptions(sim)                       // β=4, T_R=0.5, lr=1, 3×3 pool
	opts.Region, _ = mask.Region(target, mask.Option1, 15) // margin in px (60 nm)
	opt, _ := core.New(opts, target)
	res, _ := opt.Run(context.Background(), core.ExactM1()) // 80 low-res + 10 high-res

	cleaned := post.Clean(res.Mask, target, post.DefaultOptions(cs.PixelNM))
	rep, _ := metrics.Evaluate(sim, cleaned.Mask, target) // pitch from the field and the mask width
	rep = rep.Scale(cs.PixelNM)                           // px² → nm²
	fmt.Println(rep.L2, rep.PVB, rep.EPE, rep.Shots)
}

// TestREADMESketchCompiles: README's "Public API sketch" block is the body
// of Example_apiSketch, so the sketch compiles wherever the module does.
func TestREADMESketchCompiles(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("docs_test.go")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile("(?s)## Public API sketch\n\n```go\n(.*?)```").FindSubmatch(readme)
	body := regexp.MustCompile(`(?s)\nfunc Example_apiSketch\(\) \{\n(.*?\n)\}\n`).FindSubmatch(src)
	if block == nil || body == nil {
		t.Fatalf("README sketch found: %v; Example_apiSketch found: %v", block != nil, body != nil)
	}
	lines := strings.SplitAfter(string(body[1]), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(l, "\t")
	}
	if got, want := string(block[1]), strings.Join(lines, ""); got != want {
		t.Errorf("README's Public API sketch is not Example_apiSketch's body:\n%s\nwant:\n%s", got, want)
	}
}

// moduleFuncs returns the name of every function and method declared in
// the module's Go files, test files included, testdata and dot
// directories excluded.
func moduleFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func\s+(?:\([^)]*\)\s*)?(\w+)`)
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(b), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// makeTargets returns the rule targets of the root Makefile.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w.-]+)\s*:(?:[^=]|$)`).FindAllStringSubmatch(string(b), -1) {
		targets[m[1]] = true
	}
	return targets
}
