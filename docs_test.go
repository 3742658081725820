package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
