package lint

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// A want is one expected diagnostic, parsed from a fixture comment:
//
//	expr // want "regex"
//	// want+1 "regex"   (diagnostic expected on the next line)
//
// Several quoted regexes on one line expect several diagnostics there.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile(`// want(\+\d+)? (.+)$`)
var wantArgRe = regexp.MustCompile(`"([^"]*)"`)

// parseWants scans every .go file of a fixture directory for want comments.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := filepath.Glob(filepath.Join(dir, "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, nested...)
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	var wants []*want
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			target := line
			if m[1] != "" {
				fmt.Sscanf(m[1], "+%d", &target)
				target += line
			}
			args := wantArgRe.FindAllStringSubmatch(m[2], -1)
			if len(args) == 0 {
				t.Errorf("%s:%d: want comment without a quoted regex", path, line)
			}
			for _, a := range args {
				re, err := regexp.Compile(a[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, line, a[1], err)
				}
				wants = append(wants, &want{file: filepath.Base(path), line: target, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// testFixture runs one or more analyzers over a fixture tree and checks
// the diagnostics against the // want annotations: every diagnostic must
// match exactly one unconsumed want and every want must be consumed.
// Fixture files are matched by base name, which covers the multi-package
// fixtures' subdirectories.
func testFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	testFixturePatterns(t, []*Analyzer{a}, dir, ".")
}

func testFixturePatterns(t *testing.T, analyzers []*Analyzer, dir string, patterns ...string) {
	t.Helper()
	res, err := Run(Options{Dir: dir, Patterns: patterns, Analyzers: analyzers})
	if err != nil {
		t.Fatalf("lint run over %s: %v", dir, err)
	}
	wants := parseWants(t, dir)
	for _, d := range res.Diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", w.file, w.line, w.re)
		}
	}
}

func TestFloatCmpFixture(t *testing.T)     { testFixture(t, FloatCmp, "testdata/src/floatcmp") }
func TestMapOrderFixture(t *testing.T)     { testFixture(t, MapOrder, "testdata/src/maporder") }
func TestScratchAliasFixture(t *testing.T) { testFixture(t, ScratchAlias, "testdata/src/scratchalias") }
func TestHotAllocFixture(t *testing.T)     { testFixture(t, HotAlloc, "testdata/src/hotalloc") }
func TestErrCheckMainFixture(t *testing.T) { testFixture(t, ErrCheck, "testdata/src/errcheck") }
func TestErrCheckLibFixture(t *testing.T)  { testFixture(t, ErrCheck, "testdata/src/errchecklib") }
func TestGridResFixture(t *testing.T)      { testFixture(t, GridRes, "testdata/src/gridres") }
func TestLeasePathFixture(t *testing.T)    { testFixture(t, LeasePath, "testdata/src/leasepath") }

// TestInterprocFixture loads a two-package fixture in one run: the
// findings in package b exist only because summaries computed for package
// a (release chains, result resolution deltas, same-res constraints)
// survive the cross-package call-graph fixpoint.
func TestInterprocFixture(t *testing.T) {
	testFixturePatterns(t, []*Analyzer{GridRes, LeasePath}, "testdata/src/interproc", "./...")
}

// TestWorkersDeterminism pins the parallel pipeline's contract: the -json
// byte stream is identical at any worker count.
func TestWorkersDeterminism(t *testing.T) {
	runAt := func(workers int) []byte {
		res, err := Run(Options{Dir: "testdata/src/driver", Patterns: []string{"./..."}, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res.Diags); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runAt(1)
	for _, w := range []int{2, 8, 0} {
		if got := runAt(w); !bytes.Equal(serial, got) {
			t.Errorf("workers=%d output differs from serial:\n--- serial\n%s--- workers=%d\n%s", w, serial, w, got)
		}
	}
}

// TestDriverJSONGolden runs the full suite over the driver fixture — one
// violation per rule, plus a directive naming an unknown rule — and pins
// the -json byte stream: the schema, the (file, line, col, rule) ordering,
// and run-to-run determinism.
func TestDriverJSONGolden(t *testing.T) {
	runJSON := func() []byte {
		res, err := Run(Options{Dir: "testdata/src/driver", Patterns: []string{"./..."}})
		if err != nil {
			t.Fatalf("lint run: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res.Diags); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := runJSON(), runJSON()
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs over the same tree differ:\n--- first\n%s--- second\n%s", first, second)
	}

	for _, name := range append(RuleNames(), "ignore") {
		if !strings.Contains(string(first), `"rule": "`+name+`"`) {
			t.Errorf("driver fixture did not exercise rule %s:\n%s", name, first)
		}
	}

	golden := filepath.Join("testdata", "driver.golden.json")
	if *update {
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/lint -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(first, wantBytes) {
		t.Errorf("JSON output diverged from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, first, wantBytes)
	}
}

// TestLookup pins rule selection: "all" is the whole registry in order,
// and an unknown name fails with an error that lists every rule.
func TestLookup(t *testing.T) {
	seven := []string{"floatcmp", "maporder", "scratchalias", "hotalloc", "errcheck", "gridres", "leasepath"}
	for _, tc := range []struct {
		rules string
		want  []string
	}{
		{"all", seven},
		{"", seven},
		{"gridres, floatcmp", []string{"gridres", "floatcmp"}},
		{"bce", nil},
	} {
		got, err := Lookup(tc.rules)
		if tc.want == nil {
			if err == nil {
				t.Errorf("Lookup(%q) = %d rules, want an error", tc.rules, len(got))
				continue
			}
			for _, name := range seven {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("Lookup(%q) error %q does not name %s", tc.rules, err, name)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("Lookup(%q): %v", tc.rules, err)
			continue
		}
		var names []string
		for _, a := range got {
			names = append(names, a.Name)
		}
		if strings.Join(names, ",") != strings.Join(tc.want, ",") {
			t.Errorf("Lookup(%q) = %v, want %v", tc.rules, names, tc.want)
		}
	}
}
