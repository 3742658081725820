package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the four command-line tools and drives the full
// user workflow: generate a benchmark suite, optimize a case, forward-
// simulate the result, and regenerate an experiment table.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/benchgen", "./cmd/iltopt", "./cmd/lithosim", "./cmd/mltables")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	work := t.TempDir()
	small := []string{"-n", "128", "-field", "512", "-kernels", "8"}

	// 1. Generate layouts.
	out := run("benchgen", "-n", "128", "-field", "512", "-suite", "via",
		"-count", "2", "-out", work, "-png=false")
	if !strings.Contains(out, "via1") {
		t.Fatalf("benchgen output missing case name:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(work, "via1.glp")); err != nil {
		t.Fatal("benchgen did not write via1.glp")
	}

	// 2. Optimize the generated layout.
	prefix := filepath.Join(work, "opt")
	out = run("iltopt", append(small, "-layout", filepath.Join(work, "via1.glp"),
		"-recipe", "via", "-iterdiv", "4", "-out", prefix)...)
	if !strings.Contains(out, "L2") {
		t.Fatalf("iltopt output missing metrics:\n%s", out)
	}
	for _, suffix := range []string{"_mask.png", "_wafer.png", "_mask.glp"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Fatalf("iltopt artifact %s missing", suffix)
		}
	}
	// A layout declares its grid: without -n, the pitch (and with it the
	// region, the clean-up and the nm² metrics) follows the layout's SIZE.
	noN := run("iltopt", "-field", "512", "-kernels", "8", "-layout", filepath.Join(work, "via1.glp"),
		"-recipe", "via", "-iterdiv", "4")
	if got, want := metricLine(t, noN), metricLine(t, out); got != want {
		t.Errorf("iltopt without -n reports %q, with -n 128 %q", got, want)
	}

	// 3. Forward-simulate the optimized mask layout with Eq. (7).
	out = run("lithosim", append(small, "-layout", prefix+"_mask.glp",
		"-eq", "7", "-scale", "4")...)
	if !strings.Contains(out, "Eq.(7)") || !strings.Contains(out, "printed area") {
		t.Fatalf("lithosim output unexpected:\n%s", out)
	}

	// 4. Regenerate one experiment table.
	out = run("mltables", append(small, "-iterdiv", "20", "-baselines=false",
		"-exp", "fig5")...)
	if !strings.Contains(out, "Fig. 5") {
		t.Fatalf("mltables output missing table:\n%s", out)
	}

	// 5. Unknown experiment name fails cleanly.
	cmd := exec.Command(filepath.Join(bin, "mltables"), "-exp", "nosuch")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("mltables accepted unknown experiment:\n%s", out)
	}

	// 6. A claim that reads FAIL fails the run after its table: at 1/20 of
	// the budgets some claims do, and the error names each of them.
	cmd = exec.Command(filepath.Join(bin, "mltables"), append(small, "-iterdiv", "20", "-exp", "verify")...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("mltables -exp verify with failing claims: %v, want exit status 1\n%s%s", err, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "Claim verification") {
		t.Fatalf("mltables printed no claim table:\n%s", &stdout)
	}
	failed := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if claim, _, ok := strings.Cut(line, "  "); ok && strings.HasSuffix(strings.TrimSpace(line), "FAIL") {
			failed++
			if !strings.Contains(stderr.String(), claim) {
				t.Errorf("error does not name failed claim %q:\n%s", claim, &stderr)
			}
		}
	}
	if failed == 0 {
		t.Errorf("no claim reads FAIL at 1/20 of the budgets, so this case checks nothing:\n%s", &stdout)
	}
}

// TestTracestatCLI drives the trace tool the way the trace-smoke lane does:
// check and report a real optimizer trace and read its manifest. A trace
// whose phases cover too little of its wall time fails after its report; a
// trace that breaks the schema fails without one.
func TestTracestatCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/iltopt", "./cmd/tracestat")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	work := t.TempDir()
	trace := filepath.Join(work, "run.jsonl")
	manifest := filepath.Join(work, "run_manifest.json")

	// A short deterministic run produces the trace under analysis. It runs
	// without the garbage collector: on a test host loaded by other
	// packages, one collection's pauses can stall a run this short for a
	// fifth of its wall time, wherever it then allocates, and the coverage
	// band would judge the host instead of the phases.
	opt := exec.Command(filepath.Join(bin, "iltopt"), "-case", "1", "-n", "128",
		"-field", "512", "-kernels", "8", "-iterdiv", "20", "-workers", "1",
		"-recipe", "fast", "-trace", trace, "-manifest", manifest)
	opt.Env = append(os.Environ(), "GOGC=off")
	if out, err := opt.CombinedOutput(); err != nil {
		t.Fatalf("iltopt: %v\n%s", err, out)
	}
	tracestat := func(args ...string) (string, int) {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, "tracestat"), args...).CombinedOutput()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return string(out), 0
		case errors.As(err, &exit):
			return string(out), exit.ExitCode()
		}
		t.Fatalf("tracestat %v: %v", args, err)
		return "", 0
	}

	// Report mode: the analytics sections must cover phases, iterations,
	// and the histogram summaries the recorder flushes at close; the
	// manifest gets its one line.
	out, code := tracestat("-manifest", manifest, trace)
	if code != 0 {
		t.Fatalf("tracestat exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"trace report:", "iteration latency", "phases by wall time",
		"phase coverage:", "litho.socs", "core.loss", "latency histograms", "core.iter",
		manifest + ": tool iltopt",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Phases covering a tenth of the wall time: the report, then exit 1.
	low := filepath.Join(work, "low.jsonl")
	writeFile(t, low, `{"event":"run.end","seq":1,"ts":0,"wall_sec":10}
{"event":"phases","seq":2,"ts":0,"litho.socs":{"count":1,"sec":1}}
`)
	out, code = tracestat(low)
	report, fail := strings.Index(out, "trace report:"), strings.Index(out, "phase coverage 0.10 outside [0.80, 1.25]")
	if code != 1 || report < 0 || fail < report {
		t.Errorf("low-coverage trace: exit %d, want 1 after the report and the coverage error:\n%s", code, out)
	}

	// A schema error: exit 1, naming the line, with no report.
	bad := filepath.Join(work, "bad.jsonl")
	writeFile(t, bad, `{"event":"iter","seq":1,"ts":0,"stage":0,"iter":0}`+"\n")
	out, code = tracestat(bad)
	if code != 1 || !strings.Contains(out, `line 1 (iter): missing numeric "loss"`) || strings.Contains(out, "trace report:") {
		t.Errorf("schema error: exit %d, want 1 naming the line, without a report:\n%s", code, out)
	}
}

// metricLine returns iltopt's metric line without its ILT wall time.
func metricLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "  ILT "); i > 0 && strings.Contains(line, "  L2 ") {
			return line[:i]
		}
	}
	t.Fatalf("no metric line in iltopt output:\n%s", out)
	return ""
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
