package repro

import (
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
}

// TestTracestatCLI drives the trace-analytics tool the way the trace-smoke
// lane does: report a real optimizer trace.
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

	// A short deterministic run produces the trace under analysis.
	opt := exec.Command(filepath.Join(bin, "iltopt"), "-case", "1", "-n", "128",
		"-field", "512", "-kernels", "8", "-iterdiv", "20", "-workers", "1",
		"-recipe", "fast", "-trace", trace)
	if out, err := opt.CombinedOutput(); err != nil {
		t.Fatalf("iltopt: %v\n%s", err, out)
	}

	// Report mode: the analytics sections must cover phases, iterations,
	// and the histogram summaries the recorder flushes at close.
	rep := exec.Command(filepath.Join(bin, "tracestat"), trace)
	out, err := rep.CombinedOutput()
	if err != nil {
		t.Fatalf("tracestat: %v\n%s", err, out)
	}
	for _, want := range []string{
		"trace report:", "iteration latency", "phases by wall time",
		"phase coverage:", "litho.socs", "latency histograms", "core.iter",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
