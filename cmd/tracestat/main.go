// Command tracestat checks and analyzes the JSONL traces the instrumented
// pipeline writes (iltopt -trace, a server job's SSE stream): per-phase
// wall-time tables with a critical-path summary, per-iteration latency
// quantiles and loss/step/retry series, and the latency-histogram summaries
// the recorder flushes at close. With -manifest it also reads the run
// manifest and prints one line for it.
//
//	tracestat [-manifest run_manifest.json] run.jsonl
//
// Exit codes: 0 report written, 1 usage or read error, a trace that breaks
// the event schema (no report), or, after the report, phases covering less
// than 80% or more than 125% of the run.end wall time.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	"repro/internal/telemetry"
	"repro/internal/tracestat"
)

// The phase-coverage band: summed phase seconds over the run.end wall time.
// Concurrent phases (the fullchip tile pool) can sum past the wall time.
const minCoverage, maxCoverage = 0.80, 1.25

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

func run() error {
	manifest := flag.String("manifest", "", "run manifest to read as well (optional)")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: tracestat [-manifest FILE] trace.jsonl")
	}
	path := flag.Arg(0)
	t, err := tracestat.ReadFile(path)
	if err != nil {
		return err
	}
	tracestat.Render(os.Stdout, t)
	if cov := t.Coverage(); t.WallSec > 0 && (cov < minCoverage || cov > maxCoverage) {
		return fmt.Errorf("%s: phase coverage %.2f outside [%.2f, %.2f]", path, cov, minCoverage, maxCoverage)
	}
	if *manifest != "" {
		man, err := telemetry.ReadManifest(*manifest)
		if err != nil {
			return err
		}
		rev := cmp.Or(man.GitRevision, "unknown")
		fmt.Printf("\n%s: tool %s, rev %s, host %s/%s ×%d, %.3fs, %d phases\n",
			*manifest, man.Tool, rev[:min(len(rev), 12)], man.Host.OS, man.Host.Arch,
			man.Host.NumCPU, man.DurationSec, len(man.Phases))
	}
	return nil
}
