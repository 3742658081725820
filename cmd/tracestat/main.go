// Command tracestat analyzes the JSONL traces the instrumented pipeline
// writes (iltopt -trace, tracecheck-validated streams): per-phase wall-time
// tables with a critical-path summary, per-iteration latency quantiles and
// loss/step/retry series, and the latency-histogram summaries the recorder
// flushes at close.
//
//	tracestat run.jsonl
//
// Exit codes: 0 report written, 1 usage or read error.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/tracestat"
)

func main() {
	if len(os.Args) != 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: tracestat trace.jsonl")
		os.Exit(1)
	}
	t, err := tracestat.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	tracestat.Render(os.Stdout, t)
}
