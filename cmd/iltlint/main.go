// Command iltlint runs the repo-specific static-analysis suite
// (internal/lint) over the module: the determinism, aliasing, zero-alloc
// and multi-level-resolution invariants the perf PRs proved by hand,
// enforced mechanically — including the interprocedural rules that follow
// pool leases and grid resolutions through the call graph.
//
//	iltlint ./...                    # run every rule, text output
//	iltlint -json ./...              # stable machine-readable output
//	iltlint -rules floatcmp ./...    # a subset of rules
//	iltlint -workers 8 ./...         # parallel load/analyze (0 = GOMAXPROCS)
//	iltlint -list                    # describe the rules
//
// Exit codes: 0 clean, 1 findings remain, 2 usage or load/type error.
// The JSON schema is {"count": N, "diagnostics": [{"file", "line",
// "col", "rule", "message"}]}, ordered by file, line, column, rule,
// message — byte-identical across runs over the same tree at any worker
// count.
//
// Findings are suppressed line-by-line with a mandatory-reason directive:
//
//	//lint:ignore <rule>[,<rule>] <reason>
//
// See DESIGN.md, "Static analysis".
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (stable order)")
	rules := flag.String("rules", "all", "comma-separated rule subset to run")
	workers := flag.Int("workers", 0, "load/analyze parallelism (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "list the registered rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: iltlint [-json] [-rules r1,r2] [-workers n] [-list] [packages]\n\n"+
				"Runs the repo's static-analysis suite (default patterns: ./...).\n"+
				"Exit codes: 0 clean, 1 findings, 2 load error.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.Lookup(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iltlint:", err)
		return 2
	}
	res, err := lint.Run(lint.Options{Patterns: flag.Args(), Analyzers: analyzers, Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "iltlint:", err)
		return 2
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, res.Diags); err != nil {
			fmt.Fprintln(os.Stderr, "iltlint:", err)
			return 2
		}
	} else {
		lint.WriteText(os.Stdout, res.Diags)
	}
	if len(res.Diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "iltlint: %d finding(s)%s\n", len(res.Diags), ruleCounts(res.Diags))
		}
		return 1
	}
	return 0
}

// ruleCounts renders " (rule1 x2, rule2 x1)" in registry order for the
// exit-1 summary line.
func ruleCounts(diags []lint.Diagnostic) string {
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Rule]++
	}
	out := ""
	for _, name := range append(lint.RuleNames(), "ignore") {
		if counts[name] == 0 {
			continue
		}
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s x%d", name, counts[name])
	}
	if out == "" {
		return ""
	}
	return " (" + out + ")"
}
