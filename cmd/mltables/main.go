// Command mltables regenerates the paper's tables and figures on the
// synthetic benchmark suites. It is the experiment driver behind
// EXPERIMENTS.md:
//
//	mltables                  # every experiment at the default harness scale
//	mltables -exp table2,fig4 # a subset
//	mltables -n 2048 -iterdiv 1 -out artifacts/  # paper scale (hours on CPU)
//
// Each experiment prints an aligned table; -out additionally writes CSV and
// PNG artifacts. The command exits 1 when an experiment cannot complete, or,
// after every table is printed, when a claim of the verify table reads FAIL.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mltables:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := experiments.Harness()
	n := flag.Int("n", cfg.N, "simulation grid size (power of two)")
	field := flag.Float64("field", cfg.FieldNM, "physical field size in nm")
	kernels := flag.Int("kernels", cfg.Kernels, "number of SOCS kernels N_k")
	iterdiv := flag.Int("iterdiv", cfg.IterDiv, "divide every recipe's iteration budget by this")
	baselines := flag.Bool("baselines", cfg.WithBaselines, "also measure the reimplemented baselines (slow)")
	out := flag.String("out", "", "directory for CSV/PNG artifacts (empty = none)")
	exp := flag.String("exp", "all", "comma-separated experiments, or 'all': "+strings.Join(experiments.Names, ","))
	verbose := flag.Bool("v", false, "log per-case progress to stderr")
	trace := flag.String("trace", "", "write JSONL trace events (progress + phase timers) to this file")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address")
	flag.Parse()

	cfg.N = *n
	cfg.FieldNM = *field
	cfg.Kernels = *kernels
	cfg.IterDiv = *iterdiv
	cfg.WithBaselines = *baselines
	cfg.OutDir = *out

	// -v progress flows through the telemetry console sink (the same
	// rendering path iltopt -progress uses).
	var topts []telemetry.Option
	if *verbose {
		topts = append(topts, telemetry.WithConsole(os.Stderr))
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		topts = append(topts, telemetry.WithTrace(f))
	}
	if len(topts) > 0 || *debugAddr != "" || *out != "" {
		cfg.Recorder = telemetry.New(topts...)
		defer cfg.Recorder.Close()
	}
	if *debugAddr != "" {
		addr, stop, err := telemetry.ServeDebug(*debugAddr, cfg.Recorder)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	names := experiments.Names
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	var ran []string
	var failed error // FailedClaims of the first verify table with a FAIL
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if cfg.Recorder.Enabled() {
			cfg.Recorder.Emit("run.start", telemetry.Fields{"tool": "mltables", "name": name})
		}
		t, err := experiments.Run(cfg, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(t.String())
		ran = append(ran, name)
		if name == "verify" && failed == nil {
			failed = experiments.FailedClaims(t)
		}
	}
	cfg.Recorder.Emit("run.end", telemetry.Fields{
		"wall_sec": cfg.Recorder.Elapsed(),
		"summary":  fmt.Sprintf("%d experiments: %s", len(ran), strings.Join(ran, ",")),
	})

	if *out != "" {
		man := telemetry.NewManifest("mltables", map[string]any{
			"n": cfg.N, "field_nm": cfg.FieldNM, "kernels": cfg.Kernels,
			"iterdiv": cfg.IterDiv, "baselines": cfg.WithBaselines,
			"experiments": strings.Join(ran, ","),
		})
		man.Finish(cfg.Recorder)
		path := filepath.Join(*out, "manifest.json")
		if err := man.Write(path); err != nil {
			return err
		}
		fmt.Printf("manifest: %s\n", path)
	}
	if failed != nil {
		return fmt.Errorf("verify: %w", failed)
	}
	return nil
}
