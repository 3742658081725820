// Command benchgen writes the synthetic benchmark suites to disk as layout
// files (and optional preview PNGs), and runs the workers-sweep timing
// report:
//
//	benchgen -suite m1 -out testdata/m1       # cases 1-10
//	benchgen -suite ext -out testdata/ext     # cases 11-20
//	benchgen -suite via -count 15 -out testdata/via
//	benchgen -sweep -json BENCH_WORKERS.json  # parallel-SOCS speedup curve
//	benchgen -fftsweep -json BENCH_FFT.json   # FFT-engine sweep: forward + gradient
//	benchgen -compare -old BENCH_FFT.json -new BENCH_FFT.new.json
//	benchgen -e2e -json BENCH_E2E.json      # iltbench fast + exact, trace off + on
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/imgio"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 512, "grid size (power of two)")
	field := flag.Float64("field", 2048, "physical field size in nm")
	suite := flag.String("suite", "m1", "suite: m1 | ext | via")
	count := flag.Int("count", 15, "number of via cases (via suite only)")
	out := flag.String("out", "testdata", "output directory")
	png := flag.Bool("png", true, "also write preview PNGs")
	sweep := flag.Bool("sweep", false, "run the workers sweep instead of generating a suite")
	sweepJSON := flag.String("json", "BENCH_WORKERS.json", "report output file (with -sweep / -fftsweep / -e2e)")
	sweepWorkers := flag.String("workers", "1,2,4,8", "comma-separated worker counts (with -sweep)")
	sweepReps := flag.Int("reps", 3, "timed repetitions per sweep point (with -sweep / -fftsweep)")
	kernels := flag.Int("kernels", 24, "number of SOCS kernels (with -sweep / -fftsweep)")
	fftsweep := flag.Bool("fftsweep", false, "run the FFT-engine sweep (batched pruning vs dense reference)")
	fftSizes := flag.String("sizes", "256,512,1024", "comma-separated grid sizes (with -fftsweep)")
	compare := flag.Bool("compare", false, "diff two FFT-sweep JSON reports")
	oldPath := flag.String("old", "BENCH_FFT.json", "baseline report (with -compare)")
	newPath := flag.String("new", "BENCH_FFT.new.json", "candidate report (with -compare)")
	gate := flag.Float64("gate", 0, "with -compare: fail if the new report's batch forward or gradient speedup over the reference is below this, or a butterfly count grew (0 disables)")
	manifestPath := flag.String("manifest", "", "write a run manifest (suite config + host + git revision) to this path")
	e2e := flag.Bool("e2e", false, "run the end-to-end benchmark (python3 iltbench/run.py) on fast and exact, tracing off and on, into -json")
	flag.Parse()

	if *e2e {
		r, err := bench.RunE2E(func(workload string, trace int) ([]byte, error) {
			cmd := exec.Command("python3", "iltbench/run.py", "--workload", workload,
				"--seed", strconv.Itoa(bench.E2ESeed), "--seconds", strconv.Itoa(bench.E2ESeconds),
				"--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			fmt.Fprintln(os.Stderr, "benchgen:", strings.Join(cmd.Args, " "))
			return cmd.Output()
		})
		if err != nil {
			return err
		}
		if err := r.WriteJSON(*sweepJSON); err != nil {
			return err
		}
		for _, run := range r.Runs {
			fmt.Printf("%-5s trace=%d  correct=%v  %d attempted, %d failed\n",
				run.Workload, run.Trace, run.Correct, run.Attempted, run.Failed)
		}
		fmt.Printf("→ %s (%d CPUs, GOMAXPROCS %d)\n", *sweepJSON, r.NumCPU, r.GOMAXPROCS)
		return nil
	}

	if *compare {
		oldS, err := bench.LoadFFTSweep(*oldPath)
		if err != nil {
			return err
		}
		newS, err := bench.LoadFFTSweep(*newPath)
		if err != nil {
			return err
		}
		fmt.Print(bench.CompareFFTSweeps(oldS, newS))
		if *gate > 0 {
			return bench.GateFFTSweeps(oldS, newS, *gate)
		}
		return nil
	}

	if *fftsweep {
		var sizes []int
		for _, tok := range strings.Split(*fftSizes, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad -sizes entry %q: %w", tok, err)
			}
			sizes = append(sizes, m)
		}
		s, err := bench.RunFFTSweep(sizes, *field, *kernels, *sweepReps)
		if err != nil {
			return err
		}
		if err := s.WriteJSON(*sweepJSON); err != nil {
			return err
		}
		for _, p := range s.Points {
			fmt.Printf("m=%-5d forward   reference %8.4fs  batch %8.4fs (%.2fx)\n",
				p.M, p.ReferenceSec, p.BatchedSec, p.BatchedGain)
			fmt.Printf("        gradient  reference %8.4fs  batch %8.4fs (%.2fx)  keep-amps=%v\n",
				p.ReferenceGradSec, p.BatchedGradSec, p.BatchedGradGain, p.KeepAmps)
		}
		fmt.Printf("→ %s (%d kernels, P=%d, workers=%d)\n", *sweepJSON, s.Kernels, s.P, s.Workers)
		return nil
	}

	if *sweep {
		var list []int
		for _, tok := range strings.Split(*sweepWorkers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad -workers entry %q: %w", tok, err)
			}
			list = append(list, w)
		}
		s, err := bench.RunWorkersSweep(*n, *field, *kernels, *sweepReps, list)
		if err != nil {
			return err
		}
		if err := s.WriteJSON(*sweepJSON); err != nil {
			return err
		}
		for _, p := range s.Points {
			fmt.Printf("workers=%-2d  forward %8.4fs (%.2fx)  gradient %8.4fs (%.2fx)\n",
				p.Workers, p.ForwardSec, p.ForwardSpeedup, p.GradientSec, p.GradientSpeedup)
		}
		fmt.Printf("→ %s (%d² clip, %d kernels, %d CPUs, model build %.2fs)\n",
			*sweepJSON, s.N, s.Kernels, s.NumCPU, s.ModelBuildSec)
		return nil
	}

	var cases []bench.Case
	var err error
	switch *suite {
	case "m1":
		cases, err = bench.M1Suite(*n, *field)
	case "ext":
		cases, err = bench.ExtendedSuite(*n, *field)
	case "via":
		cases, err = bench.ViaSuite(*n, *field, *count)
	default:
		return fmt.Errorf("unknown suite %q", *suite)
	}
	if err != nil {
		return err
	}

	for _, c := range cases {
		path := filepath.Join(*out, c.Name+".glp")
		if err := c.Layout.Save(path); err != nil {
			return err
		}
		if *png {
			if err := imgio.WritePNG(filepath.Join(*out, c.Name+".png"), c.Target); err != nil {
				return err
			}
		}
		fmt.Printf("%s: %d shapes, %.0f nm² (paper target %.0f nm²) → %s\n",
			c.Name, c.Layout.ShapeCount(), c.AreaNM2, c.PaperAreaNM2, path)
	}

	if *manifestPath != "" {
		man := telemetry.NewManifest("benchgen", map[string]any{
			"suite": *suite, "n": *n, "field_nm": *field,
			"count": *count, "out": *out, "png": *png,
		})
		man.SetMetric("cases", float64(len(cases)))
		man.Finish(nil)
		if err := man.Write(*manifestPath); err != nil {
			return err
		}
		fmt.Printf("manifest: %s\n", *manifestPath)
	}
	return nil
}
