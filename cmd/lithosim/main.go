// Command lithosim runs one forward lithography simulation of a mask and
// writes the aerial and wafer images:
//
//	lithosim -layout case1.glp -out sim            # Eq. (3), nominal corner
//	lithosim -mask mask.pgm -eq 7 -scale 4 -corner inner -out sim
//
// It prints intensity statistics and the printed area.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/imgio"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lithosim:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := experiments.Harness()
	n := flag.Int("n", cfg.N, "simulation grid size when rasterizing layouts")
	field := flag.Float64("field", cfg.FieldNM, "physical field size in nm")
	kernels := flag.Int("kernels", cfg.Kernels, "number of SOCS kernels")
	workers := flag.Int("workers", 0, "per-kernel simulation fan-out (0 = GOMAXPROCS); results are identical for every value")
	layoutPath := flag.String("layout", "", "layout file to simulate")
	maskPath := flag.String("mask", "", "PGM mask image to simulate (instead of -layout)")
	eq := flag.Int("eq", 3, "forward model: 3 (exact), 7 (truncated), 8 (pooled mask)")
	scale := flag.Int("scale", 4, "scale factor for -eq 7/8")
	corner := flag.String("corner", "nominal", "process corner: nominal | inner | outer")
	out := flag.String("out", "", "output prefix for aerial/wafer PNGs")
	trace := flag.String("trace", "", "write JSONL trace events (run + phase timers) to this file")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address")
	manifestPath := flag.String("manifest", "", "run-manifest path (default <out>_manifest.json when -out is set)")
	flag.Parse()

	cfg.N = *n
	cfg.FieldNM = *field
	cfg.Kernels = *kernels
	cfg.Workers = *workers

	if *manifestPath == "" && *out != "" {
		*manifestPath = *out + "_manifest.json"
	}
	var rec *telemetry.Recorder
	if *trace != "" || *debugAddr != "" || *manifestPath != "" {
		var topts []telemetry.Option
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return err
			}
			topts = append(topts, telemetry.WithTrace(f))
		}
		rec = telemetry.New(topts...)
		defer rec.Close()
	}
	if *debugAddr != "" {
		addr, stop, err := telemetry.ServeDebug(*debugAddr, rec)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}
	cfg.Recorder = rec

	var maskImg *grid.Mat
	switch {
	case *layoutPath != "":
		l, err := layout.Load(*layoutPath)
		if err != nil {
			return err
		}
		maskImg, err = l.Rasterize()
		if err != nil {
			return err
		}
	case *maskPath != "":
		var err error
		maskImg, err = imgio.ReadPGM(*maskPath)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -layout or -mask is required")
	}

	sim, err := cfg.Sim()
	if err != nil {
		return err
	}
	var c litho.Corner
	switch *corner {
	case "nominal":
		c = sim.Nominal()
	case "inner":
		c = sim.Inner()
	case "outer":
		c = sim.Outer()
	default:
		return fmt.Errorf("unknown corner %q", *corner)
	}

	rec.Emit("run.start", telemetry.Fields{
		"tool": "lithosim", "eq": *eq, "corner": *corner, "scale": *scale,
		"n": cfg.N, "field_nm": cfg.FieldNM, "kernels": cfg.Kernels, "workers": cfg.Workers,
	})

	var f *litho.Field
	switch *eq {
	case 3:
		f, err = sim.Forward(maskImg, c.KS, c.Dose, false)
	case 7:
		f, err = sim.ForwardEq7(maskImg, *scale, c.KS, c.Dose)
	case 8:
		pooled := grid.AvgPoolDown(maskImg, *scale)
		f, err = sim.Forward(pooled, c.KS, c.Dose, false)
	default:
		return fmt.Errorf("unknown equation %d (want 3, 7 or 8)", *eq)
	}
	if err != nil {
		return err
	}

	wafer := litho.ResistBinary(f.Intensity, litho.Threshold)
	min, max := f.Intensity.MinMax()
	fmt.Printf("Eq.(%d) at %s corner (dose %.2f): grid %d, intensity [%.4f, %.4f], printed area %.0f px²\n",
		*eq, c.Name, c.Dose, f.M, min, max, wafer.Sum())
	rec.Emit("run.end", telemetry.Fields{
		"wall_sec": rec.Elapsed(),
		"summary": fmt.Sprintf("Eq.(%d) %s dose %.2f: intensity [%.4f, %.4f], printed %.0f px²",
			*eq, c.Name, c.Dose, min, max, wafer.Sum()),
	})

	if *out != "" {
		aerial := f.Intensity.Clone()
		if max > 0 {
			aerial.Scale(1 / max)
		}
		if err := imgio.WritePNG(*out+"_aerial.png", aerial); err != nil {
			return err
		}
		if err := imgio.WritePNG(*out+"_wafer.png", wafer); err != nil {
			return err
		}
		fmt.Printf("artifacts: %s_aerial.png %s_wafer.png\n", *out, *out)
	}

	if *manifestPath != "" {
		man := telemetry.NewManifest("lithosim", map[string]any{
			"eq": *eq, "corner": *corner, "scale": *scale, "n": cfg.N,
			"field_nm": cfg.FieldNM, "kernels": cfg.Kernels, "workers": cfg.Workers,
		})
		man.SetMetric("intensity_min", min)
		man.SetMetric("intensity_max", max)
		man.SetMetric("printed_px2", wafer.Sum())
		man.Finish(rec)
		if err := man.Write(*manifestPath); err != nil {
			return err
		}
		fmt.Printf("manifest: %s\n", *manifestPath)
	}
	return nil
}
