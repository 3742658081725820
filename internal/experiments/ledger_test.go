package experiments

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// ledgerCounters are the exact, host-independent work counts the ledger
// pins: transforms and simulations run, and their butterflies per phase.
var ledgerCounters = []string{
	"litho.kernel_ffts", "litho.forward_sims", "litho.adjoint_calls",
	"litho.fft_forward_butterflies", "litho.fft_inverse_butterflies", "litho.adjoint_butterflies",
}

// TestWorkLedger is the work golden of the ILT flow: paper case 1 through
// the fast and exact recipes (budgets divided so each stage runs once or
// twice) plus metrics.Evaluate, at the iltbench shapes — fast at n = 256,
// exact at n = 512 so a 512-px gradient runs, both with 12 kernels. The
// counts repeat exactly on any host, so they are held at tolerance 0; a
// change that moves the work updates the golden and says why.
//
// fast: 2 iterations (m = 64, then m = 256), each one mask spectrum and
// two SOCS passes (inner, outer) with kept amplitudes, and two adjoints;
// Evaluate at 256 is one spectrum and two SOCS passes (the nominal and
// outer corners share the nominal kernel set) for three corner images.
// exact: 3 iterations (two at m = 128, one at m = 512), the 512-px
// amplitudes kept within the 64 MiB budget (12·512²·16 B = 48 MiB), so no
// gradient recomputes them; Evaluate at 512 as above.
func TestWorkLedger(t *testing.T) {
	for _, tc := range []struct {
		recipe string
		cfg    Config
		stages []core.Stage
		want   map[string]int64
	}{
		{"fast", Config{N: 256, FieldNM: 1024, Kernels: 12, IterDiv: 35}, core.FastM1(), map[string]int64{
			"litho.kernel_ffts": 72, "litho.forward_sims": 7, "litho.adjoint_calls": 4,
			"litho.fft_forward_butterflies": 804864, "litho.fft_inverse_butterflies": 11669544, "litho.adjoint_butterflies": 6542224,
		}},
		{"exact", Config{N: 512, FieldNM: 1024, Kernels: 12, IterDiv: 40}, core.ExactM1(), map[string]int64{
			"litho.kernel_ffts": 96, "litho.forward_sims": 9, "litho.adjoint_calls": 6,
			"litho.fft_forward_butterflies": 3710976, "litho.fft_inverse_butterflies": 46577760, "litho.adjoint_butterflies": 26845650,
		}},
	} {
		rec := telemetry.New()
		tc.cfg.Recorder = rec
		p, err := tc.cfg.Process()
		if err != nil {
			t.Fatal(err)
		}
		cs, err := bench.PaperCase(tc.cfg.N, tc.cfg.FieldNM, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions(p)
		opts.Recorder = rec
		o, err := core.New(opts, cs.Target)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(context.Background(), core.ScaleStages(tc.stages, tc.cfg.IterDiv))
		if err != nil {
			t.Fatal(err)
		}
		spacing, thr := tc.cfg.EPEParams()
		if _, err := metrics.Evaluate(p, res.Mask, cs.Target, spacing, thr); err != nil {
			t.Fatal(err)
		}
		got := rec.Counters()
		for _, name := range ledgerCounters {
			if got[name] != tc.want[name] {
				t.Errorf("%s: %s = %d, want %d", tc.recipe, name, got[name], tc.want[name])
			}
		}
	}
}
