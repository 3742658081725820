package tracestat

import (
	"fmt"
	"io"
	"sort"
)

// Render writes the human-readable analytics report for one trace. Output
// is byte-deterministic for a given trace: section order, row order, and
// float formats are all fixed (see the golden-file test).
func Render(w io.Writer, t *Trace) {
	name := t.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "trace report: %s (tool %s, recipe %s)\n", name, orDash(t.Tool), orDash(t.Recipe))
	fmt.Fprintf(w, "  %d events, %d iterations over %d stages, wall %.3fs, ilt %.3fs\n",
		t.Events, len(t.Iters), len(t.Stages), t.WallSec, t.ILTSec)

	renderIters(w, t)
	renderStages(w, t)
	renderPhases(w, t)
	renderHists(w, t)
}

func renderIters(w io.Writer, t *Trace) {
	if len(t.Iters) == 0 {
		return
	}
	secs := make([]float64, 0, len(t.Iters))
	steps := make([]float64, 0, len(t.Iters))
	var total float64
	retries := 0
	for _, it := range t.Iters {
		secs = append(secs, it.Sec)
		steps = append(steps, it.Step)
		total += it.Sec
		retries += it.Retries
	}
	fmt.Fprintf(w, "\niteration latency\n")
	fmt.Fprintf(w, "  count %d  p50 %.6fs  p95 %.6fs  p99 %.6fs  mean %.6fs  total %.6fs\n",
		len(secs), quantile(secs, 0.50), quantile(secs, 0.95), quantile(secs, 0.99),
		total/float64(len(secs)), total)
	fmt.Fprintf(w, "  line-search retries %d  step p50 %.4f\n", retries, quantile(steps, 0.50))
}

func renderStages(w io.Writer, t *Trace) {
	if len(t.Stages) == 0 {
		return
	}
	// Loss series per stage come from the iter events; the stage records
	// carry the budget and the stage.end summary.
	firstLoss := map[int]float64{}
	lastLoss := map[int]float64{}
	seen := map[int]bool{}
	for _, it := range t.Iters {
		if !seen[it.Stage] {
			firstLoss[it.Stage] = it.Loss
			seen[it.Stage] = true
		}
		lastLoss[it.Stage] = it.Loss
	}
	fmt.Fprintf(w, "\nloss by stage\n")
	fmt.Fprintf(w, "  %-5s %-5s %-11s %-12s %-12s %-12s %s\n",
		"stage", "scale", "iters", "first_loss", "best_loss", "last_loss", "sec")
	for _, s := range t.Stages {
		fmt.Fprintf(w, "  %-5d %-5d %-11s %-12.6g %-12.6g %-12.6g %.6f\n",
			s.Stage, s.Scale, fmt.Sprintf("%d/%d", s.ItersRun, s.Budget),
			firstLoss[s.Stage], s.BestLoss, lastLoss[s.Stage], s.Sec)
	}
}

func renderPhases(w io.Writer, t *Trace) {
	if len(t.Phases) == 0 {
		return
	}
	// Critical path: phases sorted by wall time, heaviest first (name as a
	// deterministic tie-break), with per-call means and wall-clock shares.
	byTime := make([]PhaseRec, len(t.Phases))
	copy(byTime, t.Phases)
	sort.Slice(byTime, func(i, j int) bool {
		if byTime[i].Sec > byTime[j].Sec {
			return true
		}
		if byTime[i].Sec < byTime[j].Sec {
			return false
		}
		return byTime[i].Name < byTime[j].Name
	})
	fmt.Fprintf(w, "\nphases by wall time (critical path)\n")
	fmt.Fprintf(w, "  %-24s %-11s %-7s %-11s %s\n", "phase", "sec", "calls", "mean_ms", "share")
	for _, p := range byTime {
		share := 0.0
		if t.WallSec > 0 {
			share = 100 * p.Sec / t.WallSec
		}
		mean := 0.0
		if p.Count > 0 {
			mean = 1000 * p.Sec / float64(p.Count)
		}
		fmt.Fprintf(w, "  %-24s %-11.6f %-7d %-11.3f %.1f%%\n", p.Name, p.Sec, p.Count, mean, share)
	}
	if t.WallSec > 0 {
		fmt.Fprintf(w, "  phase coverage: %.3fs of %.3fs wall = %.1f%%\n",
			t.PhaseSec(), t.WallSec, 100*t.Coverage())
	}
}

func renderHists(w io.Writer, t *Trace) {
	if len(t.Hists) == 0 {
		return
	}
	fmt.Fprintf(w, "\nlatency histograms\n")
	fmt.Fprintf(w, "  %-24s %-7s %-11s %-11s %-11s %s\n", "name", "count", "p50", "p95", "p99", "sum")
	for _, h := range t.Hists {
		fmt.Fprintf(w, "  %-24s %-7d %-11.6f %-11.6f %-11.6f %.6f\n",
			h.Name, h.Count, h.P50, h.P95, h.P99, h.Sum)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
