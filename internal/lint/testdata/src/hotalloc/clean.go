package hotalloc

import (
	"fmt"

	"repro/internal/telemetry"
)

// The sanctioned idiom: the Enabled() guard keeps every allocation off the
// disabled path.
func guardedEmit(rec *telemetry.Recorder, n int) {
	for i := 0; i < n; i++ {
		if rec.Enabled() {
			rec.Emit("iter", telemetry.Fields{"i": i})
		}
	}
}

// A nil check is an equivalent guard.
func nilGuarded(rec *telemetry.Recorder, n int) {
	for i := 0; i < n; i++ {
		if rec != nil {
			rec.Progressf("step %d", i)
		}
	}
}

// Error construction on the way out of the loop is an exit path, not a
// per-iteration cost.
func errorExit(rec *telemetry.Recorder, vals []float64) error {
	for i, v := range vals {
		sp := rec.StartSpan("check")
		sp.End()
		if v < 0 {
			return fmt.Errorf("negative value at index %d", i)
		}
	}
	return nil
}

// Loops without telemetry are not hot: ordinary code stays unlinted.
func coldLoop(items []string) []string {
	out := make([]string, 0, len(items))
	for i, s := range items {
		out = append(out, fmt.Sprintf("%d:%s", i, s))
	}
	return out
}
