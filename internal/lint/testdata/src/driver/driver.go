// Package driver is the cmd/iltlint golden fixture: one violation per
// rule, plus one stale suppression, so a full run exercises the JSON
// schema and the deterministic ordering in one load.
package driver

import (
	"os"

	"repro/internal/grid"
	"repro/internal/telemetry"
)

// floatcmp: two computed values compared with ==.
func converged(prev, cur float64) bool {
	return prev == cur
}

// maporder: float fold in map order.
func fold(weights map[string]float64) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	return total
}

// scratchalias: the lease escapes via return.
func lease(p *grid.CMatPool, n int) *grid.CMat {
	buf := p.Get(n, n)
	return buf
}

// hotalloc: unguarded Fields literal in a telemetry-instrumented loop.
func instrument(rec *telemetry.Recorder, n int) {
	for i := 0; i < n; i++ {
		rec.Emit("iter", telemetry.Fields{"i": i})
	}
}

// errcheck: dropped Close error.
func drop(f *os.File) {
	f.Close()
}

// gridres: a coarse result meets its fine source in an elementwise op.
func mix(z *grid.Mat, s int) {
	zs := grid.AvgPoolDown(z, s)
	zs.Add(z)
}

// leasepath: the early return drops the lease.
func leak(p *grid.CMatPool, n int, fail bool) {
	buf := p.Get(n, n)
	if fail {
		return
	}
	p.Put(buf)
}

// ignore: the directive names a rule the registry does not have, so it
// suppresses nothing and is reported itself.
//
//lint:ignore bce a directive left behind by a deleted rule
func first(xs []float64) float64 {
	return xs[0]
}
