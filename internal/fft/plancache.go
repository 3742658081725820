package fft

import (
	"sync"
	"sync/atomic"
)

// PlanCache is a concurrency-safe, singleflight cache of square 2-D FFT
// plans keyed by size. Plans are pure functions of their size (twiddle and
// bit-reversal tables), so one cache can safely back any number of
// simulators: litho keeps a single PlanCache per process, which every
// litho.Sim — every concurrent job of the long-running ILT server among
// them — shares, amortizing plan construction across simulators as well
// as across iterations.
//
// The zero value is ready to use. Concurrent first requests for one size
// share a single construction — no goroutine ever observes a half-built
// plan, and losers of the race never build a plan that is thrown away.
type PlanCache struct {
	plans  sync.Map // int → *planSlot
	builds atomic.Int64
}

// planSlot is the singleflight slot for one plan size.
type planSlot struct {
	once sync.Once
	plan *Plan2
	err  error
}

// Get returns the m×m plan, constructing it exactly once per size no
// matter how many goroutines ask concurrently. The second result reports
// whether this call performed the construction, so callers can maintain
// their own build accounting (litho.Sim counts builds it triggered into
// its telemetry recorder).
func (c *PlanCache) Get(m int) (*Plan2, bool, error) {
	v, ok := c.plans.Load(m)
	if !ok {
		v, _ = c.plans.LoadOrStore(m, &planSlot{})
	}
	s := v.(*planSlot)
	built := false
	s.once.Do(func() {
		c.builds.Add(1)
		built = true
		s.plan, s.err = NewPlan2(m, m)
	})
	return s.plan, built, s.err
}

// Builds reports how many plan constructions the cache has performed.
func (c *PlanCache) Builds() int64 { return c.builds.Load() }

// Sizes returns the number of distinct sizes the cache has slots for
// (including sizes whose construction failed).
func (c *PlanCache) Sizes() int {
	n := 0
	c.plans.Range(func(_, _ any) bool { n++; return true })
	return n
}
