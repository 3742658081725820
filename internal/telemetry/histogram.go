package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// HistKind selects the unit semantics of a Histogram.
type HistKind int

const (
	// HistDuration observations are nanoseconds (int64(time.Duration));
	// snapshots and the Prometheus exposition report seconds.
	HistDuration HistKind = iota
	// HistCount observations are dimensionless quantities (items, bytes);
	// reported unscaled.
	HistCount
)

// Unit names the exported unit of the kind.
func (k HistKind) Unit() string {
	if k == HistDuration {
		return "seconds"
	}
	return "count"
}

// Bucket geometry: one bucket per power of two ("octave") over a fixed,
// kind-dependent range, plus a +Inf overflow bucket. Fixed bounds keep the
// label set stable across scrapes (Prometheus rate math needs that) and
// make Observe a pure index computation — no resizing, no locking.
//
// Durations span ~1 µs to ~137 s: below the range sits in the first bucket
// (nothing we time is meaningfully under a microsecond), above it in +Inf.
const (
	histDurMinExp = 10 // 2^10 ns ≈ 1.02 µs
	histDurMaxExp = 37 // 2^37 ns ≈ 137.4 s
	histCntMinExp = 0  // ≤ 1
	histCntMaxExp = 30 // ≈ 1.07e9
)

func histRange(kind HistKind) (minExp, maxExp int) {
	if kind == HistDuration {
		return histDurMinExp, histDurMaxExp
	}
	return histCntMinExp, histCntMaxExp
}

// Histogram is a lock-free latency/size distribution: fixed log₂-scaled
// buckets over atomic counters. Observe is wait-free, allocation-free and
// safe for any number of concurrent writers; a nil *Histogram is the
// disabled no-op, so callers can resolve one unconditionally (possibly from
// a nil Recorder) and observe in hot loops without a guard.
type Histogram struct {
	name   string
	kind   HistKind
	minExp int
	count  atomic.Int64
	sum    atomic.Int64
	// buckets[i] counts observations in octave minExp+i (upper bound
	// 2^(minExp+i)); the final slot is the +Inf overflow bucket.
	buckets []atomic.Int64
}

func newHistogram(name string, kind HistKind) *Histogram {
	minExp, maxExp := histRange(kind)
	return &Histogram{
		name:    name,
		kind:    kind,
		minExp:  minExp,
		buckets: make([]atomic.Int64, maxExp-minExp+2),
	}
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Kind returns the histogram's unit semantics.
func (h *Histogram) Kind() HistKind { return h.kind }

// Observe records one value (nanoseconds for HistDuration). Nil-safe,
// lock-free, and allocation-free — cheap enough for per-iteration and
// per-FFT call sites.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[h.bucketIndex(v)].Add(1)
}

// ObserveDuration records one wall-time sample into a duration histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// bucketIndex maps v to the bucket whose upper bound 2^k is the smallest
// power of two ≥ v, clamped to the fixed range.
func (h *Histogram) bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	k := bits.Len64(uint64(v - 1)) // ceil(log2 v)
	if k <= h.minExp {
		return 0
	}
	if i := k - h.minExp; i < len(h.buckets)-1 {
		return i
	}
	return len(h.buckets) - 1
}

// scale converts a raw observation to the exported unit.
func (h *Histogram) scale() float64 {
	if h.kind == HistDuration {
		return 1e-9
	}
	return 1
}

// upperBound returns bucket i's upper bound in exported units; the last
// bucket is +Inf.
func (h *Histogram) upperBound(i int) float64 {
	if i == len(h.buckets)-1 {
		return math.Inf(1)
	}
	return float64(int64(1)<<uint(h.minExp+i)) * h.scale()
}

// lowerBound returns bucket i's lower bound in exported units (0 for the
// first bucket).
func (h *Histogram) lowerBound(i int) float64 {
	if i == 0 {
		return 0
	}
	return float64(int64(1)<<uint(h.minExp+i-1)) * h.scale()
}

// HistBucket is one cumulative bucket of a snapshot: the count of
// observations ≤ LE (exported units). The final bucket of a full dump has
// LE = +Inf; JSON encodes it via the preceding finite buckets only, since
// the cumulative count there already equals Count.
type HistBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistStat is one histogram's snapshot: totals, interpolated quantiles and
// the non-empty cumulative buckets, all in exported units (seconds for
// HistDuration). It appears in run manifests, the expvar "ilt" variable and
// the /metrics JSON document.
type HistStat struct {
	Name    string       `json:"name"`
	Unit    string       `json:"unit"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Stat snapshots the histogram. Concurrent Observes may land between the
// bucket reads; the snapshot is a consistent-enough monitoring view, not a
// barrier. Buckets are trimmed to the populated range (the cumulative count
// past the last non-empty bucket equals Count).
func (h *Histogram) Stat() HistStat {
	if h == nil {
		return HistStat{}
	}
	counts := make([]int64, len(h.buckets))
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	st := HistStat{
		Name:  h.name,
		Unit:  h.kind.Unit(),
		Count: total,
		Sum:   float64(h.sum.Load()) * h.scale(),
		P50:   h.quantile(counts, total, 0.50),
		P95:   h.quantile(counts, total, 0.95),
		P99:   h.quantile(counts, total, 0.99),
	}
	first, last := -1, -1
	for i, c := range counts {
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first >= 0 {
		var cum int64
		for i := 0; i <= last; i++ {
			cum += counts[i]
			if i >= first {
				st.Buckets = append(st.Buckets, HistBucket{LE: h.upperBound(i), Count: cum})
			}
		}
	}
	return st
}

// quantile estimates the q-quantile (exported units) by linear
// interpolation inside the containing bucket — deterministic given the
// counts, exact to within one octave.
func (h *Histogram) quantile(counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo := h.lowerBound(i)
		hi := h.upperBound(i)
		if math.IsInf(hi, 1) {
			return lo // the overflow bucket has no finite upper edge
		}
		frac := float64(rank-(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.upperBound(len(counts) - 1)
}

// merge folds src's samples into h bucket-wise. Both histograms must share
// a kind (and therefore geometry); mismatches are dropped rather than
// corrupting the buckets.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil || h.kind != src.kind || len(h.buckets) != len(src.buckets) {
		return
	}
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
}

// Histogram returns the named histogram, registering it on first use. On a
// nil recorder it returns nil — the disabled no-op — so call sites resolve
// once and Observe unconditionally. Asking for an existing name with a
// different kind returns the registered histogram unchanged (first kind
// wins); names are a per-recorder vocabulary, not user input.
func (r *Recorder) Histogram(name string, kind HistKind) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, newHistogram(name, kind))
	return v.(*Histogram)
}

// Histograms snapshots every registered histogram, sorted by name.
func (r *Recorder) Histograms() []HistStat {
	if r == nil {
		return nil
	}
	var out []HistStat
	r.hists.Range(func(_, v any) bool {
		out = append(out, v.(*Histogram).Stat())
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Merge folds src's phase timers, counters and histograms into r. The ILT
// server uses it to aggregate each finished job's recorder into the
// server-level recorder, so /metrics reports cross-job phase totals and
// latency distributions. src must be quiescent (its run finished); r keeps
// accepting concurrent updates.
func (r *Recorder) Merge(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	src.phases.Range(func(k, v any) bool {
		p := v.(*phase)
		r.mergePhase(k.(string), p.nanos.Load(), p.count.Load())
		return true
	})
	src.counters.Range(func(k, v any) bool {
		r.Add(k.(string), v.(*atomic.Int64).Load())
		return true
	})
	src.hists.Range(func(k, v any) bool {
		sh := v.(*Histogram)
		r.Histogram(k.(string), sh.kind).merge(sh)
		return true
	})
}
