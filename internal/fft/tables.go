package fft

import (
	"expvar"
	"math"
	"math/bits"
	"sync"
)

// Shared transform tables. Every Plan of one length uses the same
// bit-reversal permutation, per-stage twiddle factors and skip tables (the
// input-pruned band tables and the output-pruned adjoint tables), so they
// are built once per process per length and shared — a Sim, a server job
// and a test helper all pointing plans at size 1024 hold one table set
// between them. Tables are immutable after construction (the skip tables
// extend through LoadOrStore-guarded sync.Maps), which is what
// makes the sharing safe without locks on the transform path.
//
// Observability: the package exports two expvars, mirrored into /metrics by
// the server — fft.table_bytes, the total payload bytes of all tables built
// so far (a gauge that only grows: tables live for the process), and
// fft.table_reuse, the number of NewPlan calls that found their tables
// already built.

// planTables is the immutable per-length table set shared by all Plans of
// one transform length.
type planTables struct {
	n       int
	logN    int
	rev     []int32
	twidF   []complex128 // forward twiddles, all stages concatenated
	twidI   []complex128 // inverse twiddles
	stageAt []int        // offset of each stage's twiddles
	denseBF int          // butterflies of one dense transform: n/2 · log₂ n
	bands   sync.Map     // int (band half-width) → *bandTable, see band.go
	outs    sync.Map     // int (kept half-width) → *outTable, see adjoint.go
}

type tableSlot struct {
	once sync.Once
	tab  *planTables
}

var (
	tableCache sync.Map // int (length) → *tableSlot
	tableBytes = expvar.NewInt("fft.table_bytes")
	tableReuse = expvar.NewInt("fft.table_reuse")
)

// TableBytes returns the total payload bytes of all shared FFT tables built
// by this process (twiddles, bit-reversal permutations, band skip masks).
func TableBytes() int64 { return tableBytes.Value() }

// TableReuse returns how many NewPlan calls were served by an
// already-built shared table set.
func TableReuse() int64 { return tableReuse.Value() }

// tablesFor returns the shared table set for length n (a power of two,
// validated by the caller), building it exactly once per process.
func tablesFor(n int) *planTables {
	if v, ok := tableCache.Load(n); ok {
		slot := v.(*tableSlot)
		slot.once.Do(func() { slot.tab = buildTables(n) }) // lost race before build finished
		tableReuse.Add(1)
		return slot.tab
	}
	v, loaded := tableCache.LoadOrStore(n, &tableSlot{})
	slot := v.(*tableSlot)
	slot.once.Do(func() { slot.tab = buildTables(n) })
	if loaded {
		tableReuse.Add(1)
	}
	return slot.tab
}

func buildTables(n int) *planTables {
	t := &planTables{n: n, logN: bits.TrailingZeros(uint(n))}
	t.denseBF = n / 2 * t.logN
	t.rev = make([]int32, n)
	shift := 64 - uint(t.logN)
	for i := 0; i < n; i++ {
		t.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	// Stage s (s = 1..logN) uses half-block size m = 2^(s-1) twiddles
	// w^j = exp(∓2πi·j/2^s), j = 0..m-1.
	total := 0
	t.stageAt = make([]int, t.logN+1)
	for s := 1; s <= t.logN; s++ {
		t.stageAt[s] = total
		total += 1 << (s - 1)
	}
	t.twidF = make([]complex128, total)
	t.twidI = make([]complex128, total)
	for s := 1; s <= t.logN; s++ {
		m := 1 << (s - 1)
		base := t.stageAt[s]
		for j := 0; j < m; j++ {
			ang := -math.Pi * float64(j) / float64(m)
			t.twidF[base+j] = complex(math.Cos(ang), math.Sin(ang))
			t.twidI[base+j] = complex(math.Cos(ang), -math.Sin(ang))
		}
	}
	tableBytes.Add(int64(4*len(t.rev) + 8*len(t.stageAt) + 16*(len(t.twidF)+len(t.twidI))))
	return t
}
