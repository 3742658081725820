package fft

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/grid"
)

// Plan2 performs 2-D transforms on W×H complex matrices whose dimensions are
// powers of two. The dense transforms (Forward, Inverse, InverseNoNorm)
// parallelise their row and column passes across runtime.GOMAXPROCS
// workers; the band and batch passes take the caller's worker count. A
// Plan2 is safe for concurrent use.
type Plan2 struct {
	w, h       int
	rowP, colP *Plan
	// colBufs recycles column-gather scratch across transforms (and across
	// the workers of one transform), so a warm plan performs no allocation.
	colBufs sync.Pool
	// batchBufs recycles the interleaved row-product buffer of
	// MulRowsBatch; sizes vary with the kernel count and band, so entries
	// grow on demand (see batchLease).
	batchBufs sync.Pool
	// colBufs4 and intBufs recycle the four-lane scratch of
	// BatchInverse.InverseColumns (complex amplitudes when no amplitude is
	// kept, and real intensities, 4·h values per fold; intBufs entries grow
	// on demand for several folds); colBufs4 also holds ForwardRealBand's
	// packed row pairs and InverseBandReal's column blocks.
	colBufs4 sync.Pool
	intBufs  sync.Pool
	// adjBands recycles AdjointPatch's row band, min(gatherRows, h)·h
	// values (square plans only); slabBufs the ⌈P/4⌉·4·m band slabs of
	// AdjointPatch, ForwardRealBand and InverseBandReal, whose entries
	// grow on demand like batchBufs (slabLease).
	adjBands sync.Pool
	slabBufs sync.Pool
	// biPool recycles the BatchInverse shell itself: the struct is
	// single-use by contract, so InverseColumns returns it here and a
	// steady-state MulRowsBatch call allocates none.
	biPool sync.Pool
}

// NewPlan2 creates a 2-D plan for w×h matrices.
func NewPlan2(w, h int) (*Plan2, error) {
	rp, err := NewPlan(w)
	if err != nil {
		return nil, fmt.Errorf("fft: row plan: %w", err)
	}
	cp := rp
	if h != w {
		cp, err = NewPlan(h)
		if err != nil {
			return nil, fmt.Errorf("fft: column plan: %w", err)
		}
	}
	p := &Plan2{w: w, h: h, rowP: rp, colP: cp}
	// Pool pointers, not slices: storing a bare slice in a sync.Pool boxes
	// its header on every Put, which alone dominated the transform's
	// allocation profile.
	p.colBufs.New = func() any { b := make([]complex128, h); return &b }
	p.batchBufs.New = func() any { b := []complex128(nil); return &b }
	p.colBufs4.New = func() any { b := make([]complex128, 4*h); return &b }
	p.intBufs.New = func() any { b := make([]float64, 4*h); return &b }
	p.adjBands.New = func() any { b := make([]complex128, min(gatherRows, h)*h); return &b }
	p.biPool.New = func() any { return new(BatchInverse) }
	p.slabBufs.New = func() any { b := []complex128(nil); return &b }
	return p, nil
}

// workersFor resolves the worker count of a dense transform's pass over
// `limit` units.
func (p *Plan2) workersFor(limit int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > limit {
		workers = limit
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// W returns the plan width.
func (p *Plan2) W() int { return p.w }

// H returns the plan height.
func (p *Plan2) H() int { return p.h }

// Forward computes the in-place unnormalised 2-D DFT of m.
func (p *Plan2) Forward(m *grid.CMat) { p.transform(m, false, false) }

// Inverse computes the in-place inverse 2-D DFT of m (with 1/(W·H) factor).
func (p *Plan2) Inverse(m *grid.CMat) { p.transform(m, true, true) }

// InverseNoNorm computes the in-place inverse 2-D DFT of m without the
// 1/(W·H) factor — for callers that folded the normalisation into the
// spectrum (FoldInverseScale).
func (p *Plan2) InverseNoNorm(m *grid.CMat) { p.transform(m, true, false) }

func (p *Plan2) transform(m *grid.CMat, inverse, normalize bool) {
	if m.W != p.w || m.H != p.h {
		panic(fmt.Sprintf("fft: matrix %dx%d does not match plan %dx%d", m.W, m.H, p.w, p.h))
	}
	workers := p.workersFor(p.h)

	if workers <= 1 {
		// Serial fast path: plain loops, no closures, one scratch buffer —
		// the transform allocates nothing once the plan's pool is warm.
		for y := 0; y < p.h; y++ {
			row := m.Data[y*p.w : (y+1)*p.w]
			p.rowP.transform1(row, inverse, normalize)
		}
		p.colPassSerial(m, inverse, normalize)
		return
	}

	// Row pass. The forward/inverse split keeps normalisation in one place:
	// the inverse row pass applies 1/W, the inverse column pass 1/H (both
	// skipped on the NoNorm path).
	grid.ParallelFor(workers, p.h, func(y int) {
		row := m.Data[y*p.w : (y+1)*p.w]
		p.rowP.transform1(row, inverse, normalize)
	})
	p.colPassParallel(m, inverse, normalize, workers)
}

// transform1 dispatches one 1-D pass by direction and normalisation.
func (p *Plan) transform1(x []complex128, inverse, normalize bool) {
	switch {
	case !inverse:
		p.Forward(x)
	case normalize:
		p.Inverse(x)
	default:
		p.InverseNoNorm(x)
	}
}

// colPassSerial transforms every column of m in place on the calling
// goroutine, recycling one gather buffer from the plan pool.
func (p *Plan2) colPassSerial(m *grid.CMat, inverse, normalize bool) {
	bp := p.colBufs.Get().(*[]complex128)
	buf := *bp
	for x := 0; x < p.w; x++ {
		for y := 0; y < p.h; y++ {
			buf[y] = m.Data[y*p.w+x]
		}
		p.colP.transform1(buf, inverse, normalize)
		for y := 0; y < p.h; y++ {
			m.Data[y*p.w+x] = buf[y]
		}
	}
	p.colBufs.Put(bp)
}

// colPassParallel is colPassSerial fanned out across workers: gather each
// column into a scratch buffer, transform, scatter back. Scratch buffers are
// per-worker, recycled on the plan.
func (p *Plan2) colPassParallel(m *grid.CMat, inverse, normalize bool, workers int) {
	grid.ParallelFor(workers, p.w, func(x int) {
		bp := p.colBufs.Get().(*[]complex128)
		buf := *bp
		for y := 0; y < p.h; y++ {
			buf[y] = m.Data[y*p.w+x]
		}
		p.colP.transform1(buf, inverse, normalize)
		for y := 0; y < p.h; y++ {
			m.Data[y*p.w+x] = buf[y]
		}
		p.colBufs.Put(bp)
	})
}
