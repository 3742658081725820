package fft

import (
	"fmt"

	"repro/internal/grid"
)

// Batched multi-kernel inverse transforms — the fused MulInverseBand path.
// The SOCS loop runs K kernel-multiply + band-pruned inverse pairs against
// one mask spectrum; doing them one kernel at a time re-reads the twiddle
// and skip tables K times and touches every amplitude twice more than
// necessary (once to write the product, once to normalise). The batched
// engine instead runs the whole kernel set through two passes:
//
//	MulRowsBatch      kernel multiply (scale folded, see FoldInverseScale)
//	                  + the pruned inverse ROW transforms, for all K kernels
//	BatchInverse.     the pruned inverse COLUMN transforms, fused with the
//	InverseColumns    |A_k|² accumulation of one intensity per dose (Fold)
//	                  and/or amplitude output
//
// Memory layout: the intermediate holds only the band rows (R = 2·Half+1
// of them) of each kernel's product, interleaved in groups of four rows —
// group g of kernel k stores rows 4g..4g+3 as buf[((k·G+g)·m + x)·4 + lane].
// Four rows (and later four columns) advance through the transform in
// lockstep: each butterfly loads its twiddle once and applies it to four
// lanes sitting in one 64-byte cache line — one stage4 call per stage
// (stage4.go), AVX assembly where the CPU has it. Both passes write their
// band values straight into bit-reversed slots, so no permutation pass
// runs. Every lane performs exactly the per-element operation sequence of
// the one-kernel pruned inverse, which is bit-identical to the dense
// inverse, so the batched result is bit-for-bit identical to the
// ApplyKernel + InverseNoNorm pair per kernel. The column pass walks blocks
// of four columns, so the gather from the row intermediate and the
// intensity accumulation touch full cache lines instead of one value in
// eight, and a kept amplitude is the column pass's own buffer: the tiled
// layout below stores each four-column block as the pass leaves it, so
// no amplitude is copied after its transform.
//
// Tiled amplitudes. An m×m amplitude InverseColumns keeps is stored as m/4
// column blocks: block b holds columns 4b…4b+3 row by row, so element
// (x, y) sits at index (x/4)·4m + 4y + x%4 — the four-lane column buffer
// of the column pass. InverseColumns is its one writer and AdjointPatch its
// one reader; Tile4 and Untile4 convert to and from row-major for code
// that works row by row.

// BatchInverse is the retained state between MulRowsBatch and
// InverseColumns: the row-transformed band products of every kernel. It is
// single-use — InverseColumns consumes it and returns its buffer to the
// plan pool. Not safe for concurrent use (the two calls happen on one
// goroutine; the parallelism lives inside each call).
type BatchInverse struct {
	p       *Plan2
	band    BandSpec
	rows    int // band rows per kernel (= band.Rows(m), m not covered)
	groups  int // ⌈rows/4⌉ interleaved row groups per kernel
	nk      int
	workers int
	colBT   *bandTable
	bufp    *[]complex128
	buf     []complex128
}

// MulRowsBatch multiplies the band spectrum spec by every kernel (scale
// folded into the product — pass FoldInverseScale(scale, m, m) to absorb
// the inverse normalisation) and runs the pruned inverse row transforms for
// the whole batch, interleaved four rows at a time; each product lands in
// its row's bit-reversed slot, the order the transform reads. spec is a
// centered S×S band, S odd and at least the kernel support P (the layout
// ForwardRealBand writes): cell (fy+S/2, fx+S/2) holds frequency (fx, fy),
// and the kernels read its centered P×P sub-band at (fy+S/2)·S + fx+S/2.
// The band of a spectrum is the same at every grid size it fits, so a
// band taken at n > m is Eq. 7's truncated spectrum as it stands. The plan
// is square with m a multiple of four, and at least one kernel is given,
// all sharing one odd support P ≤ m (so the band never covers the grid).
func (p *Plan2) MulRowsBatch(spec *grid.CMat, kernels []*grid.CMat, scale complex128, workers int) *BatchInverse {
	m := p.w
	if p.h != m || m%4 != 0 {
		panic(fmt.Sprintf("fft: MulRowsBatch needs a square plan with a side divisible by 4, got %dx%d", p.w, p.h))
	}
	if spec.W != spec.H || spec.W%2 == 0 {
		panic(fmt.Sprintf("fft: MulRowsBatch needs an odd square band spectrum, got %dx%d", spec.W, spec.H))
	}
	nk := len(kernels)
	if nk == 0 {
		panic("fft: MulRowsBatch needs at least one kernel")
	}
	pk := kernels[0].W
	for _, k := range kernels {
		if k.W != k.H || k.W%2 == 0 || k.W != pk {
			panic(fmt.Sprintf("fft: batch kernels must share one odd square support, got %dx%d vs %d", k.W, k.H, pk))
		}
	}
	ps := spec.W
	if pk > m || pk > ps {
		panic(fmt.Sprintf("fft: MulRowsBatch sizes P=%d m=%d S=%d violate P ≤ m and P ≤ S", pk, m, ps))
	}
	hs := ps / 2
	half := pk / 2
	band := BandSpec{Half: half}
	rows := band.Rows(m) // = 2·half+1 < m
	groups := (rows + 3) / 4
	if workers < 1 {
		workers = 1
	}

	b := p.biPool.Get().(*BatchInverse)
	*b = BatchInverse{
		p: p, band: band, rows: rows, groups: groups, nk: nk, workers: workers,
		colBT: p.colP.bandTable(half),
	}
	//lint:ignore scratchalias the batch API is two-phase by design: the row slab leased here is consumed and Put by InverseColumns, which every caller must invoke
	b.bufp = p.batchBufs.Get().(*[]complex128)
	need := nk * groups * 4 * m
	if cap(*b.bufp) < need {
		// Grow the pooled row slab on a miss; amortized to zero once the plan is warm.
		*b.bufp = make([]complex128, need)
	}
	//lint:ignore scratchalias the slab view lives inside the leased shell on purpose: InverseColumns consumes both and Puts both
	b.buf = (*b.bufp)[:need]

	rowBT := p.rowP.bandTable(half)
	rev := p.rowP.tab.rev
	sd := spec.Data
	grid.ParallelFor(min(workers, nk), nk, func(k int) {
		kd := kernels[k].Data
		base := k * groups * 4 * m
		for g := 0; g < groups; g++ {
			slab := b.buf[base+g*4*m : base+(g+1)*4*m]
			for i := range slab {
				slab[i] = 0
			}
			for j := 0; j < 4; j++ {
				ord := g*4 + j
				if ord >= rows {
					break
				}
				fy := ord
				if ord > half {
					fy = ord - rows // the negative frequencies
				}
				sy := (fy+hs)*ps + hs
				ky := (fy + half) * pk
				for fx := -half; fx <= half; fx++ {
					ox := (fx + m) % m
					slab[4*int(rev[ox])+j] = scale * kd[ky+fx+half] * sd[sy+fx]
				}
			}
			p.rowP.inversePruned4(slab, rowBT)
		}
	})
	//lint:ignore scratchalias the pooled shell is handed to the caller by contract; InverseColumns (mandatory, single-use) returns it to biPool
	return b
}

// Fold is one intensity that InverseColumns accumulates over the batch:
// Intensity += Weights[k]·|A_k|² for every kernel k, in ascending k.
// Several folds of one batch share its transforms — the SOCS pass of one
// kernel set at several doses.
type Fold struct {
	Weights   []float64
	Intensity *grid.Mat
}

// InverseColumns finishes the batched inverse: for each block of four
// columns it gathers every kernel's band rows from the row intermediate
// into the bit-reversed slots of a cleared column buffer, runs the pruned
// column transforms in lockstep, and — fused in the same L2-resident pass
// — accumulates every fold. When outs is non-nil the column buffer of
// block x0/4 is outs[k].Data[x0·m : x0·m+4m] itself, so each m×m amplitude
// is fully overwritten in the tiled layout (see the top of this file) and
// nothing is copied; otherwise the buffer is pooled scratch.
// Each fold is per element I += Weights[k]·(re²+im²) in ascending k
// (fold4) — the exact AbsSqScaledInto+Add sequence of a per-kernel loop, so
// every intensity is bit-identical to it, to one pass per fold, and
// independent of the worker count. The batch's buffer is released; b must
// not be used again.
func (b *BatchInverse) InverseColumns(outs []*grid.CMat, folds []Fold) {
	p := b.p
	m := p.w
	if outs != nil && len(outs) != b.nk {
		panic(fmt.Sprintf("fft: %d outs for %d batched kernels", len(outs), b.nk))
	}
	for _, o := range outs {
		if o.W != m || o.H != m {
			panic(fmt.Sprintf("fft: amplitude %dx%d for a %dx%d batch", o.W, o.H, m, m))
		}
	}
	for _, f := range folds {
		if len(f.Weights) != b.nk {
			panic(fmt.Sprintf("fft: %d weights for %d batched kernels", len(f.Weights), b.nk))
		}
	}
	rev := p.colP.tab.rev
	blocks := m / 4
	span := 4 * m // one column block: of an amplitude, or of a fold's intensity
	grid.ParallelFor(min(b.workers, blocks), blocks, func(bx int) {
		x0 := bx * 4
		var cb []complex128
		var cbp *[]complex128
		if outs == nil {
			cbp = p.colBufs4.Get().(*[]complex128)
			cb = *cbp
		}
		var ib []float64
		var ibp *[]float64
		if len(folds) > 0 {
			ibp = p.intBufs.Get().(*[]float64)
			if cap(*ibp) < len(folds)*span {
				// Grow the pooled intensity block for a multi-dose pass on a miss; amortized to zero once the plan is warm.
				*ibp = make([]float64, len(folds)*span)
			}
			ib = (*ibp)[:len(folds)*span]
			for f, fold := range folds {
				fb := ib[f*span : (f+1)*span]
				for y := 0; y < m; y++ {
					copy(fb[y*4:y*4+4], fold.Intensity.Data[y*m+x0:y*m+x0+4])
				}
			}
		}
		for k := 0; k < b.nk; k++ {
			if outs != nil {
				cb = outs[k].Data[x0*m : x0*m+span]
			}
			kbase := k*b.groups*4*m + x0*4
			clear(cb)
			for ord := 0; ord < b.rows; ord++ {
				y := 4 * int(rev[b.band.Row(ord, m)])
				src := kbase + (ord>>2)*4*m + (ord & 3)
				cb[y] = b.buf[src]
				cb[y+1] = b.buf[src+4]
				cb[y+2] = b.buf[src+8]
				cb[y+3] = b.buf[src+12]
			}
			p.colP.inversePruned4(cb, b.colBT)
			for f, fold := range folds {
				fold4(ib[f*span:(f+1)*span], cb, fold.Weights[k])
			}
		}
		for f, fold := range folds {
			fb := ib[f*span : (f+1)*span]
			for y := 0; y < m; y++ {
				copy(fold.Intensity.Data[y*m+x0:y*m+x0+4], fb[y*4:y*4+4])
			}
		}
		if ibp != nil {
			p.intBufs.Put(ibp)
		}
		if cbp != nil {
			p.colBufs4.Put(cbp)
		}
	})
	p.batchBufs.Put(b.bufp)
	*b = BatchInverse{}
	p.biPool.Put(b)
}

// Tile4 writes the row-major m×m matrix src into dst in the tiled layout
// InverseColumns keeps amplitudes in (see the top of this file): element
// (x, y) goes to dst.Data[(x/4)·4m + 4y + x%4]. Both matrices must be
// square with one side divisible by 4, and must not overlap.
func Tile4(dst, src *grid.CMat) {
	m := tileSide("Tile4", dst, src)
	for y := 0; y < m; y++ {
		row := src.Data[y*m : (y+1)*m]
		for x0 := 0; x0 < m; x0 += 4 {
			copy(dst.Data[x0*m+4*y:x0*m+4*y+4], row[x0:x0+4])
		}
	}
}

// Untile4 is the inverse of Tile4: it writes the tiled m×m matrix src into
// dst row-major, with the same shape rules.
func Untile4(dst, src *grid.CMat) {
	m := tileSide("Untile4", dst, src)
	for y := 0; y < m; y++ {
		row := dst.Data[y*m : (y+1)*m]
		for x0 := 0; x0 < m; x0 += 4 {
			copy(row[x0:x0+4], src.Data[x0*m+4*y:x0*m+4*y+4])
		}
	}
}

// tileSide checks the shapes Tile4 and Untile4 accept and returns the side.
func tileSide(op string, dst, src *grid.CMat) int {
	m := src.W
	if src.H != m || dst.W != m || dst.H != m || m%4 != 0 {
		panic(fmt.Sprintf("fft: %s needs two square matrices of one side divisible by 4, got %dx%d and %dx%d", op, dst.W, dst.H, src.W, src.H))
	}
	return m
}

// inversePruned4 is the unnormalised inverse transform over four
// interleaved lanes, x[4·i+lane], for inputs that are exactly +0 outside
// the band encoded in bt: butterfly blocks whose inputs are all structural
// zeros are skipped (see the top of band.go). The input is already in
// bit-reversed order — lane's element i sits in slot x[4·rev(i)+lane];
// MulRowsBatch, InverseColumns and InverseBandReal gather straight into
// those slots. Each stage is one stage4 call, so each lane undergoes
// exactly the per-element operation sequence of the one-lane
// InverseNoNorm, minus the skipped blocks, and each lane's result is
// bit-identical to InverseNoNorm on that lane alone. No normalisation
// (callers fold it via FoldInverseScale). A nil bt runs all blocks.
func (p *Plan) inversePruned4(x []complex128, bt *bandTable) {
	if len(x) != 4*p.n {
		panic(fmt.Sprintf("fft: buffer length %d != 4×plan length %d", len(x), p.n))
	}
	for s := 1; s <= p.logN; s++ {
		half := 1 << (s - 1)
		var nz []bool // nil for a dense stage
		if bt != nil {
			nz = bt.stages[s-1].nz
		}
		stage4(x, half, 0, p.tab.twidI[p.tab.stageAt[s]:p.tab.stageAt[s]+half], nz)
	}
}
