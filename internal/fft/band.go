package fft

import (
	"fmt"

	"repro/internal/grid"
)

// Band-limited transforms. ApplyKernel fills only the P×P kernel-support
// band of an m×m spectrum — at production sizes (P = 35, m = 1024) about 97%
// of the rows handed to the per-kernel inverse FFT are exact zeros. The code
// in this file makes that structure explicit: ApplyKernelBand returns a
// BandSpec describing the populated band, and Plan2.InverseBand consumes it
// to transform only the rows (and, inside each row and column, only the
// butterfly blocks) that can carry data.
//
// Bit-exactness: a skipped butterfly block would only ever combine inputs
// that are structurally +0. IEEE-754 evaluates those butterflies to exactly
// +0 again (u ± tw·0 with u = +0 yields +0 for every twiddle), so leaving
// the zeros untouched produces the same bits the dense transform would have
// written. InverseBand is therefore bit-for-bit identical to Inverse on a
// densely zero-padded copy of the same band — the equivalence the property
// tests in band_test.go assert with Float64bits.

// BandSpec describes the populated band of a DC-at-zero spectrum: rows and
// columns with signed frequency |f| ≤ Half — indices [0, Half] and
// [m-Half, m-1] — may carry data. The consumer contract is asymmetric in
// the two axes: populated *rows* must be exactly +0 outside the band
// *columns*, while rows outside the band are never read at all and may hold
// garbage (which is what lets ApplyKernelBand skip the full-buffer memset
// when reusing pooled scratch).
type BandSpec struct {
	Half int
}

// BandNone marks a buffer with no populated cells, e.g. freshly leased pool
// scratch whose previous contents are unknown.
var BandNone = BandSpec{Half: -1}

// None reports whether the band is empty.
func (b BandSpec) None() bool { return b.Half < 0 }

// Rows returns how many rows (equally, columns) of an m-length axis the band
// populates.
func (b BandSpec) Rows(m int) int {
	if b.None() {
		return 0
	}
	if r := 2*b.Half + 1; r < m {
		return r
	}
	return m
}

// Covers reports whether the band spans the whole axis of length m, i.e. no
// pruning is possible.
func (b BandSpec) Covers(m int) bool { return !b.None() && 2*b.Half+1 >= m }

// Row maps a populated-row ordinal i (0 ≤ i < Rows(m)) to its matrix row:
// first the non-negative frequencies 0..Half, then m-Half..m-1.
func (b BandSpec) Row(i, m int) int {
	if i <= b.Half {
		return i
	}
	return m - (b.Rows(m) - i)
}

// ZeroRows writes +0 to every cell of the band's rows of m (full rows, all
// columns). Accumulators that are filled by band-cell += updates (e.g.
// AddKernelPatch) and then handed to InverseBand only need this P·m clear
// instead of a full m² Zero.
func (b BandSpec) ZeroRows(m *grid.CMat) {
	if b.None() {
		return
	}
	rows := b.Rows(m.H)
	for i := 0; i < rows; i++ {
		y := b.Row(i, m.H)
		row := m.Data[y*m.W : (y+1)*m.W]
		for x := range row {
			row[x] = 0
		}
	}
}

// ApplyKernelBand is ApplyKernel with an explicit band contract: dst is
// assumed to hold the band product of a previous call described by dirty
// (BandNone for fresh or pool-leased scratch), and only the rows of the new
// band are (re)initialised — a P·m clear instead of ApplyKernel's full m²
// Zero. Cells outside the returned band's rows are left untouched and must
// be ignored by the consumer; InverseBand does exactly that. When the new
// band equals dirty, even the row clear is skipped (every band cell is
// overwritten). Pass nil dst to allocate. Returns dst and the band that now
// describes it.
func ApplyKernelBand(dst *grid.CMat, dirty BandSpec, spec *grid.CMat, kernel *grid.CMat, m int, scale complex128) (*grid.CMat, BandSpec) {
	if spec.W != spec.H {
		panic(fmt.Sprintf("fft: ApplyKernelBand needs a square spectrum, got %dx%d", spec.W, spec.H))
	}
	if kernel.W != kernel.H || kernel.W%2 == 0 {
		panic(fmt.Sprintf("fft: kernel must be odd square, got %dx%d", kernel.W, kernel.H))
	}
	n := spec.W
	p := kernel.W
	if p > m || m > n {
		panic(fmt.Sprintf("fft: ApplyKernelBand sizes P=%d m=%d n=%d violate P ≤ m ≤ n", p, m, n))
	}
	h := p / 2
	band := BandSpec{Half: h}
	switch {
	case dst == nil || dst.W != m || dst.H != m:
		dst = grid.NewCMat(m, m)
	case dirty.Half != band.Half:
		// New band rows must be zero outside the band columns; the write
		// loop below only touches band columns, so clear the rows first.
		// A same-band reuse skips this: those zeros are still in place and
		// every band cell is overwritten.
		band.ZeroRows(dst)
	}
	for fy := -h; fy <= h; fy++ {
		sy := (fy + n) % n
		oy := (fy + m) % m
		ky := (fy + h) * p
		for fx := -h; fx <= h; fx++ {
			sx := (fx + n) % n
			ox := (fx + m) % m
			dst.Data[oy*m+ox] = scale * kernel.Data[ky+fx+h] * spec.Data[sy*n+sx]
		}
	}
	return dst, band
}

// bandTable caches, per butterfly stage, which blocks can hold nonzero data
// when the transform input is populated only at the band positions (mapped
// through the bit-reversal permutation). Blocks whose inputs are all
// structural zeros are skipped; see the bit-exactness note at the top of
// this file.
type bandTable struct {
	stages []stageMask
}

type stageMask struct {
	dense bool   // every block can be nonzero — run the stage unpruned
	nz    []bool // otherwise: nz[b] marks block b as potentially nonzero
}

// bandTable returns the skip table for a band of the given half-width, or
// nil when the band covers the whole length (no pruning possible). Tables
// are built once per (length, half) and shared by every plan of that length
// through the process-wide table set.
func (p *Plan) bandTable(half int) *bandTable {
	if half < 0 || 2*half+1 >= p.n {
		return nil
	}
	if v, ok := p.tab.bands.Load(half); ok {
		return v.(*bandTable)
	}
	bt := &bandTable{stages: make([]stageMask, p.logN)}
	// Populated input positions after the bit-reversal permutation.
	pos := make([]int, 0, 2*half+1)
	for f := -half; f <= half; f++ {
		pos = append(pos, int(p.tab.rev[(f+p.n)%p.n]))
	}
	bytes := 0
	for s := 1; s <= p.logN; s++ {
		// Stage s butterflies stay within blocks of 2^s elements, so block
		// b can be nonzero iff some populated input lies in [b·2^s, (b+1)·2^s).
		blocks := p.n >> s
		nz := make([]bool, blocks)
		cnt := 0
		for _, q := range pos {
			if b := q >> s; !nz[b] {
				nz[b] = true
				cnt++
			}
		}
		if cnt == blocks {
			bt.stages[s-1] = stageMask{dense: true}
		} else {
			bt.stages[s-1] = stageMask{nz: nz}
			bytes += blocks
		}
	}
	v, loaded := p.tab.bands.LoadOrStore(half, bt)
	if !loaded {
		tableBytes.Add(int64(bytes))
	}
	return v.(*bandTable)
}

// inversePruned is the inverse transform for inputs that are exactly +0
// outside the band positions [0, half] ∪ [n-half, n-1] encoded in bt:
// butterfly blocks whose inputs are all structural zeros are skipped.
// Bit-for-bit identical to the equivalent dense inverse (the skipped
// butterflies would have recomputed the same +0s). A nil bt falls back to
// the dense transform. normalize selects whether the 1/N factor is applied.
func (p *Plan) inversePruned(x []complex128, bt *bandTable, normalize bool) {
	if bt == nil {
		if normalize {
			p.Inverse(x)
		} else {
			p.InverseNoNorm(x)
		}
		return
	}
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: buffer length %d != plan length %d", len(x), p.n))
	}
	for i, r := range p.tab.rev {
		if int32(i) < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	for s := 1; s <= p.logN; s++ {
		m := 1 << (s - 1) // half block
		blk := m << 1
		tw := p.tab.twidI[p.tab.stageAt[s] : p.tab.stageAt[s]+m]
		sm := &bt.stages[s-1]
		for k := 0; k < p.n; k += blk {
			if !sm.dense && !sm.nz[k>>uint(s)] {
				continue
			}
			for j := 0; j < m; j++ {
				t := tw[j] * x[k+j+m]
				u := x[k+j]
				x[k+j] = u + t
				x[k+j+m] = u - t
			}
		}
	}
	if normalize {
		inv := complex(1/float64(p.n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// InverseBand computes the inverse 2-D DFT of the band-limited spectrum src
// into dst (out of place; src is left untouched, dst is fully overwritten).
// src must satisfy the BandSpec contract: band rows exactly +0 outside the
// band columns, rows outside the band ignored entirely. The row pass runs
// only the Rows(h) populated rows — every other row inverts to zeros, which
// the column pass injects structurally — and both passes skip butterfly
// blocks whose inputs are all structural zeros. The result is bit-for-bit
// identical to Inverse on a dense copy of the band.
func (p *Plan2) InverseBand(dst, src *grid.CMat, band BandSpec) {
	p.inverseBand(dst, src, band, true)
}

// InverseBandNoNorm is InverseBand without the 1/(W·H) normalisation — for
// spectra whose scale was folded at multiply time (FoldInverseScale).
func (p *Plan2) InverseBandNoNorm(dst, src *grid.CMat, band BandSpec) {
	p.inverseBand(dst, src, band, false)
}

func (p *Plan2) inverseBand(dst, src *grid.CMat, band BandSpec, normalize bool) {
	if src.W != p.w || src.H != p.h || dst.W != p.w || dst.H != p.h {
		panic(fmt.Sprintf("fft: matrices %dx%d/%dx%d do not match plan %dx%d",
			src.W, src.H, dst.W, dst.H, p.w, p.h))
	}
	if band.None() {
		dst.Zero() // the inverse of an all-zero spectrum
		return
	}
	if band.Covers(p.h) && band.Covers(p.w) {
		copy(dst.Data, src.Data)
		p.transform(dst, true, normalize)
		return
	}
	rowBT := p.rowP.bandTable(band.Half) // prune inside each populated row
	colBT := p.colP.bandTable(band.Half) // prune each column over the band rows
	rows := band.Rows(p.h)
	workers := p.workersFor(p.h)

	if workers <= 1 {
		for i := 0; i < rows; i++ {
			y := band.Row(i, p.h)
			row := dst.Data[y*p.w : (y+1)*p.w]
			copy(row, src.Data[y*p.w:(y+1)*p.w])
			p.rowP.inversePruned(row, rowBT, normalize)
		}
		bp := p.colBufs.Get().(*[]complex128)
		buf := *bp
		for x := 0; x < p.w; x++ {
			p.inverseBandColumn(dst, buf, x, band, colBT, normalize)
		}
		p.colBufs.Put(bp)
		return
	}

	grid.ParallelFor(workers, rows, func(i int) {
		y := band.Row(i, p.h)
		row := dst.Data[y*p.w : (y+1)*p.w]
		copy(row, src.Data[y*p.w:(y+1)*p.w])
		p.rowP.inversePruned(row, rowBT, normalize)
	})
	grid.ParallelFor(workers, p.w, func(x int) {
		bp := p.colBufs.Get().(*[]complex128)
		p.inverseBandColumn(dst, *bp, x, band, colBT, normalize)
		p.colBufs.Put(bp)
	})
}

// Butterflies returns the radix-2 butterflies of one dense 2-D transform
// (Forward, Inverse or their NoNorm variants): n/2·log₂ n per row and per
// column. The litho layer adds transform counts like this one to its work
// counters, so traces report transform work exactly, on any host.
func (p *Plan2) Butterflies() int64 {
	return int64(p.h*p.rowP.tab.denseBF + p.w*p.colP.tab.denseBF)
}

// InverseBandButterflies returns the butterflies one InverseBand (or
// InverseBandNoNorm) call runs for band: the pruned transforms of the band
// rows, then every column pruned to the band rows. MulRowsBatch +
// InverseColumns run the same transforms kernel by kernel, so for K
// kernels the batch's count is K times this one (its zero padding lanes
// are not counted, nor does it subtract the rows it mirrors for an exactly
// Hermitian kernel).
func (p *Plan2) InverseBandButterflies(band BandSpec) int64 {
	switch {
	case band.None():
		return 0
	case band.Covers(p.h) && band.Covers(p.w):
		return p.Butterflies()
	}
	return int64(band.Rows(p.h)*p.rowP.prunedButterflies(band.Half) +
		p.w*p.colP.prunedButterflies(band.Half))
}

// inverseBandColumn gathers column x's band rows from m (zero-filling the
// structurally empty middle), runs the pruned column inverse and scatters
// all h values back — fully initialising the column, whatever dst held.
func (p *Plan2) inverseBandColumn(m *grid.CMat, buf []complex128, x int, band BandSpec, colBT *bandTable, normalize bool) {
	for y := 0; y <= band.Half; y++ {
		buf[y] = m.Data[y*p.w+x]
	}
	for y := band.Half + 1; y < p.h-band.Half; y++ {
		buf[y] = 0
	}
	for y := p.h - band.Half; y < p.h; y++ {
		buf[y] = m.Data[y*p.w+x]
	}
	p.colP.inversePruned(buf, colBT, normalize)
	for y := 0; y < p.h; y++ {
		m.Data[y*p.w+x] = buf[y]
	}
}

// ForwardReal computes the unnormalised 2-D DFT of the real matrix src into
// dst, exploiting realness with the classic two-for-one trick: row pairs
// (2i, 2i+1) are packed as a + i·b into one complex row transform and the
// two spectra are separated afterwards through Hermitian symmetry
// (F(a)[k] = (Z[k] + conj(Z[-k]))/2, F(b)[k] = (Z[k] − conj(Z[-k]))/(2i)),
// halving the row pass. The column pass is the ordinary dense forward pass.
//
// Unlike InverseBand this is NOT bit-identical to ComplexFromReal+Forward:
// the packed transform associates the same arithmetic differently, so
// results agree only to rounding (relative error at the few-ulp level). The
// litho engine exposes this as the only non-bit-exact substitution of its
// default mode; see DESIGN.md, "FFT engine".
func (p *Plan2) ForwardReal(dst *grid.CMat, src *grid.Mat) {
	if src.W != p.w || src.H != p.h || dst.W != p.w || dst.H != p.h {
		panic(fmt.Sprintf("fft: matrices %dx%d/%dx%d do not match plan %dx%d",
			src.W, src.H, dst.W, dst.H, p.w, p.h))
	}
	pairs := p.h / 2
	workers := p.workersFor(pairs)

	if workers <= 1 {
		bp := p.rowBufs.Get().(*[]complex128)
		buf := *bp
		for i := 0; i < pairs; i++ {
			p.forwardRealPair(dst, src, buf, i)
		}
		p.rowBufs.Put(bp)
	} else {
		grid.ParallelFor(workers, pairs, func(i int) {
			bp := p.rowBufs.Get().(*[]complex128)
			p.forwardRealPair(dst, src, *bp, i)
			p.rowBufs.Put(bp)
		})
	}
	if p.h%2 == 1 {
		// Odd-height tail row has no partner: dense row transform.
		y := p.h - 1
		row := dst.Data[y*p.w : (y+1)*p.w]
		for x := 0; x < p.w; x++ {
			row[x] = complex(src.Data[y*p.w+x], 0)
		}
		p.rowP.Forward(row)
	}
	if workers <= 1 {
		p.colPassSerial(dst, false, false)
	} else {
		p.colPassParallel(dst, false, false, p.workersFor(p.w))
	}
}

// forwardRealPair transforms source rows 2i and 2i+1 through one packed
// complex row transform and unpacks the two spectra into dst.
func (p *Plan2) forwardRealPair(dst *grid.CMat, src *grid.Mat, buf []complex128, i int) {
	ya, yb := 2*i, 2*i+1
	ra := src.Data[ya*p.w : (ya+1)*p.w]
	rb := src.Data[yb*p.w : (yb+1)*p.w]
	for x := 0; x < p.w; x++ {
		buf[x] = complex(ra[x], rb[x])
	}
	p.rowP.Forward(buf)
	da := dst.Data[ya*p.w : (ya+1)*p.w]
	db := dst.Data[yb*p.w : (yb+1)*p.w]
	mask := p.w - 1 // p.w is a power of two: -k mod w == (w-k) & (w-1)
	for k := 0; k < p.w; k++ {
		zk := buf[k]
		zm := buf[(p.w-k)&mask]
		zmc := complex(real(zm), -imag(zm))
		da[k] = (zk + zmc) * 0.5
		db[k] = (zk - zmc) * complex(0, -0.5)
	}
}
