package fft

import (
	"fmt"

	"repro/internal/grid"
)

// Band-limited transforms. ApplyKernel fills only the P×P kernel-support
// band of an m×m spectrum — at production sizes (P = 35, m = 1024) about 97%
// of the rows handed to the per-kernel inverse FFT are exact zeros. The code
// in this file makes that structure explicit: a BandSpec describes the
// populated band, and the pruned inverses (Plan2.InverseBandNoNorm, and the
// batched MulRowsBatch/InverseColumns) transform only the rows (and, inside
// each row and column, only the butterfly blocks) that can carry data.
//
// Bit-exactness: a skipped butterfly block would only ever combine inputs
// that are structurally +0. IEEE-754 evaluates those butterflies to exactly
// +0 again (u ± tw·0 with u = +0 yields +0 for every twiddle), so leaving
// the zeros untouched produces the same bits the dense transform would have
// written. InverseBandNoNorm is therefore bit-for-bit identical to
// InverseNoNorm on a densely zero-padded copy of the same band — the
// equivalence the property tests in band_test.go assert with Float64bits.

// BandSpec describes the populated band of a DC-at-zero spectrum: rows and
// columns with signed frequency |f| ≤ Half — indices [0, Half] and
// [m-Half, m-1] — may carry data. The consumer contract is asymmetric in
// the two axes: populated *rows* must be exactly +0 outside the band
// *columns*, while rows outside the band are never read at all and may hold
// garbage (which is what lets a band accumulator clear only its band rows,
// ZeroRows, instead of the whole buffer).
type BandSpec struct {
	Half int
}

// Rows returns how many rows (equally, columns) of an m-length axis the band
// populates.
func (b BandSpec) Rows(m int) int {
	if r := 2*b.Half + 1; r < m {
		return r
	}
	return m
}

// Covers reports whether the band spans the whole axis of length m, i.e. no
// pruning is possible.
func (b BandSpec) Covers(m int) bool { return 2*b.Half+1 >= m }

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
// AddKernelPatch) and then handed to InverseBandNoNorm only need this P·m
// clear instead of a full m² Zero.
func (b BandSpec) ZeroRows(m *grid.CMat) {
	rows := b.Rows(m.H)
	for i := 0; i < rows; i++ {
		y := b.Row(i, m.H)
		row := m.Data[y*m.W : (y+1)*m.W]
		for x := range row {
			row[x] = 0
		}
	}
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

// inversePruned is the unnormalised inverse transform for inputs that are
// exactly +0 outside the band positions [0, half] ∪ [n-half, n-1] encoded
// in bt: butterfly blocks whose inputs are all structural zeros are
// skipped. Bit-for-bit identical to InverseNoNorm on the same input (the
// skipped butterflies would have recomputed the same +0s). A nil bt falls
// back to the dense transform.
func (p *Plan) inversePruned(x []complex128, bt *bandTable) {
	if bt == nil {
		p.InverseNoNorm(x)
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
}

// InverseBandNoNorm computes the inverse 2-D DFT of the band-limited
// spectrum src into dst without the 1/(W·H) normalisation — for spectra
// whose scale was folded at multiply time (FoldInverseScale). It works out
// of place: src is left untouched, dst is fully overwritten. src must
// satisfy the BandSpec contract: band rows exactly +0 outside the band
// columns, rows outside the band ignored entirely. The row pass runs only
// the Rows(h) populated rows — every other row inverts to zeros, which the
// column pass injects structurally — and both passes skip butterfly blocks
// whose inputs are all structural zeros. The result is bit-for-bit
// identical to InverseNoNorm on a dense copy of the band.
func (p *Plan2) InverseBandNoNorm(dst, src *grid.CMat, band BandSpec) {
	if src.W != p.w || src.H != p.h || dst.W != p.w || dst.H != p.h {
		panic(fmt.Sprintf("fft: matrices %dx%d/%dx%d do not match plan %dx%d",
			src.W, src.H, dst.W, dst.H, p.w, p.h))
	}
	if band.Covers(p.h) && band.Covers(p.w) {
		copy(dst.Data, src.Data)
		p.transform(dst, true, false)
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
			p.rowP.inversePruned(row, rowBT)
		}
		bp := p.colBufs.Get().(*[]complex128)
		buf := *bp
		for x := 0; x < p.w; x++ {
			p.inverseBandColumn(dst, buf, x, band, colBT)
		}
		p.colBufs.Put(bp)
		return
	}

	grid.ParallelFor(workers, rows, func(i int) {
		y := band.Row(i, p.h)
		row := dst.Data[y*p.w : (y+1)*p.w]
		copy(row, src.Data[y*p.w:(y+1)*p.w])
		p.rowP.inversePruned(row, rowBT)
	})
	grid.ParallelFor(workers, p.w, func(x int) {
		bp := p.colBufs.Get().(*[]complex128)
		p.inverseBandColumn(dst, *bp, x, band, colBT)
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

// ForwardRealButterflies returns the butterflies of one ForwardReal call:
// one dense row transform per packed row pair (plus an odd tail row), then
// the dense column pass.
func (p *Plan2) ForwardRealButterflies() int64 {
	return int64((p.h/2+p.h%2)*p.rowP.tab.denseBF + p.w*p.colP.tab.denseBF)
}

// InverseBandButterflies returns the butterflies one InverseBandNoNorm
// call runs for band: the pruned transforms of the band rows, then every
// column pruned to the band rows. MulRowsBatch + InverseColumns run the
// same transforms kernel by kernel, so for K kernels the batch's count is
// K times this one (its zero padding lanes are not counted).
func (p *Plan2) InverseBandButterflies(band BandSpec) int64 {
	if band.Covers(p.h) && band.Covers(p.w) {
		return p.Butterflies()
	}
	return int64(band.Rows(p.h)*p.rowP.prunedButterflies(band.Half) +
		p.w*p.colP.prunedButterflies(band.Half))
}

// inverseBandColumn gathers column x's band rows from m (zero-filling the
// structurally empty middle), runs the pruned column inverse and scatters
// all h values back — fully initialising the column, whatever dst held.
func (p *Plan2) inverseBandColumn(m *grid.CMat, buf []complex128, x int, band BandSpec, colBT *bandTable) {
	for y := 0; y <= band.Half; y++ {
		buf[y] = m.Data[y*p.w+x]
	}
	for y := band.Half + 1; y < p.h-band.Half; y++ {
		buf[y] = 0
	}
	for y := p.h - band.Half; y < p.h; y++ {
		buf[y] = m.Data[y*p.w+x]
	}
	p.colP.inversePruned(buf, colBT)
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
// Unlike the pruned inverses this is NOT bit-identical to
// ComplexFromReal+Forward: the packed transform associates the same
// arithmetic differently, so results agree only to rounding (relative error
// at the few-ulp level). It is the only non-bit-exact substitution of the
// default litho engine; see DESIGN.md, "FFT engine".
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
