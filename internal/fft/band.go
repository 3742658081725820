package fft

import (
	"fmt"

	"repro/internal/grid"
)

// Band-limited transforms. The kernels read only the P×P band |fx|, |fy| ≤
// P/2 of the mask spectrum, and the gradient's frequency-domain
// accumulator holds only that band, so both ends of the SOCS pipeline
// carry the band alone, as a centered P×P matrix — cell (fy+h, fx+h) holds
// frequency (fx, fy), h = P/2, the layout of the kernels themselves:
//
//	ForwardRealBand   the mask spectrum: output-pruned two-for-one row
//	                  transforms, then output-pruned columns, band only
//	InverseBandReal   the gradient's final inverse: input-pruned rows and
//	                  columns, the real part written straight out
//
// Both run four rows or columns in lockstep through stage4 (stage4.go), as
// the batched SOCS inverse and the adjoint do. A BandSpec describes the
// band of an m-length axis, and the band tables below let an input-pruned
// inverse skip the butterfly blocks that can only hold zeros.
//
// Bit-exactness, input pruned: a skipped butterfly block would only ever
// combine inputs that are structurally +0. IEEE-754 evaluates those
// butterflies to exactly +0 again (u ± tw·0 with u = +0 yields +0 for every
// twiddle), so leaving the zeros untouched produces the same bits the dense
// transform would have written. InverseBandReal is therefore bit-for-bit
// the real part of InverseNoNorm on the zero-embedded band. Output pruned:
// every kept output is produced by the butterflies the dense transform
// runs for it, on the same operands (adjoint.go), so every band cell of
// ForwardRealBand has the bits of the full two-for-one spectrum. The
// property tests in band_test.go assert both with Float64bits.

// BandSpec describes the populated band of a DC-at-zero spectrum: rows and
// columns with signed frequency |f| ≤ Half — indices [0, Half] and
// [m-Half, m-1] — may carry data.
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

// Butterflies returns the radix-2 butterflies of one dense 2-D transform
// (Forward, Inverse or their NoNorm variants): n/2·log₂ n per row and per
// column. The litho layer adds transform counts like this one to its work
// counters, so traces report transform work exactly, on any host.
func (p *Plan2) Butterflies() int64 {
	return int64(p.h*p.rowP.tab.denseBF + p.w*p.colP.tab.denseBF)
}

// ForwardRealBandButterflies returns the butterflies of one
// ForwardRealBand call for a P×P band (P = support): one output-pruned row
// transform per packed row pair, then P output-pruned column transforms —
// (m/2 + P)·prunedButterflies(P/2); the zero padding lanes are not
// counted. The dense transform of the whole spectrum runs Butterflies().
func (p *Plan2) ForwardRealBandButterflies(support int) int64 {
	return int64((p.h/2 + support) * p.rowP.prunedButterflies(support/2))
}

// InverseBandButterflies returns the butterflies of one input-pruned
// inverse of band: the pruned transforms of the band rows, then every
// column pruned to the band rows. InverseBandReal runs it for its P×P band,
// and MulRowsBatch + InverseColumns run it kernel by kernel, so for K
// kernels the batch's count is K times this one (zero padding lanes are
// not counted).
func (p *Plan2) InverseBandButterflies(band BandSpec) int64 {
	if band.Covers(p.h) && band.Covers(p.w) {
		return p.Butterflies()
	}
	return int64(band.Rows(p.h)*p.rowP.prunedButterflies(band.Half) +
		p.w*p.colP.prunedButterflies(band.Half))
}

// bandSide checks the shapes ForwardRealBand and InverseBandReal accept —
// a square plan with a side m divisible by 4, an m×m real matrix and an
// odd P×P band with P < m — and returns m.
func (p *Plan2) bandSide(op string, real *grid.Mat, band *grid.CMat) int {
	m := p.w
	if p.h != m || m%4 != 0 || real.W != m || real.H != m ||
		band.W != band.H || band.W%2 == 0 || band.W >= m {
		panic(fmt.Sprintf("fft: %s needs a square plan with a side m divisible by 4, an m×m image and an odd P×P band with P < m, got plan %dx%d, image %dx%d, band %dx%d",
			op, p.w, p.h, real.W, real.H, band.W, band.H))
	}
	return m
}

// slabLease leases a band slab of need values from the plan's pool,
// growing its entry on a miss.
func (p *Plan2) slabLease(need int) (*[]complex128, []complex128) {
	sbp := p.slabBufs.Get().(*[]complex128)
	if cap(*sbp) < need {
		*sbp = make([]complex128, need)
	}
	//lint:ignore scratchalias the slab is leased to the caller, which Puts sbp once its passes are done
	return sbp, (*sbp)[:need]
}

// ForwardRealBand writes the band |fx|, |fy| ≤ h = P/2 of the unnormalised
// 2-D DFT of the real m×m src into the P×P dst, centered: dst cell
// (fy+h, fx+h) holds frequency (fx, fy). The plan must be square with a
// side m divisible by 4, and P odd with P < m; ForwardRealBand panics
// otherwise, as MulRowsBatch does.
//
// It is the two-for-one real transform computed only where the kernels
// read it:
//
//   - row pass: row pairs (2i, 2i+1) are packed as a + i·b, four pairs per
//     four-lane buffer, straight into bit-reversed slots, and transformed
//     output-pruned to the band columns (forwardPruned4);
//   - unpack: the two spectra are separated through Hermitian symmetry,
//     F(a)[k] = (Z[k] + conj(Z[−k]))/2, F(b)[k] = (Z[k] − conj(Z[−k]))/(2i),
//     on the band columns only (the band holds both k and −k), each value
//     written at its row's bit-reversed slot of a ⌈P/4⌉·4·m column slab;
//   - column pass: each group of four band columns is transformed
//     output-pruned to the band rows, and the band rows are copied to dst.
//
// Every band cell has the bits of the full two-for-one spectrum (row
// transforms of the packed pairs, the unpack, then dense column
// transforms), which agrees with ComplexFromReal + Forward to rounding
// only: the packing associates the same arithmetic differently. One call
// runs (m/2 + P)·prunedButterflies(h) butterflies
// (ForwardRealBandButterflies). The passes fan out over up to workers
// goroutines; the result does not depend on the count.
func (p *Plan2) ForwardRealBand(dst *grid.CMat, src *grid.Mat, workers int) {
	m := p.bandSide("ForwardRealBand", src, dst)
	workers = max(workers, 1) // ParallelFor reads ≤ 0 as GOMAXPROCS
	pk := dst.W
	half := pk / 2
	ot := p.rowP.outTable(half) // square: the column plan shares the tables
	groups := (pk + 3) / 4
	sbp, slab := p.slabLease(groups * 4 * m)
	pairGroups := (m/2 + 3) / 4
	grid.ParallelFor(workers, pairGroups, func(q int) {
		bp := p.colBufs4.Get().(*[]complex128)
		p.forwardRealRows(slab, *bp, src.Data, q, half, ot)
		p.colBufs4.Put(bp)
	})
	clearPadLanes(slab, pk)
	grid.ParallelFor(workers, groups, func(g int) {
		col := slab[g*4*m : (g+1)*4*m]
		p.colP.forwardPruned4(col, ot)
		c0 := 4 * g
		w := min(c0+4, pk) - c0
		for fy := -half; fy <= half; fy++ {
			s := 4 * ((fy + m) & (m - 1))
			copy(dst.Data[(fy+half)*pk+c0:][:w], col[s:s+w])
		}
	})
	p.slabBufs.Put(sbp)
}

// forwardRealRows runs ForwardRealBand's row pass for the four row pairs
// of group q — rows 8q … 8q+7 of src, fewer at m = 4 — in the four-lane
// buffer x: pack, output-pruned transform, then the unpack of the band
// columns into the slab, at each row's bit-reversed slot of its column's
// lane.
func (p *Plan2) forwardRealRows(slab, x []complex128, src []float64, q, half int, ot *outTable) {
	m := p.w
	rev := p.rowP.tab.rev
	lanes := min(4, m/2-4*q) // row pairs in this group
	y0 := 8 * q
	if lanes < 4 {
		clear(x) // padding lanes: nothing stale reaches a transform
	}
	for l := 0; l < lanes; l++ {
		a, b := src[(y0+2*l)*m:][:len(rev)], src[(y0+2*l+1)*m:][:len(rev)]
		for c, r := range rev {
			x[4*int(r)+l] = complex(a[c], b[c])
		}
	}
	p.rowP.forwardPruned4(x, ot)
	pk := 2*half + 1
	for c := 0; c < pk; c++ {
		zk := x[4*((c-half+m)&(m-1)):][:4]
		zm := x[4*((half-c+m)&(m-1)):][:4]
		dst := slab[(c>>2)*4*m+c&3:]
		for l := 0; l < lanes; l++ {
			zmc := complex(real(zm[l]), -imag(zm[l]))
			ya := y0 + 2*l
			dst[4*int(rev[ya])] = (zk[l] + zmc) * 0.5
			dst[4*int(rev[ya+1])] = (zk[l] - zmc) * complex(0, -0.5)
		}
	}
}

// InverseBandReal writes into the m×m dst the real part of the
// unnormalised inverse 2-D DFT of the P×P band src (centered, as
// ForwardRealBand writes it) zero-embedded in an m×m spectrum — for
// spectra whose scale was folded at multiply time (FoldInverseScale). The
// shape rules are ForwardRealBand's. src is left untouched; dst is fully
// overwritten.
//
//   - row pass: the P band rows, four per buffer, are gathered into the
//     bit-reversed slots of a cleared four-lane buffer and transformed
//     input-pruned (inversePruned4) with the row band table;
//   - column pass: each block of four columns gathers the band rows into
//     the bit-reversed slots of a cleared buffer, runs the input-pruned
//     column transforms and writes the real parts into dst.
//
// The rows outside the band would invert to zeros, which the cleared
// column buffer holds already; and each lane runs the one-lane pruned
// transform's operations, so dst is bit for bit Re(InverseNoNorm) of the
// zero-embedded band. The passes fan out over up to workers goroutines;
// the result does not depend on the count.
func (p *Plan2) InverseBandReal(dst *grid.Mat, src *grid.CMat, workers int) {
	m := p.bandSide("InverseBandReal", dst, src)
	workers = max(workers, 1) // ParallelFor reads ≤ 0 as GOMAXPROCS
	pk := src.W
	half := pk / 2
	bt := p.rowP.bandTable(half) // square: the column plan shares the tables
	rev := p.rowP.tab.rev
	groups := (pk + 3) / 4
	sbp, rows := p.slabLease(groups * 4 * m)
	grid.ParallelFor(workers, groups, func(g int) {
		x := rows[g*4*m : (g+1)*4*m]
		clear(x)
		for l := 0; l < 4 && 4*g+l < pk; l++ {
			r := 4*g + l
			for c, v := range src.Data[r*pk : (r+1)*pk] {
				x[4*int(rev[(c-half+m)&(m-1)])+l] = v
			}
		}
		p.rowP.inversePruned4(x, bt)
	})
	blocks := m / 4
	grid.ParallelFor(workers, blocks, func(bx int) {
		cbp := p.colBufs4.Get().(*[]complex128)
		cb := *cbp
		clear(cb)
		x0 := 4 * bx
		for r := 0; r < pk; r++ {
			y := 4 * int(rev[(r-half+m)&(m-1)])
			s := rows[(r>>2)*4*m+4*x0+r&3:][:13]
			cb[y] = s[0]
			cb[y+1] = s[4]
			cb[y+2] = s[8]
			cb[y+3] = s[12]
		}
		p.colP.inversePruned4(cb, bt)
		for y := 0; y < m; y++ {
			d := dst.Data[y*m+x0 : y*m+x0+4 : y*m+x0+4]
			v := cb[4*y : 4*y+4 : 4*y+4]
			d[0], d[1], d[2], d[3] = real(v[0]), real(v[1]), real(v[2]), real(v[3])
		}
		p.colBufs4.Put(cbp)
	})
	p.slabBufs.Put(sbp)
}
