package fft

import (
	"fmt"

	"repro/internal/grid"
)

// Output-pruned adjoint transforms. The Hopkins adjoint needs, per kernel,
// only the P×P band of F(dLdI ⊙ A_k): KernelAdjointPatch reads the cells
// |fx|, |fy| ≤ P/2 of the m×m forward transform and discards the rest.
// Plan2.AdjointPatch computes just that band — the transpose of the
// input-pruned InverseBandReal:
//
//   - the product dLdI ⊙ A_k is formed sixteen rows at a time from the
//     tiled amplitude (batch.go), straight into the bit-reversed slots of
//     four 4-lane row buffers (no m×m product buffer, no permutation pass);
//   - output-pruned row transforms run only the butterflies that feed the
//     P band columns, and only those columns are kept, in a ⌈P/4⌉·4·m slab;
//   - output-pruned column transforms on those columns run only the
//     butterflies that feed the P band rows;
//   - the scale·conj(H_k) epilogue writes the P×P patch.
//
// Needed-output rule: after stage s of the decimation-in-time transform,
// offset j of each 2^s-block holds a length-2^s sub-DFT at frequency j, and
// it feeds exactly the final outputs X[k] with k ≡ j (mod 2^s). Butterfly j
// of stage s writes offsets j and j+2^(s-1) of every block, so it is needed
// iff j or j+2^(s-1) is congruent mod 2^s to a kept frequency k ∈ [−h, h]
// — the same j in every block. For the contiguous kept band that is
// j ∈ [0, h] ∪ [2^(s-1)−h, 2^(s-1)): each stage skips one run of j.
//
// Bit-exactness: rows are transformed before columns, as in Plan2.Forward,
// and every kept output is produced by exactly the butterflies the dense
// transform runs for it, on the same operands with the same twiddles; a
// skipped butterfly only writes values no kept output reads. So each patch
// cell has the bits KernelAdjointPatch computes from the dense Forward —
// the property tests assert it with Float64bits — and the batched litho
// engine runs this path without weakening its guarantees.

// outTable is the output-pruned schedule of one (length, kept half-width
// h): per stage, the runs of butterflies j that feed a kept output, each
// with its twiddles — j ∈ [0, h] and [2^(s-1)−h, 2^(s-1)) at stage s, or
// one run of every j where those meet.
type outTable struct {
	stages      [][]outRun
	butterflies int // butterflies one pruned transform runs
}

// outRun is a run of butterflies j0, j0+1, … with twiddles tw[j−j0].
type outRun struct {
	j0 int
	tw []complex128
}

// outTable returns the output-pruned schedule keeping frequencies
// [−half, half]; 2·half+1 < N, which any odd kernel support P ≤ N meets.
// Tables are built once per (length, half) and shared through the
// process-wide table set.
func (p *Plan) outTable(half int) *outTable {
	if half < 0 || 2*half+1 >= p.n {
		panic(fmt.Sprintf("fft: kept band half-width %d invalid for length %d", half, p.n))
	}
	if v, ok := p.tab.outs.Load(half); ok {
		return v.(*outTable)
	}
	ot := &outTable{stages: make([][]outRun, p.logN)}
	bytes := 0 // the runs; their twiddles are the plan's own
	for s := 1; s <= p.logN; s++ {
		hb := 1 << (s - 1) // butterflies per block
		tw := p.tab.twidF[p.tab.stageAt[s] : p.tab.stageAt[s]+hb]
		// Kept residues mod 2^s are [0, half] and [2^s−half, 2^s), so the
		// needed j are [0, half] and [hb−half, hb); the run between them,
		// if any, is skipped.
		runs := []outRun{{0, tw}}
		if lo, hi := half+1, hb-half; lo < hi {
			runs = []outRun{{0, tw[:lo]}, {hi, tw[hi:]}}
		}
		for _, r := range runs {
			ot.butterflies += len(r.tw) * (p.n >> s)
		}
		ot.stages[s-1] = runs
		bytes += 32 * len(runs) // an outRun is j0 plus a slice header
	}
	v, loaded := p.tab.outs.LoadOrStore(half, ot)
	if !loaded {
		tableBytes.Add(int64(bytes))
	}
	return v.(*outTable)
}

// forwardPruned4 is the output-pruned forward transform over four
// interleaved lanes, x[4·i+lane] (the layout of inversePruned4). x must
// already be in bit-reversed order: AdjointPatch gathers straight into
// those slots. Every butterfly ot schedules runs exactly as in Forward —
// one stage4 call per run; the butterflies of one stage touch disjoint
// pairs, so running a stage run by run keeps every bit — and each lane's
// outputs at the kept frequencies (k ∈ [−half, half] mod N) have Forward's
// bits; the other outputs are garbage.
func (p *Plan) forwardPruned4(x []complex128, ot *outTable) {
	if len(x) != 4*p.n {
		panic(fmt.Sprintf("fft: buffer length %d != 4×plan length %d", len(x), p.n))
	}
	for i, runs := range ot.stages {
		for _, r := range runs {
			stage4(x, 1<<i, r.j0, r.tw, nil)
		}
	}
}

// prunedButterflies returns the butterflies of one transform pruned to the
// band |f| ≤ half, input pruned (inversePruned4) or output pruned
// (forwardPruned4). The two flow graphs are transposes of each other, so
// they run the same number of butterflies — stage s of one as many as
// stage log₂N+1−s of the other — and the output schedule's precomputed
// count serves both. A band covering the axis runs the dense
// count.
func (p *Plan) prunedButterflies(half int) int {
	if 2*half+1 >= p.n {
		return p.tab.denseBF
	}
	return p.outTable(half).butterflies
}

// AdjointPatchButterflies returns the butterflies one AdjointPatch call
// runs for a P×P kernel support: m output-pruned row transforms plus P
// output-pruned column transforms (the zero padding lanes of the last
// column group are not counted). The dense adjoint transform it replaces
// runs Butterflies().
func (p *Plan2) AdjointPatchButterflies(support int) int64 {
	return int64((p.h + support) * p.rowP.prunedButterflies(support/2))
}

// gatherRows is the height of the row band AdjointPatch gathers from the
// tiled amplitude in one go: each column block contributes 16 rows, 1 KiB
// contiguous, and the band fills four 4-lane row buffers.
const gatherRows = 16

// AdjointPatch computes one SOCS kernel's P×P adjoint patch from its
// amplitude and dL/dI:
//
//	dst[fy+h, fx+h] = scale · conj(H[f]) · F(dLdI ⊙ amp)[f]   for |fx|, |fy| ≤ h = P/2,
//
// with the bits of KernelAdjointPatch(dst, Forward(dLdI ⊙ amp), kernel,
// scale), but without forming the m×m product or running the butterflies
// no patch cell reads (see the top of this file). amp is in the tiled
// layout InverseColumns keeps (batch.go; Tile4 converts a row-major one);
// dLdI is row-major. The plan must be square with a side m divisible by 4
// (AdjointPatch panics otherwise, as MulRowsBatch does); dLdI and amp are
// m×m and kernel is odd P×P with P ≤ m. dst is reused if it is P×P; pass
// nil to allocate. Safe for concurrent use: the scratch comes from the
// plan's pools.
func (p *Plan2) AdjointPatch(dst *grid.CMat, dLdI *grid.Mat, amp, kernel *grid.CMat, scale complex128) *grid.CMat {
	m := p.w
	if p.h != m || m%4 != 0 || dLdI.W != m || dLdI.H != m || amp.W != m || amp.H != m {
		panic(fmt.Sprintf("fft: AdjointPatch needs a square plan with a side divisible by 4 and matching fields, got plan %dx%d, dLdI %dx%d, amp %dx%d",
			p.w, p.h, dLdI.W, dLdI.H, amp.W, amp.H))
	}
	pk := kernel.W
	if kernel.H != pk || pk%2 == 0 || pk > m {
		panic(fmt.Sprintf("fft: AdjointPatch kernel %dx%d must be odd square and fit m=%d", kernel.W, kernel.H, m))
	}
	if dst == nil || dst.W != pk || dst.H != pk {
		dst = grid.NewCMat(pk, pk)
	}
	ot := p.rowP.outTable(pk / 2) // square: the column plan shares the tables
	groups := (pk + 3) / 4
	rows := min(gatherRows, m) // m is a power of two ≥ 4, so rows divides it
	bbp := p.adjBands.Get().(*[]complex128)
	band := (*bbp)[:rows*m]
	sbp, slab := p.slabLease(groups * 4 * m)

	rev := p.rowP.tab.rev
	for y0 := 0; y0 < m; y0 += rows {
		p.rowP.gatherTiles(band, amp.Data, dLdI.Data, y0)
		for g := 0; g < rows/4; g++ {
			x := band[g*4*m : (g+1)*4*m]
			y := y0 + 4*g
			p.rowP.forwardPruned4(x, ot)
			p.colP.keepColumns4(slab, x, [4]int32{rev[y], rev[y+1], rev[y+2], rev[y+3]}, pk)
		}
	}
	clearPadLanes(slab, pk)
	for g := 0; g < groups; g++ {
		col := slab[g*4*m : (g+1)*4*m]
		p.colP.forwardPruned4(col, ot)
		c0 := 4 * g
		p.colP.patchEpilogue4(dst.Data, col, kernel.Data, pk, c0, min(c0+4, pk), scale)
	}
	p.slabBufs.Put(sbp)
	p.adjBands.Put(bbp)
	return dst
}

// gatherTiles is the row pass's fused gather for the band of len(band)/N
// rows starting at row y0: for each column block of the tiled amplitude
// amp it reads the band's rows (contiguous), multiplies them by the same
// cells of the row-major d, and writes each product into the bit-reversed
// slot of its row's 4-lane buffer — row y0+4g+lane, column i lands in
// band[g·4N + 4·rev(i) + lane], the layout forwardPruned4 reads. Per
// four-row group it transposes a 4×4 block: tile row lane, column c goes
// to lane lane of column c's slot, so each slot's four lanes fill one
// cache line in one go. The product is amp·complex(d, 0), the expression
// of the dense adjoint, so Forward's bit-reversal pass is already done.
// The shapes are checked here; the kernel behind it (gatherAVX where the
// CPU has AVX, else gatherGeneric) has no bounds checks.
func (p *Plan) gatherTiles(band, amp []complex128, d []float64, y0 int) {
	n := p.n
	groups := len(band) / (4 * n)
	if n%4 != 0 || groups == 0 || len(band) != 4*n*groups || y0 < 0 || y0+4*groups > n ||
		len(amp) < n*n || len(d) < n*n {
		panic(fmt.Sprintf("fft: gather of %d values at row %d from %d amplitudes and %d weights does not fit length %d",
			len(band), y0, len(amp), len(d), n))
	}
	gatherBlock(band, amp, d, p.tab.rev, y0)
}

// gatherGeneric is gatherTiles' portable loop, n = len(rev): the only path
// on hosts without the assembly kernel, and the oracle the kernel is
// tested against.
func gatherGeneric(band, amp []complex128, d []float64, rev []int32, y0 int) {
	n := len(rev)
	groups := len(band) / (4 * n)
	for x0 := 0; x0 < n; x0 += 4 {
		tile := amp[x0*n+4*y0:][:16*groups]
		rv := rev[x0 : x0+4 : x0+4]
		r0, r1, r2, r3 := 4*int(rv[0]), 4*int(rv[1]), 4*int(rv[2]), 4*int(rv[3])
		for g := 0; g < groups; g++ {
			// Length-capped reslices: the constant indices below run
			// check-free.
			t := tile[16*g : 16*g+16 : 16*g+16]
			bg := band[4*n*g : 4*n*(g+1)]
			dd := d[(y0+4*g)*n+x0:]
			d0, d1, d2, d3 := dd[:4:4], dd[n:n+4:n+4], dd[2*n:2*n+4:2*n+4], dd[3*n:3*n+4:3*n+4]
			x := bg[r0 : r0+4 : r0+4]
			x[0] = t[0] * complex(d0[0], 0)
			x[1] = t[4] * complex(d1[0], 0)
			x[2] = t[8] * complex(d2[0], 0)
			x[3] = t[12] * complex(d3[0], 0)
			x = bg[r1 : r1+4 : r1+4]
			x[0] = t[1] * complex(d0[1], 0)
			x[1] = t[5] * complex(d1[1], 0)
			x[2] = t[9] * complex(d2[1], 0)
			x[3] = t[13] * complex(d3[1], 0)
			x = bg[r2 : r2+4 : r2+4]
			x[0] = t[2] * complex(d0[2], 0)
			x[1] = t[6] * complex(d1[2], 0)
			x[2] = t[10] * complex(d2[2], 0)
			x[3] = t[14] * complex(d3[2], 0)
			x = bg[r3 : r3+4 : r3+4]
			x[0] = t[3] * complex(d0[3], 0)
			x[1] = t[7] * complex(d1[3], 0)
			x[2] = t[11] * complex(d2[3], 0)
			x[3] = t[15] * complex(d3[3], 0)
		}
	}
}

// clearPadLanes zeroes the unused lanes of the last column group of a band
// slab of ⌈P/4⌉ four-lane columns, so the column transform never runs on
// stale values (no lane reads another).
func clearPadLanes(slab []complex128, pk int) {
	groups := (pk + 3) / 4
	last := slab[(groups-1)*len(slab)/groups:]
	for lane := pk - (groups-1)*4; lane < 4; lane++ {
		for y := lane; y < len(last); y += 4 {
			last[y] = 0
		}
	}
}

// keepColumns4 ends the row pass of four rows whose bit-reversed positions
// are rv: of the transformed 4-lane row buffer x it keeps only the P band
// columns, fx = c − P/2 for ordinal c, writing each into lane c%4 of
// column group c/4 of the slab at its row's slot — ready for the column
// transform.
func (p *Plan) keepColumns4(slab, x []complex128, rv [4]int32, pk int) {
	n := p.n
	half := pk / 2
	for c := 0; c < pk; c++ {
		src := 4 * ((c - half + n) & (n - 1))
		// A length-capped reslice of one kept column's four lanes.
		xs := x[src : src+4 : src+4]
		dst := (c>>2)*4*n + c&3
		for lane, r := range rv {
			// The bit-reversed scatter into the column slab.
			slab[dst+4*int(r)] = xs[lane]
		}
	}
}

// patchEpilogue4 writes columns c0..c1−1 of the P×P patch dst (one column
// group, c1−c0 ≤ 4 lanes) from their transformed 4-lane columns col: for
// every kept row fy, dst[fy+h, c] = scale·conj(H[fy+h, c])·col[fy] — the
// KernelAdjointPatch expression, evaluated in its order.
func (p *Plan) patchEpilogue4(dst, col, kernel []complex128, pk, c0, c1 int, scale complex128) {
	n := p.n
	half := pk / 2
	w := c1 - c0
	for fy := -half; fy <= half; fy++ {
		src := 4 * ((fy + n) & (n - 1))
		row := (fy + half) * pk
		// One reslice each of the kept row's lanes, kernel cells and patch cells.
		cv, kr, dr := col[src:][:w], kernel[row+c0:][:w], dst[row+c0:][:w]
		for c, k := range kr {
			dr[c] = scale * complex(real(k), -imag(k)) * cv[c]
		}
	}
}
