package fft

import (
	"fmt"

	"repro/internal/grid"
)

// Output-pruned adjoint transforms. The Hopkins adjoint needs, per kernel,
// only the P×P band of F(dLdI ⊙ A_k): KernelAdjointPatch reads the cells
// |fx|, |fy| ≤ P/2 of the m×m forward transform and discards the rest.
// Plan2.AdjointPatch computes just that band — the transpose of the
// input-pruned InverseBandNoNorm:
//
//   - the product dLdI ⊙ A_k is formed four rows at a time, straight into
//     the bit-reversed slots of a 4-lane row buffer (no m×m product buffer,
//     no permutation pass);
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
// band |f| ≤ half, input pruned (inversePruned) or output pruned
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
	if p.w < 4 {
		return p.Butterflies()
	}
	return int64((p.h + support) * p.rowP.prunedButterflies(support/2))
}

// AdjointPatch computes one SOCS kernel's P×P adjoint patch from its
// amplitude and dL/dI:
//
//	dst[fy+h, fx+h] = scale · conj(H[f]) · F(dLdI ⊙ amp)[f]   for |fx|, |fy| ≤ h = P/2,
//
// with the bits of KernelAdjointPatch(dst, Forward(dLdI ⊙ amp), kernel,
// scale), but without forming the m×m product or running the butterflies
// no patch cell reads (see the top of this file). The plan must be square;
// dLdI and amp are m×m and kernel is odd P×P with P ≤ m. dst is reused if
// it is P×P; pass nil to allocate. Safe for concurrent use: the scratch
// comes from the plan's pools.
func (p *Plan2) AdjointPatch(dst *grid.CMat, dLdI *grid.Mat, amp, kernel *grid.CMat, scale complex128) *grid.CMat {
	m := p.w
	if p.h != m || dLdI.W != m || dLdI.H != m || amp.W != m || amp.H != m {
		panic(fmt.Sprintf("fft: AdjointPatch needs a square plan and matching fields, got plan %dx%d, dLdI %dx%d, amp %dx%d",
			p.w, p.h, dLdI.W, dLdI.H, amp.W, amp.H))
	}
	pk := kernel.W
	if kernel.H != pk || pk%2 == 0 || pk > m {
		panic(fmt.Sprintf("fft: AdjointPatch kernel %dx%d must be odd square and fit m=%d", kernel.W, kernel.H, m))
	}
	if dst == nil || dst.W != pk || dst.H != pk {
		dst = grid.NewCMat(pk, pk)
	}
	if m < 4 {
		// Too small for four-row groups: transform densely (same bits).
		prod := grid.NewCMat(m, m)
		for i, v := range amp.Data {
			prod.Data[i] = v * complex(dLdI.Data[i], 0)
		}
		p.Forward(prod)
		return KernelAdjointPatch(dst, prod, kernel, scale)
	}
	ot := p.rowP.outTable(pk / 2) // square: the column plan shares the tables
	groups := (pk + 3) / 4
	rbp := p.colBufs4.Get().(*[]complex128) // 4·m, square plan
	rows := *rbp
	sbp := p.adjBufs.Get().(*[]complex128)
	need := groups * 4 * m
	if cap(*sbp) < need {
		*sbp = make([]complex128, need)
	}
	slab := (*sbp)[:need]

	rev := p.rowP.tab.rev
	for y0 := 0; y0 < m; y0 += 4 {
		p.rowP.gatherProduct4(rows, amp.Data[y0*m:(y0+4)*m], dLdI.Data[y0*m:(y0+4)*m])
		p.rowP.forwardPruned4(rows, ot)
		p.colP.keepColumns4(slab, rows, [4]int32{rev[y0], rev[y0+1], rev[y0+2], rev[y0+3]}, pk)
	}
	// Unused lanes of the last column group: zero them so the column
	// transform never runs on stale values (no lane reads another).
	last := slab[(groups-1)*4*m:]
	for lane := pk - (groups-1)*4; lane < 4; lane++ {
		for y := 0; y < m; y++ {
			last[4*y+lane] = 0
		}
	}
	for g := 0; g < groups; g++ {
		col := slab[g*4*m : (g+1)*4*m]
		p.colP.forwardPruned4(col, ot)
		c0 := 4 * g
		p.colP.patchEpilogue4(dst.Data, col, kernel.Data, pk, c0, min(c0+4, pk), scale)
	}
	p.adjBufs.Put(sbp)
	p.colBufs4.Put(rbp)
	return dst
}

// gatherProduct4 is the row pass's fused gather: amp and d hold four rows
// of the amplitude and of dL/dI back to back, and their products land in
// the bit-reversed slots of the 4-lane buffer x,
// x[4·rev(i)+lane] = amp[lane·N+i]·d[lane·N+i] — the product expression of
// the dense adjoint, so Forward's bit-reversal pass is already done. Each
// slot's four lanes fill one cache line in one go.
func (p *Plan) gatherProduct4(x, amp []complex128, d []float64) {
	rev := p.tab.rev
	n := len(rev)
	//lint:ignore bce one reslice per row, so the loop below reads the rows check-free
	a0, a1, a2, a3 := amp[:n], amp[n:][:n], amp[2*n:][:n], amp[3*n:][:n]
	//lint:ignore bce one reslice per row, as for the amplitude rows
	d0, d1, d2, d3 := d[:n], d[n:][:n], d[2*n:][:n], d[3*n:][:n]
	for i, r := range rev {
		//lint:ignore bce length-capped reslice of the bit-reversed slot: one check per four products
		xs := x[4*int(r) : 4*int(r)+4 : 4*int(r)+4]
		xs[0] = a0[i] * complex(d0[i], 0)
		xs[1] = a1[i] * complex(d1[i], 0)
		xs[2] = a2[i] * complex(d2[i], 0)
		xs[3] = a3[i] * complex(d3[i], 0)
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
		//lint:ignore bce length-capped reslice of one kept column's four lanes
		xs := x[src : src+4 : src+4]
		dst := (c>>2)*4*n + c&3
		for lane, r := range rv {
			//lint:ignore bce the bit-reversed scatter into the column slab: one check per kept value
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
		//lint:ignore bce one reslice each of the kept row's lanes, kernel cells and patch cells
		cv, kr, dr := col[src:][:w], kernel[row+c0:][:w], dst[row+c0:][:w]
		for c, k := range kr {
			dr[c] = scale * complex(real(k), -imag(k)) * cv[c]
		}
	}
}
