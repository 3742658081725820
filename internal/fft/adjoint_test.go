package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// keptHalves lists the kept half-widths the pruned-forward properties run
// at for length n: DC only, the narrowest band, the test and paper kernel
// supports (P = 27 and 35), and the widest band short of the whole axis.
func keptHalves(n int) []int {
	var out []int
	for _, h := range []int{0, 1, 13, 17, n/2 - 1} {
		if h >= 0 && 2*h+1 < n && (len(out) == 0 || out[len(out)-1] != h) {
			out = append(out, h)
		}
	}
	return out
}

// kept reports whether DC-at-zero index i of a length-n axis lies in the
// band [−half, half].
func kept(i, n, half int) bool { return i <= half || i >= n-half }

// bitReversed4 lays four lanes out the way forwardPruned4 reads them:
// x[4·rev(i)+lane] = lanes[lane][i].
func bitReversed4(p *Plan, lanes [4][]complex128) []complex128 {
	x := make([]complex128, 4*p.n)
	for lane, v := range lanes {
		for i, r := range p.tab.rev {
			x[4*int(r)+lane] = v[i]
		}
	}
	return x
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// The schedule is the needed-output rule, literally: butterfly j of stage
// s runs iff j or j+2^(s−1) is congruent mod 2^s to a kept frequency, and
// the precomputed count is the number of butterflies that rule keeps.
func TestOutTableFollowsNeededOutputRule(t *testing.T) {
	for n := 8; n <= 2048; n *= 2 {
		p, _ := NewPlan(n)
		for _, half := range keptHalves(n) {
			ot := p.outTable(half)
			total := 0
			for s := 1; s <= p.logN; s++ {
				hb, mod := 1<<(s-1), 1<<s
				runs := map[int]bool{}
				for _, r := range ot.stages[s-1] {
					for j := r.j0; j < r.j0+len(r.tw); j++ {
						runs[j] = true
						if !sameBits(r.tw[j-r.j0], p.tab.twidF[p.tab.stageAt[s]+j]) {
							t.Fatalf("n=%d half=%d stage %d: run twiddle %d is not the stage's", n, half, s, j)
						}
					}
				}
				for j := 0; j < hb; j++ {
					need := false
					for k := -half; k <= half; k++ {
						r := ((k % mod) + mod) % mod
						need = need || r == j || r == j+hb
					}
					if runs[j] != need {
						t.Fatalf("n=%d half=%d stage %d: butterfly %d runs=%v, rule says %v", n, half, s, j, runs[j], need)
					}
					if need {
						total += n / mod
					}
				}
			}
			if ot.butterflies != total {
				t.Errorf("n=%d half=%d: table counts %d butterflies, rule keeps %d", n, half, ot.butterflies, total)
			}
		}
	}
}

// Every kept output of the 4-lane pruned forward equals Plan.Forward of its
// lane bit for bit, for m ∈ {8…2048} and every kept band; NaN in an unused
// lane stays in that lane.
func TestForwardPruned4KeptOutputsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	nan := complex(math.NaN(), math.NaN())
	for n := 8; n <= 2048; n *= 2 {
		p, _ := NewPlan(n)
		var lanes, want [4][]complex128
		for lane := range lanes {
			lanes[lane] = randVec(rng, n)
			if lane == 3 {
				for i := range lanes[lane] {
					lanes[lane][i] = nan // an unused lane
				}
			}
			want[lane] = append([]complex128(nil), lanes[lane]...)
			p.Forward(want[lane])
		}
		for _, half := range keptHalves(n) {
			x := bitReversed4(p, lanes)
			p.forwardPruned4(x, p.outTable(half))
			for i := 0; i < n; i++ {
				if !kept(i, n, half) {
					continue
				}
				for lane := 0; lane < 3; lane++ {
					if got := x[4*i+lane]; !sameBits(got, want[lane][i]) {
						t.Fatalf("n=%d half=%d lane %d: output %d = %v, Forward gives %v", n, half, lane, i, got, want[lane][i])
					}
				}
			}
		}
	}
}

// NaN written into every slot a skipped butterfly would have written never
// reaches a kept output: the schedule leaves out only dead slots. The
// poisoned transform below runs the scalar Forward dataflow, overwriting
// the outputs of every butterfly the schedule skips with NaN.
func TestForwardPrunedDeadSlotsNeverReachKeptOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	nan := complex(math.NaN(), math.NaN())
	for n := 8; n <= 1024; n *= 2 {
		p, _ := NewPlan(n)
		in := randVec(rng, n)
		want := append([]complex128(nil), in...)
		p.Forward(want)
		for _, half := range keptHalves(n) {
			ot := p.outTable(half)
			x := make([]complex128, n)
			for i, r := range p.tab.rev {
				x[r] = in[i]
			}
			for s := 1; s <= p.logN; s++ {
				m := 1 << (s - 1)
				tw := p.tab.twidF[p.tab.stageAt[s] : p.tab.stageAt[s]+m]
				runs := make([]bool, m)
				for _, r := range ot.stages[s-1] {
					for j := r.j0; j < r.j0+len(r.tw); j++ {
						runs[j] = true
					}
				}
				for k := 0; k < n; k += 2 * m {
					for j := 0; j < m; j++ {
						if !runs[j] {
							x[k+j], x[k+j+m] = nan, nan
							continue
						}
						t := tw[j] * x[k+j+m]
						u := x[k+j]
						x[k+j] = u + t
						x[k+j+m] = u - t
					}
				}
			}
			for i := 0; i < n; i++ {
				if kept(i, n, half) && !sameBits(x[i], want[i]) {
					t.Fatalf("n=%d half=%d: kept output %d = %v after poisoning dead slots, want %v", n, half, i, x[i], want[i])
				}
			}
		}
	}
}

// adjointFields returns a random amplitude, dL/dI (with signed zeros, whose
// sign the fused product must treat like the dense one) and kernel.
func adjointFields(rng *rand.Rand, m, pk int) (*grid.CMat, *grid.Mat, *grid.CMat) {
	amp := randCMatFFT(rng, m, m)
	d := grid.NewMat(m, m)
	for i := range d.Data {
		switch i % 17 {
		case 3:
			d.Data[i] = math.Copysign(0, -1)
		case 5:
			d.Data[i] = 0
		default:
			d.Data[i] = rng.NormFloat64()
		}
	}
	return amp, d, randCMatFFT(rng, pk, pk)
}

// denseAdjointPatch is the dense oracle: KernelAdjointPatch of the full
// forward transform of dLdI ⊙ amp.
func denseAdjointPatch(plan *Plan2, d *grid.Mat, amp, kernel *grid.CMat, scale complex128) *grid.CMat {
	prod := grid.NewCMat(amp.W, amp.H)
	for i, v := range amp.Data {
		prod.Data[i] = v * complex(d.Data[i], 0)
	}
	plan.Forward(prod)
	return KernelAdjointPatch(nil, prod, kernel, scale)
}

// tiledCopy returns amp in the tiled layout AdjointPatch reads (Tile4).
func tiledCopy(amp *grid.CMat) *grid.CMat {
	out := grid.NewCMat(amp.W, amp.H)
	Tile4(out, amp)
	return out
}

// The 2-D patch from the tiled amplitude equals
// KernelAdjointPatch(Forward(dLdI ⊙ A)) of the row-major one at tolerance
// 0 (raw bits) across grid sizes (one band of up to sixteen rows and
// many), kernel supports (every lane count of the last column group),
// reused and poisoned destinations. A side not divisible by 4 panics.
func TestAdjointPatchBitIdenticalToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	func() {
		plan, err := NewPlan2(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		amp, d, kernel := adjointFields(rng, 2, 1)
		defer func() {
			if recover() == nil {
				t.Error("AdjointPatch accepted m=2, a side not divisible by 4")
			}
		}()
		plan.AdjointPatch(nil, d, amp, kernel, 1)
	}()
	for _, m := range []int{4, 8, 16, 32, 64, 128, 256, 512} {
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		supports := []int{1, 3, 5, 7, 13, 27, 35, m - 1}
		for _, pk := range supports {
			if pk > m || pk%2 == 0 {
				continue
			}
			amp, d, kernel := adjointFields(rng, m, pk)
			scale := complex(rng.Float64()+0.5, 0)
			want := denseAdjointPatch(plan, d, amp, kernel, scale)
			dst := grid.NewCMat(pk, pk)
			for i := range dst.Data {
				dst.Data[i] = complex(math.NaN(), math.Inf(1))
			}
			got := plan.AdjointPatch(dst, d, tiledCopy(amp), kernel, scale)
			if got != dst {
				t.Fatalf("m=%d P=%d: a P×P destination was not reused", m, pk)
			}
			if i, ok := equalBits(got, want); !ok {
				t.Fatalf("m=%d P=%d: patch cell %d = %v, dense adjoint gives %v", m, pk, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// Stale NaN in the pooled scratch — the row band and the kept-column
// slab, including the unused lanes of the last column group — never
// reaches the patch.
func TestAdjointPatchIgnoresPoisonedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const m, pk = 64, 13
	plan, _ := NewPlan2(m, m)
	amp, d, kernel := adjointFields(rng, m, pk)
	want := denseAdjointPatch(plan, d, amp, kernel, 1)
	tiled := tiledCopy(amp)
	nan := complex(math.NaN(), math.NaN())
	for rep := 0; rep < 3; rep++ {
		bbp := plan.adjBands.Get().(*[]complex128)
		sbp := plan.slabBufs.Get().(*[]complex128)
		*sbp = make([]complex128, ((pk+3)/4)*4*m)
		for _, b := range [][]complex128{*bbp, *sbp} {
			for i := range b {
				b[i] = nan
			}
		}
		plan.slabBufs.Put(sbp)
		plan.adjBands.Put(bbp)
		got := plan.AdjointPatch(nil, d, tiled, kernel, 1)
		if i, ok := equalBits(got, want); !ok {
			t.Fatalf("rep %d: patch cell %d = %v after poisoning scratch, want %v", rep, i, got.Data[i], want.Data[i])
		}
	}
}

// The input-pruned inverse runs as many butterflies as the output-pruned
// forward of the same band (transposed flow graphs), which is what lets
// InverseBandButterflies use the output schedule's count: counted here
// block by block from the inverse's own skip table.
func TestInputAndOutputPrunedCountsAgree(t *testing.T) {
	for n := 8; n <= 2048; n *= 2 {
		p, _ := NewPlan(n)
		for _, half := range keptHalves(n) {
			bt := p.bandTable(half)
			ran := 0
			for s, sm := range bt.stages {
				for b := 0; b < n>>(s+1); b++ {
					if sm.dense || sm.nz[b] {
						ran += 1 << s // a block of stage s+1 holds 2^s butterflies
					}
				}
			}
			if got := p.prunedButterflies(half); got != ran {
				t.Errorf("n=%d half=%d: input-pruned inverse runs %d butterflies, the count says %d", n, half, ran, got)
			}
		}
	}
}

// The butterfly counts behind the design, at P = 27 (kept half 13). One
// length-256 pruned forward runs stages 1–5 dense (5·128) and then 27
// butterflies per block of stages 6–8 (108 + 54 + 27): 829 of the dense
// 1024. At 512 it is 5·256 + 216 + 108 + 54 + 27 = 1685 of 2304. The 2-D
// adjoint then runs 2.2× fewer butterflies than the dense m×m forward at
// m = 256 and 2.6× fewer at m = 512.
func TestButterflyCounts(t *testing.T) {
	for _, tc := range []struct {
		m, perTransform int
		ratio           string
	}{{256, 829, "2.2"}, {512, 1685, "2.6"}} {
		plan, _ := NewPlan2(tc.m, tc.m)
		if got := plan.rowP.outTable(13).butterflies; got != tc.perTransform {
			t.Errorf("m=%d: pruned forward runs %d butterflies, want %d", tc.m, got, tc.perTransform)
		}
		dense := plan.Butterflies()
		if want := int64(2 * tc.m * (tc.m / 2 * plan.rowP.logN)); dense != want {
			t.Errorf("m=%d: dense 2-D transform counts %d butterflies, want %d", tc.m, dense, want)
		}
		pruned := plan.AdjointPatchButterflies(27)
		if want := int64((tc.m + 27) * tc.perTransform); pruned != want {
			t.Errorf("m=%d: adjoint patch counts %d butterflies, want %d", tc.m, pruned, want)
		}
		if r := fmt.Sprintf("%.1f", float64(dense)/float64(pruned)); r != tc.ratio {
			t.Errorf("m=%d: dense/pruned adjoint butterflies = %s×, want %s×", tc.m, r, tc.ratio)
		}
		if got, want := plan.InverseBandButterflies(BandSpec{Half: 13}), int64((27+tc.m)*tc.perTransform); got != want {
			t.Errorf("m=%d: band inverse counts %d butterflies, want %d", tc.m, got, want)
		}
	}
}
