package fft

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// stage4Call is one stage4 call's schedule.
type stage4Call struct {
	half, j0 int
	tw       []complex128
	nz       []bool
}

// stage4Schedule is one four-lane transform: per stage, its stage4 calls.
type stage4Schedule struct {
	name   string
	stages [][]stage4Call
}

// stage4Schedules lists, for length n, the dense inverse schedule, the
// input-pruned one of every band half-width 1 … 17 (P = 3 … 35) and the
// output-pruned runs of the same widths — every shape the batch engine
// hands stage4.
func stage4Schedules(p *Plan) []stage4Schedule {
	var dense [][]stage4Call
	for s := 1; s <= p.logN; s++ {
		half := 1 << (s - 1)
		dense = append(dense, []stage4Call{{half, 0, p.tab.twidI[p.tab.stageAt[s] : p.tab.stageAt[s]+half], nil}})
	}
	out := []stage4Schedule{{"dense", dense}}
	for h := 1; h <= 17 && 2*h+1 < p.n; h++ {
		bt := p.bandTable(h)
		var band [][]stage4Call
		for s := 1; s <= p.logN; s++ {
			half := 1 << (s - 1)
			band = append(band, []stage4Call{{half, 0, p.tab.twidI[p.tab.stageAt[s] : p.tab.stageAt[s]+half], bt.stages[s-1].nz}})
		}
		out = append(out, stage4Schedule{fmt.Sprintf("band P=%d", 2*h+1), band})
		var runs [][]stage4Call
		for i, rs := range p.outTable(h).stages {
			var calls []stage4Call
			for _, r := range rs {
				calls = append(calls, stage4Call{1 << i, r.j0, r.tw, nil})
			}
			runs = append(runs, calls)
		}
		out = append(out, stage4Schedule{fmt.Sprintf("out P=%d", 2*h+1), runs})
	}
	return out
}

// stage4Ref is one stage4 call on one lane, written from the contract:
// butterflies j0 … j0+len(tw)−1 of every block nz lets through.
func stage4Ref(x []complex128, lane int, c stage4Call) {
	for b := 0; b < len(x)/4/(2*c.half); b++ {
		if c.nz != nil && !c.nz[b] {
			continue
		}
		for j := c.j0; j < c.j0+len(c.tw); j++ {
			ia, ib := 4*(2*c.half*b+j)+lane, 4*(2*c.half*b+j+c.half)+lane
			t := c.tw[j-c.j0] * x[ib]
			x[ia], x[ib] = x[ia]+t, x[ia]-t
		}
	}
}

// stage4Input draws one float from ±0, subnormals and magnitudes
// 1e−300 … 1e300.
func stage4Input(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	default:
		return sign * (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(601)-300))
	}
}

// stage4Same reports whether a and b agree: bit for bit where both are
// finite, and non-finite in both otherwise (NaN payloads may follow
// operand order).
func stage4Same(a, b complex128) bool {
	return sameFloat(real(a), real(b)) && sameFloat(imag(a), imag(b))
}

func sameFloat(a, b float64) bool {
	if finite(a) && finite(b) {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return !finite(a) && !finite(b)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// The assembly kernel performs exactly stage4Generic's IEEE-754 operations,
// so on every stage of every schedule the two agree to the bit; and the
// generic loop is, lane by lane, the stage the contract describes. Where
// the host has no assembly kernel only the generic half runs.
func TestStage4MatchesGeneric(t *testing.T) {
	t.Logf("stage4 kernel: %s (GOARCH=%s)", Kernel(), runtime.GOARCH)
	asm := Kernel() == "avx"
	if !asm {
		t.Logf("assembly half skipped: no AVX kernel on GOARCH=%s or the CPU/OS lacks AVX", runtime.GOARCH)
	}
	stage4(nil, 1, 0, []complex128{1}, nil) // an empty buffer is an empty stage
	rng := rand.New(rand.NewSource(18))
	for n := 4; n <= 2048; n *= 2 {
		p, _ := NewPlan(n)
		for _, sched := range stage4Schedules(p) {
			for _, poison := range []bool{false, true} {
				ref := make([]complex128, 4*n)
				for i := range ref {
					ref[i] = complex(stage4Input(rng), stage4Input(rng))
				}
				if poison {
					ref[rng.Intn(len(ref))] = complex(math.Inf(1), 0)
					ref[rng.Intn(len(ref))] = complex(0, math.NaN())
					ref[rng.Intn(len(ref))] = complex(math.Inf(-1), 1)
				}
				gen := append([]complex128(nil), ref...)
				avx := append([]complex128(nil), ref...)
				for s, calls := range sched.stages {
					for _, c := range calls {
						for lane := 0; lane < 4; lane++ {
							stage4Ref(ref, lane, c)
						}
						stage4Generic(gen, c.half, c.j0, c.tw, c.nz)
						if asm {
							stage4(avx, c.half, c.j0, c.tw, c.nz)
						}
					}
					for i, g := range gen {
						if !poison && !(finite(real(g)) && finite(imag(g))) {
							t.Fatalf("n=%d %s stage %d slot %d: finite input gave %v", n, sched.name, s+1, i, g)
						}
						if !stage4Same(g, ref[i]) {
							t.Fatalf("n=%d %s poison=%v stage %d slot %d: generic %v, lane reference %v", n, sched.name, poison, s+1, i, g, ref[i])
						}
						if asm && !stage4Same(avx[i], g) {
							t.Fatalf("n=%d %s poison=%v stage %d slot %d: avx %v, generic %v", n, sched.name, poison, s+1, i, avx[i], g)
						}
					}
				}
			}
		}
	}
}

// The wrapper rejects a malformed schedule before any kernel runs: the
// buffer is untouched.
func TestStage4RejectsBadSchedule(t *testing.T) {
	tw := []complex128{1, 1i, -1, -1i}
	for _, c := range []struct {
		name     string
		n        int // len(x)
		half, j0 int
		tw       []complex128
		nz       []bool
	}{
		{"half not a power of two", 4 * 12, 3, 0, tw[:3], nil},
		{"butterflies past the half-block", 4 * 8, 2, 1, tw[:2], nil},
		{"short block flags", 4 * 8, 2, 0, tw[:2], []bool{true}},
		{"length not a multiple of 4", 4*8 + 2, 2, 0, tw[:2], nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			x := make([]complex128, c.n)
			for i := range x {
				x[i] = complex(float64(i), 1)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("stage4 accepted the schedule")
				}
				for i, v := range x {
					if v != complex(float64(i), 1) {
						t.Fatalf("slot %d changed to %v before the panic", i, v)
					}
				}
			}()
			stage4(x, c.half, c.j0, c.tw, c.nz)
		})
	}
}

// foldWeights lists the weights the fold properties run at: zero, both
// signs, a subnormal and ordinary magnitudes.
var foldWeights = []float64{0, math.Copysign(0, -1), 1, -2.5, 0.37, math.SmallestNonzeroFloat64 * 3, 1e-300, 1e300}

// The assembly fold performs exactly foldGeneric's IEEE-754 operations, so
// on every length 4 … 8192 (multiples of 4), on inputs from ±0, subnormals
// and magnitudes 1e−300 … 1e300, at zero, negative and subnormal weights,
// the two agree to the bit; poisoned with NaN and Inf, both give
// non-finite values in the same slots. foldGeneric itself is the Go
// expression fb[i] += w·(re² + im²). Where the host has no assembly kernel
// only the generic half runs.
func TestFoldMatchesGeneric(t *testing.T) {
	t.Logf("fold kernel: %s (GOARCH=%s)", Kernel(), runtime.GOARCH)
	asm := Kernel() == "avx"
	if !asm {
		t.Logf("assembly half skipped: no AVX kernel on GOARCH=%s or the CPU/OS lacks AVX", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(19))
	var lengths []int
	for n := 4; n <= 64; n += 4 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 100, 512, 1020, 2048, 4096, 8192)
	for _, n := range lengths {
		for _, w := range foldWeights {
			for _, poison := range []bool{false, true} {
				fb := make([]float64, n)
				cb := make([]complex128, n+rng.Intn(3)) // cb may be longer than fb
				for i := range fb {
					fb[i] = stage4Input(rng)
				}
				for i := range cb {
					cb[i] = complex(stage4Input(rng), stage4Input(rng))
				}
				if poison {
					cb[rng.Intn(n)] = complex(math.NaN(), 1)
					cb[rng.Intn(n)] = complex(0, math.Inf(-1))
					fb[rng.Intn(n)] = math.Inf(1)
					fb[rng.Intn(n)] = math.NaN()
				}
				gen := append([]float64(nil), fb...)
				foldGeneric(gen, cb, w)
				for i, c := range cb[:n] {
					re, im := real(c), imag(c)
					want := fb[i] + w*(re*re+im*im)
					if !sameFloat(gen[i], want) {
						t.Fatalf("n=%d w=%g slot %d: generic %v, the expression gives %v", n, w, i, gen[i], want)
					}
				}
				if !asm {
					continue
				}
				avx := append([]float64(nil), fb...)
				fold4(avx, cb, w)
				for i := range avx {
					if !sameFloat(avx[i], gen[i]) {
						t.Fatalf("n=%d w=%g poison=%v slot %d: avx %v (%#x), generic %v (%#x)", n, w, poison, i,
							avx[i], math.Float64bits(avx[i]), gen[i], math.Float64bits(gen[i]))
					}
				}
			}
		}
	}
}

// fold4 rejects a shape the kernel cannot run before touching anything:
// fewer amplitudes than intensities, or a length not a multiple of 4.
func TestFoldRejectsBadShape(t *testing.T) {
	for _, c := range []struct {
		name   string
		nf, nc int
	}{
		{"short amplitudes", 8, 4},
		{"length not a multiple of 4", 6, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			fb := make([]float64, c.nf)
			cb := make([]complex128, c.nc)
			for i := range cb {
				cb[i] = 1
			}
			defer func() {
				if recover() == nil {
					t.Fatal("fold4 accepted the shape")
				}
				for i, v := range fb {
					if v != 0 {
						t.Fatalf("slot %d changed to %v before the panic", i, v)
					}
				}
			}()
			fold4(fb, cb, 1)
		})
	}
	fold4(nil, nil, 1) // an empty block is an empty fold
}

// gatherInput draws one float like stage4Input, or, one time in eight, an
// infinity or a NaN.
func gatherInput(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return math.Inf(1 - 2*rng.Intn(2))
	case 1:
		return math.NaN()
	}
	return stage4Input(rng)
}

// The assembly gather performs exactly gatherGeneric's IEEE-754
// operations, so on every 16-row band of every grid m = 4 … 1024, with
// ±0, subnormals, magnitudes 1e−300 … 1e300, Inf and NaN in both the
// amplitude and dL/dI, the two agree to the bit (non-finite in both where
// a product is); and gatherGeneric itself writes amp·complex(d, 0) of
// tiled element (x, y) into lane (y − y0) % 4 of slot rev(x) of group
// (y − y0) / 4. Where the host has no assembly kernel only the generic
// half runs.
func TestGatherMatchesGeneric(t *testing.T) {
	t.Logf("gather kernel: %s (GOARCH=%s)", Kernel(), runtime.GOARCH)
	asm := Kernel() == "avx"
	if !asm {
		t.Logf("assembly half skipped: no AVX kernel on GOARCH=%s or the CPU/OS lacks AVX", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(20))
	for m := 4; m <= 1024; m *= 2 {
		p, _ := NewPlan(m)
		amp := make([]complex128, m*m) // tiled
		d := make([]float64, m*m)
		for i := range amp {
			amp[i] = complex(gatherInput(rng), gatherInput(rng))
			d[i] = gatherInput(rng)
		}
		rows := min(gatherRows, m)
		for y0 := 0; y0 < m; y0 += rows {
			gen := make([]complex128, rows*m)
			gatherGeneric(gen, amp, d, p.tab.rev, y0)
			for y := y0; y < y0+rows; y++ {
				for x := 0; x < m; x++ {
					g, lane := (y-y0)/4, (y-y0)%4
					got := gen[4*m*g+4*int(p.tab.rev[x])+lane]
					want := amp[(x/4)*4*m+4*y+x%4] * complex(d[y*m+x], 0)
					if !stage4Same(got, want) {
						t.Fatalf("m=%d y0=%d: generic product (%d, %d) = %v, the expression gives %v", m, y0, x, y, got, want)
					}
				}
			}
			if !asm {
				continue
			}
			avx := make([]complex128, rows*m)
			for i := range avx {
				avx[i] = complex(math.NaN(), math.NaN())
			}
			p.gatherTiles(avx, amp, d, y0)
			for i := range avx {
				if !stage4Same(avx[i], gen[i]) {
					t.Fatalf("m=%d y0=%d slot %d: avx %v, generic %v", m, y0, i, avx[i], gen[i])
				}
			}
		}
	}
}

// gatherTiles rejects a band the kernel cannot fill before touching
// anything: a partial four-row group, rows past the grid, or a short
// amplitude.
func TestGatherRejectsBadShape(t *testing.T) {
	const m = 16
	p, _ := NewPlan(m)
	for _, c := range []struct {
		name      string
		band, amp int
		y0        int
	}{
		{"partial group", 4*m + 1, m * m, 0},
		{"rows past the grid", 8 * m, m * m, 12},
		{"short amplitude", 4 * m, m*m - 1, 0},
		{"empty band", 0, m * m, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			band := make([]complex128, c.band)
			defer func() {
				if recover() == nil {
					t.Fatal("gatherTiles accepted the shape")
				}
				for i, v := range band {
					if v != 0 {
						t.Fatalf("slot %d changed to %v before the panic", i, v)
					}
				}
			}()
			p.gatherTiles(band, make([]complex128, c.amp), make([]float64, m*m), c.y0)
		})
	}
}
