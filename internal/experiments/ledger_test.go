package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// ledgerCounters are the exact, host-independent work counts the ledger
// pins: transforms and simulations run, and their butterflies per phase.
var ledgerCounters = []string{
	"litho.kernel_ffts", "litho.forward_sims", "litho.adjoint_calls",
	"litho.fft_forward_butterflies", "litho.fft_inverse_butterflies", "litho.adjoint_butterflies",
}

// TestWorkLedger is the work golden of the ILT flow: paper case 1 through
// the fast and exact recipes (budgets divided so each stage runs once or
// twice) plus metrics.Evaluate, at the iltbench shapes — fast at n = 256,
// exact at n = 512 so a 512-px gradient runs, both with 12 kernels. The
// counts repeat exactly on any host, so they are held at tolerance 0; a
// change that moves the work updates the golden and says why.
//
// fast: 2 iterations (m = 64, then m = 256), each one mask spectrum and
// two SOCS passes (inner, outer), and two adjoints; Evaluate at 256 is one
// spectrum and two SOCS passes (the nominal and outer corners share the
// nominal kernel set) for three corner images. Amplitudes are kept only at
// m ≤ L = 64 (the smallest power of two above 2P−1 = 53), so the 64-px
// adjoints read kept amplitudes and the 256-px ones run on the L grid,
// rebuilding the 12 amplitudes at 64 px: 48 + 24 + 24 = 96 kernel
// transforms. exact: 3 iterations (two at m = 128, one at m = 512), every
// adjoint on the L grid: 72 + 24 + 6·12 = 168 kernel transforms;
// Evaluate at 512 as above.
//
// A mask spectrum is the P×P kernel band alone (P = 27, h = 13):
// (m/2 + P)·prunedButterflies(13) butterflies, m/2 output-pruned row pair
// transforms and P output-pruned columns. A pruned transform runs every
// butterfly of the stages whose half-block 2^(s−1) is at most 27, and 27
// per block after that: 5·32 + 27 = 187 at m = 64, 5·64 + 54 + 27 = 401
// at 128, 5·128 + 108 + 54 + 27 = 829 at 256 and 1685 at 512. fast takes
// one spectrum at 64 and two at 256: 59·187 + 2·155·829 = 268023; exact
// two at 128 and two at 512: 2·91·401 + 2·283·1685 = 1026692.
//
// An adjoint at m = L = 64 runs 12 patches and the final band inverse,
// each 91·187 = 17017 butterflies: 13·17017 = 221221. An adjoint above L
// at m runs the (2P−1)² band of F(dLdI) at m, (m/2 + 53) output-pruned
// transforms of half 26 (stages whose half-block is at most 53 whole, 53
// per block after: 6·64 + 53 = 437 at 128, 6·128 + 106 + 53 = 927 at 256,
// 6·256 + 212 + 106 + 53 = 1907 at 512); that band's inverse at 64, which
// a half of 26 does not prune, (53 + 64)·192 = 22464; per kernel a band
// inverse and a patch at 64, 12·2·17017 = 408408; and the final inverse
// at m, (27 + m)·pruned(13). At 128: 117·437 + 22464 + 408408 + 155·401 =
// 544156; at 256: 181·927 + 22464 + 408408 + 283·829 = 833266; at 512:
// 309·1907 + 22464 + 408408 + 539·1685 = 1928350. fast: 2·221221 +
// 2·833266 = 2108974; exact: 4·544156 + 2·1928350 = 6033324.
//
// The same runs pin the flow's bits: the final parameters, mask and
// Evaluate report of each recipe must hash to its digest (flowDigest).
// The FFT-engine changes kept them, except the adjoint on the L grid,
// which is exact to rounding only and moved them; a change that moves them on
// purpose updates them and says why. They are amd64 bits, like the kernel
// digests of TestKernelBitsPinned: targets that fuse multiply-adds compute
// other, equally valid masks, so the digest is checked only on amd64.
func TestWorkLedger(t *testing.T) {
	for _, tc := range []struct {
		recipe string
		cfg    Config
		stages []core.Stage
		want   map[string]int64
		digest string
	}{
		{"fast", Config{N: 256, FieldNM: 1024, Kernels: 12, IterDiv: 35}, core.FastM1(), map[string]int64{
			"litho.kernel_ffts": 96, "litho.forward_sims": 7, "litho.adjoint_calls": 4,
			"litho.fft_forward_butterflies": 268023, "litho.fft_inverse_butterflies": 11669544, "litho.adjoint_butterflies": 2108974,
		}, "85117e2a656d2fec6bef6296f5943253ba4df1e01696085831c2516951a27fc4"},
		{"exact", Config{N: 512, FieldNM: 1024, Kernels: 12, IterDiv: 40}, core.ExactM1(), map[string]int64{
			"litho.kernel_ffts": 168, "litho.forward_sims": 9, "litho.adjoint_calls": 6,
			"litho.fft_forward_butterflies": 1026692, "litho.fft_inverse_butterflies": 46577760, "litho.adjoint_butterflies": 6033324,
		}, "24bb381c6e92a431ed8629971adb387baa7ce68c7ac6c12b1938a9e17460ae74"},
	} {
		rec := telemetry.New()
		tc.cfg.Recorder = rec
		sim, err := tc.cfg.Sim()
		if err != nil {
			t.Fatal(err)
		}
		cs, err := bench.PaperCase(tc.cfg.N, tc.cfg.FieldNM, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions(sim)
		opts.Recorder = rec
		o, err := core.New(opts, cs.Target)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(context.Background(), core.ScaleStages(tc.stages, tc.cfg.IterDiv))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := metrics.Evaluate(sim, res.Mask, cs.Target)
		if err != nil {
			t.Fatal(err)
		}
		if runtime.GOARCH == "amd64" {
			if got := flowDigest(res, rep); got != tc.digest {
				t.Errorf("%s: flow digest %s, want %s", tc.recipe, got, tc.digest)
			}
		}
		got := rec.Counters()
		for _, name := range ledgerCounters {
			if got[name] != tc.want[name] {
				t.Errorf("%s: %s = %d, want %d", tc.recipe, name, got[name], tc.want[name])
			}
		}
	}
}

// flowDigest returns a SHA-256 over a flow's final parameters and mask
// (every value as little-endian float64 bits, row-major) and its Evaluate
// report: L2 and PVB as float64 bits, then EPE and Shots as int64. The
// report's TAT is a wall time and stays out.
func flowDigest(res *core.Result, rep metrics.Report) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, m := range [][]float64{res.Params.Data, res.Mask.Data} {
		for _, v := range m {
			put(math.Float64bits(v))
		}
	}
	put(math.Float64bits(rep.L2))
	put(math.Float64bits(rep.PVB))
	put(uint64(int64(rep.EPE)))
	put(uint64(int64(rep.Shots)))
	return hex.EncodeToString(h.Sum(nil))
}
