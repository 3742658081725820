package fullchip

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/metrics"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

var (
	simOnce   sync.Once
	sharedSim *litho.Sim
)

func testSim(t testing.TB) *litho.Sim {
	t.Helper()
	simOnce.Do(func() {
		m, err := optics.BuildModel(optics.TestScale())
		if err != nil {
			panic(err)
		}
		sharedSim = litho.NewSim(m)
	})
	return sharedSim
}

func TestExtractZeroPads(t *testing.T) {
	m := grid.NewMat(10, 8)
	m.Fill(1)
	tile := extract(m, -3, -2, 8)
	// Rows 0..1 and columns 0..2 of the tile hang off the layout.
	if tile.At(0, 0) != 0 || tile.At(2, 1) != 0 {
		t.Error("out-of-layout pixels not zero")
	}
	if tile.At(3, 2) != 1 {
		t.Error("in-layout pixel lost")
	}
	// Fully outside window is all zero.
	empty := extract(m, 100, 100, 8)
	if empty.Sum() != 0 {
		t.Error("far-outside window not empty")
	}
}

func TestCommitClipsToOutput(t *testing.T) {
	out := grid.NewMat(10, 10)
	tile := grid.NewMat(8, 8)
	tile.Fill(1)
	commit(out, tile, 7, 7, 2, 4) // core extends past the output edge
	if out.At(9, 9) != 1 {
		t.Error("in-bounds core pixel not committed")
	}
	if out.Sum() != 9 {
		t.Errorf("committed area %v, want 9 (3x3 clipped)", out.Sum())
	}
}

func TestOptimizeValidation(t *testing.T) {
	sim := testSim(t)
	tgt := grid.NewMat(64, 64)
	stages := []core.Stage{{Scale: 2, Iters: 1}}
	cases := []Options{
		{Sim: nil, TileSize: 64, Stages: stages},
		{Sim: sim, TileSize: 48, Stages: stages},
		{Sim: sim, TileSize: 64, Halo: 32, Stages: stages},
		{Sim: sim, TileSize: 64, Halo: -1, Stages: stages},
		{Sim: sim, TileSize: 64},
	}
	for i, opt := range cases {
		if _, err := Optimize(opt, tgt); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

// TestTiledMatchesMonolithicQuality: a non-power-of-two layout is tiled,
// optimized, stitched, and must print essentially as well as a monolithic
// run over the enclosing power-of-two grid.
func TestTiledMatchesMonolithicQuality(t *testing.T) {
	sim := testSim(t)
	// 192×160 layout (not square, not a power of two).
	tgt := grid.NewMat(192, 160)
	geom.FillRect(tgt, geom.Rect{X0: 30, Y0: 40, X1: 90, Y1: 60}, 1)
	geom.FillRect(tgt, geom.Rect{X0: 110, Y0: 90, X1: 170, Y1: 110}, 1)
	geom.FillRect(tgt, geom.Rect{X0: 30, Y0: 100, X1: 80, Y1: 120}, 1)

	stages := []core.Stage{{Scale: 4, Iters: 20}}
	halo := HaloFor(sim, 4) // TestScale at 128-px tiles → 4 nm/px
	if 2*halo >= 128 {
		t.Fatalf("halo %d too large for the test tile", halo)
	}
	res, err := Optimize(Options{
		Sim: sim, TileSize: 128, Halo: halo, Stages: stages, SkipEmpty: true,
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mask.W != 192 || res.Mask.H != 160 {
		t.Fatalf("stitched mask size %dx%d", res.Mask.W, res.Mask.H)
	}
	if res.TilesRun == 0 || res.TilesRun > res.TilesTotal {
		t.Fatalf("tile accounting: ran %d of %d", res.TilesRun, res.TilesTotal)
	}

	// Evaluate by embedding into a 256² frame at the SAME 4 nm pixel pitch,
	// which requires an optics model with a 1024 nm field (the pitch
	// invariant documented on Options).
	evalCfg := optics.TestScale()
	evalCfg.FieldNM = 1024
	evalModel, err := optics.BuildModel(evalCfg)
	if err != nil {
		t.Fatal(err)
	}
	evalSim := litho.NewSim(evalModel)
	embed := func(m *grid.Mat) *grid.Mat {
		out := grid.NewMat(256, 256)
		for y := 0; y < m.H; y++ {
			copy(out.Data[(48+y)*out.W+32:], m.Data[y*m.W:(y+1)*m.W])
		}
		return out
	}
	embTarget := embed(tgt)
	embTiled := embed(res.Mask)

	mono, err := core.New(core.DefaultOptions(evalSim), embTarget)
	if err != nil {
		t.Fatal(err)
	}
	monoRes, err := mono.Run(context.Background(), stages)
	if err != nil {
		t.Fatal(err)
	}

	tiledRep, err := metrics.Evaluate(evalSim, embTiled, embTarget)
	if err != nil {
		t.Fatal(err)
	}
	monoRep, err := metrics.Evaluate(evalSim, monoRes.Mask, embTarget)
	if err != nil {
		t.Fatal(err)
	}
	rawRep, err := metrics.Evaluate(evalSim, embTarget, embTarget)
	if err != nil {
		t.Fatal(err)
	}
	if tiledRep.L2 >= rawRep.L2 {
		t.Errorf("tiled flow did not improve over raw mask: %v vs %v", tiledRep.L2, rawRep.L2)
	}
	if tiledRep.L2 > 1.5*monoRep.L2+50 {
		t.Errorf("tiled L2 %v far above monolithic %v — stitching seams?", tiledRep.L2, monoRep.L2)
	}
}

func TestSkipEmptyTiles(t *testing.T) {
	sim := testSim(t)
	// One feature in the corner of a large sparse layout.
	tgt := grid.NewMat(256, 256)
	geom.FillRect(tgt, geom.Rect{X0: 10, Y0: 10, X1: 50, Y1: 30}, 1)
	res, err := Optimize(Options{
		Sim: sim, TileSize: 64, Halo: 12,
		Stages: []core.Stage{{Scale: 2, Iters: 2}}, SkipEmpty: true,
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TilesRun >= res.TilesTotal {
		t.Errorf("no tiles skipped on a sparse layout: %d of %d", res.TilesRun, res.TilesTotal)
	}
	// Mask stays dark away from the feature.
	if res.Mask.At(200, 200) != 0 {
		t.Error("mask opened in an empty region")
	}
}

// TestParallelTilesMatchSerial: the stitched mask, tile accounting and
// per-tile stats layout must be identical whether tiles run one at a time
// or through the worker pool — tile order must not leak into the result.
func TestParallelTilesMatchSerial(t *testing.T) {
	sim := testSim(t)
	tgt := grid.NewMat(192, 160)
	geom.FillRect(tgt, geom.Rect{X0: 30, Y0: 40, X1: 90, Y1: 60}, 1)
	geom.FillRect(tgt, geom.Rect{X0: 110, Y0: 90, X1: 170, Y1: 110}, 1)
	geom.FillRect(tgt, geom.Rect{X0: 20, Y0: 120, X1: 70, Y1: 140}, 1)

	base := Options{
		Sim: sim, TileSize: 128, Halo: HaloFor(sim, 4),
		Stages: []core.Stage{{Scale: 4, Iters: 6}}, SkipEmpty: true,
	}
	serialOpt := base
	serialOpt.Workers = 1
	serial, err := Optimize(serialOpt, tgt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 0} { // 0 = GOMAXPROCS
		parOpt := base
		parOpt.Workers = workers
		par, err := Optimize(parOpt, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Mask.Equal(serial.Mask, 0) {
			t.Errorf("workers=%d: stitched mask differs from serial run", workers)
		}
		if par.TilesRun != serial.TilesRun || par.TilesTotal != serial.TilesTotal {
			t.Errorf("workers=%d: tile accounting %d/%d vs serial %d/%d",
				workers, par.TilesRun, par.TilesTotal, serial.TilesRun, serial.TilesTotal)
		}
		if len(par.TileSeconds) != par.TilesTotal {
			t.Errorf("workers=%d: %d tile timings for %d tiles", workers, len(par.TileSeconds), par.TilesTotal)
		}
		for idx := range par.TileSeconds {
			if (par.TileSeconds[idx] > 0) != (serial.TileSeconds[idx] > 0) {
				t.Errorf("workers=%d: tile %d run/skip state differs from serial", workers, idx)
			}
		}
	}
}

// TestPerTileStatsConsistent: ILTSeconds must equal the sum of TileSeconds
// and only non-skipped tiles may report time.
func TestPerTileStatsConsistent(t *testing.T) {
	sim := testSim(t)
	tgt := grid.NewMat(256, 256)
	geom.FillRect(tgt, geom.Rect{X0: 10, Y0: 10, X1: 50, Y1: 30}, 1)
	res, err := Optimize(Options{
		Sim: sim, TileSize: 64, Halo: 12,
		Stages: []core.Stage{{Scale: 2, Iters: 2}}, SkipEmpty: true, Workers: 2,
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	ran := 0
	for _, s := range res.TileSeconds {
		if s > 0 {
			ran++
		}
		sum += s
	}
	if ran != res.TilesRun {
		t.Errorf("%d tiles with recorded time, %d reported run", ran, res.TilesRun)
	}
	if diff := sum - res.ILTSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum of TileSeconds %g != ILTSeconds %g", sum, res.ILTSeconds)
	}
	if res.WallSeconds <= 0 {
		t.Error("WallSeconds not recorded")
	}
}

func TestConfigureHookApplies(t *testing.T) {
	sim := testSim(t)
	tgt := grid.NewMat(64, 64)
	geom.FillRect(tgt, geom.Rect{X0: 20, Y0: 20, X1: 44, Y1: 44}, 1)
	called := false
	_, err := Optimize(Options{
		Sim: sim, TileSize: 64, Halo: 8,
		Stages: []core.Stage{{Scale: 2, Iters: 1}},
		Configure: func(o *core.Options) {
			called = true
			o.SmoothWindow = 0
		},
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("Configure hook never invoked")
	}
}

func TestTileErrorCarriesCoordinates(t *testing.T) {
	sim := testSim(t)
	tgt := grid.NewMat(96, 96)
	geom.FillRect(tgt, geom.Rect{X0: 8, Y0: 8, X1: 88, Y1: 88}, 1)
	// A Configure hook that poisons the option template makes every tile's
	// core.New fail; the reported error must be the row-major-first tile.
	_, err := Optimize(Options{
		Sim: sim, TileSize: 64, Halo: 8,
		Stages:    []core.Stage{{Scale: 4, Iters: 1}},
		Configure: func(o *core.Options) { o.LearningRate = -1 },
	}, tgt)
	if err == nil {
		t.Fatal("poisoned options accepted")
	}
	var te *TileError
	if !errors.As(err, &te) {
		t.Fatalf("error %T does not unwrap to *TileError: %v", err, err)
	}
	if te.TX != 0 || te.TY != 0 {
		t.Errorf("failing tile (%d,%d), want row-major first (0,0)", te.TX, te.TY)
	}
	if !strings.Contains(err.Error(), "tile (0,0)") {
		t.Errorf("error message %q missing tile coordinates", err.Error())
	}
	if te.Unwrap() == nil || !strings.Contains(te.Unwrap().Error(), "learning rate") {
		t.Errorf("unwrapped cause %v, want the core validation error", te.Unwrap())
	}
}

// eventSink retains events for assertions (fullchip emits tile events in
// row-major order after the pool joins, so the trace is deterministic).
type eventSink struct{ events []telemetry.Event }

func (s *eventSink) Emit(e telemetry.Event) { s.events = append(s.events, e) }
func (s *eventSink) Flush() error           { return nil }

func TestRecorderTileEventsRowMajor(t *testing.T) {
	sim := testSim(t)
	// 2×2 tile grid with content only in the top-left tile; SkipEmpty marks
	// the other three as skipped but they still get a tile event.
	tgt := grid.NewMat(96, 96)
	geom.FillRect(tgt, geom.Rect{X0: 4, Y0: 4, X1: 30, Y1: 30}, 1)
	sink := &eventSink{}
	rec := telemetry.New(telemetry.WithSink(sink))
	workers, engine, simRec := sim.Workers, sim.Engine, sim.Recorder
	res, err := Optimize(Options{
		Sim: sim, TileSize: 64, Halo: 8, SkipEmpty: true, Workers: 4,
		Stages:   []core.Stage{{Scale: 4, Iters: 1}},
		Recorder: rec,
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	// The tile events' recorder is not the shared simulator's.
	if sim.Workers != workers || sim.Engine != engine || sim.Recorder != simRec {
		t.Errorf("Optimize changed the shared simulator: workers %d, engine %v, recorder %p; want %d, %v, %p",
			sim.Workers, sim.Engine, sim.Recorder, workers, engine, simRec)
	}
	var tiles []telemetry.Event
	ends := 0
	for _, e := range sink.events {
		switch e.Name {
		case "tile":
			tiles = append(tiles, e)
		case "fullchip.end":
			ends++
		}
	}
	if len(tiles) != res.TilesTotal || ends != 1 {
		t.Fatalf("%d tile events (want %d) and %d fullchip.end (want 1)", len(tiles), res.TilesTotal, ends)
	}
	skipped := 0
	for i, e := range tiles {
		tx, _ := e.Fields["tx"].(int)
		ty, _ := e.Fields["ty"].(int)
		if tx != i%2 || ty != i/2 {
			t.Errorf("tile event %d at (%d,%d), want row-major (%d,%d)", i, tx, ty, i%2, i/2)
		}
		if b, _ := e.Fields["skipped"].(bool); b {
			skipped++
		}
	}
	if run := res.TilesTotal - skipped; run != res.TilesRun {
		t.Errorf("events report %d run tiles, result says %d", run, res.TilesRun)
	}
}

// TestBandEngineFlowsThroughTiles: the tile pool shares one Sim, so its
// FFT engine selection must reach every tile — the batch engine's
// tiles run band-pruned inverses, fewer butterflies than the dense
// reference's — and the batch must stitch the reference engine's mask.
func TestBandEngineFlowsThroughTiles(t *testing.T) {
	tgt := grid.NewMat(192, 160)
	geom.FillRect(tgt, geom.Rect{X0: 30, Y0: 40, X1: 90, Y1: 60}, 1)
	geom.FillRect(tgt, geom.Rect{X0: 110, Y0: 90, X1: 170, Y1: 110}, 1)

	run := func(e litho.FFTEngine) (*Result, int64) {
		sim := litho.NewSim(testSim(t).Model)
		sim.Engine = e
		rec := telemetry.New()
		sim.Recorder = rec
		res, err := Optimize(Options{
			Sim: sim, TileSize: 128, Halo: HaloFor(sim, 4),
			Stages: []core.Stage{{Scale: 4, Iters: 6}}, SkipEmpty: true, Workers: 2,
		}, tgt)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Counters()["litho.fft_inverse_butterflies"]
	}
	ref, refBF := run(litho.EngineReference)
	batch, batchBF := run(litho.EngineBatch)
	if !batch.Mask.Equal(ref.Mask, 0) {
		t.Error("batch engine stitched a different mask than the reference engine")
	}
	if batch.TilesRun != ref.TilesRun {
		t.Errorf("tile accounting differs: %d vs %d", batch.TilesRun, ref.TilesRun)
	}
	if batchBF <= 0 || batchBF >= refBF {
		t.Errorf("inverse butterflies: batch %d, reference %d; the batch tiles should run fewer", batchBF, refBF)
	}
}
