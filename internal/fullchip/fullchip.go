// Package fullchip scales the multi-level ILT flow beyond single clips: a
// layout of arbitrary size is partitioned into power-of-two tiles with halo
// overlap, each tile is optimized independently (the halo absorbs optical
// cross-talk, whose reach is bounded by the kernel interaction radius), and
// the optimized mask cores are stitched back together. This is the standard
// deployment shape of ILT (the paper's DAMO reference [13] targets the same
// full-chip setting); it also demonstrates that the library composes: the
// tile loop is embarrassingly parallel, and Optimize exploits that with a
// bounded worker pool. Tiles write disjoint core regions of the stitched
// mask and each tile's optimization is deterministic, so the result is
// bit-identical for every worker count.
package fullchip

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/telemetry"
)

// TileError identifies which tile of the grid failed. Optimize returns the
// row-major-first failure wrapped in one of these, so callers can recover
// the tile coordinates with errors.As instead of parsing the message.
type TileError struct {
	// TX, TY are the failing tile's grid coordinates (column, row).
	TX, TY int
	// Err is the underlying per-tile failure.
	Err error
}

func (e *TileError) Error() string {
	return fmt.Sprintf("fullchip: tile (%d,%d): %v", e.TX, e.TY, e.Err)
}

func (e *TileError) Unwrap() error { return e.Err }

// Options configures the tiled flow.
//
// Pixel-pitch invariant: a simulation grid of size n over an optics model
// with field F implies a pixel pitch of F/n. The tiled flow therefore
// requires an optics model whose FieldNM equals TileSize × (layout pixel
// pitch) — e.g. 512-px tiles of a 1 nm/px layout need a 512 nm-field model.
type Options struct {
	// Sim supplies the forward model (shared across tiles). Its FieldNM
	// must equal TileSize × the layout's pixel pitch.
	Sim *litho.Sim
	// TileSize is the per-tile simulation grid (power of two).
	TileSize int
	// Halo is the overlap margin in pixels. It must cover the optical
	// interaction radius — roughly the spatial support of the widest
	// kernel — or stitching seams will print. HaloFor picks a safe value.
	Halo int
	// Stages is the per-tile multi-level schedule.
	Stages []core.Stage
	// Configure, when set, can adjust the per-tile optimizer options
	// (penalties, learning rate, ...). The Sim field is pre-filled. It
	// is invoked once per Optimize call to build the option template shared
	// by every tile; anything it installs (GradHook, Penalties) must be
	// safe for concurrent use when Workers allows more than one tile in
	// flight.
	Configure func(*core.Options)
	// SkipEmpty skips tiles whose target (including halo) is blank; their
	// mask stays opaque. Defaults to true via New-style helpers; the zero
	// value runs every tile.
	SkipEmpty bool
	// Workers bounds how many tiles are optimized concurrently; ≤ 0 selects
	// runtime.GOMAXPROCS(0). The stitched mask is identical for every value
	// (tiles are independent and write disjoint core regions).
	Workers int
	// Recorder receives one "tile" event per tile (coordinates, seconds,
	// skip state, emitted in row-major order after the pool joins, so the
	// trace is deterministic) plus a "fullchip.end" summary. Nil disables
	// them. Phase timers go to Sim.Recorder, which Optimize never sets.
	// Per-tile iteration events stay off unless Configure installs its own
	// core recorder (they would interleave across tiles).
	Recorder *telemetry.Recorder
}

// Result is the stitched outcome.
type Result struct {
	// Mask is the stitched optimized mask, same size as the input target.
	Mask *grid.Mat
	// TilesTotal and TilesRun count the grid and the non-skipped tiles.
	TilesTotal, TilesRun int
	// ILTSeconds is the summed per-tile optimization time (CPU-side cost,
	// independent of how many tiles ran concurrently).
	ILTSeconds float64
	// WallSeconds is the elapsed wall-clock time of the tile loop; with
	// Workers > 1 it drops below ILTSeconds.
	WallSeconds float64
	// TileSeconds records each tile's optimization time in row-major tile
	// order (zero for skipped tiles), preserving per-tile stats regardless
	// of completion order.
	TileSeconds []float64
}

// HaloFor returns a safe halo for a simulator at the given pixel pitch: the
// optical interaction radius  ≈ 1 / (minimum resolvable pitch) is bounded
// by the kernel support in the frequency domain; its spatial reach is
// P/(2·Δf·n·pixel)… in practice the contest convention of ~0.5·P pixels of
// the native grid works; we take the kernel half-support plus margin.
func HaloFor(sim *litho.Sim, pixelNM float64) int {
	// The widest kernel's spatial extent is ≈ FieldNM / P (one frequency-
	// grid period over the kernel support); cover it with margin.
	field := sim.Model.Config.FieldNM
	reach := field / float64(sim.Model.Nominal.P) / pixelNM
	h := int(reach*1.5) + 8
	return h
}

// Optimize runs the tiled flow over a target of arbitrary (not necessarily
// square or power-of-two) size.
func Optimize(opt Options, target *grid.Mat) (*Result, error) {
	if opt.Sim == nil {
		return nil, fmt.Errorf("fullchip: Options.Sim is required")
	}
	t := opt.TileSize
	if t < 8 || t&(t-1) != 0 {
		return nil, fmt.Errorf("fullchip: tile size %d must be a power of two ≥ 8", t)
	}
	if opt.Halo < 0 || 2*opt.Halo >= t {
		return nil, fmt.Errorf("fullchip: halo %d must satisfy 0 ≤ 2·halo < tile %d", opt.Halo, t)
	}
	if len(opt.Stages) == 0 {
		return nil, fmt.Errorf("fullchip: no stages")
	}
	coreStep := t - 2*opt.Halo
	nx := (target.W + coreStep - 1) / coreStep
	ny := (target.H + coreStep - 1) / coreStep

	out := grid.NewMat(target.W, target.H)
	res := &Result{Mask: out, TilesTotal: nx * ny, TileSeconds: make([]float64, nx*ny)}

	// One option template shared by every tile; per-tile optimizers copy it.
	copts := core.DefaultOptions(opt.Sim)
	if opt.Configure != nil {
		opt.Configure(&copts)
	}
	copts.Sim = opt.Sim

	// The tile loop: each worker owns its tile's optimizer state end to end
	// and commits into a disjoint core region of the stitched mask, so no
	// synchronisation is needed beyond the pool join. Outcomes are recorded
	// per tile index and folded in row-major order afterwards, which keeps
	// tile accounting, timing stats and error reporting deterministic.
	type outcome struct {
		run     bool
		seconds float64
		err     error
	}
	outcomes := make([]outcome, nx*ny)
	start := time.Now()
	grid.ParallelFor(opt.Workers, nx*ny, func(idx int) {
		tx, ty := idx%nx, idx/nx
		// Tile origin in target coordinates (may be negative: the halo
		// of border tiles hangs off the layout; those pixels are dark).
		ox := tx*coreStep - opt.Halo
		oy := ty*coreStep - opt.Halo
		tile := extract(target, ox, oy, t)
		if opt.SkipEmpty && tile.Sum() == 0 {
			return
		}
		o, err := core.New(copts, tile)
		if err != nil {
			outcomes[idx].err = &TileError{TX: tx, TY: ty, Err: err}
			return
		}
		r, err := o.Run(context.Background(), opt.Stages)
		if err != nil {
			outcomes[idx].err = &TileError{TX: tx, TY: ty, Err: err}
			return
		}
		// Commit the core region (halo discarded).
		commit(out, r.Mask, ox+opt.Halo, oy+opt.Halo, opt.Halo, coreStep)
		outcomes[idx] = outcome{run: true, seconds: r.ILTSeconds}
	})
	res.WallSeconds = time.Since(start).Seconds()

	// Per-tile latency distribution, fed during the deterministic row-major
	// fold (nil recorder → nil histogram → no-op).
	hTile := opt.Recorder.Histogram("fullchip.tile", telemetry.HistDuration)
	for idx, oc := range outcomes {
		if oc.err != nil {
			return nil, oc.err
		}
		if oc.run {
			res.TilesRun++
			res.ILTSeconds += oc.seconds
			res.TileSeconds[idx] = oc.seconds
			hTile.ObserveDuration(time.Duration(oc.seconds * float64(time.Second)))
		}
		if opt.Recorder.Enabled() {
			opt.Recorder.Emit("tile", telemetry.Fields{
				"tx": idx % nx, "ty": idx / nx, "sec": oc.seconds, "skipped": !oc.run,
			})
		}
	}
	opt.Recorder.Emit("fullchip.end", telemetry.Fields{
		"tiles_total": res.TilesTotal, "tiles_run": res.TilesRun,
		"ilt_sec": res.ILTSeconds, "wall_sec": res.WallSeconds,
	})
	return res, nil
}

// extract copies a t×t window with top-left (ox, oy) out of m, zero-padding
// outside the image.
func extract(m *grid.Mat, ox, oy, t int) *grid.Mat {
	out := grid.NewMat(t, t)
	for y := 0; y < t; y++ {
		sy := oy + y
		if sy < 0 || sy >= m.H {
			continue
		}
		x0 := 0
		if ox < 0 {
			x0 = -ox
		}
		x1 := t
		if ox+t > m.W {
			x1 = m.W - ox
		}
		if x0 >= x1 {
			continue
		}
		copy(out.Data[y*t+x0:y*t+x1], m.Data[sy*m.W+ox+x0:sy*m.W+ox+x1])
	}
	return out
}

// commit writes the core region of a tile mask (starting at halo offset in
// tile coordinates, size step×step) into the output at (cx, cy), clipped to
// the output bounds.
func commit(out, tileMask *grid.Mat, cx, cy, halo, step int) {
	for y := 0; y < step; y++ {
		dy := cy + y
		if dy < 0 || dy >= out.H {
			continue
		}
		for x := 0; x < step; x++ {
			dx := cx + x
			if dx < 0 || dx >= out.W {
				continue
			}
			out.Data[dy*out.W+dx] = tileMask.Data[(halo+y)*tileMask.W+halo+x]
		}
	}
}
