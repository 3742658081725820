package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceStats summarizes a validated JSONL trace.
type TraceStats struct {
	Events       int
	Iters        int
	Tiles        int         // tile events seen (all sweeps)
	StageIters   map[int]int // stage index → iter and iter.nonfinite events seen
	StagesOpened map[int]int // stage index → budget from stage.start
	WallSec      float64     // from the run.end event (0 if absent)
	PhaseSec     float64     // summed phase seconds from the phases event
	Phases       int         // distinct phases reported
}

// Coverage is the fraction of the reported wall time accounted for by
// phase timers (0 when the trace carries no run.end event).
func (s *TraceStats) Coverage() float64 {
	if s.WallSec <= 0 {
		return 0
	}
	return s.PhaseSec / s.WallSec
}

// ValidateTrace checks a JSONL event stream against the schema emitted by
// the instrumented pipeline:
//
//   - every line is a JSON object with a string "event", an integer "seq"
//     strictly increasing from 1, and a non-decreasing numeric "ts";
//   - "stage.start" events carry stage/scale/iters, "iter" events carry
//     stage/iter/loss, "tile" events carry tx/ty;
//   - tile events form a gapless row-major sweep: the first tile is (0,0)
//     and each successor is either (ty, tx+1) or (ty+1, 0). A
//     "fullchip.end" event closes the sweep, so a trace may hold several
//     full-chip runs. This pins down the determinism contract the tiled
//     executor promises: tiles may run concurrently, but the trace must
//     read as if they ran serially;
//   - every stage opened by a stage.start with a positive budget is
//     covered by at least one iter event, or ended by an "iter.nonfinite"
//     event (stage/iter), which stops a run at the iteration that met a
//     non-finite loss or gradient.
//
// It returns aggregate stats so callers can apply run-level invariants
// (e.g. the phase-timer wall-clock coverage bound).
func ValidateTrace(r io.Reader) (*TraceStats, error) {
	stats := &TraceStats{StageIters: map[int]int{}, StagesOpened: map[int]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var lastSeq int64
	lastTS := -1.0
	lastTX, lastTY, haveTile := 0, 0, false
	sweepNX := 0 // learned at the first row wrap; 0 while still in row 0
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			return nil, fmt.Errorf("trace line %d: invalid JSON: %w", line, err)
		}
		name, ok := obj["event"].(string)
		if !ok || name == "" {
			return nil, fmt.Errorf("trace line %d: missing event name", line)
		}
		seqF, ok := obj["seq"].(float64)
		if !ok {
			return nil, fmt.Errorf("trace line %d (%s): missing seq", line, name)
		}
		seq := int64(seqF)
		if seq != lastSeq+1 {
			return nil, fmt.Errorf("trace line %d (%s): seq %d after %d (want contiguous, increasing)",
				line, name, seq, lastSeq)
		}
		lastSeq = seq
		ts, ok := obj["ts"].(float64)
		if !ok {
			return nil, fmt.Errorf("trace line %d (%s): missing ts", line, name)
		}
		if ts < lastTS {
			return nil, fmt.Errorf("trace line %d (%s): ts %g before %g", line, name, ts, lastTS)
		}
		lastTS = ts
		stats.Events++

		switch name {
		case "stage.start":
			stage, err := requireInt(obj, "stage", line, name)
			if err != nil {
				return nil, err
			}
			if _, err := requireInt(obj, "scale", line, name); err != nil {
				return nil, err
			}
			iters, err := requireInt(obj, "iters", line, name)
			if err != nil {
				return nil, err
			}
			stats.StagesOpened[stage] = iters
		case "iter":
			stage, err := requireInt(obj, "stage", line, name)
			if err != nil {
				return nil, err
			}
			if _, err := requireInt(obj, "iter", line, name); err != nil {
				return nil, err
			}
			if _, ok := obj["loss"].(float64); !ok {
				return nil, fmt.Errorf("trace line %d (iter): missing numeric loss", line)
			}
			stats.StageIters[stage]++
			stats.Iters++
		case "iter.nonfinite":
			stage, err := requireInt(obj, "stage", line, name)
			if err != nil {
				return nil, err
			}
			if _, err := requireInt(obj, "iter", line, name); err != nil {
				return nil, err
			}
			stats.StageIters[stage]++
		case "tile":
			tx, err := requireInt(obj, "tx", line, name)
			if err != nil {
				return nil, err
			}
			ty, err := requireInt(obj, "ty", line, name)
			if err != nil {
				return nil, err
			}
			switch {
			case !haveTile:
				if tx != 0 || ty != 0 {
					return nil, fmt.Errorf("trace line %d: sweep starts at tile (%d,%d), want (0,0)", line, tx, ty)
				}
			case ty == lastTY && tx == lastTX+1:
				if sweepNX > 0 && tx >= sweepNX {
					return nil, fmt.Errorf("trace line %d: tile (%d,%d) past row width %d", line, tx, ty, sweepNX)
				}
			case ty == lastTY+1 && tx == 0:
				if sweepNX == 0 {
					sweepNX = lastTX + 1
				} else if lastTX+1 != sweepNX {
					return nil, fmt.Errorf("trace line %d: row %d ended after %d tiles, want %d",
						line, lastTY, lastTX+1, sweepNX)
				}
			default:
				return nil, fmt.Errorf("trace line %d: tile (%d,%d) out of row-major order after (%d,%d)",
					line, tx, ty, lastTX, lastTY)
			}
			lastTX, lastTY, haveTile = tx, ty, true
			stats.Tiles++
		case "fullchip.end":
			if haveTile && sweepNX > 0 && lastTX+1 != sweepNX {
				return nil, fmt.Errorf("trace line %d: sweep ended mid-row at tile (%d,%d), row width is %d",
					line, lastTX, lastTY, sweepNX)
			}
			haveTile, sweepNX = false, 0 // the sweep is closed; a later run restarts at (0,0)
		case "run.end":
			if w, ok := obj["wall_sec"].(float64); ok {
				stats.WallSec = w
			}
		case "phases":
			// Sorted keys: float addition is order-sensitive, and map
			// iteration order must never leak into a reported number.
			keys := make([]string, 0, len(obj))
			for k := range obj {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				m, ok := obj[k].(map[string]any)
				if !ok || k == "counters" {
					continue
				}
				if sec, ok := m["sec"].(float64); ok {
					stats.PhaseSec += sec
					stats.Phases++
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if stats.Events == 0 {
		return nil, fmt.Errorf("trace is empty")
	}
	for stage, budget := range stats.StagesOpened {
		if budget > 0 && stats.StageIters[stage] == 0 {
			return nil, fmt.Errorf("stage %d opened with budget %d but produced no iter events", stage, budget)
		}
	}
	return stats, nil
}

func requireInt(obj map[string]any, key string, line int, event string) (int, error) {
	v, ok := obj[key].(float64)
	if !ok {
		return 0, fmt.Errorf("trace line %d (%s): missing numeric %q", line, event, key)
	}
	return int(v), nil
}
